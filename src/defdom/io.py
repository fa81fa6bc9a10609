"""Line-oriented instance file formats.

Three UTF-8 formats, distinguished by their header word; ``#`` starts a
comment anywhere on a line.

    pig <n>
    maxn <m1> ... <mn>

    intervals <n>
    <left_num>/<left_den> <right_num>/<right_den>     (one line per vertex,
                                                       denominator optional)

    bubbles <c>
    col <j> <count>
    <row> <size>                                      (count lines per column)

Interval endpoints are read as integer pairs (num, den), with no Fraction
per token, and put on one common scale: each becomes num * (L / den) for
L = lcm of all the denominators (``defdom.pig.common_scale``).  Scaling by
one positive integer keeps every comparison between endpoints, so the graph
is exactly the one the rationals define.  Should L pass ``SCALE_BITS`` bits,
the endpoints are made Fractions instead, equally exact.

Parse failures raise FormatError carrying the byte offset of the offending
token.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .bubbles import CompactBubbles
from .errors import FormatError
from .pig import ProperIntervalGraph, common_scale

#: Tokens split on exactly ASCII whitespace, as a bytes ``\S+`` would;
#: ``str.split()`` would also split on NBSP, ``\x1c``-``\x1f``, U+2028 and more.
_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")
_COMMENT = re.compile(rb"#[^\n]*")


class _Reader:
    """The file's tokens as plain strings, split once; a token's byte offset is
    recomputed, by one rescan, only for a diagnostic."""

    def __init__(self, data: bytes):
        try:  # comments are blanked byte for byte, so offsets stay put
            self.text = _COMMENT.sub(lambda m: b" " * len(m[0]), data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(exc.start, "invalid UTF-8") from None
        self.tokens = _TOKEN.findall(self.text)
        self.i = 0

    def error(self, j, message) -> FormatError:
        """A FormatError at token j, or at the end of the file past the last token."""
        m = next(itertools.islice(_TOKEN.finditer(self.text), j, None), None)
        return FormatError(len(self.text[: m.start() if m else None].encode("utf-8")), message)

    def next(self, what):
        if self.i >= len(self.tokens):
            raise self.error(self.i, f"unexpected end of file, expected {what}")
        self.i += 1
        return self.tokens[self.i - 1]

    def word(self, expected):
        text = self.next(f"'{expected}'")
        if text != expected:
            raise self.error(self.i - 1, f"expected '{expected}', got '{text}'")

    def integer(self, what):
        text = self.next(what)
        try:
            return int(text)
        except ValueError:
            raise self.error(self.i - 1, f"expected integer {what}, got '{text}'") from None

    def rational(self, what):
        """The next token as an integer pair (num, den) with den > 0, not reduced."""
        text = self.next(what)
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:
            den = 0  # reported just as a zero denominator is
        if den > 0:
            return num, den
        if den < 0:
            return -num, -den
        raise self.error(self.i - 1, f"expected rational {what}, got '{text}'")

    def done(self):
        """Reject a trailing token, then free the tokens before the payload is built."""
        if self.i < len(self.tokens):
            raise self.error(self.i, f"trailing token '{self.tokens[self.i]}'")
        self.tokens = None


def parse_instance(data: bytes):
    """Parse any instance format; returns ('pig'|'intervals'|'bubbles', payload).

    The payload is a ProperIntervalGraph for pig and intervals files, and a
    CompactBubbles for bubbles files.
    """
    rd = _Reader(data)
    if not rd.tokens:
        raise FormatError(0, "empty file")
    head = rd.next("header")
    if head == "pig":
        n = rd.integer("vertex count")
        if n < 1:
            raise rd.error(0, "vertex count must be positive")
        rd.word("maxn")
        maxn = [rd.integer(f"max neighbor of vertex {j}") for j in range(1, n + 1)]
        rd.done()
        return "pig", ProperIntervalGraph(maxn)
    if head == "intervals":
        n = rd.integer("interval count")
        if n < 1:
            raise rd.error(0, "interval count must be positive")
        nums, dens = [], []  # left, right, left, right, ...
        for j in range(1, n + 1):
            for side in ("left", "right"):
                num, den = rd.rational(f"{side} endpoint {j}")
                nums.append(num)
                dens.append(den)
        rd.done()
        scale = common_scale(dens)
        if scale is None:
            ends = [Fraction(num, den) for num, den in zip(nums, dens)]
        else:
            ends = [num * (scale // den) for num, den in zip(nums, dens)]
        del nums, dens
        for j in range(1, n + 1):
            if ends[2 * j - 2] > ends[2 * j - 1]:  # token 2j is interval j's left endpoint
                raise rd.error(2 * j, f"interval {j} has left endpoint above right endpoint")
        pairs = iter(ends)
        return "intervals", ProperIntervalGraph.from_intervals(zip(pairs, pairs))
    if head == "bubbles":
        c = rd.integer("column count")
        if c < 1:
            raise rd.error(0, "column count must be positive")
        columns = []
        for j in range(1, c + 1):
            rd.word("col")
            got = rd.integer("column index")
            if got != j:
                raise rd.error(rd.i - 1, f"expected column {j}, got {got}")
            cnt = rd.integer("bubble count")
            col = []
            for _ in range(cnt):
                row = rd.integer("row")
                size = rd.integer("size")
                col.append((row, size))
            columns.append(col)
        rd.done()
        return "bubbles", CompactBubbles(columns)
    raise rd.error(0, f"unknown header '{head}' (expected pig, intervals, or bubbles)")


def format_pig(g: ProperIntervalGraph) -> str:
    return f"pig {g.n}\nmaxn {' '.join(str(m) for m in g.maxn[1:])}\n"


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_intervals(entries) -> str:
    lines = [f"intervals {len(entries)}"]
    for left, right in entries:
        lines.append(f"{_frac(Fraction(left))} {_frac(Fraction(right))}")
    return "\n".join(lines) + "\n"


def format_bubbles(cb: CompactBubbles) -> str:
    lines = [f"bubbles {len(cb.columns)}"]
    for j, col in enumerate(cb.columns, start=1):
        lines.append(f"col {j} {len(col)}")
        for row, size in col:
            lines.append(f"{row} {size}")
    return "\n".join(lines) + "\n"
