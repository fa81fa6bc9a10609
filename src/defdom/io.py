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

Tokens are split on exactly the six ASCII whitespace characters: by
``str.split()`` on an all-ASCII file with none of 0x1c-0x1f, where it splits
on just those six, and by the ``_TOKEN`` regex on any other file.

Interval endpoints are read as integer pairs (num, den), with no Fraction
per token, and put on one common scale: each becomes num * (L / den) for
L = lcm of all the denominators (``defdom.pig.on_common_scale``).  Scaling
by one positive integer keeps every comparison between endpoints, so the
graph is exactly the one the rationals define.  Should L pass ``SCALE_BITS``
bits, the endpoints are made Fractions instead, equally exact.

The payload tokens of every format are converted in bulk: all of them in one
pass, with no ``_Reader`` method call and no message built per token, and
the bulk pass accepts every form the grammar does (``+1``, ``1_0``,
non-ASCII digits, ``1/``, ``1/-2``, a negative bubble count as none).
Should any token be refused, or the file end first, the per-token loop runs
instead only to name the first bad token; it is the only code that builds a
diagnostic, so every message and every byte offset is the one the grammar
read token by token gives.

Parse failures raise FormatError carrying the byte offset of the offending
token.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from operator import gt

from .bubbles import CompactBubbles
from .errors import FormatError
from .pig import ProperIntervalGraph, on_common_scale

#: Tokens split on exactly ASCII whitespace, as a bytes ``\S+`` would;
#: ``str.split()`` would also split on NBSP, ``\x1c``-``\x1f``, U+2028 and more.
_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")
#: The only ASCII characters ``str.split()`` splits on that ``_TOKEN`` does not.
_ODD_SPACE = "\x1c\x1d\x1e\x1f"
_COMMENT = re.compile(rb"#[^\n]*")


class _Denominators(dict):
    """Denominator text to int; an empty text (no ``/``, or ``1/``) is 1."""

    def __missing__(self, text):
        den = self[text] = int(text or 1)
        return den


class _Reader:
    """The file's tokens as plain strings, split once; a token's byte offset is
    recomputed, by one rescan, only for a diagnostic."""

    def __init__(self, data: bytes):
        try:  # comments are blanked byte for byte, so offsets stay put
            self.text = _COMMENT.sub(lambda m: b" " * len(m[0]), data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(exc.start, "invalid UTF-8") from None
        text = self.text
        plain = text.isascii() and not any(c in text for c in _ODD_SPACE)
        self.tokens = text.split() if plain else _TOKEN.findall(text)
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

    def integers(self, count, what):
        """The next ``count`` tokens as ints, converted in one bulk ``map(int, ...)``.

        A token ``int`` refuses, or a file that ends first, sends the read
        back to the per-token loop, which names the first bad token;
        ``what(t)`` describes the t-th token (0-based) for its message.
        """
        stop = self.i + count
        if stop <= len(self.tokens):
            try:
                out = list(map(int, itertools.islice(self.tokens, self.i, stop)))
            except ValueError:
                pass
            else:
                self.i = stop
                return out
        for t in range(count):
            self.integer(what(t))
        raise AssertionError("the bulk pass refused no integer")

    def rationals(self, count, what):
        """The next ``count`` tokens as two lists, numerators and nonzero denominators, not reduced.

        One pass splits the tokens at their first ``/``, with no method call
        or message per token; each distinct denominator text is converted
        once, so equal denominators share one int, and a negative one keeps
        its sign (``on_common_scale`` takes either).  A refused token, a zero
        denominator, or a file that ends first sends the read back to the
        per-token ``rational`` loop, as ``integers`` does.
        """
        stop = self.i + count
        if stop <= len(self.tokens):
            nums, dens, den_of = [], [], _Denominators()
            parts = map(str.partition, itertools.islice(self.tokens, self.i, stop), itertools.repeat("/"))
            try:
                for num, _, den in parts:
                    nums.append(int(num))
                    dens.append(den_of[den])
            except ValueError:
                pass
            else:
                if 0 not in den_of.values():
                    self.i = stop
                    return nums, dens
        for t in range(count):
            self.rational(what(t))
        raise AssertionError("the bulk pass refused no rational")

    def columns(self, count):
        """The next ``count`` bubble columns, ``col j cnt`` then cnt (row, size) pairs.

        The ``col j cnt`` headers are walked first; then every (row, size)
        token is converted in one bulk ``map(int, ...)``, with no method call
        per token, and the ints are cut into columns by ``islice``.  A
        negative count is read as no bubbles, as the grammar reads it, and
        ``CompactBubbles`` names the empty column.  A wrong ``col j`` header,
        a token ``int`` refuses or a file that ends first sends the read back
        to the per-token loop, which names the first bad token.
        """
        tokens, i, spans = self.tokens, self.i, []
        try:
            for j in range(1, count + 1):
                if tokens[i] != "col" or int(tokens[i + 1]) != j:
                    raise ValueError
                stop = i + 3 + 2 * max(0, int(tokens[i + 2]))
                if stop > len(tokens):
                    raise ValueError
                spans.append(slice(i + 3, stop))
                i = stop
            values = iter(list(map(int, itertools.chain.from_iterable(map(tokens.__getitem__, spans)))))
        except (ValueError, IndexError):
            pass
        else:
            self.i = i
            out = []
            for span in spans:
                pairs = itertools.islice(values, span.stop - span.start)
                out.append(list(zip(pairs, pairs)))
            return out
        for j in range(1, count + 1):
            self.word("col")
            got = self.integer("column index")
            if got != j:
                raise self.error(self.i - 1, f"expected column {j}, got {got}")
            for _ in range(self.integer("bubble count")):
                self.integer("row")
                self.integer("size")
        raise AssertionError("the bulk pass refused no column")

    def rational(self, what):
        """Check the next token is a rational ``num``, ``num/`` or ``num/den`` with den != 0."""
        text = self.next(what)
        num, _, den = text.partition("/")
        try:
            int(num)
            if int(den or 1):
                return
        except ValueError:
            pass  # reported just as a zero denominator is
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
    del data  # the reader holds the decoded text, the one copy of the file kept
    if not rd.tokens:
        raise FormatError(0, "empty file")
    head = rd.next("header")
    if head == "pig":
        n = rd.integer("vertex count")
        if n < 1:
            raise rd.error(0, "vertex count must be positive")
        rd.word("maxn")
        maxn = rd.integers(n, lambda t: f"max neighbor of vertex {t + 1}")
        rd.done()
        return "pig", ProperIntervalGraph(maxn)
    if head == "intervals":
        n = rd.integer("interval count")
        if n < 1:
            raise rd.error(0, "interval count must be positive")
        # token 2j - 2 of the payload is interval j's left endpoint, 2j - 1 its right one
        nums, dens = rd.rationals(2 * n, lambda t: f"{('left', 'right')[t % 2]} endpoint {t // 2 + 1}")
        rd.done()
        ends = on_common_scale(nums, dens)
        del nums, dens
        above = map(gt, itertools.islice(ends, 0, None, 2), itertools.islice(ends, 1, None, 2))
        for j in itertools.compress(itertools.count(1), above):
            # the first reversed interval; token 2j of the file is its left endpoint
            raise rd.error(2 * j, f"interval {j} has left endpoint above right endpoint")
        pairs = iter(ends)
        del ends, above  # the list goes as from_intervals reads the last pair
        return "intervals", ProperIntervalGraph.from_intervals(zip(pairs, pairs))
    if head == "bubbles":
        c = rd.integer("column count")
        if c < 1:
            raise rd.error(0, "column count must be positive")
        columns = rd.columns(c)
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
