"""Line-oriented instance file formats, and defender lists.

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

A defender list, the answer ``verify`` checks (``read_defenders``), has no
header and no comments: vertex numbers in any order, repeats allowed.  A UTF-8
file separates them by commas and by whitespace as ``str.split()`` reads it,
after an optional first token ``size=N`` that must give their count; the
``--defenders`` string by commas alone, each token read by ``int`` (``2,,3``
holds an empty, bad token; an empty or blank string lists none).  The answer
that ``solve`` and ``oracle`` print is such a file, written by
``write_answer``: ``size=N``, then one vertex per line.

Instance tokens are split on exactly the six ASCII whitespace characters: by
``str.split()`` on an all-ASCII file with none of 0x1c-0x1f, where it splits
on just those six, and by the ``_TOKEN`` regex on any other file.

Interval endpoints are read as integer pairs (num, den), with no Fraction
per token, and put on one common scale: each becomes num * (L / den) for
L = lcm of all the denominators (``defdom.pig.on_common_scale``).  Scaling
by one positive integer keeps every comparison between endpoints, so the
graph is exactly the one the rationals define.  Should L pass ``SCALE_BITS``
bits, the endpoints are made Fractions instead, equally exact.

The header words are read one regex search at a time; the payload, which
runs to the end of the file, is converted a slice of about ``_SLICE``
characters at a time, each slice cut at a separator, so no list of the
file's tokens is ever built for a ``pig`` or ``intervals`` file.  The slices
are converted with no ``_Reader`` method call and no message built per
token, and that pass accepts every form the grammar does (``+1``, ``1_0``,
non-ASCII digits, ``1/``, ``1/-2``, a negative bubble count as none).
Should any token be refused, or the token count differ from the header's,
the per-token loop runs instead only to name the first bad token, or
``done`` the trailing one; it is the only code that builds a diagnostic, so
every message and every byte offset is the one the grammar read token by
token gives.  The decoded text goes once the last diagnostic that needs it
has run, before the graph is built.

Parse failures raise FormatError carrying the byte offset of the offending
token.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from operator import gt

from .bubbles import CompactBubbles
from .errors import BadParameters, FormatError
from .pig import ProperIntervalGraph, on_common_scale

#: Tokens split on exactly ASCII whitespace, as a bytes ``\S+`` would;
#: ``str.split()`` would also split on NBSP, ``\x1c``-``\x1f``, U+2028 and more.
_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")
#: One of ``_TOKEN``'s six separators: where a payload slice is cut.
_SPACE = re.compile(r"[ \t\n\r\f\v]")
#: The only ASCII characters ``str.split()`` splits on that ``_TOKEN`` does not.
_ODD_SPACE = "\x1c\x1d\x1e\x1f"
_COMMENT = re.compile(rb"#[^\n]*")
#: Text is converted about this many characters at a time, each slice cut at a separator.
_SLICE = 4096
_COMMA = re.compile(",")
#: The bytes that are no defender-file separator (a comma, or ASCII whitespace as ``str.split()`` reads it).
_TOKEN_BYTES = bytes(b for b in range(256) if b not in b",\t\n\v\f\r\x1c\x1d\x1e\x1f ")


def _slices(text: str, sep: re.Pattern, start: int = 0):
    """``text[start:]`` in slices of about ``_SLICE`` characters.  Each ends
    just before the first one-character separator ``sep`` matches past that
    length, found by a search from its offset, so the slices split exactly as
    the whole text does and none copies more of it than its own characters."""
    while cut := sep.search(text, start + _SLICE):
        yield text[start : cut.start()]
        start = cut.end()
    yield text[start:]


class _Denominators(dict):
    """Denominator text to int; an empty text (no ``/``, or ``1/``) is 1."""

    def __missing__(self, text):
        den = self[text] = int(text or 1)
        return den


class _Reader:
    """The decoded file, and the offset ``pos`` just past the ``i`` tokens
    read so far.  Header words are found one ``_TOKEN.search`` at a time; the
    payload, the rest of the file, is split a slice at a time (``_payload``),
    so no list of the file's tokens is built.  A token's byte offset is
    recomputed, by one rescan, only for a diagnostic."""

    def __init__(self, data: bytes):
        try:  # comments are blanked byte for byte, so offsets stay put
            self.text = _COMMENT.sub(lambda m: b" " * len(m[0]), data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(exc.start, "invalid UTF-8") from None
        text = self.text
        self.plain = text.isascii() and not any(c in text for c in _ODD_SPACE)
        self.pos = self.i = 0

    def error(self, j, message) -> FormatError:
        """A FormatError at token j, or at the end of the file past the last token."""
        m = next(itertools.islice(_TOKEN.finditer(self.text), j, None), None)
        return FormatError(len(self.text[: m.start() if m else None].encode("utf-8")), message)

    def at_end(self) -> bool:
        return _TOKEN.search(self.text, self.pos) is None

    def next(self, what):
        m = _TOKEN.search(self.text, self.pos)
        if m is None:
            raise self.error(self.i, f"unexpected end of file, expected {what}")
        self.pos = m.end()
        self.i += 1
        return m[0]

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

    def _split(self, text):
        """The tokens of ``text``: ``str.split()`` on a plain file, ``_TOKEN.findall`` on any other."""
        return text.split() if self.plain else _TOKEN.findall(text)

    def _payload(self):
        """The tokens of the rest of the file, one list per slice (``_slices``)."""
        return map(self._split, _slices(self.text, _SPACE, self.pos))

    def _read_to_end(self, count):
        """Mark the rest of the file, ``count`` tokens, as read."""
        self.pos = len(self.text)
        self.i += count

    def integers(self, count, what):
        """The rest of the file, exactly ``count`` tokens, as ints, converted
        by ``map(int, ...)`` a slice at a time (``_payload``).

        A token ``int`` refuses, or a token count other than ``count``,
        sends the read back to the per-token loop, which names the first bad
        token, or to ``done``, which names a trailing one; ``what(t)``
        describes the t-th token (0-based) for its message.
        """
        out = []
        try:
            for tokens in self._payload():
                out += map(int, tokens)
        except ValueError:
            pass
        else:
            if len(out) == count:
                self._read_to_end(count)
                return out
        for t in range(count):
            self.integer(what(t))
        self.done()
        raise AssertionError("the bulk pass refused no integer")

    def rationals(self, count, what):
        """The rest of the file, exactly ``count`` tokens, as two lists,
        numerators and nonzero denominators, not reduced.

        One pass a slice at a time splits the tokens at their first ``/``,
        with no ``_Reader`` method call or message per token, and holds one
        token's parts at a time; each distinct denominator text is converted
        once, so equal denominators share one int, and a negative one keeps
        its sign (``on_common_scale`` takes either).  A
        refused token, a zero denominator, or a token count other than
        ``count`` sends the read back to the per-token ``rational`` loop and
        ``done``, as ``integers`` does.
        """
        nums, dens, den_of = [], [], _Denominators()
        try:
            for tokens in self._payload():
                for num, _, den in map(str.partition, tokens, itertools.repeat("/")):
                    nums.append(int(num))
                    dens.append(den_of[den])
        except ValueError:
            pass
        else:
            if len(nums) == count and 0 not in den_of.values():
                self._read_to_end(count)
                return nums, dens
        for t in range(count):
            self.rational(what(t))
        self.done()
        raise AssertionError("the bulk pass refused no rational")

    def columns(self, count):
        """The rest of the file, exactly ``count`` bubble columns, each ``col j
        cnt`` then cnt (row, size) pairs.

        The rest of the file is split whole: a compact file is small.  The
        ``col j cnt`` headers are walked first; then every (row, size) token
        is converted in one bulk ``map(int, ...)``, with no method call per
        token, and the ints are cut into columns by ``islice``.  A negative
        count is read as no bubbles, as the grammar reads it, and
        ``CompactBubbles`` names the empty column.  A wrong ``col j`` header,
        a token ``int`` refuses, or a token count other than the columns'
        sends the read back to the per-token loop, which names the first bad
        token, or to ``done``, which names a trailing one.
        """
        tokens = self._split(self.text[self.pos :])
        i, spans = 0, []
        try:
            for j in range(1, count + 1):
                if tokens[i] != "col" or int(tokens[i + 1]) != j:
                    raise ValueError
                stop = i + 3 + 2 * max(0, int(tokens[i + 2]))
                if stop > len(tokens):
                    raise ValueError
                spans.append(slice(i + 3, stop))
                i = stop
            if i != len(tokens):
                raise ValueError
            values = iter(list(map(int, itertools.chain.from_iterable(map(tokens.__getitem__, spans)))))
        except (ValueError, IndexError):
            pass
        else:
            self._read_to_end(i)
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
        self.done()
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
        """Reject a trailing token."""
        if m := _TOKEN.search(self.text, self.pos):
            raise self.error(self.i, f"trailing token '{m[0]}'")


def parse_instance(data: bytes):
    """Parse any instance format; returns ('pig'|'intervals'|'bubbles', payload).

    The payload is a ProperIntervalGraph for pig and intervals files, and a
    CompactBubbles for bubbles files.
    """
    rd = _Reader(data)
    del data  # the reader holds the decoded text, the one copy of the file kept
    if rd.at_end():
        raise FormatError(0, "empty file")
    head = rd.next("header")
    if head == "pig":
        n = rd.integer("vertex count")
        if n < 1:
            raise rd.error(0, "vertex count must be positive")
        rd.word("maxn")
        maxn = iter(rd.integers(n, lambda t: f"max neighbor of vertex {t + 1}"))
        del rd  # the text goes before the graph is built, the int list once its tuple is
        return "pig", ProperIntervalGraph(maxn)
    if head == "intervals":
        n = rd.integer("interval count")
        if n < 1:
            raise rd.error(0, "interval count must be positive")
        # token 2j - 2 of the payload is interval j's left endpoint, 2j - 1 its right one
        nums, dens = rd.rationals(2 * n, lambda t: f"{('left', 'right')[t % 2]} endpoint {t // 2 + 1}")
        ends = on_common_scale(nums, dens)
        del nums, dens
        above = map(gt, itertools.islice(ends, 0, None, 2), itertools.islice(ends, 1, None, 2))
        for j in itertools.compress(itertools.count(1), above):
            # the first reversed interval; token 2j of the file is its left endpoint
            raise rd.error(2 * j, f"interval {j} has left endpoint above right endpoint")
        pairs = iter(ends)
        del rd, ends, above  # the text goes here, the list as from_intervals reads the last pair
        return "intervals", ProperIntervalGraph.from_intervals(zip(pairs, pairs))
    if head == "bubbles":
        c = rd.integer("column count")
        if c < 1:
            raise rd.error(0, "column count must be positive")
        return "bubbles", CompactBubbles(rd.columns(c))
    if head.startswith("\ufeff"):
        raise FormatError(0, "the file starts with a UTF-8 byte-order mark (U+FEFF); save it without one")
    raise rd.error(0, f"unknown header '{head}' (expected pig, intervals, or bubbles)")


def read_defenders(source, n: int) -> list[int]:
    """``source``, the ``--defenders`` string or a binary defenders file, as
    ascending ints, repeats kept.  Each slice (a string cut at commas, a file
    read ``_SLICE`` bytes at a time) is sorted and range-checked at its two
    ends; the first that fails names its first fault in input order, and the
    rest is only counted, so a wrong ``size=N`` is named first.  Faults raise
    BadParameters."""
    if isinstance(source, str):  # an empty or all-whitespace string has no slice
        slices = _slices(source, _COMMA) if source and not source.isspace() else ()
        split, header = lambda text: text.split(","), False
    else:
        slices, split, header = _utf8_slices(source), lambda text: text.replace(",", " ").split(), True
    out, size, count, fault, ordered = [], None, 0, None, True
    for tokens in map(split, slices):
        if header and size is None and not count and tokens and tokens[0].startswith("size="):
            size = tokens.pop(0)[5:]  # the file's first token
        count += len(tokens)
        if fault is None and tokens:
            try:
                vals = sorted(map(int, tokens))
            except ValueError:
                vals = None
            if vals is None or vals[0] < 1 or vals[-1] > n:
                fault, out = _first_fault(tokens, n), None
            else:
                tokens.clear()  # the strings go before the list grows
                ordered = ordered and (not out or out[-1] <= vals[0])
                out += vals
            del vals  # before the next slice is split, as is the token list
        del tokens
    if size is not None and size != str(count):
        raise BadParameters(f"defenders file says size={size} but lists {count} vertices")
    if fault is not None:
        raise BadParameters(fault)
    if not ordered:
        out.sort()
    return out


def _first_fault(tokens, n: int) -> str:
    """The message for the first token that is no vertex number or lies outside 1..n."""
    for token in tokens:
        try:
            v = int(token)
        except ValueError:
            return f"defender {token.strip()!r} is not a vertex number"
        if not 1 <= v <= n:
            return f"defender {v} outside 1..{n}"


def _utf8_slices(fh):
    """The binary file ``fh`` decoded a slice at a time: each read of ``_SLICE``
    bytes is cut past its last separator byte, so no token or character is cut,
    and bad UTF-8 fails at the bytes and for the reason one whole decode gives."""
    offset, rest, chunk = 0, b"", b"-"
    while chunk:
        chunk = fh.read(_SLICE)
        data = rest + chunk
        cut = len(data.rstrip(_TOKEN_BYTES)) if chunk else len(data)
        try:
            yield data[:cut].decode("utf-8")
        except UnicodeDecodeError as exc:
            at, last = offset + exc.start, offset + exc.end - 1
            where = f"byte 0x{data[exc.start]:02x} in position {at}" if at == last else f"bytes in position {at}-{last}"
            raise BadParameters(f"'utf-8' codec can't decode {where}: {exc.reason}") from None
        offset, rest = offset + cut, data[cut:]


#: Answer lines formatted into one string per write: few writes, a bounded buffer.
_ANSWER_CHUNK = 1024


def write_answer(out, vertices) -> None:
    """Write ``vertices`` to the text stream ``out`` as an answer file:
    ``size=N``, then one vertex per line, ``_ANSWER_CHUNK`` lines per write."""
    out.write(f"size={len(vertices)}\n")
    for i in range(0, len(vertices), _ANSWER_CHUNK):
        chunk = tuple(vertices[i : i + _ANSWER_CHUNK])
        out.write("%d\n" * len(chunk) % chunk)


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
