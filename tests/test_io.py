import io
import itertools
import math
import tracemalloc
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defdom.io
import defdom.pig
from defdom import CompactBubbles, DefdomError, FormatError, ProperIntervalGraph, gen_family
from defdom.cli import run
from defdom.generators import UNIT, random_unit_intervals
from defdom.io import _Reader, format_bubbles, format_intervals, format_pig, parse_instance
from defdom.pig import SCALE_BITS, common_scale, on_common_scale
from helpers import (
    outcome,
    reference_parse_bubbles,
    reference_parse_intervals,
    reference_parse_pig,
    reference_tokenize,
)

# Derandomized and without an example database, so every run checks the same
# examples and writes no .hypothesis/ directory.
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Token soup: header words, integers, rationals, words, whitespace that is
# not a separator (NBSP, \x1c-\x1f, NEL, U+2028, U+3000) and invalid UTF-8,
# between separators that include CRLF, \x0b, \x0c and comments.  The ASCII
# ones among them send an all-ASCII file down the regex tokenizer.
PIECES = st.sampled_from([
    b"pig", b"intervals", b"bubbles", b"maxn", b"col", b"0", b"1", b"2", b"3", b"5", b"-1", b"3/2", b"1/0",
    b"x", "\u0661\u0662".encode(), b"\xc2\xa0", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\xc2\x85",
    b"\xe2\x80\xa8", "\u3000".encode(), b"\xff", b"\xc3", b"\xc3\xa9",
])
SEPARATORS = st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"\x0b", b"\x0c", b" # c\n", b"#\xff\xc3\n", b"#"])


@st.composite
def instance_shaped(draw):
    """A header, its count and that many entries, each token sometimes swapped for a random piece."""
    kind = draw(st.sampled_from(["pig", "intervals", "bubbles"]))
    n = draw(st.integers(1, 4))
    number = st.integers(-1, 6).map(str)
    if kind == "pig":
        body = ["maxn", *draw(st.lists(number, min_size=n, max_size=n))]
    elif kind == "intervals":
        rational = number | st.builds("{}/{}".format, st.integers(-1, 12), st.integers(1, 3))
        body = draw(st.lists(rational, min_size=2 * n, max_size=2 * n))
    else:
        body = [t for j in range(1, n + 1) for t in ("col", str(j), "1", draw(number), draw(number))]
    out = b""
    for token in (kind, str(n), *body):
        piece = draw(PIECES) if draw(st.integers(0, 19)) == 0 else token.encode()
        out += piece + draw(SEPARATORS)
    return out


SOUP = st.lists(st.tuples(PIECES, SEPARATORS), max_size=16).map(lambda ps: b"".join(a + b for a, b in ps))
FILES = st.one_of(
    st.binary(max_size=64),
    SOUP,
    instance_shaped(),
    st.tuples(instance_shaped(), st.integers(0, 40)).map(lambda t: t[0][: t[1]]),  # truncated
    st.tuples(instance_shaped(), st.binary(max_size=4)).map(b"".join),
)


def test_pig_roundtrip():
    g = ProperIntervalGraph([2, 3, 3])
    text = format_pig(g)
    assert text == "pig 3\nmaxn 2 3 3\n"
    kind, parsed = parse_instance(text.encode())
    assert kind == "pig" and parsed == g


def test_intervals_roundtrip():
    entries = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3, 2))]
    text = format_intervals(entries)
    assert text == "intervals 2\n0 1\n1/2 3/2\n"
    kind, parsed = parse_instance(text.encode())
    assert kind == "intervals" and parsed == ProperIntervalGraph([2, 2])


def test_bubbles_roundtrip():
    cb = CompactBubbles([[(1, 1), (2, 2)], [(1, 1)]])
    text = format_bubbles(cb)
    kind, parsed = parse_instance(text.encode())
    assert kind == "bubbles" and parsed == cb


@pytest.mark.parametrize("count", [0, 1, defdom.io._ANSWER_CHUNK, defdom.io._ANSWER_CHUNK + 1])
def test_written_answer_reads_back(count):
    """``write_answer`` writes the file ``read_defenders`` reads: ``size=N``,
    then one vertex per line, across a write chunk's edge."""
    vertices = list(range(3, 3 + 2 * count, 2))
    out = io.StringIO()
    defdom.io.write_answer(out, vertices)
    text = out.getvalue()
    assert text == f"size={count}\n" + "".join(f"{v}\n" for v in vertices)
    assert defdom.io.read_defenders(io.BytesIO(text.encode()), 3 + 2 * count) == vertices


def test_comments_and_whitespace():
    text = b"# instance\npig 3   # three vertices\nmaxn 2 3 3\n"
    kind, parsed = parse_instance(text)
    assert parsed == ProperIntervalGraph([2, 3, 3])


def test_error_offsets():
    with pytest.raises(FormatError) as exc:
        parse_instance(b"pig x\nmaxn 1\n")
    assert exc.value.offset == 4  # the 'x'
    with pytest.raises(FormatError) as exc:
        parse_instance(b"pig 2\nmaxn 2 zz\n")
    assert exc.value.offset == 13  # the 'zz'
    with pytest.raises(FormatError) as exc:
        parse_instance(b"nonsense 1\n")
    assert exc.value.offset == 0
    with pytest.raises(FormatError) as exc:
        parse_instance(b"")
    assert exc.value.offset == 0
    with pytest.raises(FormatError) as exc:
        parse_instance(b"intervals 2\n0 1\n3/2 1\n")
    assert exc.value.offset == 16  # interval 2's left endpoint
    assert str(exc.value) == "byte 16: interval 2 has left endpoint above right endpoint"


def test_truncation_reports_file_end():
    data = b"pig 3\nmaxn 2 3"
    with pytest.raises(FormatError) as exc:
        parse_instance(data + b"\n")
    assert exc.value.offset == len(data) + 1


def test_ascii_separator_lookalike_stays_inside_its_token():
    """The unit separator, 0x1f, is ASCII and ``str.split()`` whitespace but no separator: its token stays whole."""
    with pytest.raises(FormatError) as exc:
        parse_instance(b"pig 2\nmaxn 2\x1f2 2\n")
    assert exc.value.offset == 11
    assert str(exc.value) == "byte 11: expected integer max neighbor of vertex 1, got '2\x1f2'"


def test_trailing_tokens_rejected():
    with pytest.raises(FormatError):
        parse_instance(b"pig 1\nmaxn 1 7\n")


def test_bubbles_column_index_checked():
    with pytest.raises(FormatError):
        parse_instance(b"bubbles 2\ncol 1 1\n1 1\ncol 3 1\n1 1\n")


def test_rational_denominator_optional():
    kind, g = parse_instance(b"intervals 2\n0/1 1\n1 2\n")
    assert g.n == 2


#: Payload slice lengths the readers are checked at: every cut a tiny file
#: can have, and the default, at which a small file is one slice.
SLICE_LENGTHS = [1, 2, 3, 5, 7, defdom.io._SLICE]


@FUZZ
@given(FILES, st.sampled_from(SLICE_LENGTHS))
def test_reader_matches_reference_tokenizer(data, width):
    """Same tokens, read one by one and a slice at a time, per-token offsets,
    end-of-file offset and UTF-8 error as the line-by-line reference."""
    try:
        ref = reference_tokenize(data)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _Reader(data)
        assert (got.value.offset, str(got.value)) == (exc.offset, str(exc))
        return
    rd = _Reader(data)
    want = [text for text, _ in ref]
    with patch.object(defdom.io, "_SLICE", width):
        assert list(itertools.chain.from_iterable(rd._payload())) == want
    assert rd.at_end() == (not want)
    assert [rd.next("token") for _ in want] == want and rd.at_end()
    offsets = [rd.error(j, "").offset for j in range(len(ref) + 1)]
    assert offsets == [off for _, off in ref] + [len(data)]


@FUZZ
@given(FILES)
def test_any_bytes_parse_or_fail_with_a_diagnostic(tmp_path_factory, data):
    """Bytes parse or raise a DefdomError, a FormatError within the file; solve exits 0 or 2 with one line."""
    try:
        parse_instance(data)
    except FormatError as exc:
        assert 0 <= exc.offset <= len(data), (data, exc)
    except DefdomError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzz-instance"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    code = run(["solve", "--input", str(path), "--k", "2"], out=out, err=err)
    if code != 0:
        assert code == 2 and out.getvalue() == "", (data, code)
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (data, err.getvalue())


def _primes(count):
    """The first ``count`` primes, by a sieve."""
    top = 16
    while True:
        sieve = bytearray([1]) * top
        sieve[:2] = b"\0\0"
        for p in range(2, int(top**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top, p)))
        primes = [p for p in range(top) if sieve[p]]
        if len(primes) >= count:
            return primes[:count]
        top *= 2


#: Denominators for the differential corpus: small, unreduced-friendly ones,
#: perfbench's 10^6, Mersenne primes, and powers on both sides of the scale
#: budget (2^255 fits SCALE_BITS alone, 3*2^255 and 2^256 and 3^170 do not).
DENS = [1, 2, 3, 4, 6, 7, UNIT, 2**61 - 1, 2**127 - 1, 2**255, 2**256, 3**170]
JUNK = ["1/0", "0/0", "x", "/2", "1/2/3", "1.5", "--1", "1/+-2", "١/٠"]
DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def endpoint_token(draw, value: Fraction) -> str:
    """One of the spellings the reader accepts for ``value``."""
    p, q = value.numerator, value.denominator
    m = draw(st.sampled_from([1, 1, 2, 3]))  # unreduced 2/4 and the like
    form = draw(st.integers(0, 5))
    if form == 0 and q == 1:
        return str(p)
    if form == 1 and q == 1:
        return draw(st.sampled_from([f"{p}/", f"+{p}" if p >= 0 else str(p), f"{p}/1"]))
    if form == 2:
        return f"{-p * m}/{-q * m}"  # negative denominator
    if form == 3:
        text = f"{p * m}/{q * m}"
        return text.translate(DIGITS) if draw(st.booleans()) else text.replace("1", "1_0", 1)
    return f"{p * m}/{q * m}"


@st.composite
def intervals_file(draw) -> bytes:
    """A near-proper intervals file: equal-length intervals, some tokens or counts broken.

    Equal lengths make the family proper, with touching, equal and
    crossing intervals; a swapped endpoint or junk token then brings in
    reversed and nested intervals and reader errors.
    """
    n = draw(st.integers(1, 6))
    den = draw(st.sampled_from(DENS))
    second = draw(st.sampled_from(DENS))
    length = Fraction(draw(st.integers(0, 2 * den)), den)
    values = []
    for _ in range(n):
        offset = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([den, second])))
        left = draw(st.integers(-3, 3)) + offset
        values += [left, left + length]
    tokens = [draw(endpoint_token(v)) for v in values]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(tokens) - 1))
        if draw(st.integers(0, 2)) == 0:
            tokens[i] = draw(st.sampled_from(JUNK))
        else:
            tokens[i] = draw(endpoint_token(Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from(DENS)))))
    count = n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    lines = [f"intervals {count}"] + [f"{a} {b}" for a, b in zip(tokens[::2], tokens[1::2])]
    return ("\n".join(lines) + "\n").encode()


def _parse_graph(data):
    return parse_instance(data)[1]


def _assert_reference_outcome(parse, reference, data):
    """``parse`` gives ``reference``'s graph, or its error class, message and
    byte offset, at every payload slice length."""
    want = outcome(reference, data)
    for width in SLICE_LENGTHS:
        with patch.object(defdom.io, "_SLICE", width):
            assert outcome(parse, data) == want, (width, data)


INTERVALS_TEXTS = [
    "intervals 2\n0 1\n1 2\n",  # touching
    "intervals 3\n0 1\n0/5 2/2\n1 2\n",  # equal, unreduced
    "intervals 2\n0 3\n1 2\n",  # nested
    "intervals 2\n1/-2 1\n-1/2 1/1\n",  # negative denominator, equal
    "intervals 2\n1/ 2\n1_0 +12\n",  # '1/' is 1; digit separators and a plus sign
    "intervals 1\n\u0661 \u0662\n",  # non-ASCII digits
    "intervals 2\n0 1\n3/2 1\n",  # reversed, at interval 2's left endpoint
    "intervals 2\n0 1/0\n1 2\n",  # zero denominator
    "intervals 2\n0 1\n1 2 3\n",  # trailing token
    "intervals 2\n0 1\n1\n",  # truncated
    f"intervals 2\n0 1/{2**255}\n1/{2**256} 1\n",  # L above the budget
]


@pytest.mark.parametrize("text", INTERVALS_TEXTS)
def test_intervals_match_fraction_reference(text):
    _assert_reference_outcome(_parse_graph, reference_parse_intervals, text.encode())


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(intervals_file())
def test_intervals_differential_against_fraction_reference(data):
    """Same graph, or the same error class, message and byte offset, as one Fraction per token."""
    _assert_reference_outcome(_parse_graph, reference_parse_intervals, data)


@st.composite
def pig_file(draw) -> bytes:
    """A near-valid pig file: a max-neighbor sequence in the integer spellings
    ``int`` accepts, with some tokens, values or the count broken."""
    n = draw(st.integers(1, 8))
    maxn, prev = [], 1
    for j in range(1, n + 1):
        prev = draw(st.integers(max(prev, j), n))
        maxn.append(prev)
    tokens = []
    for m in maxn:
        form = draw(st.integers(0, 5))
        if form == 1:
            tokens.append(f"+{m}")
        elif form == 2:
            tokens.append(f"0{m}")
        elif form == 3:
            tokens.append(str(m).translate(DIGITS))
        elif form == 4:
            tokens.append(f"{m}_0" if m % 10 == 0 and m else f"{m // 10}_{m % 10}")
        else:
            tokens.append(str(m))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, n - 1))
        tokens[i] = draw(st.sampled_from(["x", "1/2", "1.5", "--1", "1__0", "_1", "0", "-1", str(n + 1), "\u0661/"]))
    count = n + draw(st.sampled_from([0, 0, 0, 0, -1, 1, 3]))
    sep = draw(st.sampled_from([" ", "\n", " # c\n", "\t"]))
    return f"pig {count}\nmaxn {sep.join(tokens)}\n".encode()


PIG_TEXTS = [
    "pig 10\nmaxn +2 3 4 5 6 7 8 9 1_0 10\n",  # a plus sign and a digit separator
    "pig 2\nmaxn \u0662 \u0662\n",  # non-ASCII digits
    "pig 3\nmaxn x 3 3\n",  # a bad token first,
    "pig 3\nmaxn 2 x 3\n",  # in the middle
    "pig 3\nmaxn 2 3 x\n",  # and last
    "pig 3\nmaxn 9 x 3\n",  # a token the range check refuses, then one int refuses
    "pig 4\nmaxn 2 3 3\n",  # the count above the number of tokens
    "pig 3\nmaxn 2 3 1\n",  # a decreasing sequence
]


@pytest.mark.parametrize("text", PIG_TEXTS)
def test_pig_match_per_token_reference(text):
    _assert_reference_outcome(_parse_graph, reference_parse_pig, text.encode())


def test_pig_count_below_tokens_is_a_trailing_token():
    data = b"pig 2\nmaxn 2 2 3\n"
    assert outcome(_parse_graph, data) == outcome(reference_parse_pig, data)
    with pytest.raises(FormatError, match="trailing token '3'"):
        parse_instance(data)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(pig_file())
def test_pig_differential_against_per_token_reference(data):
    """Same graph, or the same error class, message and byte offset, as one ``integer`` call per token."""
    _assert_reference_outcome(_parse_graph, reference_parse_pig, data)


@st.composite
def bubbles_file(draw):
    """A bubbles file of up to 5 columns, sometimes with a bad token, a wrong
    column header or bubble count, or a column count off by one."""
    c = draw(st.integers(1, 5))
    rows = st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True).map(sorted)
    cols = [[(r, draw(st.integers(1, 99))) for r in draw(rows)] for _ in range(c)]
    lines = [["bubbles", str(c + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))]]
    for j, col in enumerate(cols, start=1):
        lines.append(["col", str(j), str(len(col))])
        lines.extend([str(r), str(s)] for r, s in col)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        line = draw(st.sampled_from(lines[1:]))
        i = draw(st.integers(0, len(line) - 1))
        line[i] = draw(st.sampled_from(["x", "col", "1/2", "-1", "0", "+3", "1_0", "\u0663", "99999"]))
    sep = draw(st.sampled_from([" ", "\n", " # c\n", "\t"]))
    return "\n".join(sep.join(line) for line in lines).encode() + b"\n"


def _parse_bubbles(data):
    kind, payload = parse_instance(data)
    assert kind == "bubbles"
    return payload


BUBBLES_TEXTS = [
    "bubbles 2\ncol 1 2\n1 3\n2 +4\ncol 2 1\n1 1_0\n",  # a plus sign and a digit separator
    "bubbles 2\ncol 1 1\n1 x\ncol 2 1\n1 1\n",  # a bad size in the first column
    "bubbles 2\ncol 1 1\n1 1\ncol 2 1\ny 1\n",  # a bad row in the last
    "bubbles 2\ncol 1 1\n1 1\ncol 3 1\n1 1\n",  # a wrong column index
    "bubbles 2\ncol 1 1\n1 1\nrow 2 1\n1 1\n",  # a wrong column header
    "bubbles 2\ncol 1 -1\ncol 2 1\n1 1\n",  # a negative bubble count,
    "bubbles 1\ncol 1 -1\n",  # in the last column
    "bubbles 1\ncol 1 0\n",  # an empty column
    "bubbles 1\ncol 1 3\n1 1\n",  # a bubble count above the tokens
    "bubbles 3\ncol 1 1\n1 1\n",  # a column count above the columns
    "bubbles 1\ncol 1 1\n1 1\ncol 2 1\n1 1\n",  # a column count below them
    "bubbles 1\ncol 1 2\n2 1\n1 1\n",  # rows out of order
]


@pytest.mark.parametrize("text", BUBBLES_TEXTS)
def test_bubbles_match_per_token_reference(text):
    _assert_reference_outcome(_parse_bubbles, reference_parse_bubbles, text.encode())


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(bubbles_file())
def test_bubbles_differential_against_per_token_reference(data):
    """Same columns, or the same error class, message and byte offset, as one ``integer`` call per token."""
    _assert_reference_outcome(_parse_bubbles, reference_parse_bubbles, data)


def _reader_calls(data):
    """``parse_instance``'s outcome on ``data``, and the ``_Reader.integer``,
    ``rational`` and ``done`` calls it made, in order."""
    calls = []

    def spy(name):
        real = getattr(_Reader, name)

        def call(self, *args):
            calls.append(name)
            return real(self, *args)

        return patch.object(_Reader, name, call)

    with spy("integer"), spy("rational"), spy("done"):
        got = outcome(parse_instance, data)
    return got, calls


def _assert_one_accepting_path(data):
    """A payload the reader takes is read by the sliced pass alone: the only
    ``integer`` call is the header count's, and ``rational`` and ``done`` are
    never called.  Any further call is the per-token loop's, which runs only
    to name the first fault, at every slice length."""
    for width in SLICE_LENGTHS:
        with patch.object(defdom.io, "_SLICE", width):
            got, calls = _reader_calls(data)
        assert calls[:1] == ["integer"], (width, data, got, calls)
        if calls[1:]:  # the reader refused the payload, by the per-token loop's diagnostic
            assert got[0] is FormatError, (width, data, got, calls)


#: Small files with a fault, or a token of the regex tokenizer, at which a
#: payload slice is cut at every length from 1 up: inside the token, just
#: before it and just after it.
CUT_TEXTS = [
    "pig 6\nmaxn 2 3 4 x5 6 6\n",  # a bad token
    "pig 4\nmaxn 2 3 4 4x\n",  # a bad last token
    "intervals 3\n0 1\n1/2 1/0\n2 3\n",  # a zero denominator
    "pig 6\nmaxn 2 3 4 5 6\n",  # an early end of file
    "intervals 3\n0 1\n1/2 3/2\n2\n",
    "pig 3\nmaxn 2 3 3 3\n",  # a trailing token
    "pig 2\nmaxn 2 2 zz\n",  # a trailing token int refuses
    "intervals 2\n0 1\n1 2 3/4\n",
    "intervals 3\n0 1\n5/2 2\n2 3\n",  # a reversed interval
    "bubbles 2\ncol 1 2\n1 3\n2 4\ncol 2 1\n1 x\n",
    "bubbles 1\ncol 1 1\n1 1 7\n",
    "pig 3 # three\nmaxn 2 # two\n3 3 # and three\n",  # comments
    "pig 3\nmaxn ٢ ٣ ٣\n",  # non-ASCII digits
    "intervals 2\n٠ 1\n1/٢ 2\n",
    "pig 3\nmaxn ٢ \xa0 3\n",  # NBSP, a token of its own
    "pig 2\nmaxn 2\x1c 2\n",  # \x1c inside a token int takes
    "pig 3\nmaxn 2 3\x1c3 3\n",  # and inside one it refuses
    "intervals 2\n0 1\x1f\n1 2\n",
    "bubbles 1\ncol\x1c 1 1\n1 1\n",
]
PARSERS = {
    "pig": (_parse_graph, reference_parse_pig),
    "intervals": (_parse_graph, reference_parse_intervals),
    "bubbles": (_parse_bubbles, reference_parse_bubbles),
}


@pytest.mark.parametrize("text", CUT_TEXTS)
def test_every_slice_cut_gives_the_reference_outcome(text):
    """The graph, or the error class, message and byte offset, of the
    per-token reference, with the payload read only by the sliced pass when
    it is taken, at every slice length from 1 to past the end of the file."""
    data = text.encode()
    parse, reference = PARSERS[text.split()[0]]
    want = outcome(reference, data)
    for width in range(1, len(text) + 2):
        with patch.object(defdom.io, "_SLICE", width):
            assert outcome(parse, data) == want, width
            got, calls = _reader_calls(data)
        if calls[1:]:  # the per-token loop ran, only to name the first fault
            assert got[0] is FormatError, (width, got, calls)


class _SpyText(str):
    """The decoded file: records its own whole-text splits, and its release."""

    events: list

    def split(self, *args):
        self.events.append("split")
        return super().split(*args)

    def __del__(self):
        self.events.append("freed")


class _SpyToken:
    """``_TOKEN``, recording each ``findall`` or ``finditer`` over a whole ``_SpyText``."""

    def __init__(self, real, events):
        self.real, self.events = real, events

    def __getattr__(self, name):
        method = getattr(self.real, name)

        def scan(string, *args):
            if isinstance(string, _SpyText) and name in ("findall", "finditer"):
                self.events.append(name)
            return method(string, *args)

        return scan


def _spied_parse(data, width):
    """``parse_instance``'s outcome on ``data`` at slice length ``width``,
    the whole-text scans, text release and graph builds in order, and the
    lengths of the payload slices."""
    events, lengths = [], []
    spy_text = type("SpyText", (_SpyText,), {"events": events})
    real_comment, real_slices = defdom.io._COMMENT, defdom.io._slices
    real_build, real_from_intervals = ProperIntervalGraph.__init__, ProperIntervalGraph.from_intervals.__func__

    class Blanked(bytes):
        """The file with comments blanked, which decodes to the spied text."""

        def decode(self, *args):
            return spy_text(bytes.decode(self, *args))

    class Comment:
        def sub(self, repl, data):
            return Blanked(real_comment.sub(repl, data))

    def slices(text, sep, start=0):
        for part in real_slices(text, sep, start):
            lengths.append(len(part))
            yield part

    def build(self, maxn):
        events.append("build")
        real_build(self, maxn)

    def from_intervals(cls, entries):
        events.append("build")
        return real_from_intervals(cls, entries)

    with (
        patch.object(defdom.io, "_SLICE", width),
        patch.object(defdom.io, "_TOKEN", _SpyToken(defdom.io._TOKEN, events)),
        patch.object(defdom.io, "_slices", slices),
        patch.object(defdom.io, "_COMMENT", Comment()),
        patch.object(ProperIntervalGraph, "__init__", build),
        patch.object(ProperIntervalGraph, "from_intervals", classmethod(from_intervals)),
    ):
        got = outcome(parse_instance, data)
    return got, events, lengths


@pytest.mark.parametrize("digits", ["0123456789", "٠١٢٣٤٥٦٧٨٩"])
@pytest.mark.parametrize("fmt", ["pig", "intervals"])
def test_accepted_payload_builds_no_token_list_and_frees_the_text_first(fmt, digits):
    """An accepted pig or intervals file, on the split and on the regex
    tokenizer, is read in slices of about ``_SLICE`` characters: the whole
    text is never split or scanned by ``findall``, and it is freed before
    the graph is built."""
    g = gen_family("path", 400)
    text = format_pig(g) if fmt == "pig" else format_intervals(g.canonical_intervals())
    data = text.translate(str.maketrans("0123456789", digits)).encode()
    got, events, lengths = _spied_parse(data, 64)
    assert got == ("ok", (fmt, g))
    assert events == ["freed", "build"]
    longest = max(map(len, text.split()))
    assert len(lengths) > len(text) // 128 and max(lengths) <= 64 + longest, lengths
    # the spy sees a whole-text scan: the rescan that names a trailing token
    got, events, _ = _spied_parse(data + b"x\n", 64)
    assert got[0] is FormatError and "finditer" in events, (got, events)


@pytest.mark.parametrize("text", PIG_TEXTS + INTERVALS_TEXTS + BUBBLES_TEXTS)
def test_bulk_pass_reads_every_accepted_payload(text):
    _assert_one_accepting_path(text.encode())


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.one_of(pig_file(), intervals_file(), bubbles_file()))
def test_bulk_pass_reads_every_accepted_payload_in_the_corpora(data):
    _assert_one_accepting_path(data)


def _shifted_family(dens, nest_at=None) -> bytes:
    """Interval i is [i + 1/d_i, i + 2 + 1/d_i], meeting the next two; at
    ``nest_at`` it is widened by one, so that it contains its neighbour."""
    lines = [f"intervals {len(dens)}"]
    for i, d in enumerate(dens):
        right = i + 2 + (i == nest_at)
        lines.append(f"{i * d + 1}/{d} {right * d + 1}/{d}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("bits", [SCALE_BITS - 1, SCALE_BITS, SCALE_BITS + 1])
@pytest.mark.parametrize("nest_at", [None, 1])
def test_scale_budget_boundary(bits, nest_at):
    """Families whose L sits just below, at and just above the budget give the reference's graph or ProperViolation."""
    power = 1 << (bits - 1)  # exactly ``bits`` bits
    primes = _primes(60)
    k = 1
    while math.prod(primes[: k + 1]).bit_length() <= bits:
        k += 1  # the first k primes multiply to at most ``bits`` bits, k + 1 to more
    for dens in ([power, 2, 1, power], primes[:k], primes[: k + 1]):
        want = math.lcm(*dens)
        assert common_scale(dens) == (want if want.bit_length() <= SCALE_BITS else None)
        data = _shifted_family(dens, nest_at)
        assert outcome(_parse_graph, data) == outcome(reference_parse_intervals, data)


def test_distinct_prime_denominators(monkeypatch):
    """10^4 intervals over distinct prime denominators: the reference's graph, and each lcm fold stops at the budget."""
    primes = _primes(10_000)
    data = _shifted_family(primes)
    calls = 0
    real_lcm = defdom.pig.lcm

    def counted_lcm(*args):
        nonlocal calls
        calls += 1
        return real_lcm(*args)

    monkeypatch.setattr(defdom.pig, "lcm", counted_lcm)
    assert common_scale(primes) is None
    assert calls <= SCALE_BITS + 1, calls
    calls = 0
    got = parse_instance(data)[1]
    # two folds, the reader's and the graph build's, each stopped at the budget
    assert calls <= 2 * (SCALE_BITS + 1), calls
    assert got == reference_parse_intervals(data)


def _whole_list_scale(nums, dens):
    """``on_common_scale`` as one whole-list pass into a new list."""
    scale = common_scale(set(dens))
    if scale is None:
        return list(map(Fraction, nums, dens))
    return list(map(mul, nums, map(floordiv, repeat(scale), dens)))


def _spanning(length):
    """``length`` numerators over six mixed-sign denominators, 10^6 among them."""
    return [i * 7919 % 1001 - 500 for i in range(length)], [(1, -2, 3, 5, -7, UNIT)[i % 6] for i in range(length)]


SLICE = defdom.pig._SCALE_SLICE


@pytest.mark.parametrize(
    "nums, dens",
    [
        pytest.param([1, -3, 5, 7, -2, 0, 4], [2, -3, 4, -6, 1, -1, -8], id="mixed-sign"),
        pytest.param([-5, 3, 8, 0], [7, 7, 7, 7], id="one-denominator"),
        pytest.param([*range(-4, 9), 257, -1000, 10**6, 2**70], [1] * 17, id="integers"),
        pytest.param([3, -3, 0], [-1, -1, 1], id="integers-negative-denominators"),
        pytest.param(*_spanning(2 * SLICE + 1), id="three-slices"),
        pytest.param(*_spanning(3 * SLICE + 17), id="four-slices"),
        pytest.param(*_spanning(5 * SLICE - 1), id="five-slices"),
        pytest.param([1, 2, -3, 4], [2**255, 3, 5, 3], id="over-budget"),
    ],
)
def test_on_common_scale_matches_the_whole_list_pass(nums, dens):
    """The slice-at-a-time pass gives the whole-list pass's values, each p/q
    times the common scale exactly, in the list it was given; a tuple is
    copied; past the budget a new list of Fractions leaves ``nums`` as it is.
    When every denominator is 1, every returned int is the given one."""
    want = _whole_list_scale(nums, dens)
    scale = common_scale(set(dens))
    if scale is not None:
        assert want == [Fraction(p, q) * scale for p, q in zip(nums, dens)]
    from_tuple = on_common_scale(tuple(nums), tuple(dens))
    assert from_tuple == want and type(from_tuple) is list
    given = list(nums)
    got = on_common_scale(given, dens)
    assert got == want
    if set(dens) == {1}:
        assert all(a is b for a, b in zip(from_tuple, nums)) and all(a is b for a, b in zip(got, nums))
    if scale is None:
        assert got is not given and given == nums
        assert all(type(x) is Fraction for x in got)
    else:
        assert got is given
        assert all(type(x) is int for x in got)


def test_parse_peak_memory_per_vertex():
    """No per-token offsets: parsing a 20,000-vertex path peaks below 200 bytes per vertex."""
    n = 20_000
    data = format_pig(gen_family("path", n)).encode()
    tracemalloc.start()
    try:
        parse_instance(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 200, peak / n


def test_intervals_parse_peak_memory_per_vertex():
    """No Fraction per endpoint token, no list of the file's tokens and no
    second endpoint list: a 20,000-interval file of x/10^6 endpoints peaks
    below 175 bytes per vertex (155 measured, the graph build's own peak;
    208 with the scaled endpoints built beside the unscaled ones, 273 with a
    whole-file token list)."""
    n = 20_000
    entries = random_unit_intervals(n, Fraction(1, 16), seed=20)
    data = format_intervals([(Fraction(l, UNIT), Fraction(r, UNIT)) for l, r in entries]).encode()
    tracemalloc.start()
    try:
        parse_instance(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 175, peak / n
