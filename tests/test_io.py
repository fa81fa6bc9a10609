import io
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom import CompactBubbles, DefdomError, FormatError, ProperIntervalGraph, gen_family
from defdom.cli import run
from defdom.io import _Reader, format_bubbles, format_intervals, format_pig, parse_instance
from helpers import reference_tokenize

# Derandomized and without an example database, so every run checks the same
# examples and writes no .hypothesis/ directory.
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Token soup: header words, integers, rationals, words, non-ASCII whitespace
# that is not a separator (NBSP, \x1c, U+2028) and invalid UTF-8, between
# separators that include CRLF, \x0b, \x0c and comments.
PIECES = st.sampled_from([
    b"pig", b"intervals", b"bubbles", b"maxn", b"col", b"0", b"1", b"2", b"3", b"5", b"-1", b"3/2", b"1/0",
    b"x", "\u0661\u0662".encode(), b"\xc2\xa0", b"\x1c", b"\xe2\x80\xa8", b"\xff", b"\xc3", b"\xc3\xa9",
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


def test_trailing_tokens_rejected():
    with pytest.raises(FormatError):
        parse_instance(b"pig 1\nmaxn 1 7\n")


def test_bubbles_column_index_checked():
    with pytest.raises(FormatError):
        parse_instance(b"bubbles 2\ncol 1 1\n1 1\ncol 3 1\n1 1\n")


def test_rational_denominator_optional():
    kind, g = parse_instance(b"intervals 2\n0/1 1\n1 2\n")
    assert g.n == 2


@FUZZ
@given(FILES)
def test_reader_matches_reference_tokenizer(data):
    """Same tokens, per-token offsets, end-of-file offset and UTF-8 error as the line-by-line reference."""
    try:
        ref = reference_tokenize(data)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _Reader(data)
        assert (got.value.offset, str(got.value)) == (exc.offset, str(exc))
        return
    rd = _Reader(data)
    assert rd.tokens == [text for text, _ in ref]
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
