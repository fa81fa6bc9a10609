import argparse
import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import defdom.cli as cli_module
import defdom.io
from defdom import compact_for_family, gen_family, solve_greedy
from defdom.cli import run
from defdom.errors import BadParameters
from defdom.io import format_bubbles, format_pig
from helpers import is_valid_defense


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def byte_stdin(text):
    """A stand-in for ``sys.stdin`` holding ``text``: bytes under a text wrapper, as the real one is."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def write_p5(tmp_path):
    path = tmp_path / "p5.pig"
    path.write_text("pig 5\nmaxn 2 3 4 5 5\n")
    return str(path)


def test_solve_both_algorithms(tmp_path):
    path = write_p5(tmp_path)
    code, out, _ = cli("solve", "--input", path, "--k", "2", "--algo", "bubble")
    assert code == 0
    assert out.splitlines()[:4] == ["size=3", "2", "3", "5"]
    code2, out2, _ = cli("solve", "--input", path, "--k", "2", "--algo", "greedy")
    assert code2 == 0 and out2 == out


def test_solve_emit_defense(tmp_path):
    path = write_p5(tmp_path)
    code, out, _ = cli("solve", "--input", path, "--k", "2", "--emit-defense")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size=3"
    assert lines[4].startswith("defense 1..2:")
    assert len([l for l in lines if l.startswith("defense ")]) == 4


def test_verify_ok_and_fail(tmp_path):
    path = write_p5(tmp_path)
    code, out, _ = cli("verify", "--input", path, "--k", "2", "--defenders", "2,3,5")
    assert code == 0 and out.strip() == "OK"
    code, out, _ = cli("verify", "--input", path, "--k", "2", "--defenders", "2,3")
    assert code == 1 and out.strip() == "FAIL [4..5]"


def test_verify_defenders_file_forms(tmp_path, monkeypatch):
    path = write_p5(tmp_path)
    good = {"commas": "2,3,5\n", "lines": "2\n3\n5\n", "solve": "size=3\n2\n3\n5\n", "mixed": " 2, 3\t5 "}
    for name, text in good.items():
        f = tmp_path / f"{name}.txt"
        f.write_text(text)
        assert cli("verify", "--input", path, "--k", "2", "--defenders-file", str(f)) == (0, "OK\n", ""), name
    monkeypatch.setattr(sys, "stdin", byte_stdin("size=2\n2\n3\n"))
    assert cli("verify", "--input", path, "--k", "2", "--defenders-file", "-")[:2] == (1, "FAIL [4..5]\n")
    bad = {"token": "2\nx\n5\n", "size": "size=4\n2\n3\n5\n", "range": "2,3,9", "header": "size=three\n2\n"}
    for name, text in bad.items():
        f = tmp_path / f"bad-{name}.txt"
        f.write_text(text)
        code, out, err = cli("verify", "--input", path, "--k", "2", "--defenders-file", str(f))
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1, (name, err)
    code, _, err = cli("verify", "--input", path, "--k", "2", "--defenders-file", str(tmp_path / "missing"))
    assert code == 2 and err.startswith("error: ")
    # exactly one of --defenders and --defenders-file
    f = tmp_path / "commas.txt"
    assert cli("verify", "--input", path, "--k", "2", "--defenders", "2", "--defenders-file", str(f))[0] == 2
    assert cli("verify", "--input", path, "--k", "2")[0] == 2


def test_verify_defenders_failure_order(tmp_path):
    """The first bad token in order is reported, whichever check refuses it, for a graph or a compact file."""
    compact = tmp_path / "p5.bubbles"
    compact.write_text(format_bubbles(compact_for_family("path", 5)))
    bad = {
        "9,x": "defender 9 outside 1..5",
        "x,9": "defender 'x' is not a vertex number",
        "2,,3": "defender '' is not a vertex number",
        "0": "defender 0 outside 1..5",
    }
    f = tmp_path / "defenders.txt"
    for path in (write_p5(tmp_path), str(compact)):
        for text, message in bad.items():
            want = (2, "", f"error: {message}\n")
            assert cli("verify", "--input", path, "--k", "2", "--defenders", text) == want, (path, text)
        for text in ("9\nx\n", "x\n9\n"):
            f.write_text(text)
            message = bad[text.strip().replace("\n", ",")]
            want = (2, "", f"error: {message}\n")
            assert cli("verify", "--input", path, "--k", "2", "--defenders-file", str(f)) == want, (path, text)
        assert cli("verify", "--input", path, "--k", "2", "--defenders", "2, 3,5") == (0, "OK\n", "")
        assert cli("verify", "--input", path, "--k", "2", "--defenders", "2,3") == (1, "FAIL [4..5]\n", "")
        f.write_text("size=3\n5\n3\n2\n")
        assert cli("verify", "--input", path, "--k", "2", "--defenders-file", str(f)) == (0, "OK\n", "")


def test_verify_duplicate_and_unordered_defenders_get_the_verdict_of_their_set(tmp_path):
    """Repeats and any order are the set they list, as the verifier's one dedupe sees it."""
    for fmt in ("pig", "intervals", "bubbles"):
        path = str(tmp_path / f"p5.{fmt}")
        assert cli("gen", "--family", "path", "--n", "5", "--format", fmt, "--output", path)[0] == 0
        f = tmp_path / f"defenders-{fmt}.txt"
        for listed, as_set, want in (
            ("5,3,3,2,5", "2,3,5", (0, "OK\n", "")),
            ("4,2,4,4,2", "2,4", (1, "FAIL [1..2]\n", "")),  # repeats counted twice would pass
        ):
            assert cli("verify", "--input", path, "--k", "2", "--defenders", as_set) == want, (fmt, as_set)
            assert cli("verify", "--input", path, "--k", "2", "--defenders", listed) == want, (fmt, listed)
            f.write_text(listed.replace(",", "\n") + "\n")
            assert cli("verify", "--input", path, "--k", "2", "--defenders-file", str(f)) == want, (fmt, listed)


def test_verify_peak_memory_per_defender(tmp_path):
    """Verifying a 31,001-defender answer peaks at 80 bytes per defender or less.

    The answer is converted to ints slice by slice into one list, and the
    verifier's sorted copy shares its ints, so about 63 bytes per defender
    are read.  A token list of the whole text beside the ints, with the
    verifier's set, read about 141, and a second set about 185.
    """
    path = str(tmp_path / "chain.bubbles")
    sizes = ",".join(["100"] * 1000)
    assert cli("gen", "--family", "clique_chain", "--sizes", sizes, "--format", "bubbles", "--output", path)[0] == 0
    code, answer, err = cli("solve", "--input", path, "--k", "32", "--algo", "bubble")
    assert code == 0, err
    count = int(answer.split("\n", 1)[0][5:])
    assert count == 31_001
    answer_file = tmp_path / "answer.txt"
    answer_file.write_text(answer)
    del answer
    tracemalloc.start()
    try:
        result = cli("verify", "--input", path, "--k", "32", "--defenders-file", str(answer_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "OK\n", "")
    assert peak <= 80 * count, peak / count


def _intake(text, in_file, n, stdin=False):
    """``cli._defenders`` on ``text`` given as ``--defenders``, a file or stdin: its list or its message."""
    if not in_file:
        args = argparse.Namespace(defenders=text, defenders_file=None)
    elif stdin:
        args = argparse.Namespace(defenders=None, defenders_file="-")
    else:
        args = argparse.Namespace(defenders=None, defenders_file=text)
    try:
        return cli_module._defenders(args, n)
    except BadParameters as exc:
        return f"error: {exc}"


def _one_split_intake(text, in_file, n):
    """The whole text split once and converted by ``sorted(map(int, ...))``, with the
    diagnostics that intake gives: a ``size=N`` mismatch first, then the first
    token in order that is not a vertex number or lies outside 1..n."""
    if not in_file:
        tokens = text.split(",") if text and not text.isspace() else []
    else:
        tokens = text.replace(",", " ").split()
        if tokens and tokens[0].startswith("size="):
            size = tokens.pop(0)[5:]
            if size != str(len(tokens)):
                return f"error: defenders file says size={size} but lists {len(tokens)} vertices"
    for part in tokens:
        try:
            v = int(part)
        except ValueError:
            return f"error: defender {part.strip()!r} is not a vertex number"
        if not 1 <= v <= n:
            return f"error: defender {v} outside 1..{n}"
    return sorted(map(int, tokens))


SLICE_CASES = {
    # (text, in_file): what it exercises
    ("12345,678,9", False): "a token straddles a cut",
    ("123,45,6789,10", False): "tokens straddle several cuts",
    ("123,", False): "a trailing comma exactly at a cut",
    ("12,3,", False): "a trailing comma past a cut",
    ("1,,2", False): "an empty token",
    (",", False): "two empty tokens",
    ("   ", False): "whitespace-only text",
    ("", False): "empty text",
    (" 3 , 4,5 ", False): "spaces around tokens",
    ("1,2,3,4,5,6,7,x", False): "a bad token in the last slice",
    ("1,2,3,4,5,6,7,99", False): "an out-of-range token in the last slice",
    ("1\n2\n3\n4\n", True): "newlines",
    ("1\x1c2\x1c3\x1c45", True): "\\x1c separators",
    ("1\xa02\xa03\xa0 4", True): "NBSP separators",
    ("1,\n2, 3,,4\t5", True): "mixed separators",
    ("1\r\n2\r\n3\r4", True): "CR and CRLF line ends",
    ("10,11,12,13,14,15,16,17,18,19", True): "a line longer than a slice",
    ("\n\n\n\n\n\n  size=2\n1\n2", True): "a header after slices with no token",
    ("size=4\n1\n2\n3\n4\n", True): "a matching size header",
    ("size=5\n1\n2\n3\n4\n", True): "a size header that does not match",
    ("size=12345\n" + "\n".join(map(str, range(1, 12346))), True): "a header longer than a slice",
    ("size=2\n1\nx\n", True): "a matching header before a bad token",
    ("1\nsize=1\n", True): "a size=N token after the first is a bad token",
    ("size=3\n1\nx\n", True): "a mismatched header before a bad token",
    (" \n\t ", True): "whitespace-only file",
    ("1 2 3 4 5 6 7 8 9 10 11 x", True): "a bad token in the last slice of a file",
    ("1 2 3 4 5 6 7 8 9 10 11 0", True): "an out-of-range token in the last slice of a file",
    ("9 x", True): "the first fault is an out-of-range token",
    ("5,6,7,1,2,3", False): "slices each ascending but out of order across a cut",
    ("7\n8\n9\n1\n2\n3\n", True): "lines each ascending but out of order across a cut",
    ("1,2,3,3,3,3,4", False): "a repeat that straddles a cut",
    ("2 2 2 2 2 2 2 2", True): "a repeat that straddles a cut in a file",
    ("9,8,7,6,5,4,3,2,1,30,2", False): "an out-of-range value in a later slice, after an out-of-order slice",
    ("size=9\nx\n1\n2\n", True): "a wrong size=N with a bad token in the first slice",
    ("25,x,1", False): "an out-of-range value, then a bad token in the same slice",
    ("1 2 25 x 3", True): "an out-of-range value, then a bad token in the same slice of a file",
    ("1 2 25\nx", True): "an out-of-range value, then a bad token in the next slice of a file",
}


def test_sliced_defender_intake_matches_one_split(tmp_path, monkeypatch):
    """Sliced intake returns the one-split list, or its one-line error, at every slice length."""
    f = tmp_path / "defenders.txt"
    for width in (1, 2, 3, 4, 5, 7, 4096):
        monkeypatch.setattr(defdom.io, "_SLICE", width)
        for (text, in_file), what in SLICE_CASES.items():
            n = 20_000 if "12345" in text else 20
            want = _one_split_intake(text, in_file, n)
            if in_file:
                f.write_text(text, encoding="utf-8")
                assert _intake(str(f), True, n) == want, (width, what)
                monkeypatch.setattr(sys, "stdin", byte_stdin(text))
                assert _intake(text, True, n, stdin=True) == want, (width, what)
            else:
                assert _intake(text, False, n) == want, (width, what)


_SLICE_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", " 7", "8 ", "x", "+3", "1_2", "\u0663", "size=2", "1.0"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    st.lists(_SLICE_TOKENS, max_size=30),
    st.lists(st.sampled_from([",", " ", "\n", "\r\n", ", ", "\x1c", "\xa0", "\t\t", ",,"]), min_size=1, max_size=4),
    st.sampled_from(["", "size=3\n", "size=0 ", ", size=2,"]),
    st.booleans(),
    st.integers(1, 9),
)
def test_sliced_defender_intake_matches_one_split_on_random_tokens(tokens, seps, header, in_file, width):
    text = "".join(tok + seps[i % len(seps)] for i, tok in enumerate(tokens))
    if in_file:
        text = header + text
    else:
        text = ",".join(tokens)
    want = _one_split_intake(text, in_file, 30)
    with mock.patch.object(defdom.io, "_SLICE", width):
        if in_file:
            with tempfile.TemporaryDirectory() as tmp:
                f = Path(tmp) / "defenders.txt"
                f.write_bytes(text.encode("utf-8"))
                assert _intake(str(f), True, 30) == want
            with mock.patch.object(sys, "stdin", byte_stdin(text)):
                got = _intake(text, True, 30, stdin=True)
        else:
            got = _intake(text, False, 30)
    assert got == want


def test_defenders_file_with_bad_utf8_is_refused_as_a_whole_read_refuses_it(tmp_path):
    """Bad UTF-8 past the first slices of a streamed file is named at its offset in the file."""
    f = tmp_path / "defenders.txt"
    for head in (b"", b"size=9000\n" + b"\n".join(b"%d" % v for v in range(1, 9000)) + b"\n"):
        f.write_bytes(head + b"\xff\n")
        want = f"error: 'utf-8' codec can't decode byte 0xff in position {len(head)}: invalid start byte\n"
        assert cli("verify", "--input", write_p5(tmp_path), "--k", "2", "--defenders-file", str(f)) == (2, "", want)


_UTF8_PIECES = [b"1", b" ", b"\n", b",", b"\xff", b"\xc0", b"\xc3", b"\xa9", b"\xe2", b"\x82", b"\xe2\x82\xac", b"\xed\xa0", b"\xf0\x9f"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(_UTF8_PIECES), max_size=14).map(b"".join), st.integers(1, 5))
def test_streamed_defenders_name_bad_utf8_as_one_decode_of_the_input(data, width):
    """Each slice of a defenders stream is decoded on its own, yet bad UTF-8,
    a lone byte or a cut or broken sequence, gets the message and the offsets
    that one decode of the whole input gives."""
    want = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        want = f"error: {exc}"
    assume(want is not None)
    with mock.patch.object(defdom.io, "_SLICE", width), mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
        assert _intake(None, True, 10**9, stdin=True) == want


def test_defender_intake_peak_is_near_the_list_it_returns(tmp_path, monkeypatch):
    """The intake of 10^5 defenders peaks at no more than 1.5x the bytes of its int list,
    and at 1.1x from a file or from stdin.

    Beside the list sit one slice and its tokens, and a file or stdin is read
    a slice at a time (about 1.01x; unsorted commas, each slice and then the
    list sorted in place, about 1.11x).  A token list of the whole text read
    about 2.7x, and stdin's whole text beside the list about 1.19x.
    """
    count = 10**5
    ds = random.Random(5).sample(range(1, 2 * count + 1), count)
    f = tmp_path / "defenders.txt"
    f.write_text(f"size={count}\n" + "\n".join(map(str, sorted(ds))) + "\n")
    for form, text in (("comma", ",".join(map(str, ds))), ("file", str(f)), ("stdin", None)):
        if form == "stdin":  # the piped bytes exist before the call, as the comma string does
            monkeypatch.setattr(sys, "stdin", byte_stdin(f.read_text()))
        tracemalloc.start()
        try:
            out = _intake(text, form != "comma", 2 * count, stdin=form == "stdin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == sorted(ds), form
        size = sys.getsizeof(out) + sum(map(sys.getsizeof, out))
        assert peak <= (1.5 if form == "comma" else 1.1) * size, (form, peak / size)


def test_refused_defenders_file_is_opened_once(tmp_path, monkeypatch):
    """A regular defenders file that is refused, for a bad last token or a
    wrong size=N, is read in the one pass that names the fault."""
    path = write_p5(tmp_path)
    f = tmp_path / "defenders.txt"
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for text, message in (
        ("size=3\n2\n3\nx\n", "defender 'x' is not a vertex number"),
        ("size=4\n2\n3\n5\n", "defenders file says size=4 but lists 3 vertices"),
    ):
        f.write_bytes(text.encode("utf-8"))
        opened.clear()
        result = cli("verify", "--input", path, "--k", "2", "--defenders-file", str(f))
        assert result == (2, "", f"error: {message}\n"), text
        assert opened.count(str(f)) == 1, (text, opened)


def test_verify_rejects_invalid_compact_files_as_solve_does(tmp_path):
    """A bad bubbles file ends verify with exit 2 and the bubble solver's one-line error."""
    cases = {
        "rows": "bubbles 1\ncol 1 2\n2 1\n1 1\n",
        "empty": "bubbles 1\ncol 1 1\n1 0\n",
        "row0": "bubbles 1\ncol 1 1\n0 3\n",
        "short": "bubbles 2\ncol 1 1\n1 3\n",
        "column": "bubbles 1\ncol 2 1\n1 3\n",
        "token": "bubbles 1\ncol 1 1\n1 x\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.bubbles"
        path.write_text(text)
        solve = cli("solve", "--input", str(path), "--k", "1", "--algo", "bubble")
        verify = cli("verify", "--input", str(path), "--k", "1", "--defenders", "1")
        assert verify == solve, name
        code, out, err = verify
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1, (name, err)


def test_verify_on_compact_files_never_expands(tmp_path, monkeypatch):
    """verify reads a bubbles file into the bubble model only: no pig_from_bubbles, no vertex graph."""
    from defdom import bubbles, pig

    def refuse(*args, **kwargs):
        raise AssertionError("verify expanded a compact file")

    path = tmp_path / "chain.bubbles"
    path.write_text(format_bubbles(compact_for_family("clique_chain", sizes=[4, 6, 3, 5])))
    answer = cli("solve", "--input", str(path), "--k", "3", "--algo", "bubble")[1].split()[1:]
    monkeypatch.setattr(bubbles, "pig_from_bubbles", refuse)
    monkeypatch.setattr(cli_module, "pig_from_bubbles", refuse)
    monkeypatch.setattr(pig.ProperIntervalGraph, "__init__", refuse)
    assert cli("verify", "--input", str(path), "--k", "3", "--defenders", ",".join(answer)) == (0, "OK\n", "")
    code, out, err = cli("verify", "--input", str(path), "--k", "3", "--defenders", ",".join(answer[1:]))
    assert code == 1 and out.startswith("FAIL [") and err == ""


def test_greedy_and_oracle_on_compact_files_build_the_graph_by_runs(tmp_path, monkeypatch):
    """solve --algo greedy and oracle expand a bubbles file run by run: the
    per-vertex ProperIntervalGraph.__init__ is never entered."""
    from defdom import pig

    def refuse(*args, **kwargs):
        raise AssertionError("a compact file was expanded vertex by vertex")

    path = tmp_path / "chain.bubbles"  # 10 vertices, within the oracle's cap
    path.write_text(format_bubbles(compact_for_family("clique_chain", sizes=[4, 5, 3])))
    bubble = cli("solve", "--input", str(path), "--k", "3", "--algo", "bubble")
    oracle = cli("oracle", "--input", str(path), "--k", "3")
    assert bubble[0] == oracle[0] == 0 and bubble[1].split()[0] == oracle[1].split()[0]
    monkeypatch.setattr(pig.ProperIntervalGraph, "__init__", refuse)
    assert cli("solve", "--input", str(path), "--k", "3", "--algo", "greedy") == bubble
    assert cli("oracle", "--input", str(path), "--k", "3") == oracle


def test_greedy_drops_the_input_and_graph_before_writing_the_answer(tmp_path, monkeypatch):
    """solve --algo greedy holds no ProperIntervalGraph and no CompactBubbles
    while it writes the answer, from a pig file and from a bubbles file;
    with --emit-defense the graph stays, as the defenses read it."""
    import gc

    from defdom import CompactBubbles, ProperIntervalGraph

    pig_path = tmp_path / "chain.pig"
    pig_path.write_text(format_pig(gen_family("clique_chain", sizes=[4, 5, 3])))
    compact_path = tmp_path / "chain.bubbles"
    compact_path.write_text(format_bubbles(compact_for_family("clique_chain", sizes=[4, 5, 3])))
    kinds = (ProperIntervalGraph, CompactBubbles)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]  # held, so their ids stay theirs
    seen = set(map(id, before))
    alive = []
    write_answer = defdom.io.write_answer

    def spy(out, result):
        gc.collect()
        alive.append(sorted(type(o).__name__ for o in gc.get_objects() if isinstance(o, kinds) and id(o) not in seen))
        return write_answer(out, result)

    monkeypatch.setattr(defdom.io, "write_answer", spy)
    for path in (pig_path, compact_path):
        assert cli("solve", "--input", str(path), "--k", "3", "--algo", "greedy")[0] == 0
        assert cli("solve", "--input", str(path), "--k", "3", "--algo", "greedy", "--emit-defense")[0] == 0
    assert alive == [[], ["ProperIntervalGraph"], [], ["ProperIntervalGraph"]]


def test_bubble_solve_peak_memory_per_vertex(tmp_path):
    """solve --algo bubble on a pig file of the pig_k128 benchmark shape
    (connected unit intervals, n = 2,000, spread 1/16, seed 128, k = 128)
    peaks below 155 bytes per vertex after one warm-up call: the solver
    reads the model's tuples in place and the model stores no ``min_v``
    (141 measured; 168 with ``min_v`` stored and five 1-based copies of
    the model's tuples made for the solve)."""
    from defdom import gen_random_unit_intervals

    n = 2000
    path = str(tmp_path / "wide.pig")
    Path(path).write_text(format_pig(gen_random_unit_intervals(n, spread="1/16", seed=128, connected=True)))
    argv = ("solve", "--input", path, "--k", "128", "--algo", "bubble")
    warm = cli(*argv)
    assert warm[0] == 0 and warm[1].startswith("size=1727\n"), warm[2]
    tracemalloc.start()
    try:
        result = cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == warm
    assert peak / n < 155, peak / n


def test_solve_answer_spans_write_chunks(tmp_path):
    """An answer longer than one write chunk prints one vertex per line, in order."""
    n = 8 * defdom.io._ANSWER_CHUNK + 5
    path = tmp_path / "path.pig"
    path.write_text(format_pig(gen_family("path", n)))
    for algo in ("greedy", "bubble"):
        code, out, _ = cli("solve", "--input", str(path), "--k", "1", "--algo", algo)
        want = solve_greedy(gen_family("path", n), 1)
        assert len(want) > 2 * defdom.io._ANSWER_CHUNK
        assert (code, out) == (0, f"size={len(want)}\n" + "".join(f"{v}\n" for v in want)), algo


def test_oracle_answer_pipes_into_verify(tmp_path, monkeypatch):
    """``oracle`` writes the answer file that ``verify --defenders-file -`` reads."""
    path = write_p5(tmp_path)
    code, answer, _ = cli("oracle", "--input", path, "--k", "2")
    assert (code, answer) == (0, "size=3\n1\n3\n4\n")
    monkeypatch.setattr(sys, "stdin", byte_stdin(answer))
    assert cli("verify", "--input", path, "--k", "2", "--defenders-file", "-") == (0, "OK\n", "")


def test_argument_errors_are_one_line(capsys):
    """A refused argument list exits 2 with argparse's message as one
    ``error:`` line on ``err``, and no usage block anywhere; ``--help``
    still prints the usage, to ``out``, and exits 0."""
    for argv, message in (
        (["solve", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (["solve", "--k", "1"], "the following arguments are required: --input"),
        (["frob"], "argument command: invalid choice: 'frob'"),
        (["gen", "--family", "path", "--seed", "q"], "argument --seed: invalid int value: 'q'"),
        # an option the family does not read is refused, not dropped
        (["gen", "--family", "clique_chain", "--n", "7", "--sizes", "3,3"], "--family clique_chain takes its size from --sizes, not --n"),
        (["gen", "--family", "clique_chain", "--n", "7"], "--family clique_chain takes its size from --sizes, not --n"),
        (["gen", "--family", "path", "--n", "3", "--sizes", "2"], "--sizes is for --family clique_chain only, not path"),
        (["gen", "--family", "complete", "--n", "3", "--sizes", "3", "--format", "bubbles"], "--sizes is for --family clique_chain only, not complete"),
        (["gen", "--family", "random", "--n", "4", "--sizes", "3,3"], "--sizes is for --family clique_chain only, not random"),
        (["gen", "--family", "complete", "--n", "3", "--spread", "x", "--format", "bubbles"], "--spread is for --family random only, not complete"),
        (["gen", "--family", "path", "--n", "3", "--seed", "5", "--spread", "9"], "--seed is for --family random only, not path"),
        (["gen", "--family", "path", "--n", "3", "--spread", "9"], "--spread is for --family random only, not path"),
        (["gen", "--family", "clique_chain", "--sizes", "3", "--seed", "0"], "--seed is for --family random only, not clique_chain"),
        (["gen", "--family", "random", "--n", "4", "--format", "bubbles", "--spread", "x"], "--spread is for --format pig or intervals only, not bubbles"),
    ):
        code, out, err = cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (argv, err)
        assert capsys.readouterr() == ("", ""), argv
    code, out, err = cli("--help")
    assert (code, err) == (0, "") and out.startswith("usage: defdom ")
    assert capsys.readouterr() == ("", "")


def _defdom(*argv, stdin=None):
    """Run ``python -m defdom.cli`` on this checkout's sources in a fresh process;
    ``stdin`` given as bytes makes the output bytes too."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "defdom.cli", *argv]
    text = not isinstance(stdin, bytes)
    return subprocess.run(cmd, env=env, input=stdin, capture_output=True, text=text, timeout=120)


def test_solve_piped_into_verify_at_100k(tmp_path):
    """An answer far beyond the argument-length limit reaches verify through stdin."""
    path = str(tmp_path / "path.pig")
    assert _defdom("gen", "--family", "path", "--n", "100000", "--output", path).returncode == 0
    solve = _defdom("solve", "--input", path, "--k", "3")
    assert solve.returncode == 0 and len(solve.stdout) > 131_072  # Linux's limit on one argument
    verify = _defdom("verify", "--input", path, "--k", "3", "--defenders-file", "-", stdin=solve.stdout)
    assert (verify.returncode, verify.stdout, verify.stderr) == (0, "OK\n", "")
    bad = _defdom("verify", "--input", path, "--k", "3", "--defenders-file", "-", stdin="size=2\n1\nx\n")
    assert bad.returncode == 2 and bad.stdout == "" and bad.stderr.startswith("error: ")
    assert bad.stderr.count("\n") == 1
    if os.path.exists("/dev/stdin"):  # a pipe by name is read a slice at a time, as stdin is
        bad_token = (2, "", "error: defender 'x' is not a vertex number\n")
        for stdin, want in (("size=2\n1\n3\n", (1, "FAIL [1..3]\n", "")), ("1\nx\n", bad_token)):
            piped = _defdom("verify", "--input", path, "--k", "3", "--defenders-file", "/dev/stdin", stdin=stdin)
            assert (piped.returncode, piped.stdout, piped.stderr) == want


def test_bad_utf8_through_a_pipe_is_named_at_its_offset_in_the_input(tmp_path):
    """Bad UTF-8 past the first slice of stdin, or of a pipe by name, exits 2
    with the codec's message at its offset in the whole input, whatever the
    locale's error handler for stdin."""
    path = write_p5(tmp_path)
    head = b"size=9001\n" + b"\n".join(b"%d" % (v % 5 + 1) for v in range(9000)) + b"\n"
    want = f"error: 'utf-8' codec can't decode byte 0xff in position {len(head)}: invalid start byte\n"
    sources = ["-", "/dev/stdin"] if os.path.exists("/dev/stdin") else ["-"]
    for source in sources:
        run = _defdom("verify", "--input", path, "--k", "2", "--defenders-file", source, stdin=head + b"\xff\n")
        assert (run.returncode, run.stdout, run.stderr.decode()) == (2, b"", want), source


def test_oracle(tmp_path):
    path = write_p5(tmp_path)
    code, out, _ = cli("oracle", "--input", path, "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "size=3"


def test_oracle_refuses_large(tmp_path):
    path = tmp_path / "big.pig"
    n = 40
    maxn = " ".join(str(min(j + 1, n)) for j in range(1, n + 1))
    path.write_text(f"pig {n}\nmaxn {maxn}\n")
    code, _, err = cli("oracle", "--input", str(path), "--k", "2")
    assert code == 2 and "cap" in err


def test_oracle_refuses_large_compact_file_before_expanding(tmp_path, monkeypatch):
    """The oracle's cap is checked on the compact file's vertex count, so a
    3-line file of two million twins is refused without building its graph."""

    def refuse(*args, **kwargs):
        raise AssertionError("a compact file was expanded before the oracle cap")

    path = tmp_path / "twins.bubbles"
    path.write_text("bubbles 1\ncol 1 1\n1 2000000\n")
    monkeypatch.setattr(cli_module, "pig_from_bubbles", refuse)
    assert cli("oracle", "--input", str(path), "--k", "1") == (
        2, "", "error: instance has 2000000 vertices, oracle cap is 12\n"
    )


def test_bubbles_listing_and_dot(tmp_path):
    path = tmp_path / "dia.pig"
    path.write_text("pig 4\nmaxn 3 4 4 4\n")
    code, out, _ = cli("bubbles", "--input", str(path))
    assert code == 0
    assert out.splitlines() == ["1 1 1..1 1 3", "2 2 2..3 1 4", "3 1 4..4 2 4"]
    code, out, _ = cli("bubbles", "--input", str(path), "--dot")
    assert code == 0
    assert out.startswith("digraph bubbles {")
    assert "B2 [label=\"B2(2)\"" in out
    assert [l.strip() for l in out.splitlines() if "->" in l] == ["B1 -> B2;", "B2 -> B3;"]
    code, out, _ = cli("bubbles", "--input", write_p5(tmp_path), "--dot")
    assert code == 0
    assert [l.strip() for l in out.splitlines() if "->" in l] == [f"B{i} -> B{i + 1};" for i in range(1, 5)]


def test_bubbles_file_input(tmp_path):
    path = tmp_path / "k3.bubbles"
    path.write_text("bubbles 1\ncol 1 1\n1 3\n")
    code, out, _ = cli("solve", "--input", str(path), "--k", "1")
    assert code == 0 and out.splitlines()[0] == "size=1"


def test_huge_twin_class_solves_without_expansion(tmp_path):
    """A 3-line file of 10^15 twins: the bubble solver and verify answer; every expansion is refused."""
    path = tmp_path / "huge.bubbles"
    path.write_text("bubbles 1\ncol 1 1\n1 1000000000000000\n")
    code, out, err = cli("solve", "--input", str(path), "--k", "1", "--algo", "bubble")
    assert (code, out, err) == (0, "size=1\n1000000000000000\n", "")
    for k, want in (("1", (0, "OK\n", "")), ("2", (1, "FAIL [1..2]\n", ""))):
        assert cli("verify", "--input", str(path), "--k", k, "--defenders", "1") == want, k
    for argv, cap in (
        (("solve", "--k", "1", "--algo", "greedy"), "expansion cap of 2000000"),
        (("oracle", "--k", "1"), "oracle cap is 12"),
        (("solve", "--k", "1000000000000000", "--algo", "bubble"), "expansion cap of 2000000"),
        (("solve", "--k", "1", "--algo", "bubble", "--emit-defense"), "expansion cap of 2000000"),
    ):
        code, out, err = cli(*argv, "--input", str(path))
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert cap in err, (argv, err)
    # k = n: the one window is every twin, and one defender covers one of them
    tracemalloc.start()
    try:
        result = cli("verify", "--input", str(path), "--k", "1000000000000000", "--defenders", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (1, "FAIL [1..1000000000000000]\n", "")
    assert peak < 64 * 1024, peak


def test_solve_piped_into_verify_above_the_expansion_cap(tmp_path):
    """A compact clique chain of about 2.8 million vertices: the bubble answer verifies through stdin."""
    path = str(tmp_path / "chain.bubbles")
    sizes = ",".join(["700000"] * 4)
    assert cli("gen", "--family", "clique_chain", "--sizes", sizes, "--format", "bubbles", "--output", path)[0] == 0
    solve = _defdom("solve", "--input", path, "--k", "1", "--algo", "bubble")
    assert solve.returncode == 0 and solve.stdout.startswith("size="), solve.stderr
    verify = _defdom("verify", "--input", path, "--k", "1", "--defenders-file", "-", stdin=solve.stdout)
    assert (verify.returncode, verify.stdout, verify.stderr) == (0, "OK\n", "")


def test_gen_examples(tmp_path):
    code, out, _ = cli("gen", "--family", "path", "--n", "3", "--format", "pig")
    assert code == 0 and out == "pig 3\nmaxn 2 3 3\n"
    dest = tmp_path / "out.pig"
    code, out, _ = cli("gen", "--family", "complete", "--n", "4", "--output", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == "pig 4\nmaxn 4 4 4 4\n"


def test_gen_intervals_and_bubbles_roundtrip(tmp_path):
    for fam, extra in (("path", ["--n", "6"]), ("clique_chain", ["--sizes", "3,4"]), ("random", ["--n", "12", "--seed", "3"])):
        for fmt in ("pig", "intervals", "bubbles"):
            dest = tmp_path / f"{fam}.{fmt}"
            code, _, err = cli("gen", "--family", fam, *extra, "--format", fmt, "--output", str(dest))
            assert code == 0, (fam, fmt, err)
            code, out, err = cli("solve", "--input", str(dest), "--k", "2")
            assert code == 0, (fam, fmt, err)


def test_gen_refuses_per_vertex_output_above_the_cap():
    """Every per-vertex output checks its vertex count before it allocates; compact ones stay O(1)."""
    huge, huger = str(10**15), str(10**21)
    for argv in (
        ("gen", "--family", "complete", "--n", huge, "--format", "pig"),
        ("gen", "--family", "complete", "--n", huge, "--format", "intervals"),
        ("gen", "--family", "path", "--n", huger, "--format", "bubbles"),
        ("gen", "--family", "path", "--n", huge, "--format", "pig"),
        ("gen", "--family", "path", "--n", huge, "--format", "intervals"),
        ("gen", "--family", "random", "--n", huge, "--format", "pig"),
        ("gen", "--family", "random", "--n", huge, "--format", "intervals"),
        ("gen", "--family", "random", "--n", huge, "--format", "bubbles"),
        ("gen", "--family", "clique_chain", "--sizes", "1000000,1000002", "--format", "pig"),
        ("gen", "--family", "clique_chain", "--sizes", "1000000,1000002", "--format", "intervals"),
        # bench checks every size before it builds the first instance
        ("bench", "--family", "complete", "--sizes", huge, "--k", "1"),
        ("bench", "--family", "path", "--sizes", f"10,{huge}", "--k", "2"),
        ("bench", "--family", "random", "--sizes", huger, "--k", "8"),
    ):
        code, out, err = cli(*argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "expansion cap of 2000000" in err, (argv, err)
    # bench also refuses a count below one, where it used to print a bare header or bench n = 1
    for argv in (
        ("bench", "--family", "path", "--sizes", "5", "--k", "1", "--repeats", "0"),
        ("bench", "--family", "path", "--sizes", "5", "--k", "1", "--repeats", "-3"),
        ("bench", "--family", "clique_chain", "--sizes", "0", "--k", "1"),
        ("bench", "--family", "clique_chain", "--sizes", "-5", "--k", "1"),
        ("bench", "--family", "path", "--sizes", "10,0", "--k", "2"),
    ):
        code, out, err = cli(*argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: bench needs ") and err.count("\n") == 1, (argv, err)
    code, out, err = cli("gen", "--family", "complete", "--n", huge, "--format", "bubbles")
    assert (code, out, err) == (0, f"bubbles 1\ncol 1 1\n1 {huge}\n", "")
    code, out, err = cli("gen", "--family", "clique_chain", "--sizes", "1000000,1000002", "--format", "bubbles")
    assert code == 0 and out.startswith("bubbles 2\n"), err


def test_gen_and_bench_name_the_option_on_non_integer_sizes():
    for argv in (
        ("gen", "--family", "clique_chain", "--sizes", "x"),
        ("gen", "--family", "clique_chain", "--sizes", "3,x", "--format", "bubbles"),
        ("bench", "--family", "path", "--sizes", "x", "--k", "1"),
        ("bench", "--family", "path", "--sizes", "10,,20", "--k", "1"),
    ):
        code, out, err = cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: --sizes needs comma-separated integers, got {argv[4]!r}\n", (argv, err)


def test_gen_refuses_non_positive_clique_sizes_alike_in_every_format():
    for sizes in ("0", "-3"):
        for fmt in ("pig", "intervals", "bubbles"):
            code, out, err = cli("gen", "--family", "clique_chain", f"--sizes={sizes}", "--format", fmt)
            assert (code, out, err) == (2, "", "error: clique sizes must be positive\n"), (sizes, fmt)


def test_gen_checks_clique_sizes_before_the_expansion_cap_in_every_format():
    """A bad chain gets the sizes message, not the cap message of a per-vertex format."""
    for sizes, message in (("1,2000001", "chained cliques must have at least 2 vertices"), ("0,3000000", "clique sizes must be positive")):
        for fmt in ("pig", "intervals", "bubbles"):
            code, out, err = cli("gen", "--family", "clique_chain", f"--sizes={sizes}", "--format", fmt)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (sizes, fmt)


def test_gen_refuses_random_instances_without_a_positive_n():
    for n in ((), ("--n", "0")):
        for fmt in ("pig", "intervals", "bubbles"):
            code, out, err = cli("gen", "--family", "random", *n, "--format", fmt)
            assert (code, out, err) == (2, "", "error: random instances need --n >= 1\n"), (n, fmt)


def test_gen_rejects_bad_spread():
    for fmt in ("pig", "intervals"):
        for spread, why in (("1/0", "zero denominator"), ("-1", "negative"), ("x", "not a finite number")):
            code, out, err = cli("gen", "--family", "random", "--n", "5", f"--spread={spread}", "--format", fmt)
            assert code == 2 and out == "", (fmt, spread)
            assert err.startswith("error: spread ") and err.count("\n") == 1, (fmt, spread, err)
            assert why in err, (fmt, spread, err)
    code, out, _ = cli("gen", "--family", "random", "--n", "3", "--spread", "0")
    assert code == 0 and out == "pig 3\nmaxn 3 3 3\n"


def test_gen_deterministic():
    a = cli("gen", "--family", "random", "--n", "20", "--seed", "9")
    b = cli("gen", "--family", "random", "--n", "20", "--seed", "9")
    assert a == b


def test_gen_random_defaults_are_seed_0_and_spread_2():
    """Options left out read as their defaults; given ones are still read."""
    for fmt, given in (("pig", ("--seed", "0", "--spread", "2")), ("intervals", ("--seed", "0", "--spread", "2")), ("bubbles", ("--seed", "0"))):
        default = cli("gen", "--family", "random", "--n", "30", "--format", fmt)
        assert default[0] == 0 and default == cli("gen", "--family", "random", "--n", "30", "--format", fmt, *given), fmt
        assert default != cli("gen", "--family", "random", "--n", "30", "--format", fmt, "--seed", "1"), fmt


def test_parse_error_exit_code_and_offset(tmp_path):
    path = tmp_path / "bad.pig"
    path.write_bytes(b"pig x\n")
    code, _, err = cli("solve", "--input", str(path), "--k", "1")
    assert code == 2
    assert "byte 4" in err
    path.write_bytes(b"intervals 2\n0 1\n3/2 1\n")
    code, out, err = cli("solve", "--input", str(path), "--k", "1")
    assert (code, out, err) == (2, "", "error: byte 16: interval 2 has left endpoint above right endpoint\n")


def test_byte_order_mark_is_named(tmp_path):
    """A file that starts with a UTF-8 byte-order mark exits 2 with one line naming the mark, in every format."""
    texts = ("pig 1\nmaxn 1\n", "intervals 1\n0 1\n", "bubbles 1\ncol 1 1\n1 1\n")
    for text in texts:
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert cli("solve", "--input", str(path), "--k", "1") == (
            2,
            "",
            "error: byte 0: the file starts with a UTF-8 byte-order mark (U+FEFF); save it without one\n",
        ), text
        path.write_text(text)
        assert cli("solve", "--input", str(path), "--k", "1")[0] == 0, text


def test_unknown_subcommand_exits_2():
    code, _, _ = cli("frobnicate")
    assert code == 2


def test_solver_outputs_match_and_verify(tmp_path):
    # gen -> solve (both) -> verify, a little round trip per family and file format
    families = (("path", ["--n", "40"]), ("complete", ["--n", "15"]), ("clique_chain", ["--sizes", "4,4,4"]), ("random", ["--n", "30", "--seed", "77"]))
    cases = [(fam, extra, fmt) for fam, extra in families for fmt in ("pig", "bubbles")]
    # a compact structure of two 5-vertex components
    cases.append(("random", ["--n", "10", "--seed", "12"], "bubbles"))
    for fam, extra, fmt in cases:
        dest = tmp_path / f"{fam}-{'-'.join(extra)}.{fmt}"
        code, _, _ = cli("gen", "--family", fam, *extra, "--format", fmt, "--output", str(dest))
        assert code == 0
        outs = []
        for algo in ("greedy", "bubble"):
            code, out, err = cli("solve", "--input", str(dest), "--k", "3", "--algo", algo)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1], (fam, fmt)
        defenders = ",".join(outs[0].splitlines()[1:])
        code, out, _ = cli("verify", "--input", str(dest), "--k", "3", "--defenders", defenders)
        assert code == 0 and out.strip() == "OK", (fam, fmt)


def test_single_vertex_instance(tmp_path):
    path = tmp_path / "k1.pig"
    path.write_text("pig 1\nmaxn 1\n")
    code, out, _ = cli("solve", "--input", str(path), "--k", "1")
    assert code == 0 and out.splitlines() == ["size=1", "1"]
    code, out, _ = cli("verify", "--input", str(path), "--k", "3", "--defenders", "1")
    assert code == 0


def test_verify_reads_intervals_file(tmp_path):
    path = tmp_path / "pair.intervals"
    path.write_text("intervals 2\n0 1\n1/2 3/2\n")
    code, out, _ = cli("verify", "--input", str(path), "--k", "1", "--defenders", "1")
    assert code == 0 and out.strip() == "OK"
    code, out, _ = cli("verify", "--input", str(path), "--k", "2", "--defenders", "1")
    assert code == 1 and out.strip() == "FAIL [1..2]"


def test_bench_csv_shape():
    code, out, _ = cli("bench", "--family", "path", "--sizes", "50,80", "--k", "3", "--repeats", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,n,bubbles,k,algo,nanoseconds,defense_steps,heap_ops,list_ops"
    assert len(lines) == 1 + 2 * 2 * 2  # sizes x repeats x algos
    assert all(len(l.split(",")) == 9 for l in lines[1:])
    # a one-vertex clique chain is a single clique of one vertex
    code, out, _ = cli("bench", "--family", "clique_chain", "--sizes", "1", "--k", "1")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0 and [row[:5] for row in rows] == [
        ["clique_chain-n1-r0", "1", "1", "1", "greedy"],
        ["clique_chain-n1-r0", "1", "1", "1", "bubble"],
    ]


def test_bench_deterministic_outside_timing_column():
    def stripped(text):
        rows = []
        for line in text.strip().splitlines()[1:]:
            cells = line.split(",")
            del cells[5]  # nanoseconds
            rows.append(cells)
        return rows

    a = cli("bench", "--family", "random", "--sizes", "60,90", "--k", "4", "--repeats", "2")
    b = cli("bench", "--family", "random", "--sizes", "60,90", "--k", "4", "--repeats", "2")
    assert a[0] == b[0] == 0
    assert stripped(a[1]) == stripped(b[1])


def test_emit_defense_lines_are_valid(tmp_path):
    from defdom import Attack, ProperIntervalGraph

    path = tmp_path / "chain.pig"
    code, _, _ = cli("gen", "--family", "clique_chain", "--sizes", "3,4,3", "--output", str(path))
    assert code == 0
    code, out, _ = cli("solve", "--input", str(path), "--k", "3", "--emit-defense")
    assert code == 0
    lines = out.splitlines()
    size = int(lines[0].split("=")[1])
    defenders = set(map(int, lines[1 : 1 + size]))
    kind, g = __import__("defdom.io", fromlist=["parse_instance"]).parse_instance(
        path.read_bytes()
    )
    assert isinstance(g, ProperIntervalGraph)
    windows = 0
    for line in lines[1 + size :]:
        head, _, body = line.partition(":")
        lo, hi = head.removeprefix("defense ").split("..")
        pairs = [tuple(map(int, p.split(">"))) for p in body.split()]
        assert [a for _, a in pairs] == list(range(int(lo), int(hi) + 1))
        assert all(d in defenders for d, _ in pairs)
        assert is_valid_defense(g, pairs, Attack(int(lo), int(hi)))
        windows += 1
    assert windows == g.n - 3 + 1
