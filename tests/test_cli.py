import io

from defdom.cli import run


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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


def test_bubbles_file_input(tmp_path):
    path = tmp_path / "k3.bubbles"
    path.write_text("bubbles 1\ncol 1 1\n1 3\n")
    code, out, _ = cli("solve", "--input", str(path), "--k", "1")
    assert code == 0 and out.splitlines()[0] == "size=1"


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


def test_gen_deterministic():
    a = cli("gen", "--family", "random", "--n", "20", "--seed", "9")
    b = cli("gen", "--family", "random", "--n", "20", "--seed", "9")
    assert a == b


def test_parse_error_exit_code_and_offset(tmp_path):
    path = tmp_path / "bad.pig"
    path.write_bytes(b"pig x\n")
    code, _, err = cli("solve", "--input", str(path), "--k", "1")
    assert code == 2
    assert "byte 4" in err


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
    from defdom import ProperIntervalGraph

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
        assert all(d == a or g.adjacent(d, a) for d, a in pairs)
        assert len({d for d, _ in pairs}) == len(pairs)
        windows += 1
    assert windows == g.n - 3 + 1
