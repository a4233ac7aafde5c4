"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import time

import pytest

from tandemreco import (
    DupParams,
    UtrCode,
    Word,
    cli,
    construction_a,
    descendants,
    oracles,
    psi_inv,
    reconstruct,
    utr,
)
from tandemreco.cli import build_parser, main
from tandemreco.duplication import MAX_Q

FIXTURE = {
    "q": 2,
    "k": 1,
    "n": 4,
    "N": 1,
    "t": 1,
    "codewords": ["0010", "0110", "0100"],
}


def write_fixture(tmp_path, **overrides):
    data = dict(FIXTURE, **overrides)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    return path


def test_capacity_command(capsys):
    assert main(["capacity", "--q", "2", "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cap_irr"] == pytest.approx(0.6942, abs=5e-4)
    assert data["pi1"] == pytest.approx(0.7236, abs=5e-4)
    assert main(["capacity", "--q", "4", "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cap_irr"] == pytest.approx(0.9613, abs=5e-4)
    assert data["pi1"] == pytest.approx(0.8273, abs=5e-4)


# (q, k) where lambda rounds to q, up to the largest alphabet; where delta underflows or
# pi1 rounds to 1/2, and where q^(k+1) overflows a double; and where gamma0 alone rounds to 1
ANSWERED = [(2, 53), (4, 27), (16, 14), (MAX_Q, 2)]
REFUSED = [(2, 1030), (1000, 200), (2, 10**6), (1000, 7)]


def _capacity_argv(q, k):
    return ["capacity", "--q", str(q), "--k", str(k)]


def _build_argv(q, k):
    return ["code", "build", "--q", str(q), "--k", str(k), "--n", "12", "--t", "1", "--N", "1",
            "--method", "construction", "--out", "{tmp}/o.json"]


# construction A leaves no duplication budget where gamma0 is this close to 1
SWEEP_REFUSALS = [_capacity_argv(q, k) for q, k in REFUSED] + [
    _build_argv(q, k) for q, k in ANSWERED + REFUSED
]


@pytest.mark.parametrize("q, k", ANSWERED)
def test_capacity_answers_where_lambda_rounds_to_q(capsys, q, k):
    assert main(_capacity_argv(q, k)) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["q"], data["k"]) == (q, k)
    assert data["lambda"] <= q and 0.5 < data["pi1"] < 1.0
    assert 0.0 < data["x0"] and 0.0 < data["gamma0"] < 1.0


def test_capacity_degenerate_exit(capsys):
    assert main(["capacity", "--q", "2", "--k", "1"]) == 2
    assert "k >= 2" in capsys.readouterr().err


def test_rate_curve_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    args = [
        "rate-curve", "--q", "2", "--k", "2", "--theta", "0.7236",
        "--points", "200", "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,R"
    assert len(lines) == 201
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(rates) > 0.6942
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first  # byte-identical rerun
    capsys.readouterr()


def test_rate_curve_svg(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    args = [
        "rate-curve", "--q", "4", "--k", "2", "--theta", "0.8273",
        "--points", "50", "--out", str(out), "--svg", str(svg),
    ]
    assert main(args) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text
    assert "irreducible capacity" in text
    capsys.readouterr()


def test_code_build_exhaustive(tmp_path, capsys):
    out = tmp_path / "built.json"
    args = [
        "code", "build", "--q", "2", "--k", "1", "--n", "4", "--t", "1",
        "--N", "1", "--method", "exhaustive", "--out", str(out),
    ]
    assert main(args) == 0
    data = json.loads(out.read_text())
    assert len(data["codewords"]) == 16
    capsys.readouterr()


def test_code_build_construction(tmp_path, capsys):
    out = tmp_path / "built.json"
    args = [
        "code", "build", "--q", "2", "--k", "2", "--n", "10", "--t", "1",
        "--N", "1", "--out", str(out),
    ]
    assert main(args) == 0
    assert main(["code", "verify", "--code", str(out)]) == 0
    assert "VALID" in capsys.readouterr().out


def test_code_verify_paths(tmp_path, capsys):
    good = write_fixture(tmp_path)
    assert main(["code", "verify", "--code", str(good)]) == 0
    assert "VALID" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(FIXTURE, N=0)))
    assert main(["code", "verify", "--code", str(bad)]) == 3
    assert capsys.readouterr().out == (
        "direct checker:  violation\n"
        "reduced checker: violation\n"
        "INVALID: |shared 1-descendants of 0010 and 0100| = 1 > N = 0\n"
    )


def test_code_info(tmp_path, capsys):
    path = write_fixture(tmp_path)
    assert main(["code", "info", "--code", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 3 and data["roots"] == 1


def test_main_twice_in_one_process(tmp_path, capsys):
    # the parser is built once and shared; a second call with another verb still parses afresh
    path = write_fixture(tmp_path)
    assert main(["code", "info", "--code", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 3
    assert main(["capacity", "--q", "2", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["cap_irr"] == pytest.approx(0.6942, abs=5e-4)
    assert build_parser() is build_parser()


def test_code_decode(tmp_path, capsys):
    path = write_fixture(tmp_path)
    reads = tmp_path / "reads.txt"
    reads.write_text("00010\n00110\n")
    assert main(["code", "decode", "--code", str(path), "--reads", str(reads)]) == 0
    assert capsys.readouterr().out.strip() == "0010"


def test_code_decode_failure_exit(tmp_path, capsys):
    path = write_fixture(tmp_path)
    reads = tmp_path / "reads.txt"
    reads.write_text("01010\n")
    assert main(["code", "decode", "--code", str(path), "--reads", str(reads)]) == 2
    assert "error" in capsys.readouterr().err


def test_code_build_at_distance_three(tmp_path, capsys):
    out = tmp_path / "d3.json"
    build = ["code", "build", "--q", "2", "--k", "2", "--n", "16", "--t", "3", "--N", "1"]
    assert main([*build, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote 188 codewords to {out}")
    assert main(["code", "verify", "--code", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "VALID"


def test_code_build_below_distance_one(tmp_path, capsys):
    # at N = 8 every dimension of t = 1 needs distance 0 or 1, so each takes its whole simplex
    out = tmp_path / "d0.json"
    build = ["code", "build", "--q", "2", "--k", "2", "--n", "12", "--t", "1", "--N", "8"]
    assert main([*build, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote 880 codewords to {out}")


# SHA-256 of the (24, 2, 1) code's listed file, as written when codes were still listed while built
LARGE_BUILD_DIGEST = "7ba52827c671d805641dbeba7f7c2c8bac5e6f9e0534105a4559a51322e97976"
# SHA-256 of the (24, 2, 1) code file that code build writes, its compact description
LARGE_COMPACT_DIGEST = "8c160a97ba57fe9c504ab638ee9da43c75f7d05d6d8bb435fa287b35948992d8"


def cli_in_child(args: list[str]) -> str:
    """A script that runs the CLI on args, then prints its exit status and its own peak in kB.

    On Linux a child's ru_maxrss starts from the peak of the parent it was
    forked from and keeps it across exec, so the child reads its own
    high-water mark, VmHWM, where the system reports one.
    """
    return (
        "from tandemreco.cli import main\n"
        f"status = main({args!r})\n"
        "try:\n"
        "    with open('/proc/self/status') as lines:\n"
        "        peak = next(int(ln.split()[1]) for ln in lines if ln.startswith('VmHWM:'))\n"
        "except (OSError, StopIteration):\n"
        "    import resource\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(status, peak)\n"
    )


def test_large_code_build_stays_small(tmp_path, run_optimized):
    # a fresh process, so the peak is the build's own; 116 MB when built codes were listed
    out = tmp_path / "large.json"
    build = ["code", "build", "--q", "2", "--k", "2", "--n", "24", "--t", "2", "--N", "1"]
    status, peak_kb = run_optimized(cli_in_child([*build, "--out", str(out)])).split()[-2:]
    assert status == "0"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_COMPACT_DIGEST
    code = UtrCode.loads(out.read_text())
    listed = UtrCode(code.params, code.n, code.N, code.t, code.codewords).dumps()
    assert hashlib.sha256(listed.encode()).hexdigest() == LARGE_BUILD_DIGEST
    assert int(peak_kb) / 1024 < 85


@pytest.mark.parametrize("n", [24, 28])
def test_large_code_decode_stays_small(tmp_path, run_optimized, n):
    # 2 458 360 and 28 485 700 codewords; decoding once grew them all (756 MB at n = 24)
    text = construction_a(DupParams(2, 2), n, 1, 1).dumps()
    path = tmp_path / "large.json"
    path.write_text(text)
    code = UtrCode.loads(text)
    root, ends, _ = code._cones[-1]
    coords = code._description.points[len(ends) - 1]
    sent = psi_inv(Word(root, code.params), coords[len(coords) // 2])
    layer = sorted(descendants(sent, 1), key=lambda w: w.symbols)
    reads = [layer[0], layer[-1]]
    assert reconstruct(code, reads) == sent
    assert not {"cone_index", "symbols", "codewords"} & vars(code).keys()
    reads_path = tmp_path / "reads.txt"
    reads_path.write_text("".join(f"{r.text()}\n" for r in reads))
    decode = ["code", "decode", "--code", str(path), "--reads", str(reads_path)]
    printed, tail = run_optimized(cli_in_child(decode)).splitlines()
    status, peak_kb = tail.split()
    assert printed == sent.text() and status == "0"
    assert int(peak_kb) / 1024 < 40


# code info on the compact (n, 1, 1) files, as printed when it walked every root
LARGE_INFO = {
    24: {"size": 2458360, "rate": 0.8845526986438877, "roots": 4804, "largest_cone": 969},
    28: {"size": 28485700, "rate": 0.8844190901163981, "roots": 8320, "largest_cone": 7315},
}


@pytest.mark.parametrize("n", [24, 28])
def test_large_code_info_is_pinned_and_walks_no_root(tmp_path, capsys, monkeypatch, n):
    def refuse(*args):
        raise AssertionError("walked the roots")

    monkeypatch.setattr(utr, "_roots", refuse)
    path = tmp_path / "large.json"
    path.write_text(construction_a(DupParams(2, 2), n, 1, 1).dumps())
    assert main(["code", "info", "--code", str(path)]) == 0
    head = {"q": 2, "k": 2, "n": n, "N": 1, "t": 1}
    assert json.loads(capsys.readouterr().out) == {**head, **LARGE_INFO[n]}


def test_code_verify_priced_above_the_cap_exit_2(tmp_path, capsys, monkeypatch):
    # (24, 2, 1): 181 152 codewords with 18 021 488 2-descendants, above the default node cap
    path = tmp_path / "large.json"
    path.write_text(construction_a(DupParams(2, 2), 24, 2, 1).dumps())

    def refuse(*args):
        raise AssertionError("walked a checker priced above the node cap")

    monkeypatch.setattr(utr, "_layer", refuse)
    assert main(["code", "verify", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: descendant index exceeded cap of 10000000 nodes\n"


@pytest.mark.parametrize("command", ["verify", "simulate", "build"])
def test_walks_above_the_symbol_budget_exit_2_at_once(tmp_path, capsys, command):
    # at t = 10^9 each walk from a word of length 4 would grow its words to 2e9 symbols
    path = write_fixture(tmp_path, k=2, N=0, t=10**9, codewords=["0000", "0101"])
    build = ["--method", "exhaustive", "--q", "2", "--k", "2", "--n", "4", "--N", "0"]
    argv = {
        "verify": ["code", "verify", "--code", str(path)],
        "simulate": ["code", "simulate", "--code", str(path), "--trials", "1"],
        "build": ["code", "build", *build, "--t", str(10**9), "--out", str(tmp_path / "out.json")],
    }[command]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a walk of 1000000000 duplications from a word of length 4 exceeds the "
        "budget of 100000000 symbols\n"
    )


def test_code_file_alphabet_above_the_code_points_exit_2(tmp_path, capsys):
    path = write_fixture(tmp_path, q=0x110001)
    assert main(["code", "verify", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alphabet size must be at most 1114112, got 1114113\n"


def test_code_build_above_the_field_cap_exit_2(tmp_path, capsys):
    # distance 10 in 6-dimensional cones needs a Sidon set of order 9 and size 7
    build = ["code", "build", "--q", "2", "--k", "2", "--n", "12", "--t", "10", "--N", "1"]
    assert main([*build, "--out", str(tmp_path / "d10.json")]) == 2
    assert "GF(7^9) has 40353607 elements" in capsys.readouterr().err
    assert not (tmp_path / "d10.json").exists()


def test_large_lengths_and_budgets_answer_at_once(tmp_path, capsys, run_optimized):
    # (32, 1, 1): 104 772 roots of length 24 and 608 854 200 codewords, built from their counts
    path = tmp_path / "large.json"
    build = ["code", "build", "--q", "2", "--k", "2", "--out", str(path)]
    large = cli_in_child([*build, "--n", "32", "--t", "1", "--N", "1"])
    status, peak_kb = run_optimized(large).split()[-2:]
    assert status == "0" and int(peak_kb) / 1024 < 50
    assert main(["code", "info", "--code", str(path)]) == 0
    # walking the 104 772 roots gives these counts too
    info = {"size": 608854200, "rate": 0.9119225484966738, "roots": 104772, "largest_cone": 14950}
    assert json.loads(capsys.readouterr().out) == {"q": 2, "k": 2, "n": 32, "N": 1, "t": 1, **info}
    assert main(["code", "simulate", "--code", str(path), "--trials", "1", "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: 608854200 codewords of length 32 exceed the budget of 100000000 symbols\n"
    )
    # a length or a budget of 10^9 answers or is refused at once
    for n, t in ((10**9, 1), (12, 10**9), (20, 10**9)):
        start = time.perf_counter()
        assert main([*build, "--n", str(n), "--t", str(t), "--N", "1"]) in (0, 2)
        assert time.perf_counter() - start < 2, (n, t)


def test_code_simulate(tmp_path, capsys):
    path = write_fixture(tmp_path)
    assert main(
        ["code", "simulate", "--code", str(path), "--trials", "40", "--seed", "5"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["success_rate"] == 1.0


def test_missing_file_exit(capsys):
    assert main(["code", "info", "--code", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_code_file_missing_key_exit(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({k: v for k, v in FIXTURE.items() if k != "codewords"}))
    assert main(["code", "info", "--code", str(path)]) == 2
    assert "'codewords'" in capsys.readouterr().err
    # a word that does not parse is malformed input too
    # only ASCII digits form a symbol: no other scripts' digits, signs,
    # underscores or blanks inside a field
    for bad in (
        {"q": 12, "codewords": ["1,x,0,0"]},
        {"codewords": ["0\u00b210"]},
        {"codewords": ["\u0661\u0660"]},
        {"codewords": ["0\uff11"]},
        {"q": 11, "codewords": ["1_0,3"]},
        {"q": 11, "codewords": ["+3,4"]},
        {"q": 11, "codewords": [" 3 , 4"]},
        {"q": 11, "codewords": ["03,4"]},
    ):
        write_fixture(tmp_path, **bad)
        assert main(["code", "info", "--code", str(path)]) == 2
        assert bad["codewords"][0].strip() in capsys.readouterr().err


def test_code_file_not_json_exit(tmp_path, capsys):
    path = tmp_path / "code.json"
    for content in (b"this is not JSON\n", b"\xff\xfe binary"):
        path.write_bytes(content)
        assert main(["code", "info", "--code", str(path)]) == 2
        assert "not JSON" in capsys.readouterr().err
    # a reads file that is not UTF-8 is malformed input too
    reads = tmp_path / "reads.txt"
    reads.write_bytes(b"\xff\xfe binary")
    code = write_fixture(tmp_path)
    assert main(["code", "decode", "--code", str(code), "--reads", str(reads)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reads} is not text") and err.count("\n") == 1


def input_files(tmp_path) -> list[tuple[list[str], int]]:
    """Input files that once crashed the CLI with a traceback, each with its command and exit code."""

    def write(name: str, text: str) -> str:
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    head = {"q": 2, "k": 1, "N": 0, "t": 1}
    # json's limits: nesting depth and the digits of an int
    nested = write("nested.json", "[" * 100_000)
    long_n = write("long_n.json", '{"n": %s, %s' % ("1" * 5000, json.dumps(head)[1:]))
    wide = write("wide.json", json.dumps(dict(head, q=11, n=1, codewords=["1" * 5000])))
    q11 = write("q11.json", json.dumps(dict(head, q=11, n=2, codewords=["1,10"])))
    reads = write("reads.txt", "1" * 5000 + "\n")
    # a simplex of 1000 parts, one point at cone weight 0
    dimension = {"m": 999, "weights": [0] * 1000, "modulus": 1, "residue": 0}
    construction = {"m_n": 0, "r_n": 0, "dimensions": [dimension]}
    deep = write("deep.json", json.dumps(dict(head, n=1000, construction=construction)))
    return [
        (["code", "info", "--code", nested], 2),
        (["code", "info", "--code", long_n], 2),
        (["code", "info", "--code", wide], 2),
        (["code", "decode", "--code", q11, "--reads", reads], 2),
        (["code", "info", "--code", deep], 0),
    ]


def check_input_file_outcome(status: int, want: int, out: str, err: str) -> None:
    assert status == want and "Traceback" not in err
    if want:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)["size"] == json.loads(out)["roots"] == 2


def test_input_files_exit_2_without_a_traceback(tmp_path, capsys, run_optimized):
    cases = input_files(tmp_path)
    for argv, want in cases:
        status = main(argv)
        check_input_file_outcome(status, want, *capsys.readouterr())
    script = (
        "import contextlib, io, json\n"
        "from tandemreco.cli import main\n"
        f"for argv in {[argv for argv, _ in cases]!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        status = main(argv)\n"
        "    print(json.dumps([status, out.getvalue(), err.getvalue()]))\n"
    )
    lines = run_optimized(script).splitlines()
    assert len(lines) == len(cases)
    for line, (_, want) in zip(lines, cases):
        status, out, err = json.loads(line)
        check_input_file_outcome(status, want, out, err)


@pytest.mark.parametrize("key", ["q", "k", "n", "N", "t"])
def test_code_file_bool_for_integer_exit(tmp_path, capsys, key):
    # JSON true is a bool, which Python counts as the integer 1
    path = write_fixture(tmp_path, **{key: True})
    assert main(["code", "info", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: code key {key!r} must be int, got bool\n"


# the compact file of construction_a(DupParams(2, 2), 12, 2, 1): roots of length 10 and
# weight >= 6 in cones of weight 1, whose dimensions 6, 7 and 8 take Sidon classes
COMPACT = {
    "q": 2, "k": 2, "n": 12, "N": 1, "t": 2,
    "construction": {
        "m_n": 6,
        "r_n": 1,
        "dimensions": [
            {"m": m, "weights": list(range(m + 1)), "modulus": m + 1, "residue": 0}
            for m in (6, 7, 8)
        ],
    },
}
DIMENSIONS = COMPACT["construction"]["dimensions"]


def compact(dimension=None, **changes):
    """COMPACT with changes to its keys, its construction's, and dimension m's as (m, {...})."""
    data = json.loads(json.dumps(COMPACT))
    for key, value in changes.items():
        (data if key in data else data["construction"])[key] = value
    if dimension:
        m, entry = dimension
        data["construction"]["dimensions"][m - 6].update(entry)
    return data


# a code file and the one-line error it exits 2 with
COMPACT_FAULTS = {
    "missing dimension": (
        compact(dimensions=DIMENSIONS[:2]),
        "construction lists dimensions [6, 7], its roots have [6, 7, 8]",
    ),
    "extra dimension": (
        compact(dimensions=[*DIMENSIONS, dict(DIMENSIONS[0], m=9, weights=[0] * 10)]),
        "construction lists dimensions [6, 7, 8, 9], its roots have [6, 7, 8]",
    ),
    "repeated dimension": (
        compact(dimensions=DIMENSIONS * 2), "construction lists dimension 6 twice"
    ),
    "short weights": (compact((6, {"weights": [0] * 6})), "dimension 6 weights must be 7 ints"),
    "long weights": (compact((7, {"weights": [0] * 9})), "dimension 7 weights must be 8 ints"),
    "residue above": (
        compact((7, {"residue": 8})), "dimension 7 needs 0 <= residue < modulus, got 8 mod 8"
    ),
    "negative residue": (
        compact((7, {"residue": -1})), "dimension 7 needs 0 <= residue < modulus, got -1 mod 8"
    ),
    "zero modulus": (
        compact((6, {"modulus": 0})), "dimension 6 needs 0 <= residue < modulus, got 0 mod 0"
    ),
    "bool weight": (
        compact((6, {"weights": [0, 1, 2, 3, 4, 5, True]})), "dimension 6 weights must be 7 ints"
    ),
    "text weight": (
        compact((6, {"weights": [0, 1, 2, 3, 4, 5, "6"]})), "dimension 6 weights must be 7 ints"
    ),
    "bool residue": (
        compact((6, {"residue": False})),
        "construction dimension key 'residue' must be int, got bool",
    ),
    "bool modulus": (
        compact((6, {"modulus": True})),
        "construction dimension key 'modulus' must be int, got bool",
    ),
    "bool dimension": (
        compact((6, {"m": True})), "construction dimension key 'm' must be int, got bool"
    ),
    "bool m_n": (compact(m_n=True), "construction key 'm_n' must be int, got bool"),
    "bool r_n": (compact(r_n=False), "construction key 'r_n' must be int, got bool"),
    "negative r_n": (compact(r_n=-1), "construction needs m_n >= 0 and r_n >= 0, got 6 and -1"),
    "missing key": (
        compact(construction={"m_n": 6, "dimensions": DIMENSIONS}),
        "construction lacks the key 'r_n'",
    ),
    "dimensions not a list": (
        compact(dimensions={}), "construction key 'dimensions' must be list, got dict"
    ),
    "dimension not an object": (
        compact(dimensions=[6]), "construction dimension must be a JSON object, got int"
    ),
    "construction not an object": (
        compact(construction=[]), "construction must be a JSON object, got list"
    ),
    "both forms": (
        dict(COMPACT, codewords=["001011010110"]), "code holds both 'codewords' and 'construction'"
    ),
    # ResourceCapError: more roots than their cap (3 328 160 of length 30), a root count
    # whose weight DP is above its cap, a simplex above its cap
    "root above its limit": (compact(n=30, r_n=0), "irreducible enumeration above cap 1000000"),
    "root count above its cap": (
        compact(n=10**9, r_n=0), "root count of 1999999994000000004 cells above cap 1000000"
    ),
    "simplex above its cap": (
        compact(n=36, m_n=18, r_n=8, dimensions=[
            {"m": 18, "weights": [0] * 19, "modulus": 1, "residue": 0}
        ]),
        "simplex has 1562275 points, above cap 1000000",
    ),
}


@pytest.mark.parametrize("fault", COMPACT_FAULTS)
def test_compact_code_file_faults_exit_2(tmp_path, capsys, fault):
    data, message = COMPACT_FAULTS[fault]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    assert main(["code", "info", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_compact_file_matches_its_listed_twin(tmp_path, capsys):
    path = tmp_path / "compact.json"
    path.write_text(json.dumps(COMPACT))
    code = UtrCode.loads(path.read_text())
    assert code.dumps() == construction_a(DupParams(2, 2), 12, 2, 1).dumps()
    listed = tmp_path / "listed.json"
    listed.write_text(UtrCode(code.params, 12, 1, 2, code.codewords).dumps())
    # two distinct reads of one codeword, as N = 1 asks
    reads = tmp_path / "reads.txt"
    reads.write_text("\n".join(sorted(w.text() for w in descendants(code.codewords[40], 2))[:2]))
    # dimension 7 takes its whole simplex, so two of its points are 1 apart
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(compact((7, {"weights": [0] * 8, "modulus": 1}))))
    broken_listed = tmp_path / "broken_listed.json"
    wrong = UtrCode.loads(broken.read_text())
    broken_listed.write_text(UtrCode(wrong.params, 12, 1, 2, wrong.codewords).dumps())
    verbs = [
        ["verify"], ["info"], ["decode", "--reads", str(reads)],
        ["simulate", "--trials", "30", "--seed", "3"],
    ]
    cases = [((path, listed), verb) for verb in verbs] + [((broken, broken_listed), ["verify"])]
    for files, verb in cases:
        outputs = []
        for f in files:
            status = main(["code", verb[0], "--code", str(f), *verb[1:]])
            outputs.append((status, capsys.readouterr()))
        assert outputs[0] == outputs[1], verb
    assert outputs[0][0] == 3 and "INVALID" in outputs[0][1].out


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_malformed_node_cap_exit_2(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("TANDEM_NODE_CAP", value)
    path = write_fixture(tmp_path)
    assert main(["code", "verify", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: TANDEM_NODE_CAP must be a nonnegative integer, got {value!r}\n"
    )


def test_oracle_single_suite(capsys):
    assert main(["oracle", "--suite", "cone-count", "--max-root-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "cone-count" in out and "OK" in out


def test_oracle_that_checks_nothing_exit_2(capsys):
    for argv in (
        ["--suite", "checker", "--samples", "0"],
        ["--suite", "intersection", "--max-root-len", "0"],
        ["--suite", "cone-count", "--max-t", "-1"],
    ):
        assert main(["oracle", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: need --max-root-len")
    # no duplication is still a check: every word is its own only descendant
    assert main(["oracle", "--suite", "cone-count", "--max-t", "0"]) == 0
    assert capsys.readouterr().out == "cone-count: 185 checks, OK\n"


def test_oracle_failure_exit(monkeypatch, capsys):
    # force a wrong closed form to confirm the failure contract
    monkeypatch.setattr(oracles, "descendant_count", lambda x, t: -1)
    assert main(["oracle", "--suite", "cone-count", "--max-root-len", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counterexample" in out


def test_oracle_range_above_the_root_cap_exit_2(monkeypatch, capsys):
    # the range is priced before any root is enumerated
    def refuse(*args):
        raise AssertionError("enumerated roots of a refused range")

    monkeypatch.setattr(oracles, "irreducible_words", refuse)
    argv = ["oracle", "--suite", "cone-count", "--max-root-len", "1200", "--max-t", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: oracle range holds 2697911 roots up to length 14, above cap 1000000\n"
    )


def test_memory_error_exit(monkeypatch, tmp_path, capsys):
    # running out of memory is one error line and exit 2, never a traceback
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_code", exhausted)
    assert main(["code", "info", "--code", str(tmp_path / "code.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_usage_error_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["capacity", "--q", "2"])  # missing --k
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rate-curve", "--q", "2", "--k", "2", "--points", "-1", "--out", "{tmp}/c.csv"],
        ["rate-curve", "--q", "2", "--k", "2", "--points", "0", "--out", "{tmp}/c.csv",
         "--svg", "{tmp}/c.svg"],
        ["code", "build", "--q", "2", "--k", "2", "--n", "-1", "--t", "1", "--N", "1",
         "--method", "exhaustive", "--out", "{tmp}/o.json"],
        ["code", "build", "--q", "2", "--k", "2", "--n", "4", "--t", "-1", "--N", "1",
         "--method", "exhaustive", "--out", "{tmp}/o.json"],
        ["rate-curve", "--q", "2", "--k", "2", "--points", "100000000", "--out", "{tmp}/c.csv"],
        *SWEEP_REFUSALS,
    ],
)
def test_bad_arguments_exit_2(tmp_path, capsys, argv):
    # a bad value is a usage error: exit 2 and one error line, never a traceback
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if argv in SWEEP_REFUSALS:
        q, k = argv[argv.index("--q") + 1], argv[argv.index("--k") + 1]
        assert f"q={q}, k={k}" in err
