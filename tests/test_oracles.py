"""Oracle failure output: every suite's counterexamples, pinned as printed.

Each case forces one suite's closed form wrong by replacing the name that
``tandemreco.oracles`` binds, runs the suite over a small range and compares
the whole ``summary()`` text.  A suite counts every comparison but keeps only
its first ``MAX_REPORTED`` counterexamples.
"""

import json
import math
import sys
from itertools import islice

import pytest

from tandemreco import ResourceCapError, oracles, utr
from tandemreco.duplication import _key
from tandemreco.metric import duplication_distance
from tandemreco.oracles import MAX_REPORTED, OracleResult
from tandemreco.utr import UtrCheck

# case -> (suite, name in oracles, replacement, suite arguments)
FORCED = {
    "cone-count": ("cone-count", "descendant_count", lambda x, t: -1,
                   {"max_root_len": 2, "max_t": 1}),
    "intersection": ("intersection", "cone_intersection_size", lambda y, y2, t: -1,
                     {"max_root_len": 2, "max_t": 1}),
    "distance": ("distance", "duplication_distance", lambda y, y2: -1, {"max_root_len": 2}),
    # finite distances stay right, so only the cross-cone pairs fail
    "distance-cross": ("distance", "duplication_distance",
                       lambda y, y2: min(duplication_distance(y, y2), 7), {"max_root_len": 2}),
    "checker": ("checker", "is_utr_code_reduced", lambda code: UtrCheck(False), {"samples": 1}),
    "ball": ("ball", "ball_size", lambda m, d: -1, {}),
    "bounds": ("bounds", "required_distance", lambda N, t, m: 10**9, {"samples": 3}),
    # two points d - 1 apart: closer than d, which distance 1 never asks of distinct points
    "sidon": ("sidon", "sidon_code",
              lambda m, r, d: [(d - 1, 0), (0, d - 1)], {}),
}

SUMMARIES = {
    "cone-count": (
        "cone-count: 52 checks, FAIL\n"
        "  counterexample: |descendants(Word('0', q=2, k=1), 0)| = 1, formula says -1\n"
        "  counterexample: |descendants(Word('0', q=2, k=1), 1)| = 1, formula says -1\n"
        "  counterexample: |descendants(Word('1', q=2, k=1), 0)| = 1, formula says -1\n"
        "  counterexample: |descendants(Word('1', q=2, k=1), 1)| = 1, formula says -1\n"
        "  counterexample: |descendants(Word('01', q=2, k=1), 0)| = 1, formula says -1"
    ),
    "intersection": (
        "intersection: 64 checks, FAIL\n"
        "  counterexample: |D^0(Word('001', q=2, k=1)) & D^0(Word('011', q=2, k=1))| = 0, formula says -1\n"
        "  counterexample: |D^1(Word('001', q=2, k=1)) & D^1(Word('011', q=2, k=1))| = 1, formula says -1\n"
        "  counterexample: |D^0(Word('0001', q=2, k=1)) & D^0(Word('0011', q=2, k=1))| = 0, formula says -1\n"
        "  counterexample: |D^1(Word('0001', q=2, k=1)) & D^1(Word('0011', q=2, k=1))| = 1, formula says -1\n"
        "  counterexample: |D^0(Word('0001', q=2, k=1)) & D^0(Word('0111', q=2, k=1))| = 0, formula says -1"
    ),
    "distance": (
        "distance: 154 checks, FAIL\n"
        "  counterexample: distance(Word('0', q=2, k=1), Word('0', q=2, k=1)): bfs 0 vs formula -1\n"
        "  counterexample: distance(Word('00', q=2, k=1), Word('00', q=2, k=1)): bfs 0 vs formula -1\n"
        "  counterexample: distance(Word('000', q=2, k=1), Word('000', q=2, k=1)): bfs 0 vs formula -1\n"
        "  counterexample: distance(Word('1', q=2, k=1), Word('1', q=2, k=1)): bfs 0 vs formula -1\n"
        "  counterexample: distance(Word('11', q=2, k=1), Word('11', q=2, k=1)): bfs 0 vs formula -1"
    ),
    "distance-cross": (
        "distance: 154 checks, FAIL\n"
        "  counterexample: cross-cone pair Word('0', q=2, k=1), Word('1', q=2, k=1): bfs None, formula 7\n"
        "  counterexample: cross-cone pair Word('01', q=2, k=1), Word('10', q=2, k=1): bfs None, formula 7\n"
        "  counterexample: cross-cone pair Word('00', q=2, k=2), Word('01', q=2, k=2): bfs None, formula 7\n"
        "  counterexample: cross-cone pair Word('01', q=2, k=2), Word('10', q=2, k=2): bfs None, formula 7\n"
        "  counterexample: cross-cone pair Word('10', q=2, k=2), Word('11', q=2, k=2): bfs None, formula 7"
    ),
    "checker": (
        "checker: 192 checks, FAIL\n"
        "  counterexample: checkers disagree on {'q': 2, 'k': 1, 'n': 1, 'N': 0, 't': 1, 'codewords': ['0', '1']}: direct=True reduced=False\n"
        "  counterexample: checkers disagree on {'q': 2, 'k': 1, 'n': 1, 'N': 1, 't': 1, 'codewords': ['0']}: direct=True reduced=False\n"
        "  counterexample: checkers disagree on {'q': 2, 'k': 1, 'n': 1, 'N': 2, 't': 1, 'codewords': ['0']}: direct=True reduced=False\n"
        "  counterexample: checkers disagree on {'q': 2, 'k': 1, 'n': 1, 'N': 3, 't': 1, 'codewords': ['0', '1']}: direct=True reduced=False\n"
        "  counterexample: checkers disagree on {'q': 2, 'k': 1, 'n': 1, 'N': 0, 't': 2, 'codewords': ['1']}: direct=True reduced=False"
    ),
    "ball": (
        "ball: 136 checks, FAIL\n"
        "  counterexample: ball(m=1, d=0, center=(0, 2)): brute 1 vs formula -1\n"
        "  counterexample: ball(m=1, d=0, center=(1, 1)): brute 1 vs formula -1\n"
        "  counterexample: ball(m=1, d=0, center=(2, 0)): brute 1 vs formula -1\n"
        "  counterexample: ball(m=1, d=1, center=(1, 3)): brute 3 vs formula -1\n"
        "  counterexample: ball(m=1, d=1, center=(2, 2)): brute 3 vs formula -1"
    ),
    "bounds": (
        "bounds: 1003 checks, FAIL\n"
        "  counterexample: (N=338481, t=1, m=6): exact 1000000000, entropy 0, log 1\n"
        "  counterexample: (N=126210, t=1, m=23): exact 1000000000, entropy 0, log 1\n"
        "  counterexample: (N=645630, t=5, m=7): exact 1000000000, entropy 0, log 1\n"
        "  counterexample: (N=14 <= m=23, t=36): exact 1000000000, expected 36\n"
        "  counterexample: (N=4 <= m=10, t=9): exact 1000000000, expected 9"
    ),
    "sidon": (
        "sidon: 135 checks, FAIL\n"
        "  counterexample: sidon_code(1,0,2) has distance 1\n"
        "  counterexample: sidon_code(1,0,3) has distance 2\n"
        "  counterexample: sidon_code(1,1,2) has distance 1\n"
        "  counterexample: sidon_code(1,1,3) has distance 2\n"
        "  counterexample: sidon_code(1,2,2) has distance 1"
    ),
}


def run_forced(monkeypatch, case: str) -> OracleResult:
    suite, name, fake, kwargs = FORCED[case]
    monkeypatch.setattr(oracles, name, fake)
    return oracles.ALL_SUITES[suite](**kwargs)


@pytest.mark.parametrize("case", list(FORCED))
def test_forced_failure_summary(monkeypatch, case):
    assert run_forced(monkeypatch, case).summary() == SUMMARIES[case]


def test_forced_failures_cover_every_suite():
    assert {suite for suite, *_ in FORCED.values()} == set(oracles.ALL_SUITES)


def test_fail_keeps_first_messages():
    result = OracleResult("demo")
    for i in range(MAX_REPORTED + 3):
        result.checks += 1
        result.fail(f"case {i}")
    assert result.checks == MAX_REPORTED + 3
    assert result.failures == [f"case {i}" for i in range(MAX_REPORTED)]
    assert not result.ok


# 5 and 26 roots lie within lengths 1 and 2, so those caps are met exactly
@pytest.mark.parametrize("cap", [0, 3, 5, 26, 500, 5000])
@pytest.mark.parametrize("suite", ["cone-count", "intersection", "distance"])
def test_root_range_priced_before_any_walk(monkeypatch, suite, cap):
    # the range is refused exactly when its roots, counted length by length, pass the cap
    monkeypatch.setattr(oracles, "IRREDUCIBLE_CAP", cap)
    max_len = 4
    walked = []
    monkeypatch.setattr(oracles, "_all_roots", lambda q, k, n: walked.append(q) or [])
    total = 0
    for length in range(1, max_len + 1):
        total += sum(
            len(oracles.irreducible_words(oracles.DupParams(q, k), length))
            for q in oracles.QS
            for k in oracles.KS
        )
        if total > cap:
            with pytest.raises(ResourceCapError) as excinfo:
                oracles.ALL_SUITES[suite](max_root_len=max_len)
            want = f"oracle range holds {total} roots up to length {length}, above cap {cap}"
            assert str(excinfo.value) == want and walked == []
            return
    assert oracles.ALL_SUITES[suite](max_root_len=max_len).checks == 0
    assert walked


def test_cone_price_counts_each_length_once(monkeypatch):
    # one weight DP per (q, k, length) prices both the roots and the steps: 18 at length 5
    calls = []
    weights = utr._rll_weights

    def counted(l, top, params):
        calls.append((params.q, params.k, l))
        return weights(l, top, params)

    # every module that binds the DP calls the wrapper, so no call goes uncounted
    for module in list(sys.modules.values()):
        if module.__name__.startswith("tandemreco") and vars(module).get("_rll_weights") is weights:
            monkeypatch.setattr(module, "_rll_weights", counted)
    oracles._price_cones("intersection", 5, 3, True)
    assert len(calls) == len(set(calls)) == 18


# argv whose ranges lie far above the budget
UNPRICED_ARGV = [
    ["oracle", "--suite", "checker", "--samples", "1000000000"],
    ["oracle", "--suite", "bounds", "--samples", "1000000000"],
    ["oracle", "--suite", "cone-count", "--max-root-len", "2", "--max-t", "1000000000"],
    ["oracle", "--suite", "intersection", "--max-root-len", "2", "--max-t", "1000000000"],
]


def test_oracle_ranges_are_refused_before_any_check(run_optimized):
    # in a process under a 2 GB address-space limit it set on itself, each run ends at once;
    # an unpriced range would run on, so the alarm ends the process and the test fails
    script = (
        "import contextlib, io, json, resource, signal, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "signal.alarm(20)\n"
        "from tandemreco.cli import main\n"
        "out = []\n"
        f"for argv in {UNPRICED_ARGV!r}:\n"
        "    err, start = io.StringIO(), time.perf_counter()\n"
        "    with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    out.append([code, err.getvalue(), time.perf_counter() - start])\n"
        "print(json.dumps(out))\n"
    )
    runs = json.loads(run_optimized(script))
    suites = ["checker", "bounds", "cone-count", "intersection"]
    for suite, (code, text, seconds) in zip(suites, runs):
        lines = text.splitlines()
        assert code == 2 and len(lines) == 1, (suite, text)
        assert lines[0].startswith(f"error: {suite} suite costs "), lines
        assert lines[0].endswith(f" steps, above cap {oracles.ORACLE_BUDGET}")
        assert seconds < 2, (suite, seconds)


def _walked(key: str, k: int, max_t: int) -> int:
    """The symbols of the layers 0 ... max_t of a literal walk from key."""
    layers = islice(oracles._walk(key, k, oracles._effective_cap()), max_t + 1)
    return sum(len(layer) * len(next(iter(layer))) for layer in layers if layer)


@pytest.mark.parametrize("pairs", [False, True])
def test_cone_price_counts_the_walks_and_pairs(monkeypatch, pairs):
    # the closed-form price equals the symbols the suite's walks build plus its pair checks
    charged = []
    monkeypatch.setattr(oracles, "_charge", lambda suite, steps: charged.append(steps))
    max_len, max_t = 4, 2
    oracles._price_cones("demo", max_len, max_t, pairs)
    steps = 0
    for q in oracles.QS:
        for k in oracles.KS:
            for x in oracles._all_roots(q, k, max_len):
                cone = islice(oracles._layers(x, oracles._effective_cap()), oracles.MAX_S + 1)
                for layer in cone if pairs else [{_key(x.symbols)}]:
                    steps += sum(_walked(key, k, max_t) for key in layer)
                    steps += math.comb(len(layer), 2) * (max_t + 1)
    assert charged == [steps]
