"""The four workloads of the benchmark.

Every workload uses q = 2, k = 2.  A workload has a ``prepare`` step (its
set-up, after the package is imported), a ``round`` of operations that the
harness repeats until the run's time is up, and a ``finish`` step of final
output checks.  Operations go through a :class:`Recorder`, which times them
and counts them as attempted or failed; the benchmark's own checks run
inside ``rec.checking()`` so that a traced run does not trace them.

Run as a script, this module prints the check count of every oracle suite at
the ranges the ``oracle-crosscheck`` workload uses:

    PYTHONPATH=src python3 bench/workloads.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from array import array
from pathlib import Path

Q, K = 2, 2

# (n, t, N, literal checker too)
DENSE_CODES = [(12, 1, 1, True), (14, 1, 1, True), (16, 1, 1, False)]
# (16, 3, 1) needs distance 3; its Sidon search exhausts its budget today.
SIDON_CODES = [(20, 2, 1, False), (16, 3, 11, False), (16, 3, 1, False)]

DECODE_CODE = (16, 3, 11)
DECODE_POOL = 1000
DECODES_PER_ROUND = 250
SCAN_SAMPLE = 2

# suite name -> keyword arguments; the checker suite also gets the seed
ORACLE_SUITES = {
    "intersection": {"max_root_len": 5},
    "distance": {},
    "checker": {"samples": 25},
    "sidon": {},
    "cone-count": {},
}
CHECKER_CHECKS = 2 * 2 * 6 * 2 * 4 * ORACLE_SUITES["checker"]["samples"]
# regenerate with the command in this module's docstring
ORACLE_CHECKS = {
    "intersection": 57872,
    "distance": 19892,
    "checker": CHECKER_CHECKS,
    "sidon": 135,
    "cone-count": 4492,
}

FAILED = object()


class Recorder:
    """Times operations of one round and counts attempted and failed ones.

    After :meth:`settle`, ``busy`` and ``times`` are in reference seconds
    (see ``speed.py``) and ``wall`` is the plain wall time of the same
    operations.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.spans: list[tuple[str, tuple, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.wall = 0.0
        self.times: dict[str, array] = {}
        self.seen: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}

    def run(self, kind: str, fn, *args, ok=None, slot=None):
        """Run one operation; FAILED if it raised or ``ok(result)`` is false.

        ``slot`` names the operation's place in the round, the same in every
        round; by default the kind and how many of that kind came before.
        """
        seen = self.seen.get(kind, 0)
        self.seen[kind] = seen + 1
        slot = slot or (kind, seen)
        self.attempted += 1
        clock = time.perf_counter
        start = clock()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.call(kind, fn, *args)
            end = clock()
            good = ok is None or ok(result)
            reason = None if good else f"{kind}: returned {result!r}"
        except Exception as err:  # a failed operation is counted, not fatal
            end = clock()
            good, reason = False, f"{kind}: {type(err).__name__}"
        self.spans.append((kind, slot, start, end))
        if good:
            return result
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        return FAILED

    def settle(self, sampler, slots) -> None:
        """Convert the operations' wall intervals to reference seconds.

        Each operation's time also goes to ``slots`` (a ``speed.SlotTimes``).
        """
        for kind, slot, start, end in self.spans:
            scaled = sampler.scaled(start, end)
            slots.add(slot, scaled, sampler.loop_time(start, end))
            self.wall += end - start
            self.busy += scaled
            self.times.setdefault(kind, array("d")).append(scaled)
        self.spans.clear()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    def checking(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()


# --- build-dense and build-sidon ------------------------------------------

def expected_size(api, n: int, t: int, N: int) -> int:
    """Code size by counting, without listing a codeword.

    q^k * sum over m >= m_n of count_rll_weight(l, m) * sidon_code_size(m, r_n, d(m)),
    with r_n, m_n and the root length derived from the capacity profile the
    way Construction A derives them.
    """
    params = api.duplication.DupParams(Q, K)
    profile = api.capacity.capacity_profile(params)
    r_n = round((1.0 - profile.gamma0) * n / K - 1.0)
    l = n - r_n * K - K
    m_n = math.ceil(profile.theta * profile.gamma0 * n)
    total = 0
    for m in range(m_n, l + 1):
        d = api.simplex.required_distance(N, t, m)
        total += api.utr.count_rll_weight(l, m, params) * api.simplex.sidon_code_size(m, r_n, d)
    return Q**K * total


class BuildWorkload:
    """construction_a, dumps, UtrCode.loads + cone_index, then the checkers."""

    def __init__(self, codes):
        self.codes = codes

    def prepare(self, api, seed: int) -> dict:
        return {
            "api": api,
            "params": api.duplication.DupParams(Q, K),
            "rng": random.Random(seed),
            "expected": {},
        }

    def round(self, state: dict, rec: Recorder) -> None:
        for n, t, N, literal in state["rng"].sample(self.codes, len(self.codes)):
            self._pipeline(state, rec, n, t, N, literal)

    def _pipeline(self, state: dict, rec: Recorder, n: int, t: int, N: int, literal: bool):
        # one code at a time: its objects are freed on return, so the peak
        # memory does not depend on the seeded order of the codes
        api, params = state["api"], state["params"]
        utr = api.utr
        built = rec.run("build", _build, utr, params, n, t, N, slot=("build", n, t, N))
        if built is FAILED:
            return
        code, text = built
        loaded = rec.run("load", _load, utr, text, slot=("load", n, t, N))
        if loaded is FAILED:
            return
        verdicts = rec.run("verify", _verify, utr, loaded, literal, slot=("verify", n, t, N))
        with rec.checking():
            key = (n, t, N)
            if key not in state["expected"]:
                state["expected"][key] = expected_size(api, n, t, N)
            want = state["expected"][key]
            rec.check(len(code) == want, f"{key}: {len(code)} codewords, counting gives {want}")
            rec.check(all(len(w) == n for w in code.codewords), f"{key}: codeword length")
            rec.check(
                loaded.codewords == code.codewords
                and (loaded.n, loaded.t, loaded.N, loaded.params) == (n, t, N, params),
                f"{key}: dumps/loads round trip differs",
            )
            rec.check(
                sum(len(v) for v in loaded.cone_index.values()) == want,
                f"{key}: cone index does not cover the code",
            )
            if verdicts is not FAILED:
                reduced, direct = verdicts
                rec.check(reduced.ok, f"{key}: reduced checker rejects the code")
                rec.check(direct is None or direct.ok == reduced.ok, f"{key}: checkers disagree")

    def finish(self, state: dict, rec: Recorder) -> None:
        pass


def _build(utr, params, n, t, N):
    code = utr.construction_a(params, n, t, N)
    return code, code.dumps()


def _load(utr, text):
    code = utr.UtrCode.loads(text)
    code.cone_index
    return code


def _verify(utr, code, literal):
    reduced = utr.is_utr_code_reduced(code)
    direct = utr.is_utr_code_direct(code) if literal else None
    return reduced, direct


# --- decode-reads -----------------------------------------------------------

# `code info` on each must exit with code 2; the last file is the control,
# the first two raise a traceback today.
MALFORMED_CODE_FILES = {
    "missing-key.json": json.dumps({"q": 2, "k": 2, "n": 4, "N": 1, "t": 1}),
    "not-json.json": "this is not JSON\n",
    "bad-symbol.json": json.dumps(
        {"q": 2, "k": 2, "n": 4, "N": 1, "t": 1, "codewords": ["0120"]}
    ),
}


class DecodeWorkload:
    """Closed loop, one caller: reconstruct from 12 distinct reads per call."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, api, seed: int) -> dict:
        n, t, N = DECODE_CODE
        params = api.duplication.DupParams(Q, K)
        code = api.utr.UtrCode.loads(api.utr.construction_a(params, n, t, N).dumps())
        code.cone_index
        rng = random.Random(seed)
        pool = []
        for _ in range(DECODE_POOL):
            word = code.codewords[rng.randrange(len(code))]
            reads = set()
            while len(reads) < N + 1:
                reads.add(api.duplication.channel_sample(word, t, rng.randrange(2**32)))
            reads = sorted(reads, key=lambda w: w.symbols)
            rng.shuffle(reads)
            pool.append((word, reads))
        files = []
        for name, text in MALFORMED_CODE_FILES.items():
            path = self.workdir / name
            path.write_text(text)
            files.append(str(path))
        return {"api": api, "code": code, "pool": pool, "next": 0, "files": files, "rng": rng}

    def round(self, state: dict, rec: Recorder) -> None:
        api, code, pool = state["api"], state["code"], state["pool"]
        reconstruct = api.utr.reconstruct
        for _ in range(DECODES_PER_ROUND):
            word, reads = pool[state["next"] % len(pool)]
            state["next"] += 1
            got = rec.run("decode", reconstruct, code, reads)
            if got is not FAILED and got != word:
                rec.errors.append(f"decode returned {got} for reads of {word}")
        for path in state["files"]:
            rec.run("cli", _code_info, api.cli.main, path, ok=lambda status: status == 2)

    def finish(self, state: dict, rec: Recorder) -> None:
        code, pool = state["code"], state["pool"]
        for word, reads in state["rng"].sample(pool, SCAN_SAMPLE):
            got = state["api"].utr.reconstruct_scan(code, reads)
            rec.check(got == word, f"reconstruct_scan returned {got} for reads of {word}")


def _code_info(main, path: str) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(["code", "info", "--code", path])


# --- oracle-crosscheck --------------------------------------------------------

class OracleWorkload:
    """The brute-force cross-check suites, each one operation."""

    def prepare(self, api, seed: int) -> dict:
        return {"api": api, "seed": seed, "rng": random.Random(seed)}

    def round(self, state: dict, rec: Recorder) -> None:
        suites = state["api"].oracles.ALL_SUITES
        names = list(ORACLE_SUITES)
        state["rng"].shuffle(names)
        for name in names:
            kwargs = dict(ORACLE_SUITES[name])
            if name == "checker":
                kwargs["seed"] = state["seed"]
            result = rec.run(f"oracles.{name}", _suite, suites[name], kwargs)
            if result is FAILED:
                continue
            rec.count(f"oracles.{name}.checks", result.checks)
            rec.check(result.ok, result.summary())
            rec.check(
                result.checks == ORACLE_CHECKS[name],
                f"{name}: {result.checks} checks, expected {ORACLE_CHECKS[name]}",
            )

    def finish(self, state: dict, rec: Recorder) -> None:
        pass


def _suite(fn, kwargs):
    return fn(**kwargs)


def make(name: str, workdir: Path):
    if name == "build-dense":
        return BuildWorkload(DENSE_CODES)
    if name == "build-sidon":
        return BuildWorkload(SIDON_CODES)
    if name == "decode-reads":
        return DecodeWorkload(workdir)
    if name == "oracle-crosscheck":
        return OracleWorkload()
    raise KeyError(name)


WORKLOADS = ["build-dense", "build-sidon", "decode-reads", "oracle-crosscheck"]


if __name__ == "__main__":
    from tandemreco.oracles import ALL_SUITES

    for suite, kwargs in ORACLE_SUITES.items():
        print(suite, ALL_SUITES[suite](**kwargs).checks)
