"""Brute-force cross-check suites.

Each suite pits a closed form against literal enumeration over a bounded
range and reports its first ``MAX_REPORTED`` mismatches.  The ranges are
the module constants below, stated once; the command line and the
benchmark set only ``max_root_len``, ``max_t``, ``samples`` and ``seed``,
and the acceptance tests run every suite at its defaults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice, product

from .duplication import (
    DupParams,
    Word,
    _effective_cap,
    _layers,
    _shared_expansion,
    _symbols,
    _walk,
    _walk_symbols,
)
from .errors import ResourceCapError
from .metric import (
    cone_intersection_size,
    descendant_count,
    duplication_distance,
    duplication_distance_bfs,
)
from .simplex import (
    _close_pair,
    ball_size,
    ball_size_bruteforce,
    enumerate_simplex,
    min_half_distance,
    required_distance,
    required_distance_upper_entropy,
    required_distance_upper_log,
    sidon_code,
)
from .utr import (
    IRREDUCIBLE_CAP,
    UtrCode,
    _root_weights,
    irreducible_words,
    is_utr_code_direct,
    is_utr_code_reduced,
)

MAX_REPORTED = 5
QS = (2, 3)
KS = (1, 2)
MAX_S = 2
CHECKER_RANGE = (6, (1, 2), 3)  # (max_n, ts, max_N)
CODE_WORDS = 5  # most words in one random code of the checker suite
TRIV_SAMPLES = 1_000
BOUNDS_MAX_T = 50  # the bounds suite draws t in 1 ... BOUNDS_MAX_T
BALL_RANGE = (4, 3)  # (max_m, max_d)
SIDON_RANGE = (5, 8, 3)  # (max_m, max_r, max_d)
# steps one suite run may take, priced before its first check: a symbol that its walks
# build or one comparison it makes (0.15-0.35 us a step on a shared 2-vCPU machine)
ORACLE_BUDGET = 10**8


@dataclass
class OracleResult:
    """A suite's comparisons made, and its first ``MAX_REPORTED`` failure messages."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < MAX_REPORTED:
            self.failures.append(message)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        line = f"{self.name}: {self.checks} checks, {status}"
        for f in self.failures:
            line += f"\n  counterexample: {f}"
        return line


def _charge(suite: str, steps: int) -> None:
    """Refuse a suite run whose price passes ``ORACLE_BUDGET``."""
    if steps > ORACLE_BUDGET:
        raise ResourceCapError(f"{suite} suite costs {steps} steps, above cap {ORACLE_BUDGET}")


def _price_cones(suite: str, max_len: int, max_t: int, pairs: bool) -> None:
    """Refuse a walk suite's root range or its steps, before its first walk.

    Each length n's roots over every (q, k) of the suites are counted by cone
    dimension m (:func:`_root_weights`); the range is refused at the first n
    whose running total passes ``IRREDUCIBLE_CAP``.  Layer s of a root's cone
    holds C(s + m, m) members.  The suite walks every member of layers s <=
    MAX_S (with ``pairs``; of layer 0 alone without) to depth max_t, building
    the symbols ``_walk_symbols`` counts, and with ``pairs`` compares every
    two members of a layer at each depth.
    """
    roots = steps = 0
    for n in range(1, max_len + 1):
        for q, k in product(QS, KS):
            for m, count in enumerate(_root_weights(DupParams(q, k), n)):
                roots += count
                for s in range(MAX_S + 1 if pairs else 1):
                    members = math.comb(s + m, m)
                    walks = members * _walk_symbols(m, max_t, n + s * k, k)
                    steps += count * (walks + math.comb(members, 2) * (max_t + 1))
        if roots > IRREDUCIBLE_CAP:
            raise ResourceCapError(
                f"oracle range holds {roots} roots up to length {n}, above cap {IRREDUCIBLE_CAP}"
            )
    _charge(suite, steps)


def _all_roots(q: int, k: int, max_len: int) -> list[Word]:
    params = DupParams(q, k)
    return [x for length in range(k, max_len + 1) for x in irreducible_words(params, length)]


def suite_cone_count(max_root_len: int = 6, max_t: int = 3) -> OracleResult:
    """Descendant-layer sizes against the balls-in-bins closed form."""
    _price_cones("cone-count", max_root_len, max_t, pairs=False)
    result = OracleResult("cone-count")
    cap = _effective_cap()
    for q in QS:
        for k in KS:
            for x in _all_roots(q, k, max_root_len):
                for t, layer in enumerate(islice(_layers(x, cap), max_t + 1)):
                    got = len(layer)
                    want = descendant_count(x, t)
                    result.checks += 1
                    if got != want:
                        result.fail(f"|descendants({x!r}, {t})| = {got}, formula says {want}")
    return result


def suite_intersection(max_root_len: int = 6, max_t: int = 3) -> OracleResult:
    """Pairwise intersection sizes against the shifted-cone closed form."""
    _price_cones("intersection", max_root_len, max_t, pairs=True)
    result = OracleResult("intersection")
    cap = _effective_cap()
    for q in QS:
        for k in KS:
            for x in _all_roots(q, k, max_root_len):
                # the members' cones overlap, so they share one child memo per root
                with _shared_expansion():
                    for layer in islice(_layers(x, cap), MAX_S + 1):
                        keys = sorted(layer)
                        members = [Word._trusted(_symbols(key), x.params) for key in keys]
                        tables = [list(islice(_walk(key, k, cap), max_t + 1)) for key in keys]
                        for i in range(len(members)):
                            for j in range(i + 1, len(members)):
                                y, y2 = members[i], members[j]
                                for t in range(max_t + 1):
                                    got = len(tables[i][t] & tables[j][t])
                                    want = cone_intersection_size(y, y2, t)
                                    result.checks += 1
                                    if got != want:
                                        result.fail(
                                            f"|D^{t}({y!r}) & D^{t}({y2!r})| = {got},"
                                            f" formula says {want}"
                                        )
    return result


def suite_distance(max_root_len: int = 5) -> OracleResult:
    """Closed-form distance against layered search, plus cross-cone pairs."""
    # each root is walked to MAX_S here; every search prices its own layers
    _price_cones("distance", max_root_len, MAX_S, pairs=False)
    result = OracleResult("distance")
    cap = _effective_cap()
    for q in QS:
        for k in KS:
            roots = _all_roots(q, k, max_root_len)
            for x in roots:
                # every pair's search walks the same cone, so the pairs share one child memo
                with _shared_expansion():
                    for layer in islice(_layers(x, cap), MAX_S + 1):
                        members = [Word._trusted(_symbols(key), x.params) for key in sorted(layer)]
                        for i in range(len(members)):
                            for j in range(i, len(members)):
                                y, y2 = members[i], members[j]
                                want = duplication_distance(y, y2)
                                got = duplication_distance_bfs(y, y2, t_max=MAX_S * k + 2)
                                result.checks += 1
                                if got != want:
                                    result.fail(
                                        f"distance({y!r}, {y2!r}): bfs {got} vs formula {want}"
                                    )
            # neighbouring roots of equal length lie in different cones: unreachable
            for a, b in zip(roots, roots[1:]):
                if len(a) != len(b):
                    continue
                want = duplication_distance(a, b)
                got = duplication_distance_bfs(a, b, t_max=3)
                result.checks += 1
                if not (math.isinf(want) and got is None):
                    result.fail(f"cross-cone pair {a!r}, {b!r}: bfs {got}, formula {want}")
    return result


def _random_code(
    rng: random.Random, space: list[tuple[int, ...]], params: DupParams, N: int, t: int
) -> UtrCode:
    size = rng.randint(1, min(CODE_WORDS, len(space)))
    picks = rng.sample(range(len(space)), size)
    words = [Word(space[value], params) for value in picks]
    return UtrCode(params, len(space[0]), N, t, tuple(words))


def suite_checker(samples: int = 100, seed: int = 20240) -> OracleResult:
    """Direct and reduced validity checkers must agree on random codes."""
    max_n, ts, max_N = CHECKER_RANGE
    # a sample draws a code for each (q, k, n, t, N); the direct checker walks each word
    # to depth t, and a word of length n has at most n - k + 1 cone coordinates
    sample = (max_N + 1) * sum(
        min(CODE_WORDS, q**n) * _walk_symbols(n - k, t, n, k)
        for q in QS
        for k in KS
        for n in range(k, max_n + 1)
        for t in ts
    )
    _charge("checker", samples * sample)
    result = OracleResult("checker")
    rng = random.Random(seed)
    for q in QS:
        for k in KS:
            params = DupParams(q, k)
            for n in range(1, max_n + 1):
                space = list(product(range(q), repeat=n))
                for t in ts:
                    for N in range(0, max_N + 1):
                        for _ in range(samples):
                            code = _random_code(rng, space, params, N, t)
                            direct = is_utr_code_direct(code)
                            reduced = is_utr_code_reduced(code)
                            result.checks += 1
                            if direct.ok != reduced.ok:
                                result.fail(
                                    f"checkers disagree on {code.to_json()}:"
                                    f" direct={direct.ok} reduced={reduced.ok}"
                                )
    return result


def suite_ball() -> OracleResult:
    """Interior ball sizes against enumeration, all interior centers."""
    result = OracleResult("ball")
    max_m, max_d = BALL_RANGE
    for m in range(1, max_m + 1):
        for d in range(0, max_d + 1):
            r = (m + 1) * d + 2
            for center in enumerate_simplex(m, r):
                if min(center) < d:
                    continue
                got = ball_size_bruteforce(m, r, center, d)
                want = ball_size(m, d)
                result.checks += 1
                if got != want:
                    result.fail(
                        f"ball(m={m}, d={d}, center={center}): brute {got} vs formula {want}"
                    )
    return result


def suite_bounds(samples: int = 10_000, seed: int = 51423) -> OracleResult:
    """Distance-requirement bound ordering and the small-N collapse."""
    # a sample's longest loop is the entropy bound's, one step per d up to t
    _charge("bounds", (samples + TRIV_SAMPLES) * BOUNDS_MAX_T)
    result = OracleResult("bounds")
    rng = random.Random(seed)
    for _ in range(samples):
        m = rng.randint(1, 40)
        t = rng.randint(1, BOUNDS_MAX_T)
        big_n = rng.randint(m + 1, 2**20)
        exact = required_distance(big_n, t, m)
        ent = required_distance_upper_entropy(big_n, t, m)
        log = required_distance_upper_log(big_n, t, m)
        result.checks += 1
        if not exact <= ent <= log:
            result.fail(f"(N={big_n}, t={t}, m={m}): exact {exact}, entropy {ent}, log {log}")
    for _ in range(TRIV_SAMPLES):
        m = rng.randint(1, 60)
        t = rng.randint(1, BOUNDS_MAX_T)
        big_n = rng.randint(1, m)
        exact = required_distance(big_n, t, m)
        result.checks += 1
        if exact != t:
            result.fail(f"(N={big_n} <= m={m}, t={t}): exact {exact}, expected {t}")
    return result


def suite_sidon() -> OracleResult:
    """Congruence-class codes must deliver their promised distance."""
    result = OracleResult("sidon")
    max_m, max_r, max_d = SIDON_RANGE
    for m in range(1, max_m + 1):
        for r in range(0, max_r + 1):
            for d in range(1, max_d + 1):
                code = sidon_code(m, r, d)
                result.checks += 1
                if _close_pair(code, d):
                    dist = min_half_distance(code)
                    result.fail(f"sidon_code({m},{r},{d}) has distance {dist}")
    return result


ALL_SUITES = {
    "cone-count": suite_cone_count,
    "intersection": suite_intersection,
    "distance": suite_distance,
    "checker": suite_checker,
    "ball": suite_ball,
    "bounds": suite_bounds,
    "sidon": suite_sidon,
}
