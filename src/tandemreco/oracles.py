"""Brute-force cross-check suites.

Each suite pits a closed form against literal enumeration over a bounded
range and reports every mismatch.  The ranges are the module constants
below, stated once; the command line and the benchmark set only
``max_root_len``, ``max_t``, ``samples`` and ``seed``, and the acceptance
tests run every suite at its defaults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice, product

from .duplication import DupParams, Word, _layers
from .metric import (
    cone_intersection_size,
    descendant_count,
    duplication_distance,
    duplication_distance_bfs,
)
from .simplex import (
    ball_size,
    ball_size_bruteforce,
    enumerate_simplex,
    required_distance,
    required_distance_upper_entropy,
    required_distance_upper_log,
    sidon_code,
)
from .utr import UtrCode, irreducible_words, is_utr_code_direct, is_utr_code_reduced

MAX_REPORTED = 5
QS = (2, 3)
KS = (1, 2)
MAX_S = 2
CHECKER_RANGE = (6, (1, 2), 3)  # (max_n, ts, max_N)
TRIV_SAMPLES = 1_000
BALL_RANGE = (4, 3)  # (max_m, max_d)
SIDON_RANGE = (5, 8, 3)  # (max_m, max_r, max_d)


@dataclass
class OracleResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, condition: bool, describe) -> None:
        self.checks += 1
        if not condition and len(self.failures) < MAX_REPORTED:
            self.failures.append(describe())

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        line = f"{self.name}: {self.checks} checks, {status}"
        for f in self.failures:
            line += f"\n  counterexample: {f}"
        return line


def _all_roots(q: int, k: int, max_len: int) -> list[Word]:
    params = DupParams(q, k)
    out: list[Word] = []
    for length in range(k, max_len + 1):
        out.extend(irreducible_words(params, length))
    return out


def suite_cone_count(max_root_len: int = 6, max_t: int = 3) -> OracleResult:
    """Descendant-layer sizes against the balls-in-bins closed form."""
    result = OracleResult("cone-count")
    for q in QS:
        for k in KS:
            for x in _all_roots(q, k, max_root_len):
                for t, layer in enumerate(islice(_layers(x), max_t + 1)):
                    got = len(layer)
                    want = descendant_count(x, t)
                    result.record(
                        got == want,
                        lambda x=x, t=t, got=got, want=want: (
                            f"|descendants({x!r}, {t})| = {got}, formula says {want}"
                        ),
                    )
    return result


def suite_intersection(max_root_len: int = 6, max_t: int = 3) -> OracleResult:
    """Pairwise intersection sizes against the shifted-cone closed form."""
    result = OracleResult("intersection")
    for q in QS:
        for k in KS:
            for x in _all_roots(q, k, max_root_len):
                for layer in islice(_layers(x), MAX_S + 1):
                    members = [Word._trusted(sym, x.params) for sym in sorted(layer)]
                    tables = [list(islice(_layers(w), max_t + 1)) for w in members]
                    for i in range(len(members)):
                        for j in range(i + 1, len(members)):
                            y, y2 = members[i], members[j]
                            for t in range(max_t + 1):
                                got = len(tables[i][t] & tables[j][t])
                                want = cone_intersection_size(y, y2, t)
                                result.record(
                                    got == want,
                                    lambda y=y, y2=y2, t=t, got=got, want=want: (
                                        f"|D^{t}({y!r}) & D^{t}({y2!r})| = {got},"
                                        f" formula says {want}"
                                    ),
                                )
    return result


def suite_distance(max_root_len: int = 5) -> OracleResult:
    """Closed-form distance against layered search, plus cross-cone pairs."""
    result = OracleResult("distance")
    for q in QS:
        for k in KS:
            roots = _all_roots(q, k, max_root_len)
            for x in roots:
                for layer in islice(_layers(x), MAX_S + 1):
                    members = [Word._trusted(sym, x.params) for sym in sorted(layer)]
                    for i in range(len(members)):
                        for j in range(i, len(members)):
                            y, y2 = members[i], members[j]
                            want = duplication_distance(y, y2)
                            got = duplication_distance_bfs(y, y2, t_max=MAX_S * k + 2)
                            result.record(
                                got == want,
                                lambda y=y, y2=y2, got=got, want=want: (
                                    f"distance({y!r}, {y2!r}): bfs {got} vs formula {want}"
                                ),
                            )
            # a few cross-root pairs of equal length must be unreachable
            by_len: dict[int, list[Word]] = {}
            for x in roots:
                by_len.setdefault(len(x), []).append(x)
            for length, group in by_len.items():
                for a, b in zip(group, group[1:]):
                    want = duplication_distance(a, b)
                    got = duplication_distance_bfs(a, b, t_max=3)
                    result.record(
                        math.isinf(want) and got is None,
                        lambda a=a, b=b, got=got, want=want: (
                            f"cross-cone pair {a!r}, {b!r}: bfs {got}, formula {want}"
                        ),
                    )
    return result


def _random_code(
    rng: random.Random, space: list[tuple[int, ...]], params: DupParams, N: int, t: int
) -> UtrCode:
    size = rng.randint(1, min(5, len(space)))
    picks = rng.sample(range(len(space)), size)
    words = [Word(space[value], params) for value in picks]
    return UtrCode(params, len(space[0]), N, t, tuple(words))


def suite_checker(samples: int = 100, seed: int = 20240) -> OracleResult:
    """Direct and reduced validity checkers must agree on random codes."""
    result = OracleResult("checker")
    rng = random.Random(seed)
    max_n, ts, max_N = CHECKER_RANGE
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
                            result.record(
                                direct.ok == reduced.ok,
                                lambda code=code, direct=direct, reduced=reduced: (
                                    f"checkers disagree on {code.to_json()}:"
                                    f" direct={direct.ok} reduced={reduced.ok}"
                                ),
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
                result.record(
                    got == want,
                    lambda m=m, d=d, center=center, got=got, want=want: (
                        f"ball(m={m}, d={d}, center={center}): brute {got} vs formula {want}"
                    ),
                )
    return result


def suite_bounds(samples: int = 10_000, seed: int = 51423) -> OracleResult:
    """Distance-requirement bound ordering and the small-N collapse."""
    result = OracleResult("bounds")
    rng = random.Random(seed)
    for _ in range(samples):
        m = rng.randint(1, 40)
        t = rng.randint(1, 50)
        big_n = rng.randint(m + 1, 2**20)
        exact = required_distance(big_n, t, m)
        ent = required_distance_upper_entropy(big_n, t, m)
        log = required_distance_upper_log(big_n, t, m)
        result.record(
            exact <= ent <= log,
            lambda m=m, t=t, big_n=big_n, exact=exact, ent=ent, log=log: (
                f"(N={big_n}, t={t}, m={m}): exact {exact}, entropy {ent}, log {log}"
            ),
        )
    for _ in range(TRIV_SAMPLES):
        m = rng.randint(1, 60)
        t = rng.randint(1, 50)
        big_n = rng.randint(1, m)
        exact = required_distance(big_n, t, m)
        result.record(
            exact == t,
            lambda m=m, t=t, big_n=big_n, exact=exact: (
                f"(N={big_n} <= m={m}, t={t}): exact {exact}, expected {t}"
            ),
        )
    return result


def suite_sidon() -> OracleResult:
    """Congruence-class codes must deliver their promised distance."""
    result = OracleResult("sidon")
    max_m, max_r, max_d = SIDON_RANGE
    for m in range(1, max_m + 1):
        for r in range(0, max_r + 1):
            for d in range(1, max_d + 1):
                code = sidon_code(m, r, d)
                dist = code.min_half_distance
                result.record(
                    dist is None or dist >= d,
                    lambda m=m, r=r, d=d, dist=dist: (
                        f"sidon_code({m},{r},{d}) has distance {dist}"
                    ),
                )
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
