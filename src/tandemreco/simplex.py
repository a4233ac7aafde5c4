"""Constant-weight codes in the half-Manhattan metric on integer simplices.

The ambient space is the set of nonnegative integer vectors of length m+1
with coordinate sum r.  Distance between two such points is half their L1
distance (always an integer).  This module enumerates the simplex, computes
the minimum code distance a given reconstruction budget demands, and builds
codes three ways: exact maximum (branch-and-bound clique search), greedy
(a Gilbert-Varshamov baseline), and congruence classes driven by Sidon sets.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from operator import mul, sub

from .entropy import binary_entropy, cal_H
from .errors import (
    DimensionMismatchError,
    DomainError,
    ResourceCapError,
    TandemError,
    WeightMismatchError,
    _shown,
)

SimplexPoint = tuple[int, ...]

DEFAULT_ENUM_CAP = 1_000_000
EXACT_MAX_POINTS = 2000
# vertices one exact clique search may colour, summed over all its branches
CLIQUE_WORK_CAP = 10**6
# (order, size) -> (set, modulus): every set of size >= 3 that a search
# scanning moduli upward from the counting bound finds within 500 000 attempts
SIDON_TABLE = {
    (2, 3): ((0, 1, 3), 7),
    (2, 4): ((0, 1, 3, 9), 13),
    (2, 5): ((0, 1, 4, 14, 16), 21),
    (2, 6): ((0, 1, 3, 8, 12, 18), 31),
    (3, 3): ((0, 1, 4), 13),
    (3, 4): ((0, 1, 5, 19), 30),
    (4, 3): ((0, 1, 8), 19),
    (4, 4): ((0, 1, 5, 24), 59),
    (5, 3): ((0, 1, 9), 30),
    (6, 3): ((0, 1, 11), 37),
    (7, 3): ((0, 1, 19), 49),
    (8, 3): ((0, 1, 14), 61),
    (9, 3): ((0, 1, 24), 79),
    (10, 3): ((0, 1, 17), 91),
    (11, 3): ((0, 1, 46), 109),
    (12, 3): ((0, 1, 20), 127),
    (13, 3): ((0, 1, 33), 151),
    (14, 3): ((0, 1, 23), 169),
}


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient, zero outside Pascal's triangle."""
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def simplex_size(m: int, r: int) -> int:
    return binom(r + m, m)


def enumerate_simplex(m: int, r: int, cap: int | None = None) -> list[SimplexPoint]:
    """All compositions of r into m+1 nonnegative parts, ascending lex order."""
    if m < 0 or r < 0:
        raise DomainError("dimension and weight must be nonnegative")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    total = simplex_size(m, r)
    if total > cap:
        raise ResourceCapError(f"simplex has {_shown(total)} points, above cap {cap}")

    # each next point moves one unit from the last nonzero coordinate to the one
    # before it and the rest of that coordinate to the end
    point = [0] * m + [r]
    out = [tuple(point)]
    last = m if r else 0
    while last:
        rest = point[last] - 1
        point[last] = 0
        point[last - 1] += 1
        point[m] = rest
        last = m if rest else last - 1
        out.append(tuple(point))
    return out


def half_manhattan(u: SimplexPoint, v: SimplexPoint) -> int:
    """Half the L1 distance; an integer whenever the coordinate sums agree."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"lengths differ: {len(u)} vs {len(v)}")
    if sum(u) != sum(v):
        raise WeightMismatchError(f"coordinate sums differ: {sum(u)} vs {sum(v)}")
    return sum(map(abs, map(sub, u, v))) // 2


def required_distance(N: int, t: int, m: int) -> int:
    """Smallest code distance that caps shared t-descendant counts at N.

    binom(t - d + m, m) does not increase with d and is 0 at d = t + 1, so
    the least d with binom(t - d + m, m) <= N is found by bisection.  With
    the zero-outside-triangle convention, N = 0 yields t + 1.
    """
    if N < 0 or t < 0 or m < 0:
        raise DomainError("arguments must be nonnegative")
    lo, hi = 0, t + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if binom(t - mid + m, m) > N:
            lo = mid + 1
        else:
            hi = mid
    return lo


def required_distance_upper_entropy(N: int, t: int, m: int) -> int:
    """Entropy-threshold upper bound on :func:`required_distance` (needs N > m > 0)."""
    if not N > m > 0:
        raise DomainError(f"need N > m > 0, got N={N}, m={m}")
    if t < 1:
        raise DomainError("need t >= 1")
    threshold = math.log2(N) / m
    d = 0
    while d < t and cal_H(1.0 + (t - d) / m) > threshold:
        d += 1
    return d


def required_distance_upper_log(N: int, t: int, m: int) -> int:
    """Closed-form upper bound max(1, t - floor(log2(N)^2 / (4m))) (needs N > m > 0)."""
    if not N > m > 0:
        raise DomainError(f"need N > m > 0, got N={N}, m={m}")
    if t < 1:
        raise DomainError("need t >= 1")
    return max(1, t - math.floor(math.log2(N) ** 2 / (4 * m)))


def min_half_distance(points: list[SimplexPoint]) -> int | None:
    """Minimum pairwise distance by comparing every pair, or None for fewer than two points."""
    if len(points) < 2:
        return None
    return min(half_manhattan(u, v) for u, v in combinations(points, 2))


def _shell(p: SimplexPoint, rho: int) -> Iterator[SimplexPoint]:
    """The nonnegative points of p's sum exactly rho >= 1 from p, below p where they first differ.

    Each takes rho units off p (a multiset of coordinates, none below zero)
    and adds rho units to coordinates above the lowest one taken that gave
    none.  Of two points rho apart, only the one above at their first
    differing coordinate holds the other in its shell.
    """
    for take in combinations_with_replacement(range(len(p)), rho):
        base = list(p)
        for i in take:
            base[i] -= 1
        if min(base) < 0:
            continue
        free = [i for i in range(take[0] + 1, len(p)) if i not in take]
        for give in combinations_with_replacement(free, rho):
            q = base[:]
            for i in give:
                q[i] += 1
            yield tuple(q)


def _near(present: set[SimplexPoint], rho: int) -> bool:
    """Whether two points of present are exactly rho apart, each pair looked up from one end."""
    return any(q in present for p in present for q in _shell(p, rho))


def _close_pair(points: Sequence[SimplexPoint], d: int) -> tuple[int, int, int] | None:
    """The first pair i < j of points closer than d, with its distance, or None.

    The points are distinct and of one simplex, so no two are closer than 1.
    When every point's shells of radius 1 ... d - 1, some |C| * ball_size(m,
    d - 1) lookups in all, cost less than the |C|(|C| - 1)/2 pairs, they are
    looked up first, and a set whose shells hold no point is cleared without
    comparing a pair.  Otherwise, or to name the pair a shell found, the
    pairs are compared in order.
    """
    n = len(points)
    if d <= 1 or n < 2:
        return None
    m = len(points[0]) - 1
    # a ball of radius >= 1 holds at least m^2 + m + 1 points, so a small set prices no ball
    if 2 * (m * m + m + 1) < n - 1 and 2 * ball_size(m, d - 1) < n - 1:
        present = set(points)
        if not any(_near(present, rho) for rho in range(1, d)):
            return None
    for i, u in enumerate(points):
        for j in range(i + 1, n):
            dist = half_manhattan(u, points[j])
            if dist < d:
                return i, j, dist
    return None


# --- exact maximum codes via clique search ---

def max_clique_bitset(adjacency: list[int]) -> list[int]:
    """Exact maximum clique of a graph given as per-vertex neighbor bitmasks.

    Deterministic branch-and-bound with a greedy-coloring bound; vertices
    are explored in index order, so ties resolve lexicographically.  Each
    branch colours its candidates, so the search's work is the vertices
    coloured over all branches; past ``CLIQUE_WORK_CAP`` it is refused.
    """
    n = len(adjacency)
    if n == 0:
        return []

    # greedy seed: lexicographic scan
    best: list[int] = []
    for v in range(n):
        if all(adjacency[v] >> u & 1 for u in best):
            best.append(v)

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        remaining = cand
        while remaining:
            color += 1
            avail = remaining
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                bounds.append(color)
                remaining &= ~(1 << v)
                avail &= ~adjacency[v]
                avail &= ~(1 << v)
        return order, bounds

    current: list[int] = []
    work = 0

    def expand(cand: int):
        nonlocal best, work
        work += cand.bit_count()
        if work > CLIQUE_WORK_CAP:
            raise ResourceCapError(f"clique search coloured more than {CLIQUE_WORK_CAP} vertices")
        order, bounds = color_sort(cand)
        for idx in range(len(order) - 1, -1, -1):
            if len(current) + bounds[idx] <= len(best):
                return
            v = order[idx]
            current.append(v)
            nxt = cand & adjacency[v]
            if nxt:
                expand(nxt)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            cand &= ~(1 << v)

    expand((1 << n) - 1)
    return sorted(best)


def exact_max_code(m: int, r: int, d: int) -> list[SimplexPoint]:
    """A maximum code of the requested distance, by exhaustive clique search.

    Exactness is only offered while the simplex has at most
    ``EXACT_MAX_POINTS`` points; larger instances raise rather than silently
    degrade.
    """
    if d < 0:
        raise DomainError("distance must be nonnegative")
    pts = enumerate_simplex(m, r, cap=EXACT_MAX_POINTS)
    if d <= 1:
        return pts
    n = len(pts)
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if half_manhattan(pts[i], pts[j]) >= d:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    chosen = max_clique_bitset(adjacency)
    return [pts[i] for i in chosen]


def greedy_code(m: int, r: int, d: int) -> list[SimplexPoint]:
    """Lexicographic greedy code; meets the covering lower bound by construction."""
    if d < 0:
        raise DomainError("distance must be nonnegative")
    chosen: list[SimplexPoint] = []
    for p in enumerate_simplex(m, r):
        if all(half_manhattan(p, c) >= d for c in chosen):
            chosen.append(p)
    # every point sits within d-1 of some chosen point
    if d >= 1 and m >= 1 and len(chosen) * ball_size(m, d - 1) < simplex_size(m, r):
        raise TandemError(f"greedy code of {len(chosen)} points leaves simplex points uncovered")
    return chosen


# --- Sidon sets and congruence codes ---

def is_sidon_set(elements: tuple[int, ...], h: int, modulus: int) -> bool:
    """True iff all h-element multisets of ``elements`` have distinct sums mod modulus."""
    seen: set[int] = set()
    for combo in combinations_with_replacement(elements, h):
        s = sum(combo) % modulus
        if s in seen:
            return False
        seen.add(s)
    return True


def _least_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def _prime_factors(n: int) -> list[int]:
    found, d = [], 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return found + [n] if n > 1 else found


def _gf_mul(a: tuple[int, ...], b: tuple[int, ...], low: list[int], p: int) -> tuple[int, ...]:
    """a * b in GF(p)[x] modulo x^h - sum of low[j] x^j; coefficients lowest degree first."""
    h = len(low)
    out = [0] * (2 * h - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    # x^d = x^(d - h) * x^h, from the top degree down
    for d in range(2 * h - 2, h - 1, -1):
        top = out[d] % p
        if top:
            for j in range(h):
                out[d - h + j] += top * low[j]
    return tuple(c % p for c in out[:h])


def _gf_pow(a: tuple[int, ...], e: int, low: list[int], p: int) -> tuple[int, ...]:
    out = (1,) + (0,) * (len(low) - 1)
    while e:
        if e & 1:
            out = _gf_mul(out, a, low, p)
        a = _gf_mul(a, a, low, p)
        e >>= 1
    return out


def bose_chowla_set(h: int, size: int) -> tuple[tuple[int, ...], int]:
    """A B_h set of ``size`` residues mod p^h - 1, p the least prime >= size.

    Bose & Chowla (1962): with theta a primitive element of GF(p^h), the p
    logarithms log_theta(theta + c), c in GF(p), have distinct h-multiset
    sums mod p^h - 1, since equal sums would make two distinct monic
    products of h factors (theta + c) equal, and theta would then be a root
    of a nonzero polynomial of degree below h.  GF(p^h) is GF(p)[x] modulo
    the first monic primitive polynomial x^h + a_1 x^(h-1) + ... + a_h in
    lexicographic order of (a_1, ..., a_h), and theta is x.  The ``size``
    smallest logarithms, translated so the first is 0, keep the property.

    A polynomial is primitive exactly when x has order p^h - 1 modulo it,
    which fast exponentiation tests over the prime factors of p^h - 1.  The
    logarithms come by baby-step giant-step (Shanks 1971), with one table of
    baby steps shared by all p of them.
    """
    if h < 2 or size < 1:
        raise DomainError("order must be at least 2 and size positive")
    p = _least_prime_at_least(size)
    # p^h >= 2^h, so from the cap's bit length on it is above the cap without being formed
    if h >= DEFAULT_ENUM_CAP.bit_length():
        raise ResourceCapError(f"GF({p}^{h}) has more than {DEFAULT_ENUM_CAP} elements")
    order = p**h - 1
    if order > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"GF({p}^{h}) has {order + 1} elements, above {DEFAULT_ENUM_CAP}")
    one = (1,) + (0,) * (h - 1)
    x = (0, 1) + (0,) * (h - 2)
    cofactors = [order // r for r in _prime_factors(order)]
    for coeffs in product(range(p), repeat=h):
        # x^h = sum of low[j] x^j; elements are coefficient tuples, lowest degree first
        low = [-a % p for a in reversed(coeffs)]
        # a zero low[0] means x divides the polynomial, so x is no unit
        if low[0] and _gf_pow(x, order, low, p) == one and all(
            _gf_pow(x, e, low, p) != one for e in cofactors
        ):
            break
    else:
        raise TandemError(f"no primitive polynomial of degree {h} over GF({p})")
    # baby steps x^j for j < m, sized to balance the p walks of giant steps x^-m
    m = min(order, math.isqrt(p * order) + 1)
    baby, elem = {}, one
    for j in range(m):
        baby[elem] = j
        elem = _gf_mul(elem, x, low, p)
    giant = _gf_pow(x, order - m, low, p)
    logs = []
    for c in range(p):
        elem, i = (c,) + x[1:], 0
        while elem not in baby:
            elem, i = _gf_mul(elem, giant, low, p), i + m
        logs.append(i + baby[elem])
    logs.sort()
    return tuple(e - logs[0] for e in logs[:size]), order


@cache
def sidon_set(h: int, size: int) -> tuple[tuple[int, ...], int]:
    """``size`` residues whose h-multiset sums are pairwise distinct, and their modulus.

    Order 1 is range(size) mod size; size 1 is (0,) mod 1 and size 2 is
    (0, 1) mod h + 1 at every order, whose h-multisets sum to 0 ... h.  A
    larger set is ``SIDON_TABLE[h, size]`` where the table has it, and
    :func:`bose_chowla_set` elsewhere; it is re-checked.  Every result is
    remembered per (h, size).
    """
    if h < 1 or size < 1:
        raise DomainError("order and size must be positive")
    if h == 1:
        return tuple(range(size)), size
    if size == 1:
        return (0,), 1
    if size == 2:
        return (0, 1), h + 1
    found, modulus = SIDON_TABLE.get((h, size)) or bose_chowla_set(h, size)
    if not is_sidon_set(found, h, modulus):
        raise TandemError(f"{found} is not a Sidon set of order {h} mod {modulus}")
    return found, modulus


def congruence_class_sizes(m: int, r: int, weights: tuple[int, ...], modulus: int) -> list[int]:
    """Count simplex points by weighted coordinate sum mod ``modulus``.

    Dynamic program over coordinates; entry c of the result is the number
    of points x with sum(weights[i] * x[i]) = c (mod modulus).  Its
    (m + 1)(r + 1) * modulus cells are priced against ``DEFAULT_ENUM_CAP``
    before it runs.
    """
    if len(weights) != m + 1:
        raise DimensionMismatchError(f"need {m + 1} weights, got {len(weights)}")
    cells = (m + 1) * (r + 1) * modulus
    if cells > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"class count of {cells} cells above cap {DEFAULT_ENUM_CAP}")
    dp = [[0] * modulus for _ in range(r + 1)]
    dp[0][0] = 1
    for w in weights:
        ndp = [[0] * modulus for _ in range(r + 1)]
        for s in range(r + 1):
            prev = dp[s]
            row = ndp[s]
            if s == 0:
                row[:] = prev
                continue
            below = ndp[s - 1]
            for c in range(modulus):
                row[c] = prev[c] + below[(c - w) % modulus]
        dp = ndp
    return dp[r]


def _class_sizes(m: int, r: int, d: int) -> tuple[tuple[int, ...], int, list[int]]:
    """The weights and modulus of the classes at distance d, and each class's size, unlisted."""
    if d < 1:
        raise DomainError("distance must be >= 1")
    if m < 0 or r < 0:
        raise DomainError("dimension and weight must be nonnegative")
    if d == 1:
        return (0,) * (m + 1), 1, [simplex_size(m, r)]
    weights, modulus = sidon_set(d - 1, m + 1)
    return weights, modulus, congruence_class_sizes(m, r, weights, modulus)


def sidon_class(m: int, r: int, d: int) -> tuple[tuple[int, ...], int, int]:
    """The congruence class :func:`sidon_code` takes: its weights, modulus and residue.

    Weights come from a Sidon set of order d-1: two points closer than d
    would force two distinct small multisets of weights to share a sum.  The
    residue is the least one of a largest class, counted without listing.
    Order 0 (d = 1) takes the whole simplex: all-zero weights, modulus 1.
    """
    weights, modulus, sizes = _class_sizes(m, r, d)
    return weights, modulus, sizes.index(max(sizes))


def in_class(
    points: Iterable[SimplexPoint], weights: tuple[int, ...], modulus: int, residue: int
) -> list[SimplexPoint]:
    """The points whose weighted coordinate sum is residue mod modulus, in their order."""
    return [p for p in points if sum(map(mul, weights, p)) % modulus == residue]


def _sidon(m: int, r: int, d: int) -> tuple[tuple[tuple[int, ...], int, int], list[SimplexPoint]]:
    """:func:`sidon_class` and its points in lex order, each listed point's residue taken once.

    It only chooses; each caller checks the distance once.
    """
    if d < 1:
        raise DomainError("distance must be >= 1")
    points = enumerate_simplex(m, r)
    weights, modulus = ((0,) * (m + 1), 1) if d == 1 else sidon_set(d - 1, m + 1)
    residues = [sum(map(mul, weights, p)) % modulus for p in points]
    sizes = Counter(residues)
    residue = min(sizes, key=lambda a: (-sizes[a], a))
    return (weights, modulus, residue), [p for p, a in zip(points, residues) if a == residue]


def sidon_code(m: int, r: int, d: int) -> list[SimplexPoint]:
    """The points of :func:`sidon_class`, a largest congruence class, checked d apart or more."""
    points = _sidon(m, r, d)[1]
    if _close_pair(points, d):
        raise TandemError(f"congruence code has distance {min_half_distance(points)} < {d}")
    return points


def sidon_code_size(m: int, r: int, d: int) -> int:
    """Size of :func:`sidon_code` output, computed by counting instead of listing."""
    return max(_class_sizes(m, r, d)[2])


# --- ball sizes and asymptotics ---

def ball_size(m: int, d: int) -> int:
    """Points within distance d of a center that is at least d away from every face."""
    if m < 1 or d < 0:
        raise DomainError("need m >= 1 and d >= 0")
    return sum(binom(m, j) * binom(d, j) * binom(d + m - j, d) for j in range(0, d + 1))


def ball_size_bruteforce(m: int, r: int, center: SimplexPoint, d: int) -> int:
    """Ball size by simplex enumeration; the oracle for :func:`ball_size`."""
    if len(center) != m + 1 or sum(center) != r or any(c < 0 for c in center):
        raise DomainError(f"center {center} not in the ({m},{r})-simplex")
    return sum(1 for p in enumerate_simplex(m, r) if half_manhattan(p, center) <= d)


def asymptotic_simplex_rate(mu: float, rho: float) -> float:
    """Limit exponent (bits per symbol) of maximum code size at fixed distance.

    ``mu`` and ``rho`` are the limiting ratios of dimension and weight to
    the block length.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"dimension ratio must be in (0,1), got {mu}")
    if rho <= 0.0:
        raise DomainError(f"weight ratio must be positive, got {rho}")
    return (mu + rho) * binary_entropy(1.0 / (1.0 + rho / mu))
