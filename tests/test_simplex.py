"""Simplex codes: enumeration, distance requirements, constructions, balls."""

import hashlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemreco import simplex
from tandemreco import (
    DimensionMismatchError,
    DomainError,
    ResourceCapError,
    TandemError,
    WeightMismatchError,
    asymptotic_simplex_rate,
    ball_size,
    ball_size_bruteforce,
    binom,
    binary_entropy,
    bose_chowla_set,
    congruence_class_sizes,
    enumerate_simplex,
    exact_max_code,
    greedy_code,
    half_manhattan,
    in_class,
    is_sidon_set,
    min_half_distance,
    required_distance,
    required_distance_upper_entropy,
    required_distance_upper_log,
    sidon_class,
    sidon_code,
    sidon_code_size,
    sidon_set,
    simplex_size,
)


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(2, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


def test_enumerate_simplex_examples():
    assert enumerate_simplex(1, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(enumerate_simplex(2, 1)) == 3
    pts = enumerate_simplex(2, 3)
    assert len(pts) == 10 == simplex_size(2, 3)
    assert pts == sorted(pts)
    assert all(sum(p) == 3 for p in pts)


def recursive_simplex(m: int, r: int) -> list:
    """The simplex as a recursion lists it: each part ascending, the parts after it recursed."""
    out = []

    def rec(prefix, remaining, parts_left):
        if parts_left == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for first in range(remaining + 1):
            prefix.append(first)
            rec(prefix, remaining - first, parts_left - 1)
            prefix.pop()

    rec([], r, m + 1)
    return out


def test_enumerate_simplex_matches_the_recursion():
    for m, r in itertools.product(range(9), range(9)):
        assert enumerate_simplex(m, r) == recursive_simplex(m, r), (m, r)
    # the recursion takes one frame per part, so only a raised limit lets it reach m = 2000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2100)
    try:
        want = recursive_simplex(2000, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert enumerate_simplex(2000, 1) == want


def test_enumeration_caps():
    from tandemreco import ResourceCapError

    with pytest.raises(ResourceCapError):
        enumerate_simplex(10, 50, cap=1000)
    with pytest.raises(ResourceCapError):
        exact_max_code(10, 50, 2)  # simplex above the 2000-point limit


def test_half_manhattan_examples():
    assert half_manhattan((1, 0, 0), (0, 0, 1)) == 1
    assert half_manhattan((2, 1), (2, 1)) == 0
    assert half_manhattan((3, 0, 1), (0, 2, 2)) == 3
    with pytest.raises(WeightMismatchError):
        half_manhattan((1, 0), (1, 1))


def test_half_manhattan_matches_generator_form():
    rng = random.Random(11)
    for _ in range(500):
        m, r = rng.randint(0, 6), rng.randint(0, 9)
        pts = enumerate_simplex(m, r)
        u, v = rng.choice(pts), rng.choice(pts)
        assert half_manhattan(u, v) == sum(abs(a - b) for a, b in zip(u, v)) // 2
    with pytest.raises(DimensionMismatchError, match=r"^lengths differ: 2 vs 3$"):
        half_manhattan((1, 0), (1, 0, 0))
    with pytest.raises(WeightMismatchError, match=r"^coordinate sums differ: 1 vs 2$"):
        half_manhattan((1, 0), (1, 1))


@st.composite
def point_sets(draw, defects=True):
    """Sampled congruence classes of a simplex, with optional defects.

    Random weights give classes of any distance, the whole simplex among
    them (modulus 1); Sidon weights of order h give classes of distance
    above h.  The sum r skews high so that classes outgrow the probe's ball.
    Without defects the points are distinct and of one simplex.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m, r, order = rng.randint(0, 5), max(rng.randint(0, 8), rng.randint(0, 8)), rng.randint(0, 2)
    if order:
        weights, modulus = sidon_set(order, m + 1)
    else:
        modulus = rng.randint(1, 4)
        weights = [rng.randrange(modulus) for _ in range(m + 1)]
    simplex_points = enumerate_simplex(m, r)

    def residue(p):
        return sum(w * c for w, c in zip(weights, p)) % modulus

    chosen = residue(rng.choice(simplex_points))
    members = [p for p in simplex_points if residue(p) == chosen]
    size = min(len(members), 100)
    points = rng.sample(members, rng.choice([size, rng.randint(0, size)]))
    kinds = st.lists(st.sampled_from(["repeat", "negative", "length", "sum"]), max_size=2)
    for defect in draw(kinds) if defects else ():
        if defect == "repeat" and points:
            extra = rng.choice(points)
        elif defect == "negative" and m >= 1:
            # p[0] + 1 away from a member p
            p = rng.choice(points) if points else (r,) + (0,) * m
            extra = (-1, p[0] + p[1] + 1) + p[2:]
        elif defect == "length":
            extra = (r,) + (0,) * (m + 1)
        elif defect == "sum":
            extra = (r + 1,) + (0,) * m
        else:
            continue
        points.insert(rng.randint(0, len(points)), extra)
    return points


def _distance_or_error(fn, points):
    try:
        return fn(points)
    except TandemError as err:
        return type(err)


def _generator_distance(points):
    """Every pair in order, each distance by a generator; the first mismatched pair's error."""
    dists = []
    for u, v in itertools.combinations(points, 2):
        if len(u) != len(v):
            return DimensionMismatchError
        if sum(u) != sum(v):
            return WeightMismatchError
        dists.append(sum(abs(a - b) for a, b in zip(u, v)) // 2)
    return min(dists, default=None)


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_min_half_distance_matches_pairwise(points):
    # faces, repeats, one-point sets, negative coordinates, mixed lengths and sums
    assert _distance_or_error(min_half_distance, points) == _generator_distance(points)


def ordered_close_pair(points, d):
    """The first pair i < j of points closer than d, with its distance: every pair in order."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = sum(abs(a - b) for a, b in zip(points[i], points[j])) // 2
            if dist < d:
                return i, j, dist
    return None


@settings(max_examples=300, deadline=None)
@given(point_sets(defects=False), st.integers(0, 5))
# Sidon classes whose shells are looked up: cleared at their distance, a pair found one above it
@example(sidon_code(1, 60, 3), 3)
@example(sidon_code(1, 60, 3), 4)
@example(sidon_code(2, 24, 2), 3)
def test_close_pair_matches_ordered_loop(points, d):
    got = simplex._close_pair(points, d)
    assert got == ordered_close_pair(points, d)
    dist = min_half_distance(points)
    assert (got is not None) == (dist is not None and dist < d)


def _refuse_pairs(*args):
    raise AssertionError("compared a pair")


def test_distance_one_code_never_compares_pairs(monkeypatch):
    # the work guard of suite_sidon's distance-1 codes: distinct points are always 1 apart
    from tandemreco import oracles

    monkeypatch.setattr(simplex, "half_manhattan", _refuse_pairs)
    assert simplex._close_pair(enumerate_simplex(5, 8), 1) is None
    assert len(sidon_code(5, 8, 1)) == simplex_size(5, 8)
    # a passing suite reads no code's exact distance, the whole simplices' among them
    monkeypatch.undo()
    monkeypatch.setattr(simplex, "min_half_distance", _refuse_pairs)
    result = oracles.suite_sidon()
    assert result.ok and result.checks == 135


def test_probe_finds_distances_behind_empty_shells(monkeypatch):
    # big enough that every shell below the distance is looked up, no pair compared
    cases = [(1, 60, 3), (1, 80, 4), (2, 24, 2), (2, 40, 3), (3, 12, 2)]
    sets = [sidon_code(m, r, d) for m, r, d in cases]
    probed = []
    near = simplex._near
    monkeypatch.setattr(simplex, "_near", lambda *args: probed.append(args[1]) or near(*args))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "half_manhattan", _refuse_pairs)
        cleared = [simplex._close_pair(points, d) for points, (*_, d) in zip(sets, cases)]
    assert cleared == [None] * 5
    assert probed == [1, 2, 1, 2, 3, 1, 1, 2, 1]
    # one above its distance, each set holds a pair behind its empty shells, and the loop names it
    for points, (*_, d) in zip(sets, cases):
        probed.clear()
        got = simplex._close_pair(points, d + 1)
        assert got == ordered_close_pair(points, d + 1) and got[2] == d
        assert probed == list(range(1, d + 1))


@settings(max_examples=300, deadline=None)
@given(point_sets(defects=False), st.integers(0, 5))
@example(sidon_code(5, 8, 2), 2)
@example(sidon_code(1, 60, 3), 4)
def test_close_pair_never_probes_then_compares_pairs(points, d):
    # shells that hold no point clear the set, so no set pays for shells and then for pairs
    probed, compared, priced = [], [], []
    near, pair, ball = simplex._near, simplex.half_manhattan, simplex.ball_size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_near", lambda *args: probed.append(args) or near(*args))
        patch.setattr(simplex, "half_manhattan", lambda *args: compared.append(args) or pair(*args))
        patch.setattr(simplex, "ball_size", lambda *args: priced.append(args) or ball(*args))
        got = simplex._close_pair(points, d)
    if probed:
        assert (got is None) == (not compared)
    # a radius-1 ball holds m^2 + m + 1 points, so a set that small never prices a ball
    m = len(points[0]) - 1 if points else 0
    if len(points) - 1 <= 2 * (m * m + m + 1):
        assert not priced and not probed


def test_near_matches_its_pairwise_twin():
    # a shell finds each close pair from one end only, so a shell short of a move misses pairs
    rng = random.Random(12)
    for _ in range(3000):
        m, r, rho = rng.randint(0, 5), rng.randint(0, 8), rng.randint(1, 4)
        points = enumerate_simplex(m, r)
        present = set(rng.sample(points, rng.randint(0, min(len(points), 40))))
        want = any(half_manhattan(u, v) == rho for u, v in itertools.combinations(present, 2))
        assert simplex._near(present, rho) == want, (sorted(present), rho)


def test_required_distance_examples():
    assert required_distance(1, 2, 1) == 2
    assert required_distance(5, 3, 2) == 2
    assert required_distance(0, 3, 2) == 4


def scanned_required_distance(N: int, t: int, m: int) -> int:
    """The least d with binom(t - d + m, m) <= N, scanning d = 0, 1, ...: the bisection's twin."""
    d = 0
    while binom(t - d + m, m) > N:
        d += 1
    return d


def test_required_distance_bisects_as_the_scan():
    for N, t, m in itertools.product(range(61), repeat=3):
        assert required_distance(N, t, m) == scanned_required_distance(N, t, m), (N, t, m)
    # the scan would take t steps here
    assert required_distance(0, 10**9, 3) == 10**9 + 1
    assert required_distance(1, 10**9, 3) == 10**9


def test_required_distance_monotone():
    for m in (1, 2, 5):
        for t in (1, 3, 7):
            values = [required_distance(N, t, m) for N in range(0, 40)]
            assert values == sorted(values, reverse=True)
        for N in (1, 4, 20):
            values = [required_distance(N, t, m) for t in range(1, 12)]
            assert values == sorted(values)
    # small uncertainty forces the full budget as distance
    for m in range(1, 12):
        for N in range(1, m + 1):
            for t in (1, 2, 9):
                assert required_distance(N, t, m) == t


def test_distance_bound_examples():
    assert required_distance_upper_log(16, 10, 2) == 8
    assert required_distance_upper_log(2**20, 5, 4) == 1
    with pytest.raises(DomainError):
        required_distance_upper_log(3, 5, 3)
    # entropy bound at a hand-scanned point
    assert required_distance_upper_entropy(16, 10, 2) >= required_distance(16, 10, 2)
    assert required_distance_upper_entropy(3, 1, 2) in (0, 1)


def test_bound_ordering_sampled():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(1, 30)
        t = rng.randint(1, 40)
        N = rng.randint(m + 1, 2**20)
        exact = required_distance(N, t, m)
        ent = required_distance_upper_entropy(N, t, m)
        log = required_distance_upper_log(N, t, m)
        assert exact <= ent <= log, (N, t, m)


def test_exact_max_code_examples():
    assert len(exact_max_code(1, 4, 2)) == 3
    assert len(exact_max_code(2, 2, 3)) == 1
    for m, r in ((1, 3), (2, 2), (3, 1)):
        assert len(exact_max_code(m, r, 1)) == simplex_size(m, r)


def test_exact_max_code_is_maximum():
    # brute-force maximum over all subsets on very small instances
    for m, r, d in ((1, 3, 2), (2, 2, 2), (2, 3, 2), (1, 5, 3)):
        pts = enumerate_simplex(m, r)
        best = 0
        for size in range(len(pts), 0, -1):
            found = False
            for combo in itertools.combinations(pts, size):
                dist = min_half_distance(list(combo))
                if dist is None or dist >= d:
                    found = True
                    break
            if found:
                best = size
                break
        assert len(exact_max_code(m, r, d)) == best


def test_code_size_orderings():
    for m in (1, 2, 3):
        for r in range(0, 5):
            if simplex_size(m, r) > 60:
                continue
            for d in (1, 2, 3):
                exact = exact_max_code(m, r, d)
                greedy = greedy_code(m, r, d)
                sidon = sidon_code(m, r, d)
                assert len(greedy) <= len(exact)
                assert len(sidon) <= len(exact)
                for code in (exact, greedy, sidon):
                    dist = min_half_distance(code)
                    assert dist is None or dist >= d


def test_greedy_examples():
    assert len(greedy_code(2, 3, 1)) == 10
    assert len(greedy_code(1, 4, 2)) == 3
    code = greedy_code(3, 4, 2)
    assert min_half_distance(code) >= 2
    assert len(code) * ball_size(3, 1) >= simplex_size(3, 4)


def test_sidon_set_examples():
    elems, modulus = sidon_set(1, 5)
    assert elems == (0, 1, 2, 3, 4) and modulus == 5
    elems, modulus = sidon_set(2, 3)
    assert elems == (0, 1, 3) and modulus == 7
    assert is_sidon_set(elems, 2, modulus)
    for h, size in ((2, 4), (2, 6), (3, 3)):
        elems, modulus = sidon_set(h, size)
        assert len(elems) == size
        assert is_sidon_set(elems, h, modulus)


def test_sidon_set_is_remembered():
    assert sidon_set(2, 5) is sidon_set(2, 5)


SIDON_BUDGET = 500_000


def searched_sidon_set(h: int, size: int) -> tuple[tuple[int, ...], int]:
    """The search ``simplex.SIDON_TABLE`` records, the twin that regenerates it.

    Moduli are scanned upward from the counting lower bound, and the set is
    grown greedily from 0 with backtracking, within ``SIDON_BUDGET`` attempts
    in all; a search that uses them up raises ``ResourceCapError``.
    """
    checks = 0

    def dfs(current: list[int], begin: int, modulus: int) -> tuple[int, ...] | None:
        nonlocal checks
        if len(current) == size:
            return tuple(current)
        for e in range(begin, modulus):
            checks += 1
            if checks > SIDON_BUDGET:
                raise ResourceCapError(f"Sidon search exceeded {SIDON_BUDGET} attempts")
            current.append(e)
            if is_sidon_set(tuple(current), h, modulus):
                found = dfs(current, e + 1, modulus)
                if found:
                    return found
            current.pop()
        return None

    modulus = max(size, binom(size + h - 1, h))
    while True:
        found = dfs([0], 1, modulus)
        if found is not None:
            return found, modulus
        modulus += 1


def test_searched_sidon_sets_are_pinned():
    # the search regenerates every table entry of order <= 9 (orders 10-14
    # take about 26 s more: run this file as a script to regenerate them all)
    for (h, size), entry in simplex.SIDON_TABLE.items():
        elems, modulus = entry
        assert size >= 3 and len(elems) == size and is_sidon_set(elems, h, modulus)
        assert sidon_set(h, size) == entry
        if h <= 9:
            assert searched_sidon_set(h, size) == entry
    # sizes 1 and 2 are closed forms: what the search returns at every order
    for h in range(2, 21):
        assert searched_sidon_set(h, 1) == sidon_set(h, 1) == ((0,), 1)
        assert searched_sidon_set(h, 2) == sidon_set(h, 2) == ((0, 1), h + 1)


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_bose_chowla_set_is_sidon(h, p):
    elems, modulus = bose_chowla_set(h, p)
    assert modulus == p**h - 1
    assert len(elems) == p and elems[0] == 0 and list(elems) == sorted(set(elems))
    assert is_sidon_set(elems, h, modulus)


def test_bose_chowla_set_examples_and_limits():
    assert bose_chowla_set(2, 7) == ((0, 4, 10, 11, 13, 25, 30), 48)
    assert bose_chowla_set(3, 5) == ((0, 13, 33, 102, 118), 124)
    # a size between primes takes the smallest logarithms of the next prime's set
    elems, modulus = bose_chowla_set(2, 13)
    assert bose_chowla_set(2, 12) == (elems[:12], modulus)
    with pytest.raises(DomainError):
        bose_chowla_set(1, 3)
    with pytest.raises(DomainError):
        bose_chowla_set(2, 0)
    # GF(1009^2) has more elements than the enumeration cap
    with pytest.raises(ResourceCapError):
        bose_chowla_set(2, 1001)
    # from order 20 on, 2^h alone is above the cap, so p^h is never formed
    assert simplex.DEFAULT_ENUM_CAP.bit_length() == 20
    with pytest.raises(ResourceCapError, match=r"^GF\(3\^19\) has 1162261467 elements"):
        bose_chowla_set(19, 3)
    for h in (20, 10**9):
        message = rf"^GF\(3\^{h}\) has more than 1000000 elements$"
        with pytest.raises(ResourceCapError, match=message):
            bose_chowla_set(h, 3)


def walked_bose_chowla_set(h: int, size: int) -> tuple[tuple[int, ...], int]:
    """The Bose-Chowla set by walking every power of x: the reference of the fast path."""
    p = simplex._least_prime_at_least(size)
    order = p**h - 1
    one = (1,) + (0,) * (h - 1)
    for coeffs in itertools.product(range(p), repeat=h):
        # x^h = sum of low[j] x^j; elements are coefficient tuples, lowest degree first
        low = [-a % p for a in reversed(coeffs)]
        if not low[0]:
            continue  # x divides the polynomial, so x is no unit
        elem, logs = one, []
        for i in range(1, order + 1):
            top = elem[-1]
            elem = tuple(((elem[j - 1] if j else 0) + top * low[j]) % p for j in range(h))
            if elem == one:
                break
            if elem[1] == 1 and not any(elem[2:]):
                logs.append(i)  # x^i = x + elem[0]
        if i == order and elem == one:
            return tuple(e - logs[0] for e in logs[:size]), order
    raise AssertionError("no primitive polynomial")


def field_cells(low: int, high: int) -> list[tuple[int, int]]:
    """Every (h, p), p prime, with low < p^h <= high and p^h - 1 under the enumeration cap."""
    cells = []
    for h in range(2, 21):
        p = 2
        while p**h - 1 <= simplex.DEFAULT_ENUM_CAP:
            if low < p**h <= high:
                cells.append((h, p))
            p = simplex._least_prime_at_least(p + 1)
    return cells


def test_bose_chowla_set_matches_the_walk():
    # a size between primes takes a prefix of the next prime's set, so each field is one cell
    cells = field_cells(0, 10**4)
    assert len(cells) == 51
    for h, p in cells:
        assert bose_chowla_set(h, p) == walked_bose_chowla_set(h, p), (h, p)


# first 16 hex digits of the SHA-256 of repr(bose_chowla_set(h, p)) as the walk gave it, (h, p) ->
# digest: every field above 10^4 elements up to the enumeration cap, but at h = 2 only three
BOSE_CHOWLA_PINS = {
    (2, 101): "d861513b6d133486",
    (2, 317): "ed9a54fb55e2cc62",
    (2, 997): "d7c82608aa9ab52a",
    (3, 23): "913d8e0a2a33fd0f",
    (3, 29): "e4f065d33691ff9e",
    (3, 31): "01e47eed73b1dad7",
    (3, 37): "f43c10694ba25196",
    (3, 41): "47cb864055fcc5f0",
    (3, 43): "0973a277042bfa55",
    (3, 47): "6619f6bfdec0aac3",
    (3, 53): "9d6a24c09f87b353",
    (3, 59): "3fe89f9b60587934",
    (3, 61): "f8193c4575c90171",
    (3, 67): "77b438e96b81e792",
    (3, 71): "8f111b836a5d7b2f",
    (3, 73): "c711d3e0809854ee",
    (3, 79): "57b023b19f583197",
    (3, 83): "d2956d943b60787c",
    (3, 89): "98e4636bf5aa2ccd",
    (3, 97): "0e46ddd34e6312dc",
    (4, 11): "4ba34904a01bf7dd",
    (4, 13): "184d909cd5d2f34a",
    (4, 17): "78b139122f3642ce",
    (4, 19): "d93c05f321e2da38",
    (4, 23): "67ab2f13e602e198",
    (4, 29): "a54c7cc4384afcb6",
    (4, 31): "d7d7a3d629f7b1ff",
    (5, 7): "c6026f53099e6842",
    (5, 11): "c3b1b5123ae448b0",
    (5, 13): "d5a9a21ec2993def",
    (6, 5): "ee0b0bde53a8c5f3",
    (6, 7): "0adb76fe49ae2c39",
    (7, 5): "96e7656e9e9da597",
    (7, 7): "329ad28a283db2fa",
    (8, 5): "3e188796bb64ac2c",
    (9, 3): "2e457a19c4c9bd6f",
    (10, 3): "6adcc562875beeee",
    (11, 3): "a2e056a65e0bb3fe",
    (12, 3): "93685f7a6c93c937",
    (14, 2): "82af0858a13f65a6",
    (15, 2): "8f6b77cf222f4281",
    (16, 2): "03162f2240a26f21",
    (17, 2): "306d783c8c691f93",
    (18, 2): "d20acc50e3bfbe31",
    (19, 2): "87948f327d866b6b",
}


def test_bose_chowla_set_is_pinned_above_the_walk():
    cells = field_cells(10**4, 10**7)
    assert set(BOSE_CHOWLA_PINS) == {(h, p) for h, p in cells if h > 2 or p in (101, 317, 997)}
    for (h, p), digest in BOSE_CHOWLA_PINS.items():
        got = hashlib.sha256(repr(bose_chowla_set(h, p)).encode()).hexdigest()[:16]
        assert got == digest, (h, p)


def test_sidon_set_never_raises_for_small_orders():
    for h in (1, 2, 3):
        for size in range(1, 13):
            elems, modulus = sidon_set(h, size)
            assert len(elems) == size and is_sidon_set(elems, h, modulus)
    # sizes 1 and 2 are closed forms, not re-checked, so their twin is the check
    for h in range(2, 61):
        assert sidon_set(h, 1) == ((0,), 1) and sidon_set(h, 2) == ((0, 1), h + 1)
        assert is_sidon_set((0,), h, 1) and is_sidon_set((0, 1), h, h + 1)
    assert sidon_set(10**9, 2) == ((0, 1), 10**9 + 1)
    assert sidon_set(2, 7) == bose_chowla_set(2, 7)


def test_sidon_set_skips_a_search_that_cannot_finish(monkeypatch):
    calls = []
    real = simplex.is_sidon_set

    def counted(elements, h, modulus):
        calls.append(elements)
        return real(elements, h, modulus)

    monkeypatch.setattr(simplex, "is_sidon_set", counted)
    # above the table, only the final re-check runs
    assert sidon_set.__wrapped__(2, 7) == bose_chowla_set(2, 7)
    assert calls == [bose_chowla_set(2, 7)[0]]
    # where the search used to run out of attempts, the field cap raises at once
    calls.clear()
    fields = {(9, 4): r"GF\(5\^9\) has 1953125 ", (15, 3): r"GF\(3\^15\) has 14348907 "}
    for (h, size), field in fields.items():
        with pytest.raises(ResourceCapError, match=field):
            sidon_set.__wrapped__(h, size)
    assert calls == []


def test_sidon_set_falls_back_above_the_searched_orders():
    # each order's table sizes run on from the closed forms without a gap
    orders = {h for h, _ in simplex.SIDON_TABLE}
    assert orders == set(range(2, 15))
    for h in orders:
        sizes = sorted(size for order, size in simplex.SIDON_TABLE if order == h)
        assert sizes == list(range(3, sizes[-1] + 1))
    # one past the table, the algebraic set
    assert sidon_set(7, 4) == bose_chowla_set(7, 4)
    assert sidon_set(15, 2) == ((0, 1), 16)


def test_sidon_suite_computes_each_distance_once(monkeypatch):
    from tandemreco import oracles

    calls = []
    real = simplex.min_half_distance

    def counted(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(simplex, "min_half_distance", counted)
    # oracles imports its own reference to the distance
    monkeypatch.setattr(oracles, "min_half_distance", counted)
    monkeypatch.setattr(oracles, "SIDON_RANGE", (3, 4, 3))
    result = oracles.suite_sidon()
    assert result.ok and result.checks == 45
    assert len(calls) <= result.checks


def test_sidon_code_examples():
    assert len(sidon_code(2, 3, 1)) == 10
    code = sidon_code(2, 4, 2)
    assert min_half_distance(code) >= 2
    _, modulus = sidon_set(1, 3)
    assert len(code) * modulus >= simplex_size(2, 4)


def test_sidon_code_size_matches_enumeration():
    for m in (1, 2, 3, 4):
        for r in (0, 2, 5):
            for d in (1, 2, 3):
                assert sidon_code_size(m, r, d) == len(sidon_code(m, r, d))


def bucket_twin(m: int, r: int, d: int) -> tuple[int, list]:
    """The residue and points of a largest class, by bucketing every simplex point."""
    if d == 1:
        return 0, enumerate_simplex(m, r)
    weights, modulus = sidon_set(d - 1, m + 1)
    buckets: dict[int, list] = {}
    for p in enumerate_simplex(m, r):
        buckets.setdefault(sum(w * c for w, c in zip(weights, p)) % modulus, []).append(p)
    residue = min(buckets, key=lambda a: (-len(buckets[a]), a))
    return residue, buckets[residue]


def test_sidon_class_is_the_class_sidon_code_takes():
    for m, r, d in itertools.product((0, 1, 2, 3, 5), (0, 1, 2, 5), (1, 2, 3)):
        weights, modulus, residue = sidon_class(m, r, d)
        want_residue, want_points = bucket_twin(m, r, d)
        assert residue == want_residue, (m, r, d)
        assert sidon_code(m, r, d) == want_points
        assert in_class(enumerate_simplex(m, r), weights, modulus, residue) == want_points
        # the build's class, counted from the listed simplex, is the one the DP counts to
        assert simplex._sidon(m, r, d) == ((weights, modulus, residue), want_points)
        if d == 1:
            assert (weights, modulus) == ((0,) * (m + 1), 1)


def test_sidon_code_size_raises_as_its_twin_on_negative_inputs():
    for m, r, d in itertools.product((-2, -1, 0, 2), (-2, -1, 0, 3), (0, 1, 2, 3)):
        if m >= 0 and r >= 0:
            continue
        with pytest.raises(DomainError) as listed:
            sidon_code(m, r, d)
        with pytest.raises(DomainError) as counted:
            sidon_code_size(m, r, d)
        assert str(counted.value) == str(listed.value), (m, r, d)


def test_congruence_class_sizes_total():
    sizes = congruence_class_sizes(2, 4, (0, 1, 2), 3)
    assert sum(sizes) == simplex_size(2, 4)
    assert max(sizes) == sidon_code_size(2, 4, 2)


def test_congruence_class_sizes_are_priced(monkeypatch):
    # (m + 1)(r + 1) * modulus cells: 3 * 5 * 3 = 45 here
    monkeypatch.setattr(simplex, "DEFAULT_ENUM_CAP", 45)
    assert sum(congruence_class_sizes(2, 4, (0, 1, 2), 3)) == simplex_size(2, 4)
    monkeypatch.setattr(simplex, "DEFAULT_ENUM_CAP", 44)
    with pytest.raises(ResourceCapError, match="^class count of 45 cells above cap 44$"):
        congruence_class_sizes(2, 4, (0, 1, 2), 3)
    with pytest.raises(ResourceCapError, match="^class count of 45 cells above cap 44$"):
        sidon_code_size(2, 4, 2)
    # a distance-1 class is the whole simplex and runs no DP
    assert sidon_code_size(2, 400, 1) == simplex_size(2, 400)


def test_ball_size_examples():
    assert ball_size(3, 1) == 13
    assert ball_size(2, 0) == 1
    assert ball_size(5, 0) == 1


def test_ball_size_bruteforce_examples():
    # interior center reproduces the closed form
    assert ball_size_bruteforce(2, 6, (2, 2, 2), 2) == ball_size(2, 2)
    # a vertex center sees a truncated ball
    assert ball_size_bruteforce(2, 4, (4, 0, 0), 1) == 3
    # radius past the diameter swallows the whole simplex
    assert ball_size_bruteforce(2, 2, (1, 1, 0), 4) == simplex_size(2, 2)


def test_ball_size_interior_centers():
    for m in (1, 2, 3, 4):
        for d in (0, 1, 2, 3):
            r = (m + 1) * d + 1
            center = tuple([d] * m + [r - m * d])
            assert ball_size_bruteforce(m, r, center, d) == ball_size(m, d)


def test_binomial_entropy_sandwich():
    for n in range(2, 61):
        for k in range(1, n):
            log_c = math.log2(math.comb(n, k))
            upper = n * binary_entropy(k / n)
            lower = upper - 0.5 * math.log2(2 * n)
            assert lower <= log_c < upper, (n, k)


def test_half_manhattan_parity():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 5)
        r = rng.randint(1, 8)
        pts = enumerate_simplex(m, r)
        u, v = rng.choice(pts), rng.choice(pts)
        total = sum(abs(a - b) for a, b in zip(u, v))
        assert total % 2 == 0


def test_asymptotic_rate_examples():
    assert asymptotic_simplex_rate(0.3, 0.3) == pytest.approx(0.6)
    assert asymptotic_simplex_rate(0.25, 0.25) == pytest.approx(0.5)
    expected = 0.75 * binary_entropy(2 / 3)
    assert asymptotic_simplex_rate(0.5, 0.25) == pytest.approx(expected)
    with pytest.raises(DomainError):
        asymptotic_simplex_rate(1.5, 0.2)


def test_simplex_code_distance_is_lazy(monkeypatch):
    real = simplex.min_half_distance

    def eager(points):
        raise AssertionError("minimum distance computed before it was asked for")

    monkeypatch.setattr(simplex, "min_half_distance", eager)
    codes = [sidon_code(3, 4, 1), exact_max_code(2, 3, 1)]
    assert [real(c) for c in codes] == [1, 1]


def test_sidon_code_literal():
    code = sidon_code(2, 4, 2)
    assert code == [(0, 2, 2), (1, 0, 3), (1, 3, 0), (2, 1, 1), (4, 0, 0)]
    assert min_half_distance(code) == 2


def test_sidon_code_distance_guard(monkeypatch):
    # a weighting that is not Sidon puts the whole simplex in one class
    monkeypatch.setattr(simplex, "sidon_set", lambda h, size: ((0,) * size, 1))
    with pytest.raises(TandemError, match="distance 1 < 2"):
        sidon_code(2, 4, 2)


def test_sidon_code_distance_guard_survives_optimize(run_optimized):
    # under -O every assert is stripped, so only an explicit raise can stop the bad code
    script = (
        "import sys\n"
        "from tandemreco import TandemError, simplex\n"
        "simplex.sidon_set = lambda h, size: ((0,) * size, 1)\n"
        "try:\n"
        "    simplex.sidon_code(2, 4, 2)\n"
        "except TandemError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert run_optimized(script).strip() == "1 congruence code has distance 1 < 2"


def test_greedy_covering_guard(monkeypatch):
    monkeypatch.setattr(simplex, "ball_size", lambda m, d: 0)
    with pytest.raises(TandemError, match="uncovered"):
        greedy_code(2, 3, 2)


if __name__ == "__main__":
    # regenerate the whole table with the search (about 30 s)
    for h, size in simplex.SIDON_TABLE:
        print(f"({h}, {size}): {searched_sidon_set(h, size)},", flush=True)
