"""Reconstruction codes: checkers, size accounting, construction, decoding."""

import itertools
import json
import os
import random
import time
import tracemalloc
from collections import Counter
from operator import attrgetter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemreco import (
    AmbiguityError,
    ConeMismatchError,
    DupParams,
    NoCandidateError,
    ParamsMismatchError,
    ResourceCapError,
    TandemError,
    UtrCheck,
    UtrCode,
    Word,
    WordLengthError,
    cone_dimension,
    construction_a,
    count_rll_weight,
    descendants,
    exact_size,
    greedy_size,
    half_manhattan,
    irreducible_count,
    irreducible_words,
    is_irreducible,
    is_utr_code_direct,
    is_utr_code_reduced,
    max_utr_code_bruteforce,
    reconstruct,
    reconstruct_scan,
    required_distance,
    root,
    sidon_class,
    sidon_size,
    simplex,
    simulate_reconstruction,
    tandem_duplicate,
    utr,
    utr_size_formula,
    word,
)
from tandemreco.cli import main
from tandemreco.duplication import _cone, _effective_cap, _grow
from tandemreco.simplex import enumerate_simplex

P21 = DupParams(2, 1)
P22 = DupParams(2, 2)


def fixture_code(N: int = 1) -> UtrCode:
    words = (word("0010", 2, 1), word("0110", 2, 1), word("0100", 2, 1))
    return UtrCode(P21, 4, N, 1, words)


def test_code_validation():
    with pytest.raises(WordLengthError):
        UtrCode(P21, 4, 1, 1, (word("001", 2, 1),))
    with pytest.raises(ParamsMismatchError):
        UtrCode(P21, 4, 1, 1, (word("0010", 2, 2),))


def test_code_json_roundtrip():
    code = fixture_code()
    data = code.to_json()
    assert data["codewords"] == ["0010", "0100", "0110"]
    assert UtrCode.from_json(data) == code
    assert UtrCode.loads(code.dumps()) == code


def test_direct_checker_examples():
    assert is_utr_code_direct(fixture_code(N=1)).ok
    failed = is_utr_code_direct(fixture_code(N=0))
    assert not failed.ok
    assert failed.detail == 1 and failed.witness is not None
    singleton = UtrCode(P21, 4, 0, 3, (word("0010", 2, 1),))
    assert is_utr_code_direct(singleton).ok


def test_reduced_checker_examples():
    assert is_utr_code_reduced(fixture_code(N=1)).ok
    failed = is_utr_code_reduced(fixture_code(N=0))
    assert not failed.ok and failed.detail == 1
    # words in different cones never conflict
    cross = UtrCode(P21, 4, 0, 2, (word("0010", 2, 1), word("0111", 2, 1)))
    assert is_utr_code_reduced(cross).ok
    assert is_utr_code_direct(cross).ok


def test_cone_index_keyed_by_root_symbols():
    code = construction_a(P22, 10, 1, 1)
    assert set(code.cone_index) == {root(w).symbols for w in code.codewords}


# (q, largest n, largest n checked literally too): every code construction_a builds there
INDEX_TWIN_RANGE = [(2, 16, 12), (3, 9, 8)]


def described_code(params: DupParams, root_len: int, r: int, N: int, t: int) -> UtrCode:
    """Construction A's description of every root of one length at weight r, read from its file."""
    roots = irreducible_words(params, root_len)
    dimensions = []
    for m in sorted({len(_cone(x.symbols, params.k)[2]) - 1 for x in roots}):
        weights, modulus, residue = sidon_class(m, r, max(required_distance(N, t, m), 1))
        dimensions.append(dict(m=m, weights=list(weights), modulus=modulus, residue=residue))
    construction = {"m_n": 0, "r_n": r, "dimensions": dimensions}
    n = root_len + r * params.k
    return UtrCode.from_json(
        {"q": params.q, "k": params.k, "n": n, "N": N, "t": t, "construction": construction}
    )


def listed_twin(code: UtrCode) -> UtrCode:
    """The same codewords as a listed code, which derives everything from them."""
    listed = UtrCode(code.params, code.n, code.N, code.t, code.codewords)
    assert code._description is not None and listed._description is None
    return listed


def described_view(code: UtrCode) -> tuple:
    return len(code), code.rate(), is_utr_code_reduced(code), code.cone_index, code.symbols


def compact_round_trip(code: UtrCode) -> UtrCode:
    """The code read back from its compact file, which it writes again byte for byte."""
    text = code.dumps()
    loaded = UtrCode.loads(text)
    assert "construction" in json.loads(text) and loaded.dumps() == text
    # symbols grown without the index equal those taken from it
    assert UtrCode.loads(text).symbols == described_view(loaded)[-1]
    return loaded


@pytest.fixture(scope="module")
def construction_twins():
    """Each Construction-A code of INDEX_TWIN_RANGE and its listed twin, built once.

    What needs a fresh object is read here, in the order the three twin tests need:
    the keys before any symbols are listed, and the twin's equality before its index.
    """
    rows = []
    for q, top, literal in INDEX_TWIN_RANGE:
        for n, t, N in itertools.product(range(1, top + 1), (1, 2, 3), (0, 1, 11)):
            try:
                code = construction_a(DupParams(q, 2), n, t, N)
            except TandemError:
                continue
            loaded = UtrCode.loads(code.dumps())
            grown = [utr._keys(code), utr._keys(loaded)]
            unlisted = "symbols" not in vars(code) and "symbols" not in vars(loaded)
            listed = listed_twin(code)
            twin_keys = utr._keys(listed)
            # the twin has no index yet, so it derives one codeword by codeword
            equal = listed == code and "cone_index" not in vars(listed)
            rows.append(
                SimpleNamespace(
                    where=(q, n, t, N), literal=n <= literal, code=code, listed=listed,
                    grown=grown, unlisted=unlisted, twin_keys=twin_keys, equal=equal,
                    twin=described_view(listed),
                )
            )
    return rows


def test_keys_grown_from_the_description_match_the_listed_twin(construction_twins):
    for row in construction_twins:
        assert row.unlisted, row.where
        assert row.grown == [row.twin_keys] * 2, row.where
    assert len(construction_twins) == 144
    # the comma form's alphabet: symbols 0-10 are code points 0-10
    wide = described_code(DupParams(11, 2), 3, 2, 1, 1)
    assert utr._keys(wide) == utr._keys(listed_twin(wide))


def test_described_code_matches_its_listed_twin(construction_twins):
    for row in construction_twins:
        assert described_view(compact_round_trip(row.code)) == row.twin, row.where
    assert len(construction_twins) == 144
    # construction_a reaches no length at q = 11, so the comma form is described here
    wide = described_code(DupParams(11, 2), 3, 2, 1, 1)
    got = described_view(compact_round_trip(wide))
    listed = listed_twin(wide)
    assert got == described_view(listed)
    # 121 roots of one cone coordinate take 1 point, 1 210 of two take 3
    assert '"10,10,10,10,10,10,10"' in listed.dumps() and got[0] == 121 + 1210 * 3


def test_construction_index_matches_listed_code(construction_twins):
    for row in construction_twins:
        assert row.equal, row.where
        _, _, verdict, index, _ = row.twin
        assert row.code.cone_index == index, row.where
        assert is_utr_code_reduced(row.code) == verdict
        if row.literal:
            assert is_utr_code_direct(row.listed).ok == verdict.ok
    assert len(construction_twins) == 144


def test_described_checker_names_the_listed_witness():
    data = construction_a(P22, 20, 2, 1).to_json()
    # two dimensions take their whole simplex, whose points are 1 apart, below the required 2
    for entry in data["construction"]["dimensions"]:
        if entry["m"] in (11, 13):
            entry.update(weights=[0] * (entry["m"] + 1), modulus=1, residue=0)
    code = UtrCode.from_json(data)
    # the roots reversed, so the first failing cone in their order is not the listed code's first
    bad = UtrCode._of(code.params, code.n, code.N, code.t, _description=code._description)
    vars(bad)["_cones"] = code._cones[::-1]
    failed = is_utr_code_reduced(bad)
    assert not failed.ok and failed.detail == 1
    assert failed == is_utr_code_reduced(listed_twin(bad))


def test_failing_reduced_check_grows_one_cone(monkeypatch):
    data = construction_a(P22, 20, 2, 1).to_json()
    for entry in data["construction"]["dimensions"]:
        if entry["m"] in (11, 13):
            entry.update(weights=[0] * (entry["m"] + 1), modulus=1, residue=0)
    code = UtrCode.from_json(data)
    failing = [(sym, len(steps)) for sym, ends, steps in code._cones if len(ends) - 1 in (11, 13)]
    grown = []
    monkeypatch.setattr(utr, "_grow", lambda *args: grown.append(args) or _grow(*args))
    failed = is_utr_code_reduced(code)
    # of the 936 failing cones, the one with the least root names the pair and alone is grown
    least, size = min(failing)
    assert len(failing) == 936 and len(grown) == size
    assert not failed.ok and {root(w).symbols for w in failed.witness} == {least}


def test_described_listing_is_priced(monkeypatch):
    # 120 codewords of length 12: 1 440 symbols
    code = construction_a(P22, 12, 2, 1)
    text, sent = code.dumps(), code.codewords[40]
    reads = sorted(descendants(sent, 2), key=lambda w: w.symbols)[:2]
    monkeypatch.setattr(utr, "WALK_SYMBOL_BUDGET", 1440)
    assert len(UtrCode.loads(text).symbols) == 120
    monkeypatch.setattr(utr, "WALK_SYMBOL_BUDGET", 1439)
    message = "^120 codewords of length 12 exceed the budget of 1439 symbols$"
    for read in (attrgetter("symbols"), attrgetter("cone_index"), utr._keys):
        with pytest.raises(ResourceCapError, match=message):
            read(UtrCode.loads(text))
    with pytest.raises(ResourceCapError, match=message):
        simulate_reconstruction(UtrCode.loads(text), 1, 0)
    # the decoder grows no listing, so it still answers
    assert reconstruct(UtrCode.loads(text), reads) == sent


def test_symbols_of_a_grown_index_grow_no_codeword(monkeypatch):
    text = construction_a(P22, 16, 3, 11).dumps()
    grown = UtrCode.loads(text).symbols
    code = UtrCode.loads(text)
    code.cone_index
    # every member is in the index already, so the symbols only sort them
    monkeypatch.setattr(utr, "_grow", None)
    assert code.symbols == grown == listed_twin(code).symbols


def test_cone_sizes_come_from_the_description():
    code = UtrCode.loads(construction_a(P22, 14, 1, 1).dumps())
    sizes = code.cone_size_counts()
    assert not {"cone_index", "symbols", "_cones"} & vars(code).keys()
    assert sizes == Counter(map(len, code.cone_index.values()))
    assert sum(size * count for size, count in sizes.items()) == len(code)
    assert sizes == listed_twin(code).cone_size_counts()


def test_an_empty_class_leaves_its_roots_out_of_the_index():
    data = construction_a(P22, 12, 2, 1).to_json()
    entry = data["construction"]["dimensions"][0]
    # at cone weight 1 a point is a unit vector e_i, of weighted sum i here, so 7 mod 8 is empty
    assert (entry["m"], entry["weights"], data["construction"]["r_n"]) == (6, list(range(7)), 1)
    entry.update(modulus=8, residue=7)
    code = UtrCode.from_json(data)
    assert code._description.points[6] == [] and 0 not in code.cone_size_counts()
    listed = listed_twin(code)
    assert described_view(code) == described_view(listed)
    assert code.cone_size_counts() == listed.cone_size_counts()
    assert code.cone_size_counts() == Counter(map(len, code.cone_index.values()))


def test_construction_counts_each_dimension_class_once(monkeypatch):
    # each dimension's classes are counted once, from the simplex its code is drawn from,
    # so the counting DP stays off the build path
    def refuse(*args):
        raise AssertionError("counted a class off the listed simplex")

    for name in ("congruence_class_sizes", "sidon_class", "in_class"):
        monkeypatch.setattr(simplex, name, refuse)
    monkeypatch.setattr(utr, "in_class", refuse)
    code = construction_a(P22, 20, 2, 1)
    # five dimensions need distance 2 and so a class that is not the whole simplex
    assert len([m for m in code._description.counts if required_distance(1, 2, m) > 1]) == 5


def test_code_keeps_symbols_and_builds_words_on_first_read():
    code = construction_a(P22, 12, 1, 1)
    assert "codewords" not in vars(code)
    assert code.symbols == tuple(sorted(set(code.symbols)))
    words = code.codewords
    assert words is code.codewords and [w.symbols for w in words] == list(code.symbols)
    assert all(w.params is code.params for w in words)
    loaded = UtrCode.loads(code.dumps())
    assert loaded == code and hash(loaded) == hash(code) and "codewords" not in vars(loaded)


def test_described_codes_compare_without_growing_codewords():
    # (32, 1, 1) has 608 854 200 codewords, more than growing them may hold
    a, b = construction_a(P22, 32, 1, 1), construction_a(P22, 32, 1, 1)
    assert a == b and hash(a) == hash(b) and a != construction_a(P22, 32, 1, 0)
    assert not {"symbols", "cone_index", "_cones"} & (vars(a).keys() | vars(b).keys())
    # another class is another description, so the symbols decide
    data = construction_a(P22, 12, 2, 1).to_json()
    data["construction"]["dimensions"][0].update(modulus=8, residue=7)
    code, other = construction_a(P22, 12, 2, 1), UtrCode.from_json(data)
    assert code != other and "symbols" in vars(other)
    assert other == UtrCode(P22, 12, 1, 2, other.codewords)


def test_reduced_checker_reads_dimension_from_coordinates(monkeypatch):
    ok, broken = fixture_code(N=1), fixture_code(N=0)

    def refuse(x):
        raise AssertionError("the checker re-derived a cone dimension")

    # utr binds no cone_dimension; the patch also refuses one imported later
    monkeypatch.setattr(utr, "cone_dimension", refuse, raising=False)
    assert is_utr_code_reduced(ok).ok
    # a passing check of a listed code reads only its root table: no cone is grown
    assert not {"_cones", "cone_index"} & vars(ok).keys()
    failed = is_utr_code_reduced(broken)
    assert not failed.ok and failed.detail == 1


def test_reduced_checker_skips_distance_one_cones(monkeypatch):
    # t = 1, N = 1 needs distance 1, which distinct cone mates always meet
    code = construction_a(P22, 12, 1, 1)

    def refuse(u, v):
        raise AssertionError("compared a pair in a distance-1 cone")

    monkeypatch.setattr(simplex, "half_manhattan", refuse)
    assert is_utr_code_reduced(code).ok
    # at N = 0 the cone needs distance 2, so its pairs are still compared
    calls = []

    def count(u, v):
        calls.append((u, v))
        return half_manhattan(u, v)

    monkeypatch.setattr(simplex, "half_manhattan", count)
    failed = is_utr_code_reduced(fixture_code(N=0))
    assert not failed.ok and failed.detail == 1 and calls


def test_reduced_checker_computes_each_dimension_need_once(monkeypatch):
    code = construction_a(P22, 16, 1, 1)
    calls = []

    def counted(N, t, m):
        calls.append(m)
        return required_distance(N, t, m)

    monkeypatch.setattr(utr, "required_distance", counted)
    assert is_utr_code_reduced(code).ok
    dims = {len(members[0][1]) - 1 for members in code.cone_index.values()}
    assert sorted(calls) == sorted(dims)
    assert len(dims) < len(code.cone_index)


def assert_index_decomposes_the_code(code: UtrCode) -> None:
    """A listed code's index, grown from its cones, holds each codeword once, under its root."""
    index, k = code.cone_index, code.params.k
    members = sorted(sym for cone in index.values() for sym, _ in cone)
    assert members == list(code.symbols if code.n >= k else ())
    for r, cone in index.items():
        for sym, v in cone:
            assert _cone(sym, k)[:2] == (r, v)


def all_pairs_reduced_checker(code: UtrCode) -> UtrCheck:
    """The cone reduction, every pair of every cone compared in root order: the checker's twin."""
    for _, members in sorted(code.cone_index.items()):
        need = required_distance(code.N, code.t, len(members[0][1]) - 1)
        if need <= 1:
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                dist = half_manhattan(members[i][1], members[j][1])
                if dist < need:
                    pair = (Word(members[i][0], code.params), Word(members[j][0], code.params))
                    return UtrCheck(False, pair, dist)
    return UtrCheck(True)


@st.composite
def repeated_cone_codes(draw):
    """Codes whose cones repeat one coordinate set, with a point moved in one cone at times.

    The roots share a length and a cone dimension, so every cone holds the
    same points of one simplex; a second shape, when drawn, adds cones of
    another dimension.  Small enough that the literal checker runs on all.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    params = DupParams(rng.choice((2, 3)), rng.choice((1, 2)))
    k = params.k
    root_len = rng.randint(k, 5)
    shapes: dict[int, list[Word]] = {}
    for x in irreducible_words(params, root_len):
        shapes.setdefault(len(_cone(x.symbols, k)[2]) - 1, []).append(x)
    r = rng.randint(0, 3)
    codewords: list[Word] = []
    for m in rng.sample(sorted(shapes), min(len(shapes), rng.choice((1, 1, 2)))):
        simplex_points = enumerate_simplex(m, r)
        points = rng.sample(simplex_points, rng.randint(1, min(6, len(simplex_points))))
        roots = rng.sample(shapes[m], rng.randint(1, min(4, len(shapes[m]))))
        moved = rng.randrange(len(roots)) if draw(st.booleans()) else None
        for i, x in enumerate(roots):
            cone_points = list(points)
            if i == moved:
                cone_points[rng.randrange(len(cone_points))] = rng.choice(simplex_points)
            ends = _cone(x.symbols, k)[2]
            grown = [_grow(x.symbols, k, ends, enumerate(p)) for p in cone_points]
            codewords += [Word(sym, params) for sym in grown]
    n = root_len + r * k
    return UtrCode(params, n, rng.randint(0, 2), rng.randint(1, 3), tuple(codewords))


@settings(max_examples=300, deadline=None)
@given(repeated_cone_codes())
def test_reduced_checker_matches_all_pairs_loop(code):
    want = all_pairs_reduced_checker(code)
    assert is_utr_code_reduced(code) == want
    assert is_utr_code_direct(code).ok == want.ok
    assert_index_decomposes_the_code(code)


def test_reduced_checker_compares_each_coordinate_set_once(monkeypatch):
    # 2 572 cones of (20, 2, 1) hold 5 distinct coordinate sets; every pair of every cone is 46 512
    code = construction_a(P22, 20, 2, 1)
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return half_manhattan(u, v)

    monkeypatch.setattr(simplex, "half_manhattan", counted)
    assert is_utr_code_reduced(code).ok
    assert len(calls) == 113


def test_checkers_agree_on_random_codes():
    rng = random.Random(99)
    for q, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        params = DupParams(q, k)
        for _ in range(60):
            n = rng.randint(1, 6)
            t = rng.randint(1, 2)
            N = rng.randint(0, 3)
            total = q**n
            picks = rng.sample(range(total), rng.randint(1, min(5, total)))
            words = []
            for value in picks:
                digits = []
                for _ in range(n):
                    digits.append(value % q)
                    value //= q
                words.append(Word(tuple(reversed(digits)), params))
            code = UtrCode(params, n, N, t, tuple(words))
            assert is_utr_code_direct(code).ok == is_utr_code_reduced(code).ok


def pairwise_direct_checker(code: UtrCode) -> UtrCheck:
    """The literal checker as a loop over pairs; the reference of the inverted index."""
    words = code.codewords
    desc = [descendants(w, code.t) for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            shared = len(desc[i] & desc[j])
            if shared > code.N:
                return UtrCheck(False, (words[i], words[j]), shared)
    return UtrCheck(True)


def test_direct_checker_matches_pairwise_loop():
    rng = random.Random(2024)
    invalid = 0
    for _ in range(320):
        params = DupParams(rng.choice((2, 3)), rng.choice((1, 2)))
        n = rng.randint(1, 6)
        space = list(itertools.product(range(params.q), repeat=n))
        words = [Word(s, params) for s in rng.sample(space, rng.randint(1, min(40, len(space))))]
        code = UtrCode(params, n, rng.randint(0, 3), rng.randint(1, 2), tuple(words))
        want = pairwise_direct_checker(code)
        assert is_utr_code_direct(code) == want
        invalid += not want.ok
    assert invalid >= 50  # 63 of the 320 codes are invalid


def literal_layer(x: Word, t: int, cap: int) -> set[tuple[int, ...]]:
    """D_t(x) as symbol tuples, duplicating at every offset of every word; no layer above cap."""
    layer = {x.symbols}
    for _ in range(t):
        out = set()
        for sym in layer:
            w = Word._trusted(sym, x.params)
            out.update(tandem_duplicate(w, i).symbols for i in range(len(sym) - x.params.k + 1))
            if len(out) > cap:
                raise ResourceCapError(f"descendant expansion exceeded cap of {cap} nodes")
        layer = out
    return layer


def tuple_direct_checker(code: UtrCode) -> UtrCheck:
    """The direct checker's owner index keyed by symbol tuples, over the literal walk.

    The reference of the keyed checker: same index order, same caps, same witness.
    """
    words, params = code.symbols, code.params
    cap = _effective_cap()
    total = entries = 0
    owners: dict[tuple[int, ...], tuple[int, ...]] = {}
    found = UtrCheck(True)
    for i in range(len(words) - 1, -1, -1):
        desc = literal_layer(Word._trusted(words[i], params), code.t, cap)
        total += len(desc)
        if total > cap:
            raise ResourceCapError(f"descendant index exceeded cap of {cap} nodes")
        mates: list[int] = []
        for d in desc:
            owned = owners.get(d, ())
            mates += owned
            owners[d] = owned + (i,)
        entries += len(mates)
        if entries > cap:
            raise ResourceCapError(f"shared descendants exceeded cap of {cap} owner entries")
        shared = Counter(mates)
        bad = [j for j, count in shared.items() if count > code.N]
        if bad:
            j = min(bad)
            pair = (Word._trusted(words[i], params), Word._trusted(words[j], params))
            found = UtrCheck(False, pair, shared[j])
    return found


def literal_scan(code: UtrCode, reads: list[Word]) -> Word:
    """``reconstruct_scan`` over the literal walk, for reads that pass its validation."""
    wanted = {r.symbols for r in reads}
    extra = (len(reads[0]) - code.n) // code.params.k
    cap = _effective_cap()
    fits = [w for w in code.codewords if wanted <= literal_layer(w, extra, cap)]
    if not fits:
        raise NoCandidateError("no codeword is an ancestor of all reads")
    if len(fits) > 1:
        raise AmbiguityError(f"{len(fits)} codewords fit the reads")
    return fits[0]


def outcome(fn, *args):
    """What fn returns, or the type and message of the TandemError it raises."""
    try:
        return fn(*args)
    except TandemError as err:
        return type(err), str(err)


@st.composite
def small_codes(draw):
    """Listed codes of up to 12 words, q in {2, 3}, k in {1, 2, 3}, n <= 7, t <= 2, N <= 3.

    Up to six words come from the whole space and, where n >= 2k, up to six
    from the children of one word of length n - k, so invalid codes are common.
    """
    params = DupParams(draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2, 3))))
    n = draw(st.integers(1, 7))
    space = list(itertools.product(range(params.q), repeat=n))
    # children of one word are cone mates at distance 1, so they share descendants
    near = n >= 2 * params.k
    picks = draw(st.lists(st.sampled_from(space), min_size=not near, max_size=6, unique=True))
    if near:
        shorter = list(itertools.product(range(params.q), repeat=n - params.k))
        mates = sorted(literal_layer(Word(draw(st.sampled_from(shorter)), params), 1, 10**7))
        some = min(2, len(mates))
        picks += draw(st.lists(st.sampled_from(mates), min_size=some, max_size=6, unique=True))
    # t = 0 keeps every code valid, so it is not the value draws start from
    t, N = draw(st.sampled_from((1, 2, 0))), draw(st.integers(0, 3))
    return UtrCode(params, n, N, t, [Word(sym, params) for sym in picks])


# seven words of one cone at k = 1, t = 2: three of their 2-descendants have five owners each
DENSE_CONE = ("000100", "000110", "001000", "001100", "001110", "011000", "011100")


def capped(cap: int | None):
    """The environment with TANDEM_NODE_CAP set to cap, or left unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "TANDEM_NODE_CAP"}
    if cap is not None:
        env["TANDEM_NODE_CAP"] = str(cap)
    return mock.patch.dict(os.environ, env, clear=True)


@settings(max_examples=300, deadline=None)
@given(code=small_codes(), cap=st.one_of(st.none(), st.integers(0, 120)))
@example(code=fixture_code(N=0), cap=None)  # invalid: 0010 and 0100 share 0100
@example(code=fixture_code(N=1), cap=None)
@example(code=fixture_code(N=1), cap=8)
# 42 descendants and 45 owner entries copied: a cap between them ends on the entries
@example(code=UtrCode(P21, 6, 1, 2, [word(s, 2, 1) for s in DENSE_CONE]), cap=44)
def test_keyed_direct_checker_matches_tuple_twin(code, cap):
    with capped(cap):
        assert outcome(is_utr_code_direct, code) == outcome(tuple_direct_checker, code)
    assert_index_decomposes_the_code(code)


@settings(max_examples=300, deadline=None)
@given(code=small_codes(), cap=st.one_of(st.none(), st.integers(0, 60)), data=st.data())
def test_keyed_scan_and_descendants_match_literal_walk(code, cap, data):
    c = data.draw(st.sampled_from(code.codewords))
    depth = data.draw(st.integers(0, 2 if code.n >= code.params.k else 0))
    pool = sorted(literal_layer(c, depth, 10**7))
    # reads of one codeword, or of none when a stray word of their length joins them
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    if data.draw(st.booleans()):
        length = len(pool[0])
        picks.append(tuple(data.draw(st.lists(st.integers(0, code.params.q - 1),
                                              min_size=length, max_size=length))))
    reads = sorted({Word(sym, code.params) for sym in picks}, key=lambda w: w.symbols)
    with capped(cap):
        assert outcome(reconstruct_scan, code, reads) == outcome(literal_scan, code, reads)
        want = outcome(literal_layer, c, code.t, _effective_cap())
        if isinstance(want, set):
            want = {Word._trusted(sym, c.params) for sym in want}
        assert outcome(descendants, c, code.t) == want


@pytest.mark.parametrize(("n", "t", "N", "total"), [(14, 1, 1, 30_484), (16, 3, 11, 178_464)])
def test_direct_checker_prices_a_described_code(monkeypatch, n, t, N, total):
    # the price is the walk's total: the walk fits a cap of total, and total - 1 raises unwalked
    monkeypatch.setenv("TANDEM_NODE_CAP", str(total))
    assert is_utr_code_direct(construction_a(P22, n, t, N)).ok
    code = construction_a(P22, n, t, N)
    monkeypatch.setenv("TANDEM_NODE_CAP", str(total - 1))
    message = f"^descendant index exceeded cap of {total - 1} nodes$"
    with pytest.raises(ResourceCapError, match=message):
        is_utr_code_direct(code)
    assert "symbols" not in vars(code)


def test_priced_checker_raises_what_the_walk_raises(monkeypatch):
    # both kinds of code are priced before their walks, and each must still end as its walk would
    code = construction_a(P22, 12, 1, 1)  # 6 488 descendants, at most 9 per codeword
    listed = listed_twin(code)
    for cap in (0, 1, 5, 8, 9, 10, 100, 6487, 6488):
        monkeypatch.setenv("TANDEM_NODE_CAP", str(cap))
        fresh = construction_a(P22, 12, 1, 1)
        assert outcome(is_utr_code_direct, fresh) == outcome(is_utr_code_direct, listed)
        # the walk grows walk keys, so whichever check ends it, no symbol tuple is grown
        assert "symbols" not in vars(fresh)


def test_scan_of_a_described_code_grows_no_symbols():
    code = construction_a(P22, 12, 1, 1)
    # the twin lists a copy read from the file, so code itself lists nothing
    listed = listed_twin(UtrCode.loads(code.dumps()))
    x = listed.codewords[100]
    reads = sorted(descendants(x, 1), key=lambda w: w.symbols)
    assert reconstruct_scan(code, reads) == x == reconstruct_scan(listed, reads)
    one = reads[:1]
    assert outcome(reconstruct_scan, code, one) == outcome(reconstruct_scan, listed, one)
    assert "symbols" not in vars(code)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_failing_described_code_names_the_listed_witness(n):
    # the description of a valid code, read with no uncertainty or with two duplications
    code = construction_a(P22, n, 1, 1)
    for N, t in ((0, 1), (1, 2)):
        bad = UtrCode._of(code.params, n, N, t, _description=code._description)
        failed = is_utr_code_direct(bad)
        assert "symbols" not in vars(bad)
        listed = listed_twin(bad)
        assert not failed.ok and failed == is_utr_code_direct(listed), (n, N, t)
        assert failed == pairwise_direct_checker(listed)


def test_direct_checker_price_survives_optimize(run_optimized):
    script = (
        "import os, sys\n"
        "from tandemreco import DupParams, ResourceCapError, construction_a, is_utr_code_direct\n"
        "code = construction_a(DupParams(2, 2), 14, 1, 1)\n"
        "os.environ['TANDEM_NODE_CAP'] = '30483'\n"
        "try:\n"
        "    is_utr_code_direct(code)\n"
        "except ResourceCapError as err:\n"
        "    print(sys.flags.optimize, err, 'symbols' in vars(code))\n"
    )
    want = "1 descendant index exceeded cap of 30483 nodes False"
    assert run_optimized(script).strip() == want


def test_direct_checker_caps_its_index(monkeypatch):
    code = construction_a(P22, 12, 1, 1)
    total = sum(len(descendants(w, 1)) for w in code.codewords)
    monkeypatch.setenv("TANDEM_NODE_CAP", str(total))
    assert is_utr_code_direct(code).ok
    monkeypatch.setenv("TANDEM_NODE_CAP", str(total - 1))
    with pytest.raises(ResourceCapError, match=f"cap of {total - 1} nodes"):
        is_utr_code_direct(code)


def test_direct_checker_builds_no_word(monkeypatch):
    code = construction_a(P22, 12, 1, 1)
    built = []
    trusted, validated = Word._trusted, Word.__post_init__
    monkeypatch.setattr(
        Word, "_trusted", classmethod(lambda cls, *args: built.append(args) or trusted(*args))
    )
    monkeypatch.setattr(Word, "__post_init__", lambda w: built.append(w) or validated(w))
    assert is_utr_code_direct(code).ok
    assert built == []


def test_direct_checker_cap_survives_optimize(run_optimized):
    # under -O every assert is stripped, so only an explicit raise can stop the expansion
    script = (
        "import os, sys\n"
        "from tandemreco import DupParams, ResourceCapError, construction_a, is_utr_code_direct\n"
        "code = construction_a(DupParams(2, 2), 12, 1, 1)\n"
        "os.environ['TANDEM_NODE_CAP'] = '1000'\n"
        "try:\n"
        "    is_utr_code_direct(code)\n"
        "except ResourceCapError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert run_optimized(script).strip() == "1 descendant index exceeded cap of 1000 nodes"


def test_count_rll_weight_examples():
    assert count_rll_weight(2, 1, P22) == 2
    assert count_rll_weight(2, 2, P22) == 1
    assert count_rll_weight(0, 0, P22) == 1


def test_count_rll_weight_bruteforce():
    for q, k in itertools.product((2, 3), (1, 2, 3)):
        params = DupParams(q, k)
        for l in range(0, 11):
            counts = [0] * (l + 1)
            for symbols in itertools.product("0123"[:q], repeat=l):
                text = "".join(symbols)
                if "0" * k not in text:
                    counts[l - text.count("0")] += 1
            # one pass gives every weight up to top, and each count alone agrees
            assert utr._rll_weights(l, l, params) == counts, (q, k, l)
            assert utr._rll_weights(l, l // 2, params) == counts[: l // 2 + 1], (q, k, l)
            for m in range(l + 1):
                assert count_rll_weight(l, m, params) == counts[m], (q, k, l, m)


def test_irreducible_enumeration_matches_count():
    for q, k in ((2, 1), (2, 2), (3, 2)):
        params = DupParams(q, k)
        for n in range(k, 7):
            words = irreducible_words(params, n)
            assert len(words) == irreducible_count(params, n)
            assert len(set(words)) == len(words)
            assert all(is_irreducible(x) and len(x) == n for x in words)
    assert irreducible_words(P22, 1) == []


def test_irreducible_words_match_filtered_product():
    # every irreducible word with enough nonzero differences, sorted by (prefix, differences)
    for q in (2, 3):
        for k in (1, 2, 3):
            params = DupParams(q, k)
            assert all(irreducible_words(params, length) == [] for length in range(k))
            for length in range(k, 9):
                pool = []
                for sym in itertools.product(range(q), repeat=length):
                    if is_irreducible(Word(sym, params)):
                        diff = tuple((sym[i + k] - sym[i]) % q for i in range(length - k))
                        pool.append((sym[:k], diff, sym))
                pool.sort()
                words = irreducible_words(params, length)
                assert [w.symbols for w in words] == [sym for _, _, sym in pool], (q, k, length)
                assert all(w.params == params for w in words)
                # the weight filter is the root walk's, which construction A's pool uses
                for min_weight in range(length + 1):
                    want = [sym for _, diff, sym in pool if sum(map(bool, diff)) >= min_weight]
                    got = utr._roots(params, length, min_weight)
                    assert [sym for sym, _ in got] == want, (q, k, length, min_weight)


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_root_walk_gives_each_roots_run_ends(q, k):
    # a nonzero difference at j makes j a run end, and the last run ends at length - k
    params = DupParams(q, k)
    for length in range(k, 9):
        for min_weight in (0, 2):
            roots = utr._roots(params, length, min_weight)
            words = irreducible_words(params, length)
            words = [x for x in words if cone_dimension(x) >= min_weight]
            assert [sym for sym, _ in roots] == [x.symbols for x in words]
            assert all(ends == _cone(sym, k)[2] for sym, ends in roots), (length, min_weight)


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 12, 40])
def test_irreducible_words_cap(monkeypatch, cap):
    # the cap applies to the result's size, whatever the walk's layers hold on the way
    monkeypatch.setattr(utr, "IRREDUCIBLE_CAP", cap)
    for q in (2, 3):
        for k in (1, 2, 3):
            params = DupParams(q, k)
            for length in range(k, 8):
                l = length - k
                for min_weight in range(l + 2):
                    weights = range(min_weight, l + 1)
                    size = q**k * sum(count_rll_weight(l, m, params) for m in weights)
                    if size > cap:
                        with pytest.raises(ResourceCapError) as excinfo:
                            utr._roots(params, length, min_weight)
                        assert str(excinfo.value) == f"irreducible enumeration above cap {cap}"
                    else:
                        assert len(utr._roots(params, length, min_weight)) == size


def refuse_walk(*args):
    raise AssertionError("walked the roots")


def test_root_counts_match_the_walk():
    for q in (2, 3):
        for k in (1, 2, 3):
            params = DupParams(q, k)
            for length in range(9):
                for min_weight in range(length + 1):
                    roots = utr._roots(params, length, min_weight)
                    walked = Counter(len(ends) - 1 for _, ends in roots)
                    got = utr._root_counts(params, length, min_weight)
                    assert got == walked, (q, k, length, min_weight)


def test_root_weights_count_the_walk_by_cone_dimension():
    for q in (2, 3):
        for k in (1, 2, 3):
            params = DupParams(q, k)
            for n in range(9):
                weights = utr._root_weights(params, n)
                want = [q**k * count_rll_weight(n - k, m, params) for m in range(n - k + 1)]
                assert weights == want, (q, k, n)
                assert sum(weights) == irreducible_count(params, n)
                walked = Counter(len(ends) - 1 for _, ends in utr._roots(params, n, 0))
                assert {m: c for m, c in enumerate(weights) if c} == walked


def test_root_count_past_the_print_limit_is_bounded_in_the_message():
    message = "^root count of at least 10\\^4300 cells above cap 1000000$"
    with pytest.raises(ResourceCapError, match=message):
        utr._root_counts(P22, 10**2200, 0)


def test_bruteforce_builds_one_code_and_prices_the_largest_cone(monkeypatch):
    # every word of length n >= k has cone dimension at most n - k, reached when all
    # of its differences are nonzero: the brute force prices its walks there
    for q, k in itertools.product((2, 3), (1, 2, 3)):
        for n in range(k, 7):
            words = itertools.product(range(q), repeat=n)
            assert max(len(_cone(sym, k)[1]) - 1 for sym in words) == n - k
    built = []
    init = UtrCode.__init__

    def counted(code, *args):
        built.append(args)
        init(code, *args)

    monkeypatch.setattr(UtrCode, "__init__", counted)
    code = max_utr_code_bruteforce(P22, 4, 0, 1)
    assert len(built) == 1 and len(code) == 16
    built.clear()
    message = (
        "a walk of 1000000000 duplications from a word of length 4 exceeds the budget of "
        "100000000 symbols"
    )
    with pytest.raises(ResourceCapError) as excinfo:
        max_utr_code_bruteforce(P22, 4, 0, 10**9)
    assert str(excinfo.value) == message and built == []


def pairwise_graphs(params: DupParams, n: int, t: int, Ns: range) -> list[list[int]]:
    """The brute force's compatibility graph at each N, over the words of length n, by pairs.

    Its twin: it intersects the t-descendant sets of every two words, in
    symbol order, and joins them when they share at most N.
    """
    words = [Word(sym, params) for sym in itertools.product(range(params.q), repeat=n)]
    desc = [{w.text() for w in descendants(x, t)} for x in words]
    graphs = [[0] * len(words) for _ in Ns]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            shared = len(desc[i] & desc[j])
            for adjacency, N in zip(graphs, Ns):
                if shared <= N:
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
    return graphs


# (q, k, n) of the graph twin: q in {2, 3}, k in {1, 2}, n <= 8, at most 256 words
GRAPH_TWIN_RANGE = [
    (q, k, n) for q in (2, 3) for k in (1, 2) for n in range(1, 9) if q**n <= 256
]


def test_bruteforce_graph_matches_pairwise_loop(monkeypatch):
    # the graph from the shared-descendant index, bit for bit, at t <= 3 and N <= 2
    graphs = []
    monkeypatch.setattr(utr, "max_clique_bitset", lambda adjacency: graphs.append(adjacency) or [])
    Ns = range(3)
    for q, k, n in GRAPH_TWIN_RANGE:
        params = DupParams(q, k)
        for t in range(4):
            for N in Ns:
                max_utr_code_bruteforce(params, n, N, t)
            assert graphs == pairwise_graphs(params, n, t, Ns), (q, k, n, t)
            graphs.clear()


def test_bruteforce_prices_its_shared_pairs_before_the_clique_search(monkeypatch):
    # all 64 words at (2, 1, 6, 3): 1 104 descendants and 1 330 owner entries copied
    def refuse(adjacency):
        raise AssertionError("searched a graph whose pairs passed the cap")

    monkeypatch.setattr(utr, "max_clique_bitset", refuse)
    monkeypatch.setenv("TANDEM_NODE_CAP", "1329")
    with pytest.raises(ResourceCapError) as excinfo:
        max_utr_code_bruteforce(P21, 6, 0, 3)
    assert str(excinfo.value) == "shared descendants exceeded cap of 1329 owner entries"
    monkeypatch.setenv("TANDEM_NODE_CAP", "1330")
    with pytest.raises(AssertionError, match="^searched a graph"):
        max_utr_code_bruteforce(P21, 6, 0, 3)


def test_words_shorter_than_k_are_checked_at_any_depth():
    # D_t of a word shorter than k is empty for t >= 1; its walk once stepped t empty layers
    start = time.perf_counter()
    code = max_utr_code_bruteforce(DupParams(2, 3), 2, 0, 10**9)
    assert len(code) == 4 and is_utr_code_direct(code).ok and is_utr_code_reduced(code).ok
    assert time.perf_counter() - start < 0.5


# construction_a over P22 at t = 1, N = 1: code length and the roots its walk lists
BUILT_ROOTS = [(8, 68), (9, 92), (10, 28), (11, 32), (12, 120)]


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 12, 40])
def test_described_codes_are_priced_before_the_walk(monkeypatch, cap):
    # the price raises exactly when the walk would, with the walk's message
    walked = {n: len(construction_a(P22, n, 1, 1)._cones) for n, _ in BUILT_ROOTS}
    assert walked == dict(BUILT_ROOTS)
    monkeypatch.setattr(utr, "IRREDUCIBLE_CAP", cap)
    monkeypatch.setattr(utr, "_roots", refuse_walk)
    message = f"^irreducible enumeration above cap {cap}$"
    for n, roots in BUILT_ROOTS:
        if roots > cap:
            with pytest.raises(ResourceCapError, match=message):
                construction_a(P22, n, 1, 1)
        else:
            assert sum(construction_a(P22, n, 1, 1)._description.counts.values()) == roots
    for q in (2, 3):
        for k in (1, 2, 3):
            params = DupParams(q, k)
            for length in range(k, 8):
                l = length - k
                for min_weight in range(l + 2):
                    dims = [m for m in range(min_weight, l + 1) if count_rll_weight(l, m, params)]
                    size = q**k * sum(count_rll_weight(l, m, params) for m in dims)
                    # cones of weight 0 hold one point each, so the code has one word per root
                    entries = [dict(m=m, weights=[0] * (m + 1), modulus=1, residue=0) for m in dims]
                    construction = {"m_n": min_weight, "r_n": 0, "dimensions": entries}
                    text = json.dumps({"q": q, "k": k, "n": length, "N": 1, "t": 1,
                                       "construction": construction})
                    if size > cap:
                        with pytest.raises(ResourceCapError, match=message):
                            UtrCode.loads(text)
                    else:
                        assert len(UtrCode.loads(text)) == size


# the benchmark's codes: (n, t, N) and whether its direct checker runs on them
BENCH_CODES = [
    (12, 1, 1, True), (14, 1, 1, True), (16, 1, 1, False),
    (20, 2, 1, False), (16, 3, 11, False), (16, 3, 1, False),
]


def test_build_load_size_info_and_decode_walk_no_root(tmp_path, capsys):
    sent = construction_a(P22, 16, 3, 11).codewords[500]
    reads = sorted(descendants(sent, 3), key=lambda w: w.symbols)[::7][:12]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(utr, "_roots", refuse_walk)
        built = [construction_a(P22, n, t, N) for n, t, N, _ in BENCH_CODES]
        loaded = [UtrCode.loads(code.dumps()) for code in built]
        sizes = [(len(code), code.rate(), code.to_json()) for code in loaded]
        path = tmp_path / "code.json"
        path.write_text(loaded[4].dumps())
        assert main(["code", "info", "--code", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert reconstruct(loaded[4], reads) == sent
        with pytest.raises(ResourceCapError, match="^descendant index exceeded cap of"):
            is_utr_code_direct(construction_a(P22, 24, 1, 1))
    for (_, _, _, literal), code, copy, size in zip(BENCH_CODES, built, loaded, sizes):
        listed = listed_twin(code)
        assert size == (len(listed), listed.rate(), code.to_json())
        assert copy.cone_index == listed.cone_index
        assert copy.symbols == code.symbols == listed.symbols
        assert copy.cone_size_counts() == listed.cone_size_counts()
        assert is_utr_code_reduced(copy) == is_utr_code_reduced(listed)
        if literal:
            assert is_utr_code_direct(copy) == is_utr_code_direct(listed)
    cones = list(map(len, listed_twin(loaded[4]).cone_index.values()))
    assert (info["size"], info["roots"], info["largest_cone"]) == (984, len(cones), max(cones))


@pytest.mark.parametrize("k, length", [(3, 5), (2, 3)])
def test_irreducible_words_cap_bounds_memory(monkeypatch, k, length):
    # q = 50 makes the first layer (k = 3) or the second (k = 2) some 125 000
    # entries; a walk that stops each layer at the cap holds a few thousand
    monkeypatch.setattr(utr, "IRREDUCIBLE_CAP", 2500)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="above cap 2500"):
            irreducible_words(DupParams(50, k), length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_irreducible_words_long_root():
    # the walk keeps no call stack, so a root far longer than the recursion limit is fine
    words = irreducible_words(DupParams(2, 1), 1100)
    assert [w.text() for w in words] == ["01" * 550, "10" * 550]


def test_size_formula_degenerate_plugin():
    # unit code size per cone counts exactly the reachable root classes
    got = utr_size_formula(6, 1, 1, P22, lambda m, r, d: 1)
    expected = sum(irreducible_count(P22, 6 - r * 2) for r in range(0, 3))
    assert got == expected == 48
    assert utr_size_formula(1, 1, 1, P22, lambda m, r, d: 1) == 0


def test_size_formula_matches_exhaustive_search():
    for k in (1, 2):
        params = DupParams(2, k)
        for n in range(k, 6):
            for N in (0, 1, 2):
                formula = utr_size_formula(n, N, 1, params, exact_size)
                brute = max_utr_code_bruteforce(params, n, N, 1)
                assert is_utr_code_direct(brute).ok
                assert formula == len(brute), (k, n, N)


def test_size_formula_plugin_ordering():
    for n in (4, 5, 6):
        for N in (0, 1):
            exact = utr_size_formula(n, N, 1, P21, exact_size)
            greedy = utr_size_formula(n, N, 1, P21, greedy_size)
            sidon = utr_size_formula(n, N, 1, P21, sidon_size)
            assert greedy <= exact
            assert sidon <= exact


def test_construction_a_examples():
    code = construction_a(P22, 10, 1, 1)
    assert all(len(w) == 10 for w in code.codewords)
    assert is_utr_code_reduced(code).ok
    assert is_utr_code_direct(code).ok
    # beats the irreducible-word benchmark at moderate length
    big = construction_a(P22, 14, 1, 1)
    assert len(big) > irreducible_count(P22, 14)


def test_construction_a_rejects_invalid_result(monkeypatch):
    # the re-verification must hold under python -O as well
    from tandemreco import TandemError, utr

    failing = utr.UtrCheck(False, (word("0110", 2, 2), word("0110", 2, 2)), 2)
    monkeypatch.setattr(utr, "is_utr_code_reduced", lambda code: failing)
    with pytest.raises(TandemError, match="invalid code"):
        construction_a(P22, 10, 1, 1)


def test_construction_a_checks_each_class_once(monkeypatch):
    # the reduced re-verify is the one distance check that each dimension's class gets
    close_pair, calls = utr._close_pair, []
    counted = lambda points, d: calls.append(d) or close_pair(points, d)
    monkeypatch.setattr(simplex, "_close_pair", counted)
    monkeypatch.setattr(utr, "_close_pair", counted)
    code = construction_a(P22, 20, 2, 1)
    assert len(code._description.counts) == len(calls) == 5 and min(calls) >= 2


def test_construction_a_rejects_a_class_below_its_distance(monkeypatch, run_optimized):
    # a weighting that is not Sidon puts a dimension's whole simplex in one class, whose
    # points are 1 apart; the re-verify stops it, under python -O as well
    want = (
        "construction produced an invalid code: UtrCheck(ok=False, witness=(Word('0000011001',"
        " q=2, k=2), Word('0001011001', q=2, k=2)), detail=1)"
    )
    monkeypatch.setattr(simplex, "sidon_set", lambda h, size: ((0,) * size, 1))
    with pytest.raises(TandemError) as err:
        construction_a(P22, 10, 2, 1)
    assert str(err.value) == want
    script = (
        "import sys\n"
        "from tandemreco import DupParams, TandemError, construction_a, simplex\n"
        "simplex.sidon_set = lambda h, size: ((0,) * size, 1)\n"
        "try:\n"
        "    construction_a(DupParams(2, 2), 10, 2, 1)\n"
        "except TandemError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert run_optimized(script).strip() == f"1 {want}"


def test_repr_of_a_described_code_reads_no_codeword():
    # growing these 608 854 200 codewords would exceed a cap
    code = construction_a(P22, 32, 1, 1)
    assert repr(code) == "UtrCode(params=DupParams(q=2, k=2), n=32, N=1, t=1, size=608854200)"
    assert "symbols" not in vars(code) and "cone_index" not in vars(code)
    # a listed code keeps the dataclass form, its symbols in full
    listed = fixture_code()
    assert repr(listed) == (
        "UtrCode(params=DupParams(q=2, k=1), n=4, N=1, t=1, "
        "symbols=((0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)))"
    )


def test_code_from_json_names_bad_key():
    from tandemreco import DomainError

    data = fixture_code().to_json()
    with pytest.raises(DomainError, match="'t'"):
        UtrCode.from_json({k: v for k, v in data.items() if k != "t"})
    with pytest.raises(DomainError, match="'n' must be int, got str"):
        UtrCode.from_json(dict(data, n="4"))
    with pytest.raises(DomainError, match="'codewords'"):
        UtrCode.from_json(dict(data, codewords=[10]))
    with pytest.raises(DomainError, match="JSON object"):
        UtrCode.from_json([data])


def test_construction_a_infeasible():
    from tandemreco import InfeasibleGeometryError

    with pytest.raises(InfeasibleGeometryError):
        construction_a(P22, 3, 1, 1)  # no duplication budget at this length
    with pytest.raises(InfeasibleGeometryError, match="no roots of length 7 with weight >= 6"):
        construction_a(P22, 9, 1, 1, theta=0.95)  # the weight threshold empties the pool


def test_reconstruct_examples():
    code = fixture_code(N=1)
    reads = {word("00010", 2, 1), word("00110", 2, 1)}
    assert reconstruct(code, reads) == word("0010", 2, 1)
    assert reconstruct_scan(code, reads) == word("0010", 2, 1)
    # a single read can suffice when only one codeword survives
    assert reconstruct(code, {word("00010", 2, 1)}) == word("0010", 2, 1)
    with pytest.raises(ConeMismatchError):
        reconstruct(code, {word("00010", 2, 1), word("00000", 2, 1)})
    with pytest.raises(NoCandidateError):
        reconstruct(code, {word("01010", 2, 1)})  # a cone holding no codeword
    with pytest.raises(NoCandidateError):
        reconstruct(code, {word("001", 2, 1)})  # shorter than the codewords


def test_reads_checked_against_code_params():
    # an empty code still fixes the alphabet its reads must be over
    empty = UtrCode(P22, 4, 1, 1, ())
    for decode in (reconstruct, reconstruct_scan):
        with pytest.raises(ParamsMismatchError):
            decode(empty, {word("0120", 3, 2)})


def test_reconstruct_ambiguity():
    code = fixture_code(N=1)
    # a deep lone read can dominate two codewords; the decoder must say so
    with pytest.raises(AmbiguityError):
        reconstruct(code, {word("001000", 2, 1)})
    broken = fixture_code(N=0)  # distance below what N=0 needs
    with pytest.raises(AmbiguityError):
        reconstruct(broken, {word("00110", 2, 1)})


def test_reconstruct_round_trip_exhaustive():
    code = fixture_code(N=1)
    for c in code.codewords:
        layer = sorted(descendants(c, 1), key=lambda w: w.symbols)
        for pair in itertools.combinations(layer, 2):
            assert reconstruct(code, pair) == c
            assert reconstruct_scan(code, pair) == c


def test_construction_a_at_distance_three():
    # d = 3 needs Sidon sets of order 2 above the searched sizes (cones of dimension 8-10)
    code = construction_a(P22, 16, 3, 1)
    assert len(code) == 188
    assert is_utr_code_reduced(code).ok and is_utr_code_direct(code).ok


def test_construction_a_takes_whole_simplices_below_distance_one():
    # a required distance of 1 or less asks nothing of distinct points, so such a
    # dimension takes its whole simplex, as sidon_size counts it
    loose = []
    for n, t, N in itertools.product(range(1, 17), (1, 2, 3), range(21)):
        try:
            code = construction_a(P22, n, t, N)
        except TandemError:
            continue
        if min(required_distance(N, t, m) for m in code._description.counts) < 1:
            loose.append(code)
    assert len(loose) == 254
    for code in loose:
        m_n, r_n = code._description[:2]
        l, N, t = code.n - (r_n + 1) * 2, code.N, code.t
        sizes = [count_rll_weight(l, m, P22) * sidon_size(m, r_n, required_distance(N, t, m))
                 for m in range(m_n, l + 1)]
        assert len(code) == 4 * sum(sizes), (code.n, t, N)
        assert UtrCode.loads(code.dumps()) == code
    literal = [code for code in loose if code.n <= 12]
    assert len(literal) == 204 and all(is_utr_code_direct(code).ok for code in literal)


def test_meet_decoder_agrees_with_scan():
    code = construction_a(P22, 10, 1, 1)
    rng = random.Random(5)
    from tandemreco import channel_sample

    for _ in range(30):
        c = code.codewords[rng.randrange(len(code))]
        reads = set()
        while len(reads) < 2:
            reads.add(channel_sample(c, 1, seed=rng.randrange(10**9)))
        assert reconstruct(code, reads) == reconstruct_scan(code, reads) == c


def empty_class_code() -> UtrCode:
    """The (12, 2, 1) code with its dimension-6 class emptied, so its roots of weight 6 own nothing."""
    data = construction_a(P22, 12, 2, 1).to_json()
    data["construction"]["dimensions"][0].update(modulus=8, residue=7)
    return UtrCode.from_json(data)


# (q, n, t, N) of construction_a codes, whose cones have weight r_n = 1 at q = 2 and n <= 14,
# 2 at n = 16 and 0 at q = 3
DECODE_TWIN_CODES = [(2, 10, 1, 1), (2, 12, 2, 1), (2, 13, 1, 0), (2, 14, 3, 11),
                     (2, 16, 1, 0), (2, 16, 3, 1), (3, 8, 2, 1)]


def test_decoder_matches_listed_twin_and_scan():
    rng = random.Random(21)
    seen = Counter()
    codes = [construction_a(DupParams(q, 2), n, t, N) for q, n, t, N in DECODE_TWIN_CODES]
    for code in [UtrCode.loads(c.dumps()) for c in codes] + [empty_class_code()]:
        listed = listed_twin(code)
        params, k = code.params, code.params.k
        m_n, r_n = code._description.m_n, code._description.r_n
        for _ in range(30):
            depth = rng.randrange(3)
            reads = set()
            # reads of one or two sources: a codeword, or any word, whose root may be off the pool
            for _ in range(rng.choice((1, 1, 2))):
                if rng.random() < 0.6:
                    source = listed.codewords[rng.randrange(len(listed))]
                else:
                    source = Word(tuple(rng.randrange(params.q) for _ in range(code.n)), params)
                pool = sorted(descendants(source, depth), key=lambda w: w.symbols)
                # up to N + 2 of them, so fewer than N + 1 often leave several candidates
                reads.update(rng.sample(pool, min(len(pool), rng.randint(1, code.N + 2))))
            reads = sorted(reads, key=lambda w: w.symbols)
            rng.shuffle(reads)
            got = outcome(reconstruct, code, reads)
            assert got == outcome(reconstruct, listed, reads)
            kind = Word if isinstance(got, Word) else got[0]
            seen[kind] += 1
            # the scan knows no roots: reads of two roots are reads of no codeword
            if kind is ConeMismatchError:
                got = (NoCandidateError, "no codeword is an ancestor of all reads")
            assert outcome(reconstruct_scan, code, reads) == got
            roots = {root(r).symbols for r in reads}
            if len(roots) == 1:
                (shared,) = roots
                if len(shared) != code.n - k * r_n:
                    seen["root of another length"] += 1
                elif len(_cone(shared, k)[2]) - 1 < m_n:
                    seen["root below the weight threshold"] += 1
        # both decoders read a cone's points, the listed one from its root table
        assert "cone_index" not in vars(code) and "cone_index" not in vars(listed)
    assert {Word, NoCandidateError, AmbiguityError, ConeMismatchError} <= seen.keys()
    assert {"root of another length", "root below the weight threshold"} <= seen.keys()


def caught(make_reads, fn, code):
    """What fn returns for the reads make_reads gives, or the type and message of what it raises."""
    try:
        return fn(code, make_reads())
    except Exception as err:
        return type(err), str(err)


def test_read_check_matches_its_pinned_table():
    # both decoders check their reads in _read_symbols: the symbols it returns, or the
    # type and message of what it raises, are pinned for each input
    code = construction_a(P22, 12, 1, 1)
    a, b = code.codewords[5], code.codewords[9]
    reads = sorted(descendants(a, 1), key=lambda w: w.symbols)
    assert (a.text(), b.text()) == ("000001101100", "000010011000")
    twin = Word(reads[0].symbols, DupParams(2, 2))  # equal, but its params are another object
    dp23, dp32 = DupParams(2, 3), DupParams(3, 2)
    foreign = lambda other: (ParamsMismatchError, f"mixed parameters: {P22} vs {other}")
    unreachable = lambda length: (
        NoCandidateError, f"read length {length} unreachable from codeword length 12"
    )
    no_symbols = lambda kind: (AttributeError, f"'{kind}' object has no attribute 'symbols'")
    cases = {
        "descendants": (lambda: reads, [
            "00000001101100", "00000101101100", "00000110101100", "00000110110000",
            "00000110110100", "00000110111100", "00000111101100",
        ]),
        "duplicates": (
            lambda: [reads[1], Word(reads[1].symbols, P22), reads[0], reads[1]],
            ["00000001101100", "00000101101100"],
        ),
        "equal params": (lambda: [twin, reads[2]], ["00000001101100", "00000110101100"]),
        "foreign params": (lambda: [reads[0], Word(reads[1].symbols, dp23)], foreign(dp23)),
        "foreign code": (lambda: [Word(reads[0].symbols, dp32)], foreign(dp32)),
        "foreign first": (lambda: [Word(reads[0].symbols, dp23), reads[1]], foreign(dp23)),
        "foreign, mixed lengths": (lambda: [b, Word(reads[0].symbols, dp32)], foreign(dp32)),
        "mixed lengths": (
            lambda: [reads[0], b], (NoCandidateError, "reads have mixed lengths [12, 14]")
        ),
        "unreachable length": (lambda: [Word(reads[0].symbols[:-1], P22)], unreachable(13)),
        "shorter than n": (lambda: [Word(a.symbols[:-2], P22)], unreachable(10)),
        "codeword": (lambda: [a], ["000001101100"]),
        "no reads": (lambda: [], (NoCandidateError, "no reads given")),
        "generator": (
            lambda: (r for r in reads[:3]),
            ["00000001101100", "00000101101100", "00000110101100"],
        ),
        "empty generator": (lambda: iter(()), (NoCandidateError, "no reads given")),
        "str items": (lambda: [r.text() for r in reads], no_symbols("str")),
        "list items": (
            lambda: [list(r.symbols) for r in reads], (TypeError, "unhashable type: 'list'")
        ),
        "a Word and a str": (lambda: [reads[0], "0101"], no_symbols("str")),
        "a str": (lambda: "0101", no_symbols("str")),
        "a None": (lambda: [reads[0], None], no_symbols("NoneType")),
    }
    texts = lambda code, reads: ["".join(map(str, s)) for s in utr._read_symbols(code, reads)]
    for name, (make, want) in cases.items():
        assert caught(make, texts, code) == want, name
        # the decoder agrees with its scanning twin on the same input
        got = caught(make, reconstruct, code)
        assert got == caught(make, reconstruct_scan, code), name
        assert got == (a if isinstance(want, list) else want), name


def test_simulate_grows_no_cone_index():
    code = UtrCode.loads(construction_a(P22, 14, 1, 1).dumps())
    report = simulate_reconstruction(code, 100, seed=1)
    assert "cone_index" not in vars(code)
    assert report == simulate_reconstruction(listed_twin(code), 100, seed=1)
    assert report.success_rate == 1.0


def test_simulate_success():
    report = simulate_reconstruction(fixture_code(N=1), 300, seed=17)
    assert report.success_rate == 1.0
    assert report.trials == 300
    # deterministic under the same seed
    again = simulate_reconstruction(fixture_code(N=1), 300, seed=17)
    assert again == report


def test_simulate_single_read_code():
    # two cones, one word each: valid at N=0, decodes from a single read
    code = UtrCode(P21, 4, 0, 1, (word("0010", 2, 1), word("0111", 2, 1)))
    assert is_utr_code_direct(code).ok
    report = simulate_reconstruction(code, 200, seed=23)
    assert report.success_rate == 1.0


def test_simulate_corrupted_code_sees_ambiguity():
    # same words, but the claimed uncertainty budget is below their distance
    report = simulate_reconstruction(fixture_code(N=0), 200, seed=31)
    assert report.ambiguous > 0
    assert report.successes + report.ambiguous + report.wrong == 200
    assert report.wrong == 0  # never a silently wrong answer


def test_simulate_short_cone_reported():
    # chain cone: only one t-descendant exists, below N+1 distinct reads
    code = UtrCode(P22, 2, 1, 1, (word("01", 2, 2),))
    report = simulate_reconstruction(code, 20, seed=3)
    assert report.short_cone_trials == 20
    assert report.success_rate == 1.0


def test_degenerate_short_codewords():
    # codewords below the duplication length: decodable only as themselves
    from tandemreco import DomainError

    code = UtrCode(P22, 1, 0, 0, (word("0", 2, 2), word("1", 2, 2)))
    assert is_utr_code_direct(code).ok and is_utr_code_reduced(code).ok
    assert reconstruct(code, {word("0", 2, 2)}) == word("0", 2, 2)
    assert reconstruct_scan(code, {word("1", 2, 2)}) == word("1", 2, 2)
    with pytest.raises(NoCandidateError):
        reconstruct(UtrCode(P22, 1, 0, 0, (word("0", 2, 2),)), {word("1", 2, 2)})
    with pytest.raises(DomainError):
        simulate_reconstruction(code, 5, seed=1)
