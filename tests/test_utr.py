"""Reconstruction codes: checkers, size accounting, construction, decoding."""

import itertools
import random

import pytest

from tandemreco import (
    AmbiguityError,
    ConeMismatchError,
    DupParams,
    NoCandidateError,
    ParamsMismatchError,
    ResourceCapError,
    UtrCheck,
    UtrCode,
    Word,
    WordLengthError,
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
    sidon_size,
    simulate_reconstruction,
    utr,
    utr_size_formula,
    word,
)

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


def test_reduced_checker_reads_dimension_from_coordinates(monkeypatch):
    ok, broken = fixture_code(N=1), fixture_code(N=0)

    def refuse(x):
        raise AssertionError("the checker re-derived a cone dimension")

    monkeypatch.setattr(utr, "cone_dimension", refuse)
    assert is_utr_code_reduced(ok).ok
    failed = is_utr_code_reduced(broken)
    assert not failed.ok and failed.detail == 1


def test_reduced_checker_skips_distance_one_cones(monkeypatch):
    # t = 1, N = 1 needs distance 1, which distinct cone mates always meet
    code = construction_a(P22, 12, 1, 1)

    def refuse(u, v):
        raise AssertionError("compared a pair in a distance-1 cone")

    monkeypatch.setattr(utr, "half_manhattan", refuse)
    assert is_utr_code_reduced(code).ok
    # at N = 0 the cone needs distance 2, so its pairs are still compared
    calls = []

    def count(u, v):
        calls.append((u, v))
        return half_manhattan(u, v)

    monkeypatch.setattr(utr, "half_manhattan", count)
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
    for q, k in ((2, 2), (3, 2), (2, 3)):
        params = DupParams(q, k)
        for l in range(0, 7):
            counts = {}
            for symbols in itertools.product(range(q), repeat=l):
                run = longest = 0
                for s in symbols:
                    run = run + 1 if s == 0 else 0
                    longest = max(longest, run)
                if longest < k:
                    m = sum(1 for s in symbols if s != 0)
                    counts[m] = counts.get(m, 0) + 1
            for m in range(l + 1):
                assert count_rll_weight(l, m, params) == counts.get(m, 0), (q, k, l, m)


def test_irreducible_enumeration_matches_count():
    for q, k in ((2, 1), (2, 2), (3, 2)):
        params = DupParams(q, k)
        for n in range(k, 7):
            words = irreducible_words(params, n)
            assert len(words) == irreducible_count(params, n)
            assert len(set(words)) == len(words)
            assert all(is_irreducible(x) and len(x) == n for x in words)
    assert irreducible_words(P22, 1) == []


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
