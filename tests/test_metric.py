"""Distance closed forms against their breadth-first oracles."""

import contextlib
import itertools
import math
import time

import pytest

from tandemreco import (
    ConeMismatchError,
    DomainError,
    DupParams,
    NotIrreducibleError,
    ResourceCapError,
    WordLengthError,
    cone_intersection_size,
    descendant_count,
    descendants,
    duplication_distance,
    duplication_distance_bfs,
    irreducible_words,
    join_meet,
    psi,
    root,
    word,
)

SMALL_PARAMS = [(q, k) for q in (2, 3) for k in (1, 2)]


def small_roots(q, k, max_len):
    params = DupParams(q, k)
    out = []
    for n in range(k, max_len + 1):
        out.extend(irreducible_words(params, n))
    return out


def test_distance_examples():
    assert duplication_distance(word("0101", 2, 2), word("0101", 2, 2)) == 0
    assert duplication_distance(word("0010", 2, 1), word("0100", 2, 1)) == 1
    assert math.isinf(duplication_distance(word("0110", 2, 2), word("0101", 2, 2)))
    with pytest.raises(WordLengthError):
        duplication_distance(word("01", 2, 1), word("010", 2, 1))


def test_distance_bfs_examples():
    assert duplication_distance_bfs(word("0010", 2, 1), word("0100", 2, 1), 3) == 1
    assert duplication_distance_bfs(word("0101", 2, 2), word("0101", 2, 2), 3) == 0
    assert duplication_distance_bfs(word("0110", 2, 2), word("0101", 2, 2), 3) is None


def test_distance_bfs_expands_no_layer_past_t_max(monkeypatch):
    # each word's D_1 fits a cap of 3 nodes and D_2 does not; t_max = 1 reads only D_0 and D_1
    x, y = word("0110", 2, 2), word("0100", 2, 2)
    monkeypatch.setenv("TANDEM_NODE_CAP", "3")
    assert duplication_distance_bfs(x, y, 1) is None
    with pytest.raises(ResourceCapError):
        duplication_distance_bfs(x, y, 2)


def test_descendant_count_examples():
    assert descendant_count(word("010", 2, 1), 2) == 6
    assert len(descendants(word("010", 2, 1), 2)) == 6
    assert descendant_count(word("0110", 2, 2), 0) == 1
    assert descendant_count(word("01", 2, 2), 5) == 1
    with pytest.raises(NotIrreducibleError):
        descendant_count(word("0101", 2, 2), 1)


def test_cone_intersection_examples():
    assert cone_intersection_size(word("0010", 2, 1), word("0100", 2, 1), 1) == 1
    assert cone_intersection_size(word("0010", 2, 1), word("0010", 2, 1), 2) == 6
    assert cone_intersection_size(word("0010", 2, 1), word("0100", 2, 1), 0) == 0
    with pytest.raises(ConeMismatchError):
        cone_intersection_size(word("0110", 2, 2), word("0101", 2, 2), 1)


def test_join_meet_examples():
    r = word("010", 2, 1)
    join, meet = join_meet(word("0010", 2, 1), word("0100", 2, 1))
    assert psi(r, join) == (1, 0, 1)
    assert meet == r
    y = word("0110", 2, 1)
    assert join_meet(y, y) == (y, y)
    join, meet = join_meet(word("010", 2, 1), word("0010", 2, 1))
    assert join == word("0010", 2, 1) and meet == word("010", 2, 1)


def test_distance_matches_bfs_exhaustive():
    for q, k in SMALL_PARAMS:
        for r in small_roots(q, k, 4):
            for s in (1, 2):
                members = sorted(descendants(r, s), key=lambda w: w.symbols)
                for y, y2 in itertools.combinations(members, 2):
                    assert duplication_distance(y, y2) == duplication_distance_bfs(
                        y, y2, t_max=2 * k + s
                    )


def test_distance_oracle_full_range():
    from tandemreco.oracles import suite_distance

    result = suite_distance(max_root_len=5)
    assert result.ok, result.failures
    assert result.checks == 19_892


def test_metric_axioms_on_one_layer():
    for q, k in SMALL_PARAMS:
        for r in small_roots(q, k, 3):
            members = sorted(descendants(r, 2), key=lambda w: w.symbols)
            for y in members:
                assert duplication_distance(y, y) == 0
            for y, y2 in itertools.combinations(members, 2):
                d = duplication_distance(y, y2)
                assert d == duplication_distance(y2, y) > 0
            for a, b, c in itertools.combinations(members, 3):
                assert duplication_distance(a, c) <= duplication_distance(
                    a, b
                ) + duplication_distance(b, c)


def test_intersection_matches_bruteforce():
    for q, k in SMALL_PARAMS:
        for r in small_roots(q, k, 4):
            members = sorted(descendants(r, 2), key=lambda w: w.symbols)
            tables = {y: [descendants(y, t) for t in range(4)] for y in members}
            for y, y2 in itertools.combinations(members, 2):
                for t in range(4):
                    assert cone_intersection_size(y, y2, t) == len(
                        tables[y][t] & tables[y2][t]
                    )


def test_cone_count_suite_expands_each_root_once(monkeypatch):
    from tandemreco import oracles

    started = []
    layers = oracles._layers
    monkeypatch.setattr(oracles, "_layers", lambda x, cap: started.append(x) or layers(x, cap))
    result = oracles.suite_cone_count(max_root_len=4, max_t=3)
    roots = [x for q in oracles.QS for k in oracles.KS for x in oracles._all_roots(q, k, 4)]
    assert result.ok and result.checks == 4 * len(roots)
    assert started == roots


@pytest.mark.parametrize(
    ("suite", "kwargs", "checks"),
    [("intersection", {"max_root_len": 5}, 57_872), ("distance", {}, 19_892)],
)
def test_pairwise_suites_expand_each_word_once_per_root(monkeypatch, suite, kwargs, checks):
    from tandemreco import duplication, oracles

    scopes = []  # the (symbols, k) expanded inside each scope the suite opens
    inside = [False]
    shared = oracles._shared_expansion

    @contextlib.contextmanager
    def marked():
        scopes.append([])
        inside[0] = True
        try:
            with shared():
                yield
        finally:
            inside[0] = False

    children = duplication._children

    def counting(sym, k):
        if inside[0]:
            scopes[-1].append((sym, k))
        return children(sym, k)

    monkeypatch.setattr(oracles, "_shared_expansion", marked)
    monkeypatch.setattr(duplication, "_children", counting)
    result = oracles.ALL_SUITES[suite](**kwargs)
    assert result.ok and result.checks == checks
    roots = [x for q in oracles.QS for k in oracles.KS for x in oracles._all_roots(q, k, 5)]
    assert len(scopes) == len(roots)
    for expanded in scopes:
        assert expanded and len(set(expanded)) == len(expanded)


def test_distance_bfs_rejects_a_negative_horizon():
    w = word("0110", 2, 2)
    assert duplication_distance_bfs(w, w, 0) == duplication_distance(w, w) == 0
    with pytest.raises(DomainError, match="search depth must be nonnegative"):
        duplication_distance_bfs(w, w, -1)


def test_descendant_count_matches_bruteforce():
    for q, k in SMALL_PARAMS:
        for r in small_roots(q, k, 5):
            for t in range(4):
                assert descendant_count(r, t) == len(descendants(r, t))


def test_join_generates_common_cone():
    # the common descendants of y and y2, layer by layer, are exactly the
    # descendants of their join
    for q, k in SMALL_PARAMS[:2]:
        for r in small_roots(q, k, 3):
            members = sorted(descendants(r, 1), key=lambda w: w.symbols)
            for y, y2 in itertools.combinations(members, 2):
                join, meet = join_meet(y, y2)
                assert root(join) == root(meet) == r
                d = duplication_distance(y, y2)
                gap = (len(join) - len(y)) // k
                assert gap == d
                for extra in range(0, 3):
                    expected = descendants(join, extra)
                    got = descendants(y, gap + extra) & descendants(y2, gap + extra)
                    assert got == expected


def test_distance_bfs_prices_each_layer(monkeypatch):
    from tandemreco import metric

    # two length-k roots never meet, so only the layer price ends the search
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="above the budget of 100000000$"):
        duplication_distance_bfs(word("00", 2, 2), word("01", 2, 2), 10**9)
    assert time.perf_counter() - start < 2
    # the budget binds on the layers built before the one where the walks meet
    x, y = word("01010110", 2, 2), word("01101010", 2, 2)
    d = duplication_distance(x, y)
    assert duplication_distance_bfs(x, y, 10) == d == 2
    before = sum(
        (len(descendants(x, t)) + len(descendants(y, t))) * (len(x) + 2 * t) for t in range(d)
    )
    monkeypatch.setattr(metric, "WALK_SYMBOL_BUDGET", before)
    assert duplication_distance_bfs(x, y, 10) == d
    monkeypatch.setattr(metric, "WALK_SYMBOL_BUDGET", before - 1)
    with pytest.raises(ResourceCapError, match=f"^a search to depth {d - 1} from words of length"):
        duplication_distance_bfs(x, y, 10)
