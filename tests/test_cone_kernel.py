"""The one-pass cone kernel against the literal transform chain.

root, psi, psi_inv, is_irreducible, cone_dimension, root_decomposition and
the duplication distance are computed from one decomposition per word; the
chain phi -> mu_sigma -> phi_inv (kept as written) is their reference.  A
caller that grows many members of one cone decomposes its root once.

Those single-word and pairwise functions keep the decomposition on the word,
so a word met again is not decomposed again; the kept value is invisible to
equality, hashing, repr, copying and pickling.  The bulk paths (the
construction, the cone index, the decoder and the simulation) decompose
each word once per call and leave the slot empty, so a code holds no
decompositions.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemreco import (
    ConeMismatchError,
    DomainError,
    DupParams,
    NotIrreducibleError,
    ParamsMismatchError,
    PhiImage,
    RootDecomposition,
    UtrCode,
    Word,
    WordLengthError,
    channel_sample,
    cone_dimension,
    construction_a,
    descendants,
    duplication_distance,
    is_irreducible,
    join_meet,
    mu_sigma,
    phi,
    phi_inv,
    psi,
    psi_inv,
    root,
    root_decomposition,
    simulate_reconstruction,
    word,
)
from tandemreco import duplication, metric, oracles, utr

MAX_LEN = 30
PROPERTY = settings(max_examples=300, deadline=None)


@st.composite
def words(draw):
    """A word of length k..30 over q in {2, 3, 4}, k in {1, 2, 3}.

    A random base grown by random duplications, so that deep cones occur.
    """
    p = DupParams(draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2, 3))))
    t = draw(st.integers(0, (MAX_LEN - p.k) // p.k))
    n = draw(st.integers(p.k, MAX_LEN - t * p.k))
    base = Word(tuple(draw(st.lists(st.integers(0, p.q - 1), min_size=n, max_size=n))), p)
    return channel_sample(base, t, draw(st.integers(0, 2**32 - 1)))


def chain(x: Word) -> tuple[Word, Word, tuple[int, ...]]:
    """(root, reduced difference string, sigma) through phi, mu_sigma and phi_inv."""
    img = phi(x)
    mu, sigma = mu_sigma(img.diff)
    return phi_inv(PhiImage(img.prefix, mu)), mu, sigma


@PROPERTY
@given(words())
def test_root_matches_chain(x):
    want, mu, sigma = chain(x)
    got = root(x)
    assert got == want and hash(got) == hash(want)
    assert root_decomposition(x) == RootDecomposition(phi(x).prefix, mu, sigma)


@PROPERTY
@given(words())
def test_psi_matches_chain_and_inverts(x):
    r = root(x)
    v = psi(r, x)
    assert v == mu_sigma(phi(x).diff)[1]
    assert psi_inv(r, v) == x


@PROPERTY
@given(words())
def test_irreducibility_and_dimension_match_chain(x):
    img = phi(x)
    irreducible = mu_sigma(img.diff)[0] == img.diff
    assert is_irreducible(x) == irreducible
    if irreducible:
        assert cone_dimension(x) == img.diff.hamming_weight()
    else:
        with pytest.raises(NotIrreducibleError):
            cone_dimension(x)
        with pytest.raises(NotIrreducibleError):
            psi(x, x)
        with pytest.raises(NotIrreducibleError):
            psi_inv(x, mu_sigma(img.diff)[1])


def chain_distance(x: Word, y: Word) -> int | float:
    rx, _, sx = chain(x)
    ry, _, sy = chain(y)
    if rx != ry:
        return math.inf
    return sum(abs(a - b) for a, b in zip(sx, sy)) // 2


@PROPERTY
@given(st.data())
def test_distance_matches_chain(data):
    x = data.draw(words())
    # a cone mate of equal length, and an unrelated word of equal length
    t = data.draw(st.integers(0, 3))
    mate = channel_sample(x, t, data.draw(st.integers(0, 2**32 - 1)))
    x = channel_sample(x, t, data.draw(st.integers(0, 2**32 - 1)))
    symbols = st.lists(st.integers(0, x.params.q - 1), min_size=len(x), max_size=len(x))
    other = Word(tuple(data.draw(symbols)), x.params)
    assert duplication_distance(x, mate) == chain_distance(x, mate)
    assert duplication_distance(x, other) == chain_distance(x, other)


def test_error_order_kept():
    reducible, short = word("0101", 2, 2), word("0", 2, 2)
    assert not is_irreducible(reducible)
    with pytest.raises(NotIrreducibleError):
        psi(reducible, word("01", 3, 2))
    with pytest.raises(ParamsMismatchError):
        psi(word("01", 2, 2), word("01", 3, 2))
    with pytest.raises(ConeMismatchError):
        psi(word("01", 2, 2), word("0110", 2, 2))
    for op in (root, is_irreducible, cone_dimension, root_decomposition, lambda w: psi(w, w)):
        with pytest.raises(WordLengthError):
            op(short)
    with pytest.raises(WordLengthError):
        psi_inv(short, (0,))
    with pytest.raises(DomainError):
        psi_inv(word("0110", 2, 2), (1, -1, 0))


def test_alphabet_checked_at_the_boundary_only():
    p = DupParams(2, 2)
    with pytest.raises(DomainError):
        Word((0, 2), p)
    with pytest.raises(DomainError):
        word("012", 2, 2)
    with pytest.raises(DomainError):
        UtrCode.loads('{"q": 2, "k": 2, "n": 4, "N": 1, "t": 1, "codewords": ["0120"]}')
    # words derived without the check behave exactly like checked ones
    x = word("0110101", 2, 2)
    derived = [root(x), psi_inv(root(x), (0, 1, 0)), *descendants(x, 2)]
    for w in derived:
        checked = Word(w.symbols, w.params)
        assert w == checked and checked == w and hash(w) == hash(checked)
        assert type(w.symbols) is tuple
    assert set(derived) == {Word(w.symbols, p) for w in derived}


def count_cone_calls(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """Record the arguments of every ``_cone`` call, as bound in every module that uses it."""
    calls = []
    inner = duplication._cone

    def counting(sym, k):
        calls.append((sym, k))
        return inner(sym, k)

    for module in (duplication, utr, metric):
        monkeypatch.setattr(module, "_cone", counting)
    return calls


def test_construction_decomposes_each_root_once(monkeypatch):
    calls = count_cone_calls(monkeypatch)
    code = construction_a(DupParams(2, 2), 12, 1, 1)
    # the root walk gives each pool root's run ends, and the index is grown from
    # them, so neither the build nor its index decomposes a word
    assert (len(code.cone_index), len(code)) == (120, 880)
    assert len(calls) == 0


def test_join_meet_decomposes_the_shared_root_once(monkeypatch):
    r = word("0110", 2, 2)
    y, y2 = psi_inv(r, (1, 0, 2)), psi_inv(r, (0, 1, 1))
    calls = count_cone_calls(monkeypatch)
    join, meet = join_meet(y, y2)
    assert len(calls) == 3
    assert (psi(r, join), psi(r, meet)) == ((1, 1, 2), (0, 0, 1))


def test_simulate_decomposes_each_drawn_codeword_once(monkeypatch):
    code = construction_a(DupParams(2, 2), 12, 1, 1)
    code.cone_index  # built once per code, outside the trials
    calls = count_cone_calls(monkeypatch)
    report = simulate_reconstruction(code, 300, seed=17)
    # per trial: the drawn codeword once (its cone dimension), then the N + 1 = 2 reads
    assert report.short_cone_trials == 0
    assert len(calls) == 300 * (1 + 2)


def kept(w: Word) -> bool:
    """Whether w holds its decomposition."""
    return hasattr(w, "_decomposition")


@PROPERTY
@given(words())
def test_kept_decomposition_matches_the_kernel(x):
    assert not kept(x)
    root(x)
    first = x._decomposition
    assert first == duplication._cone(x.symbols, x.params.k)
    assert duplication._decomposed(x) is first


def test_kept_decomposition_is_invisible():
    full, empty = word("0110101", 2, 2), word("0110101", 2, 2)
    assert psi(root(full), full) == (0, 0, 1)
    assert kept(full) and not kept(empty)
    assert full == empty and empty == full
    assert hash(full) == hash(empty) and repr(full) == repr(empty)


@pytest.mark.parametrize("fill", [False, True])
def test_copies_and_pickles_equal_the_word(fill):
    w = word("0110101", 2, 2)
    if fill:
        root(w)
    copies = [copy.copy(w), copy.deepcopy(w)]
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies += [pickle.loads(pickle.dumps(w, protocol)) for protocol in protocols]
    for c in copies:
        assert c == w and hash(c) == hash(w) and repr(c) == repr(w)
        assert type(c.symbols) is tuple and c.params == w.params
        assert root(c) == root(w)


@pytest.mark.parametrize("q", oracles.QS)
def test_pairwise_metric_decomposes_each_word_once(monkeypatch, q):
    # one alphabet at a time: the recorded arguments (symbols, k) do not show q
    monkeypatch.setattr(oracles, "QS", (q,))
    calls = count_cone_calls(monkeypatch)
    oracles.suite_intersection(max_root_len=4, max_t=2)
    assert calls and len(set(calls)) == len(calls)
    calls.clear()
    result = oracles.suite_cone_count(max_root_len=4, max_t=3)
    # one decomposition per root, whatever the number of layers checked
    assert len(set(calls)) == len(calls) == result.checks // 4


def test_bulk_paths_leave_the_slots_empty(monkeypatch):
    code = construction_a(DupParams(2, 2), 12, 1, 1)
    c = code.codewords[0]
    reads = sorted(descendants(c, 1), key=lambda w: w.symbols)[:2]
    assert utr.reconstruct(code, reads) == c
    seen = []
    inner = utr.reconstruct

    def recording(code, reads):
        seen.extend(reads)
        return inner(code, reads)

    monkeypatch.setattr(utr, "reconstruct", recording)
    simulate_reconstruction(code, 50, seed=17)
    assert seen
    assert not any(map(kept, [*code.codewords, *reads, *seen]))
