"""Duplication calculus: examples and exhaustive small-range invariants."""

import contextlib
import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemreco import (
    ConeMismatchError,
    DimensionMismatchError,
    DomainError,
    DupParams,
    ParamsMismatchError,
    PhiImage,
    ResourceCapError,
    Word,
    WordLengthError,
    channel_sample,
    descendants,
    is_irreducible,
    mu_sigma,
    phi,
    phi_inv,
    psi,
    psi_inv,
    rebuild_diff,
    root,
    root_decomposition,
    tandem_duplicate,
    word,
)
from tandemreco import duplication
from tandemreco.duplication import _EXPANSION, _children, _key, _layers, _shared_expansion

SMALL_PARAMS = [(q, k) for q in (2, 3) for k in (1, 2)]


def all_words(q: int, k: int, max_len: int, min_len: int = 0):
    params = DupParams(q, k)
    for n in range(min_len, max_len + 1):
        for symbols in itertools.product(range(q), repeat=n):
            yield Word(symbols, params)


def test_params_validation():
    with pytest.raises(DomainError):
        DupParams(1, 1)
    with pytest.raises(DomainError):
        DupParams(2, 0)
    with pytest.raises(DomainError):
        Word((0, 2), DupParams(2, 1))


def test_params_reject_bool():
    # bool is an int subclass, and DupParams(2, True) would equal DupParams(2, 1)
    with pytest.raises(DomainError, match="duplication length must be an integer >= 1, got True"):
        DupParams(2, True)
    with pytest.raises(DomainError, match="alphabet size must be an integer >= 2, got True"):
        DupParams(True, 2)


def test_word_rejects_bool_symbols():
    with pytest.raises(DomainError, match="symbol True outside alphabet of size 2"):
        Word((1, True, 0), DupParams(2, 2))

    class Symbol(int):
        pass

    # other int subclasses stay symbols
    assert Word((Symbol(1), 0), DupParams(2, 2)).text() == "10"


def test_word_text_roundtrip():
    w = word("0121", 3, 2)
    assert w.text() == "0121"
    assert Word.parse(w.text(), w.params) == w
    big = Word((0, 11, 3), DupParams(12, 1))
    assert big.text() == "0,11,3"
    assert Word.parse(big.text(), big.params) == big
    assert Word.parse("", DupParams(12, 1)) == Word((), DupParams(12, 1))
    assert Word.parse("0,10", DupParams(11, 2)) == Word((0, 10), DupParams(11, 2))
    # above base 10 a symbol has one spelling, so "03" is not "3"
    with pytest.raises(DomainError):
        word("03,4", 11, 2)
    with pytest.raises(DomainError):
        word("00", 11, 2)


def test_mixed_params_rejected():
    with pytest.raises(ParamsMismatchError):
        PhiImage(word("01", 2, 2), word("11", 3, 2))


def test_alphabet_stops_at_the_last_code_point():
    # a walk keys each symbol by one code point, and chr stops at 0x10FFFF
    top = DupParams(0x110000, 1)
    high, surrogate = 0x10FFFF, 0xD800
    x = Word((high, surrogate, 0), top)
    children = ((high, high, surrogate, 0), (high, surrogate, surrogate, 0), (high, surrogate, 0, 0))
    assert descendants(x, 1) == {Word(sym, top) for sym in children}
    assert len(descendants(x, 2)) == 6
    with pytest.raises(DomainError, match="^alphabet size must be at most 1114112, got 1114113$"):
        DupParams(0x110001, 1)


def test_tandem_duplicate_examples():
    assert tandem_duplicate(word("0121", 3, 2), 1) == word("012121", 3, 2)
    assert tandem_duplicate(word("01", 2, 2), 1) == word("01", 2, 2)
    assert tandem_duplicate(word("010", 2, 1), 0) == word("0010", 2, 1)


def test_descendants_examples():
    got = descendants(word("010", 2, 1), 1)
    assert got == {word(s, 2, 1) for s in ("0010", "0110", "0100")}
    assert descendants(word("01", 2, 2), 2) == {word("010101", 2, 2)}
    assert len(descendants(word("010", 2, 1), 2)) == 6


def test_descendants_short_word_and_cap(monkeypatch):
    short = word("0", 2, 2)
    assert descendants(short, 0) == {short}
    assert descendants(short, 1) == set()
    monkeypatch.setenv("TANDEM_NODE_CAP", "10")
    with pytest.raises(ResourceCapError):
        descendants(word("0101", 2, 1), 4)


def test_node_cap_env_override(monkeypatch):
    monkeypatch.setenv("TANDEM_NODE_CAP", "5")
    with pytest.raises(ResourceCapError):
        descendants(word("0101", 2, 1), 4)
    monkeypatch.delenv("TANDEM_NODE_CAP")
    assert len(descendants(word("0101", 2, 1), 2)) > 5


def test_descendants_are_priced_before_the_walk(monkeypatch):
    x = word("0101", 2, 1)
    size = len(descendants(x, 3))

    def refuse(*args):
        raise AssertionError("walked an expansion priced above its budget")

    monkeypatch.setattr(duplication, "_layer", refuse)
    monkeypatch.setenv("TANDEM_NODE_CAP", str(size - 1))
    message = f"^descendant expansion exceeded cap of {size - 1} nodes$"
    with pytest.raises(ResourceCapError, match=message):
        descendants(x, 3)
    monkeypatch.delenv("TANDEM_NODE_CAP")
    # |D_30| = C(30 + 6, 6) is below the node cap, but D_0 ... D_30 hold 6.2e8 symbols
    big = root(word("0110100110", 2, 2))
    message = (
        "^a walk of 30 duplications from a word of length 8 exceeds the budget of "
        "100000000 symbols$"
    )
    with pytest.raises(ResourceCapError, match=message):
        descendants(big, 30)
    # the last layers hold 801 * 1604 and 20 004 symbols, the whole walks 3.4e8 and 1.0e8
    for text, t in (("0001", 800), ("0000", 10_000)):
        message = f"^a walk of {t} duplications from a word of length 4 exceeds the budget"
        with pytest.raises(ResourceCapError, match=message):
            descendants(word(text, 2, 2), t)


def test_walk_price_is_the_sum_of_its_layers(monkeypatch):
    # layer j holds C(j + m, m) words of length L + jk; the kernel sums them in closed form
    for m, t, length, k in itertools.product(range(7), range(13), range(11), range(1, 4)):
        symbols = sum(math.comb(j + m, m) * (length + j * k) for j in range(t + 1))
        monkeypatch.setattr(duplication, "WALK_SYMBOL_BUDGET", symbols)
        assert duplication._walk_price(m, t, length, k) == math.comb(t + m, m)
        monkeypatch.setattr(duplication, "WALK_SYMBOL_BUDGET", symbols - 1)
        with pytest.raises(ResourceCapError):
            duplication._walk_price(m, t, length, k)


def test_walk_price_refuses_a_long_walk_before_its_binomials():
    # the t + 1 layers hold at least 1e14 symbols; the exact count needs 3 s of binomials
    start = time.perf_counter()
    message = "^a walk of 1000000000 duplications from a word of length 100001 exceeds"
    with pytest.raises(ResourceCapError, match=message):
        duplication._walk_price(10**5, 10**9, 10**5 + 1, 1)
    assert time.perf_counter() - start < 0.1


def test_walk_of_an_unprintable_length_is_refused_with_a_bound():
    # 10^4300 has 4301 digits, one more than Python prints
    message = "^a walk of at least 10\\^4300 duplications from a word of length 4 exceeds"
    with pytest.raises(ResourceCapError, match=message):
        descendants(word("0011", 2, 2), 10**4300)


def test_a_word_shorter_than_k_walks_nothing_at_any_depth():
    # its walk once stepped through 10^9 empty layers, for minutes
    x = word("01", 2, 3)
    start = time.perf_counter()
    assert descendants(x, 10**9) == descendants(x, 1) == set()
    assert descendants(x, 0) == {x}
    assert time.perf_counter() - start < 0.1


def literal_layers(x: Word, depth: int) -> list[set[str]]:
    """D_0(x), ..., D_depth(x) as walk keys, duplicating at every offset of every word, in order."""
    layers = [{_key(x.symbols)}]
    for _ in range(depth):
        out = set()
        for key in layers[-1]:
            w = Word(tuple(map(ord, key)), x.params)
            for i in range(len(key) - x.params.k + 1):
                out.add(_key(tandem_duplicate(w, i).symbols))
        layers.append(out)
    return layers


def walk(x: Word, depth: int) -> list[list[str]]:
    """The first depth + 1 layers of ``_layers``, each in its iteration order."""
    return [list(layer) for layer in itertools.islice(_layers(x, 10**7), depth + 1)]


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from((2, 3, 4)),
    k=st.sampled_from((1, 2, 3)),
    depth=st.integers(0, 3),
    data=st.data(),
)
def test_layers_match_the_literal_walk(q, k, depth, data):
    sym = data.draw(st.lists(st.integers(0, q - 1), max_size=14))
    x = Word(tuple(sym), DupParams(q, k))
    # each distinct child once, in the order of its first offset
    kids = [_key(tandem_duplicate(x, i).symbols) for i in range(len(sym) - k + 1)]
    assert _children(_key(x.symbols), k) == list(dict.fromkeys(kids))
    # equal sets built by the same first insertions also iterate in the same order
    want = [list(layer) for layer in literal_layers(x, depth)]
    assert walk(x, depth) == want
    with _shared_expansion():
        assert walk(x, depth) == want
        assert walk(x, depth) == want  # now every child comes from the memo


def test_shared_expansion_scope_ends_with_its_block():
    x = word("0110", 2, 1)
    assert _EXPANSION.get() is None
    with _shared_expansion():
        walk(x, 2)
        outer = _EXPANSION.get()
        assert _key(x.symbols) in outer[1]
        with _shared_expansion():
            # a nested scope starts empty and leaves the outer one untouched
            assert _EXPANSION.get() == {}
            walk(word("1001", 2, 1), 2)
        assert _EXPANSION.get() is outer and _key((1, 0, 0, 1)) not in outer[1]
    assert _EXPANSION.get() is None
    with contextlib.suppress(KeyError), _shared_expansion():
        walk(x, 2)
        raise KeyError
    assert _EXPANSION.get() is None


def test_shared_expansion_keeps_duplication_lengths_apart():
    symbols = (0, 1, 1, 0, 1, 0)
    xs = [Word(symbols, DupParams(2, k)) for k in (1, 2, 3)]
    with _shared_expansion():
        for x in xs + xs:
            assert walk(x, 3) == [list(layer) for layer in literal_layers(x, 3)]


def test_node_cap_holds_inside_a_shared_expansion(monkeypatch):
    x = word("0101", 2, 1)
    size = len(descendants(x, 2))
    with _shared_expansion():
        # the second walk takes every child from the memo and still meets the cap
        for _ in range(2):
            monkeypatch.setenv("TANDEM_NODE_CAP", str(size - 1))
            with pytest.raises(
                ResourceCapError, match=f"descendant expansion exceeded cap of {size - 1} nodes"
            ):
                descendants(x, 2)
            monkeypatch.delenv("TANDEM_NODE_CAP")
            assert len(descendants(x, 2)) == size


def test_node_cap_inside_a_shared_expansion_survives_optimize(run_optimized):
    size = len(descendants(word("0101", 2, 1), 2))
    script = (
        "import os, sys\n"
        "from tandemreco import ResourceCapError, descendants, word\n"
        "from tandemreco.duplication import _shared_expansion\n"
        "x = word('0101', 2, 1)\n"
        "with _shared_expansion():\n"
        "    descendants(x, 2)\n"
        f"    os.environ['TANDEM_NODE_CAP'] = '{size - 1}'\n"
        "    try:\n"
        "        descendants(x, 2)\n"
        "    except ResourceCapError as err:\n"
        "        print(sys.flags.optimize, err)\n"
    )
    want = f"1 descendant expansion exceeded cap of {size - 1} nodes"
    assert run_optimized(script).strip() == want


def test_phi_examples():
    img = phi(word("01221", 3, 2))
    assert img.prefix == word("01", 3, 2) and img.diff == word("212", 3, 2)
    img = phi(word("0101", 2, 2))
    assert img.diff == word("00", 2, 2)
    img = phi(word("0110", 2, 2))
    assert img.diff == word("11", 2, 2)
    with pytest.raises(WordLengthError):
        phi(word("0", 2, 2))


def test_phi_inv_examples():
    assert phi_inv(PhiImage(word("01", 3, 2), word("212", 3, 2))) == word("01221", 3, 2)
    assert phi_inv(PhiImage(word("01", 2, 2), word("", 2, 2))) == word("01", 2, 2)
    assert phi_inv(PhiImage(word("0", 2, 1), word("11", 2, 1))) == word("010", 2, 1)


def test_mu_sigma_examples():
    mu, sigma = mu_sigma(word("00", 2, 2))
    assert mu == word("", 2, 2) and sigma == (1,)
    mu, sigma = mu_sigma(word("11", 2, 2))
    assert mu == word("11", 2, 2) and sigma == (0, 0, 0)
    # runs of the diff string 01001 are (1, 2, 0)
    mu, sigma = mu_sigma(word("01001", 2, 2))
    assert mu == word("011", 2, 2) and sigma == (0, 1, 0)


def test_mu_sigma_rebuild_exhaustive():
    for q, k in SMALL_PARAMS:
        for b in all_words(q, k, 8):
            mu, sigma = mu_sigma(b)
            assert rebuild_diff(mu, sigma) == b


def test_rebuild_diff_validation():
    with pytest.raises(DimensionMismatchError):
        rebuild_diff(word("11", 2, 2), (0, 0))
    with pytest.raises(DomainError):
        rebuild_diff(word("11", 2, 2), (0, -1, 0))


def test_root_examples():
    assert root(word("0101", 2, 2)) == word("01", 2, 2)
    assert root(word("0110", 2, 2)) == word("0110", 2, 2)
    assert root(word("00110", 2, 1)) == word("010", 2, 1)


def test_is_irreducible_examples():
    assert is_irreducible(word("0110", 2, 2))
    assert not is_irreducible(word("0101", 2, 2))
    assert is_irreducible(word("010", 2, 1))


def test_psi_examples():
    r = word("010", 2, 1)
    assert psi(r, word("0010", 2, 1)) == (1, 0, 0)
    assert psi(r, r) == (0, 0, 0)
    assert psi(word("01", 2, 2), word("010101", 2, 2)) == (2,)
    with pytest.raises(ConeMismatchError):
        psi(r, word("0111", 2, 1))


def test_psi_inv_examples():
    r = word("010", 2, 1)
    assert psi_inv(r, (1, 0, 0)) == word("0010", 2, 1)
    assert psi_inv(r, (0, 0, 0)) == r
    assert psi_inv(word("01", 2, 2), (3,)) == word("01010101", 2, 2)
    with pytest.raises(DimensionMismatchError):
        psi_inv(r, (1, 0))


def test_channel_sample_examples():
    assert channel_sample(word("01", 2, 2), 2, seed=5) == word("010101", 2, 2)
    out = channel_sample(word("010", 2, 1), 1, seed=77)
    assert out in descendants(word("010", 2, 1), 1)
    runs = [channel_sample(word("0102", 3, 1), 4, seed=123) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_phi_bijectivity_exhaustive():
    for q, k in SMALL_PARAMS:
        for x in all_words(q, k, 6, min_len=k):
            assert phi_inv(phi(x)) == x


def zeta(img: PhiImage, i: int) -> PhiImage:
    """Insert a block of k zeros at offset i of the difference string."""
    k = img.params.k
    d = img.diff.symbols
    if len(d) < i:
        return img
    inserted = d[:i] + (0,) * k + d[i:]
    return PhiImage(img.prefix, Word(inserted, img.params))


def test_duplication_commutes_with_transform():
    # phi(duplicate(x, i)) must equal the zero-block insertion on phi(x)
    for q, k in SMALL_PARAMS:
        for x in all_words(q, k, 6, min_len=k):
            img = phi(x)
            for i in range(len(x) + 2):
                left = phi(tandem_duplicate(x, i))
                right = zeta(img, i) if len(x) >= i + k else img
                assert left == right, (x, i)


def test_root_idempotent_and_reachable():
    for q, k in SMALL_PARAMS:
        for x in all_words(q, k, 5, min_len=k):
            r = root(x)
            assert root(r) == r
            assert is_irreducible(r)
            steps = (len(x) - len(r)) // k
            assert x in descendants(r, steps)


def test_psi_weight_law_and_poset_isomorphism():
    # weight law: coordinates of a cone member sum to its duplication depth;
    # order law: one duplication step adds exactly one unit vector
    for q, k in SMALL_PARAMS:
        for r in all_words(q, k, 4, min_len=k):
            if not is_irreducible(r):
                continue
            for t in range(0, 3):
                layer = descendants(r, t)
                nxt = descendants(r, t + 1)
                for y in layer:
                    vy = psi(r, y)
                    assert sum(vy) == t
                    children = descendants(y, 1)
                    for y2 in nxt:
                        vy2 = psi(r, y2)
                        delta = [b - a for a, b in zip(vy, vy2)]
                        is_unit = sum(delta) == 1 and all(d >= 0 for d in delta)
                        assert (y2 in children) == is_unit, (y, y2)


def test_poset_isomorphism_deep_spot_check():
    # widest binary cone at root length 6, all the way down to depth 3
    r = word("010101", 2, 1)
    assert is_irreducible(r)
    for t in range(0, 3):
        layer = descendants(r, t)
        nxt = descendants(r, t + 1)
        for y in sorted(layer, key=lambda w: w.symbols):
            vy = psi(r, y)
            children = descendants(y, 1)
            for y2 in nxt:
                vy2 = psi(r, y2)
                delta = [b - a for a, b in zip(vy, vy2)]
                is_unit = sum(delta) == 1 and all(d >= 0 for d in delta)
                assert (y2 in children) == is_unit
