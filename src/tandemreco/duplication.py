"""Fixed-length tandem duplication on words.

A duplication of length k replaces a substring v (|v| = k) by vv.  This
module provides the duplication map itself, exact descendant-set expansion,
the prefix/difference transform that turns duplications into insertions of
k zeros, zero-run decompositions, roots (the unique duplication-free
ancestor of a word), and the integer-vector coordinates that a descendant
cone inherits from its root.
"""

from __future__ import annotations

import math
import os
import random
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import compress
from operator import ne

from .errors import (
    ConeMismatchError,
    DimensionMismatchError,
    DomainError,
    NotIrreducibleError,
    ParamsMismatchError,
    ResourceCapError,
    WordLengthError,
)

DEFAULT_NODE_CAP = 10**7
# symbols one priced walk (all its layers) or one grown codeword listing may build
WALK_SYMBOL_BUDGET = 10**8
# a literal walk keys each symbol by one code point (see _key), so q stops at 0x110000
MAX_Q = sys.maxunicode + 1

# the text form of a word over at most 10 symbols is one ASCII digit per symbol
_TO_DIGIT = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGIT = bytes.maketrans(b"0123456789", bytes(range(10)))


def _effective_cap() -> int:
    env = os.environ.get("TANDEM_NODE_CAP")
    if not env:
        return DEFAULT_NODE_CAP
    try:
        cap = int(env)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise DomainError(f"TANDEM_NODE_CAP must be a nonnegative integer, got {env!r}")


@dataclass(frozen=True)
class DupParams:
    """Channel parameters: alphabet {0..q-1} and duplication length k."""

    q: int
    k: int

    def __post_init__(self):
        # bool is an int subclass, but True is not a size
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 2:
            raise DomainError(f"alphabet size must be an integer >= 2, got {self.q}")
        if self.q > MAX_Q:
            raise DomainError(f"alphabet size must be at most {MAX_Q}, got {self.q}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise DomainError(f"duplication length must be an integer >= 1, got {self.k}")


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word over {0..q-1}, tagged with its channel parameters.

    Text form: ASCII digits when q <= 10, comma-separated ASCII-digit
    integers otherwise.  Words shorter than k are legal values but are
    rejected by the transform/root operations below.

    A word keeps its cone decomposition once a single-word or pairwise
    function has computed it (see :func:`_decomposed`); the slot starts
    empty and takes no part in equality, hashing or the text forms.
    """

    symbols: tuple[int, ...]
    params: DupParams
    _decomposition: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        q = self.params.q
        for s in self.symbols:
            # a plain int passes the type test at once; True is an int but not a symbol
            if (type(s) is not int and (isinstance(s, bool) or not isinstance(s, int))
                    or not 0 <= s < q):
                raise DomainError(f"symbol {s!r} outside alphabet of size {q}")

    @classmethod
    def _trusted(cls, symbols: tuple[int, ...], params: DupParams) -> "Word":
        """A word from symbols of already validated words, without the alphabet check."""
        w = object.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "params", params)
        return w

    def __reduce__(self):
        # the generated slot state would read the empty decomposition slot
        return Word._trusted, (self.symbols, self.params)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Word({self.text()!r}, q={self.params.q}, k={self.params.k})"

    def text(self) -> str:
        if self.params.q <= 10:
            return bytes(self.symbols).translate(_TO_DIGIT).decode("ascii")
        return ",".join(map(str, self.symbols))

    @classmethod
    def parse(cls, text: str, params: DupParams) -> "Word":
        text = text.strip()
        if params.q <= 10:
            if text and not (text.isascii() and text.isdigit()):
                raise DomainError(f"not a word over {params.q} symbols: {text!r}")
            sym = tuple(text.encode("ascii").translate(_FROM_DIGIT))
            if sym and max(sym) >= params.q:
                return cls(sym, params)  # raises, naming the first symbol outside the alphabet
            return cls._trusted(sym, params)
        fields = text.split(",") if text else []
        # a symbol is ASCII digits with one spelling: no leading zero
        if not all(f.isascii() and f.isdigit() and not (f[0] == "0" and f != "0") for f in fields):
            raise DomainError(f"not a word over {params.q} symbols: {text!r}")
        digits = len(str(params.q - 1))
        # a field with more digits than q - 1 is outside the alphabet, named unconverted
        for f in fields:
            if len(f) > digits or int(f) >= params.q:
                raise DomainError(f"symbol {f} outside alphabet of size {params.q}")
        return cls._trusted(tuple(map(int, fields)), params)

    def hamming_weight(self) -> int:
        return sum(1 for s in self.symbols if s != 0)


def word(text: str, q: int, k: int) -> Word:
    """Parse a word from its text form."""
    return Word.parse(text, DupParams(q, k))


def _same_params(x: Word, y: Word) -> DupParams:
    params = x.params
    # words of one code share one params object, so the identity test settles most calls
    if y.params is not params and y.params != params:
        raise ParamsMismatchError(f"mixed parameters: {params} vs {y.params}")
    return params


@dataclass(frozen=True)
class PhiImage:
    """Image of a word under the prefix/difference transform.

    ``prefix`` is the first k symbols; ``diff`` holds the symbol-wise
    differences (x[k+j] - x[j]) mod q, so a duplication of the original
    word inserts a block of k zeros into ``diff``.
    """

    prefix: Word
    diff: Word

    def __post_init__(self):
        params = _same_params(self.prefix, self.diff)
        if len(self.prefix) != params.k:
            raise WordLengthError(
                f"prefix must have length k={params.k}, got {len(self.prefix)}"
            )

    @property
    def params(self) -> DupParams:
        return self.prefix.params


def tandem_duplicate(x: Word, i: int) -> Word:
    """Duplicate the k symbols starting at offset i; identity when x is too short."""
    if i < 0:
        raise DomainError("duplication offset must be nonnegative")
    k = x.params.k
    if len(x) < i + k:
        return x
    sym = x.symbols
    return Word._trusted(sym[: i + k] + sym[i:], x.params)


# k -> {key: children}, shared by every layered walk inside one _shared_expansion block
_EXPANSION: ContextVar[dict[int, dict] | None] = ContextVar("_EXPANSION", default=None)


@contextmanager
def _shared_expansion() -> Iterator[None]:
    """Within the block, every ``_layers`` walk expands each word once.

    The children of each expanded word are kept until the block ends, so a
    caller that walks many words of one cone (the intersection and distance
    oracles) keeps at most one cone's children.
    """
    token = _EXPANSION.set({})
    try:
        yield
    finally:
        _EXPANSION.reset(token)


def _key(sym: Iterable[int]) -> str:
    """The key of a word in every literal walk: one code point per symbol.

    Slicing and joining a str copy memory in C, and a str keeps its hash,
    so a walk over keys never touches a symbol as an object.  Keys compare
    as the symbol tuples do; ``DupParams`` keeps q within the code points.
    """
    return "".join(map(chr, sym))


def _symbols(key: str) -> tuple[int, ...]:
    """The symbols of a walk key; the inverse of :func:`_key`."""
    # unpacked, the tuple is made at its size, so CPython reuses its freed tuples;
    # tuple(map(...)) resizes and leaves a free list per word length filling up
    return (*map(ord, key),)


def _children(key: str, k: int) -> list[str]:
    """The distinct one-step duplications of a key, in order of their first offset.

    Duplicating at i and at i + 1 gives the same word exactly when
    key[i] == key[i + k], so each run of equal children is taken once, at its
    end: at each i with key[i] != key[i + k], and at len(key) - k, the run
    ends of :func:`_cone`.  A word shorter than k has no children.
    """
    last = len(key) - k
    if last < 0:
        return []
    if key.startswith(key[k:]):  # k-periodic: every offset gives the one child, found in C
        return [key + key[last:]]
    # a filtered range beats compress on the short words the checkers expand
    kids = [key[: i + k] + key[i:] for i in range(last) if key[i] != key[i + k]]
    kids.append(key + key[last:])
    return kids


def _memo(k: int) -> dict[str, list[str]] | None:
    """The open :func:`_shared_expansion` block's children for length k, or None."""
    scope = _EXPANSION.get()
    return None if scope is None else scope.setdefault(k, {})


def _step(layer: set[str], k: int, cap: int, memo: dict[str, list[str]] | None) -> set[str]:
    """The layer after ``layer``, its children looked up in memo first when there is one.

    No layer may exceed ``cap`` nodes; each public caller reads the node cap
    once and passes it in.
    """
    out: set[str] = set()
    for key in layer:
        if memo is None:
            out.update(_children(key, k))
        else:
            kids = memo.get(key)
            if kids is None:
                kids = memo[key] = _children(key, k)
            out.update(kids)
        if len(out) > cap:
            raise ResourceCapError(f"descendant expansion exceeded cap of {cap} nodes")
    return out


def _layers(x: Word, cap: int) -> Iterator[set[str]]:
    """The key sets of D_0(x), D_1(x), ..., each grown from the one before."""
    return _walk(_key(x.symbols), x.params.k, cap)


def _walk(key: str, k: int, cap: int) -> Iterator[set[str]]:
    """The layers of :func:`_layers` from a word's key and duplication length.

    A word shorter than k has only empty layers after D_0.
    """
    memo = _memo(k)
    layer = {key}
    while True:
        yield layer
        layer = _step(layer, k, cap, memo)


def _layer(key: str, k: int, t: int, cap: int) -> set[str]:
    """The keys of D_t of the word with this key, no layer above ``cap`` nodes."""
    layer = {key}
    memo = _memo(k)
    for _ in range(t):
        layer = _step(layer, k, cap, memo)
    return layer


def _walk_symbols(m: int, t: int, length: int, k: int) -> int:
    """The symbols of D_0 ... D_t of a word of this length with m + 1 cone coordinates.

    Layer j of the walk holds C(j + m, m) words of length ``length`` + j k,
    so its layers 0 ... t hold length C(t + m + 1, m + 1) + k (m + 1)
    C(t + m + 1, m + 2) symbols (the hockey-stick identity).
    """
    return length * math.comb(t + m + 1, m + 1) + k * (m + 1) * math.comb(t + m + 1, m + 2)


def _walk_price(m: int, t: int, length: int, k: int) -> int:
    """The node count C(t + m, m) of D_t of a word with m + 1 cone coordinates.

    A walk builds and scans every symbol of its layers (:func:`_walk_symbols`),
    so it is refused before it starts when they exceed ``WALK_SYMBOL_BUDGET``.
    """
    # each of the t + 1 layers holds a word at least length > m long, so past this first
    # test min(m, t) is below the budget's square root and the binomials are quick
    if length * (t + 1) > WALK_SYMBOL_BUDGET or (
        _walk_symbols(m, t, length, k) > WALK_SYMBOL_BUDGET
    ):
        raise ResourceCapError(
            f"a walk of {t} duplications from a word of length {length} exceeds the "
            f"budget of {WALK_SYMBOL_BUDGET} symbols"
        )
    return math.comb(t + m, m)


def descendants(x: Word, t: int) -> set[Word]:
    """The exact set of words reachable from x by exactly t duplications.

    The walk is priced before it starts (see :func:`_walk_price`), and it
    raises at once when D_t(x) exceeds the node cap or the walk's layers
    exceed ``WALK_SYMBOL_BUDGET`` symbols.
    """
    if t < 0:
        raise DomainError("descendant depth must be nonnegative")
    cap, k = _effective_cap(), x.params.k
    sym = x.symbols
    # a word shorter than k walks nothing; its cone dimension counts its zero-run ends but the last
    if t and len(sym) >= k and _walk_price(sum(map(ne, sym, sym[k:])), t, len(sym), k) > cap:
        raise ResourceCapError(f"descendant expansion exceeded cap of {cap} nodes")
    layer = _layer(_key(sym), k, t, cap)
    return {Word._trusted(_symbols(key), x.params) for key in layer}


def phi(x: Word) -> PhiImage:
    """Split x into its length-k prefix and the mod-q difference string."""
    k, q = x.params.k, x.params.q
    if len(x) < k:
        raise WordLengthError(f"word of length {len(x)} is shorter than k={k}")
    sym = x.symbols
    prefix = Word(sym[:k], x.params)
    diff = Word(tuple((sym[k + j] - sym[j]) % q for j in range(len(sym) - k)), x.params)
    return PhiImage(prefix, diff)


def phi_inv(img: PhiImage) -> Word:
    """Invert :func:`phi` by running the difference recurrence forward."""
    q = img.params.q
    out = list(img.prefix.symbols)
    for j, d in enumerate(img.diff.symbols):
        out.append((out[j] + d) % q)
    return Word(tuple(out), img.params)


def _zero_runs(symbols: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Decompose into zero-run lengths and the nonzero letters between them.

    Returns (runs, letters) with len(runs) == len(letters) + 1; the word is
    0^runs[0] letters[0] 0^runs[1] ... letters[-1] 0^runs[-1].
    """
    runs: list[int] = []
    letters: list[int] = []
    current = 0
    for s in symbols:
        if s == 0:
            current += 1
        else:
            runs.append(current)
            letters.append(s)
            current = 0
    runs.append(current)
    return runs, letters


def mu_sigma(b: Word) -> tuple[Word, tuple[int, ...]]:
    """Reduce each zero run mod k and record the discarded k-multiples.

    Returns (mu, sigma): ``mu`` keeps every zero-run length mod k, and
    ``sigma[i]`` counts how many whole k-blocks were removed from run i.
    The pair determines ``b`` uniquely (see :func:`rebuild_diff`).
    """
    k = b.params.k
    runs, letters = _zero_runs(b.symbols)
    reduced: list[int] = []
    for i, run in enumerate(runs):
        reduced.extend([0] * (run % k))
        if i < len(letters):
            reduced.append(letters[i])
    sigma = tuple(run // k for run in runs)
    return Word(tuple(reduced), b.params), sigma


def rebuild_diff(mu: Word, sigma: tuple[int, ...]) -> Word:
    """Inverse of :func:`mu_sigma`: reinsert k-blocks of zeros into mu."""
    k = mu.params.k
    runs, letters = _zero_runs(mu.symbols)
    if len(sigma) != len(runs):
        raise DimensionMismatchError(
            f"sigma must have {len(runs)} entries, got {len(sigma)}"
        )
    if any(s < 0 for s in sigma):
        raise DomainError("sigma entries must be nonnegative")
    out: list[int] = []
    for i, run in enumerate(runs):
        out.extend([0] * (run + k * sigma[i]))
        if i < len(letters):
            out.append(letters[i])
    return Word(tuple(out), mu.params)


@dataclass(frozen=True)
class RootDecomposition:
    """A word split into (prefix, reduced difference string, run quotients)."""

    prefix: Word
    mu: Word
    sigma: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        params = _same_params(self.prefix, self.mu)
        if len(self.prefix) != params.k:
            raise WordLengthError("prefix length must equal k")
        runs, letters = _zero_runs(self.mu.symbols)
        if any(r >= params.k for r in runs):
            raise DomainError("mu may not contain a zero run of length >= k")
        if len(self.sigma) != len(letters) + 1:
            raise DimensionMismatchError(
                f"sigma needs weight+1 = {len(letters) + 1} entries, got {len(self.sigma)}"
            )


Cone = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _cone(sym: tuple[int, ...], k: int) -> Cone:
    """Root symbols, cone coordinates and zero-run ends of a word, in one pass.

    The difference string is zero at j exactly when sym[j] == sym[j + k], so
    its zero runs end where the two differ and at len(sym) - k.  A run of
    length r ending at e makes sym[e - r : e + k] periodic with period k;
    deleting the last k * (r // k) symbols of that stretch undoes its r // k
    duplications.  Root and sigma equal those of phi, mu_sigma and phi_inv.
    """
    if len(sym) < k:
        raise WordLengthError(f"word of length {len(sym)} is shorter than k={k}")
    ends = (*compress(range(len(sym) - k), map(ne, sym, sym[k:])), len(sym) - k)
    sigma = []
    kept = ()
    start = cut = 0
    for e in ends:
        s = (e - start) // k
        sigma.append(s)
        if s:
            kept += sym[cut : e + k - k * s]
            cut = e + k
        start = e + 1
    return (kept + sym[cut:] if cut else sym), tuple(sigma), ends


def _decomposed(x: Word) -> Cone:
    """``_cone`` of x, computed on the first read and kept on the word.

    For callers that meet the same word many times (the pairwise metric).
    Paths that decompose each word once per call use ``_cone`` directly and
    leave the slot empty, so a stored code carries no decompositions.
    """
    try:
        return x._decomposition
    except AttributeError:
        kept = _cone(x.symbols, x.params.k)
        object.__setattr__(x, "_decomposition", kept)
        return kept


def _grow(
    sym: tuple[int, ...] | str, k: int, ends: tuple[int, ...], steps: Iterable[tuple[int, int]]
) -> tuple[int, ...] | str:
    """Inverse of :func:`_cone` on an irreducible word: its cone member at coordinates v.

    ``steps`` gives v as (i, v[i]) pairs in order of i; zero entries may be left out.
    ``sym`` is the word's symbol tuple or its walk key, and the member is of its kind.
    """
    # run i grows by v[i] k-blocks: sym[e : e + k] is duplicated v[i] times
    out = sym[:0]
    cut = 0
    for i, s in steps:
        if s:
            e = ends[i]
            out += sym[cut : e + k] + sym[e : e + k] * s
            cut = e + k
    return out + sym[cut:]


def root_decomposition(x: Word) -> RootDecomposition:
    """Full decomposition of x: transform, then split the difference string."""
    k, q = x.params.k, x.params.q
    r, sigma, _ = _decomposed(x)
    mu = Word._trusted(tuple((b - a) % q for a, b in zip(r, r[k:])), x.params)
    return RootDecomposition(Word._trusted(r[:k], x.params), mu, sigma)


def root(x: Word) -> Word:
    """The unique duplication-free ancestor of x."""
    r = _decomposed(x)[0]
    return x if r is x.symbols else Word._trusted(r, x.params)


def is_irreducible(x: Word) -> bool:
    """True iff x is nobody's proper descendant (difference string has no k-zero run)."""
    return not any(_decomposed(x)[1])


def cone_dimension(x: Word) -> int:
    """Number of nonzero symbols in the difference string of an irreducible word.

    The descendant cone of x is coordinatized by vectors with this many
    coordinates plus one.
    """
    sigma = _decomposed(x)[1]
    if any(sigma):
        raise NotIrreducibleError(f"{x!r} is not irreducible")
    return len(sigma) - 1


def psi(x_root: Word, y: Word) -> tuple[int, ...]:
    """Coordinates of y inside the descendant cone of x_root.

    Entry i counts the k-blocks of zeros accumulated in the i-th zero run of
    y's difference string; duplications add unit vectors, and the total
    equals (|y| - |x_root|) / k.
    """
    if not is_irreducible(x_root):
        raise NotIrreducibleError(f"{x_root!r} is not irreducible")
    _same_params(x_root, y)
    r, sigma, _ = _decomposed(y)
    if r != x_root.symbols:
        raise ConeMismatchError(f"{y!r} is not in the descendant cone of {x_root!r}")
    return sigma


def psi_inv(x_root: Word, v: tuple[int, ...]) -> Word:
    """The unique cone member of x_root with the given coordinates."""
    sym, k = x_root.symbols, x_root.params.k
    _, sigma, ends = _decomposed(x_root)
    if any(sigma):
        raise NotIrreducibleError(f"{x_root!r} is not irreducible")
    if len(v) != len(ends):
        raise DimensionMismatchError(f"expected {len(ends)} coordinates, got {len(v)}")
    if any(s < 0 for s in v):
        raise DomainError("sigma entries must be nonnegative")
    return Word._trusted(_grow(sym, k, ends, enumerate(v)), x_root.params)


def channel_sample(x: Word, t: int, seed: int) -> Word:
    """One uniformly random t-step duplication history of x, fixed by seed."""
    k = x.params.k
    if len(x) < k:
        raise WordLengthError(f"word of length {len(x)} is shorter than k={k}")
    if t < 0:
        raise DomainError("number of duplications must be nonnegative")
    sym = x.symbols
    # the t steps copy the symbols of a walk with one word per layer
    _walk_price(0, t, len(sym), k)
    rng = random.Random(seed)
    for _ in range(t):
        i = rng.randrange(len(sym) - k + 1)
        sym = sym[: i + k] + sym[i:]
    return Word._trusted(sym, x.params)
