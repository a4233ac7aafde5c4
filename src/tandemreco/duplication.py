"""Fixed-length tandem duplication on words.

A duplication of length k replaces a substring v (|v| = k) by vv.  This
module provides the duplication map itself, exact descendant-set expansion,
the prefix/difference transform that turns duplications into insertions of
k zeros, zero-run decompositions, roots (the unique duplication-free
ancestor of a word), and the integer-vector coordinates that a descendant
cone inherits from its root.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, islice
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


def _effective_cap() -> int:
    env = os.environ.get("TANDEM_NODE_CAP")
    return int(env) if env else DEFAULT_NODE_CAP


@dataclass(frozen=True)
class DupParams:
    """Channel parameters: alphabet {0..q-1} and duplication length k."""

    q: int
    k: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise DomainError(f"alphabet size must be an integer >= 2, got {self.q}")
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"duplication length must be an integer >= 1, got {self.k}")


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word over {0..q-1}, tagged with its channel parameters.

    Text form: a digit string when q <= 10, comma-separated integers
    otherwise.  Words shorter than k are legal values but are rejected by
    the transform/root operations below.
    """

    symbols: tuple[int, ...]
    params: DupParams

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        q = self.params.q
        for s in self.symbols:
            if not isinstance(s, int) or not 0 <= s < q:
                raise DomainError(f"symbol {s!r} outside alphabet of size {q}")

    @classmethod
    def _trusted(cls, symbols: tuple[int, ...], params: DupParams) -> "Word":
        """A word from symbols of already validated words, without the alphabet check."""
        w = object.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "params", params)
        return w

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
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)

    @classmethod
    def parse(cls, text: str, params: DupParams) -> "Word":
        text = text.strip()
        if params.q <= 10 and not all(c.isdigit() for c in text):
            raise DomainError(f"not a digit string: {text!r}")
        fields = text if params.q <= 10 else (text.split(",") if text else ())
        try:
            symbols = tuple(int(f) for f in fields)
        except ValueError as err:
            raise DomainError(f"not a word over {params.q} symbols: {text!r}") from err
        return cls(symbols, params)

    def hamming_weight(self) -> int:
        return sum(1 for s in self.symbols if s != 0)


def word(text: str, q: int, k: int) -> Word:
    """Parse a word from its text form."""
    return Word.parse(text, DupParams(q, k))


def _same_params(*words: Word) -> DupParams:
    params = words[0].params
    for w in words[1:]:
        if w.params != params:
            raise ParamsMismatchError(f"mixed parameters: {params} vs {w.params}")
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


def _layers(x: Word) -> Iterator[set[tuple[int, ...]]]:
    """The symbol sets of D_0(x), D_1(x), ..., each grown from the one before.

    The node cap is read when D_1 is grown, and no layer may exceed it.  A word shorter than k has only empty layers after D_0.
    """
    layer = {x.symbols}
    yield layer
    cap = _effective_cap()
    k = x.params.k
    while True:
        out: set[tuple[int, ...]] = set()
        for sym in layer:
            for i in range(len(sym) - k + 1):
                out.add(sym[: i + k] + sym[i:])
            if len(out) > cap:
                raise ResourceCapError(f"descendant expansion exceeded cap of {cap} nodes")
        layer = out
        yield layer


def _layer(x: Word, t: int) -> set[tuple[int, ...]]:
    """The symbols of D_t(x)."""
    return next(islice(_layers(x), t, None))


def descendants(x: Word, t: int) -> set[Word]:
    """The exact set of words reachable from x by exactly t duplications."""
    if t < 0:
        raise DomainError("descendant depth must be nonnegative")
    return {Word._trusted(sym, x.params) for sym in _layer(x, t)}


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

    def to_json(self) -> dict:
        return {"prefix": self.prefix.text(), "mu": self.mu.text(), "sigma": list(self.sigma)}

    @classmethod
    def from_json(cls, data: dict, params: DupParams) -> "RootDecomposition":
        return cls(
            Word.parse(data["prefix"], params),
            Word.parse(data["mu"], params),
            tuple(data["sigma"]),
        )


def _cone(sym: tuple[int, ...], k: int) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """Root symbols, cone coordinates and zero-run ends of a word, in one pass.

    The difference string is zero at j exactly when sym[j] == sym[j + k], so
    its zero runs end where the two differ and at len(sym) - k.  A run of
    length r ending at e makes sym[e - r : e + k] periodic with period k;
    deleting the last k * (r // k) symbols of that stretch undoes its r // k
    duplications.  Root and sigma equal those of phi, mu_sigma and phi_inv.
    """
    if len(sym) < k:
        raise WordLengthError(f"word of length {len(sym)} is shorter than k={k}")
    ends = list(compress(range(len(sym) - k), map(ne, sym, sym[k:])))
    ends.append(len(sym) - k)
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


def root_decomposition(x: Word) -> RootDecomposition:
    """Full decomposition of x: transform, then split the difference string."""
    k, q = x.params.k, x.params.q
    r, sigma, _ = _cone(x.symbols, k)
    mu = Word._trusted(tuple((b - a) % q for a, b in zip(r, r[k:])), x.params)
    return RootDecomposition(Word._trusted(r[:k], x.params), mu, sigma)


def root(x: Word) -> Word:
    """The unique duplication-free ancestor of x."""
    r = _cone(x.symbols, x.params.k)[0]
    return x if r is x.symbols else Word._trusted(r, x.params)


def is_irreducible(x: Word) -> bool:
    """True iff x is nobody's proper descendant (difference string has no k-zero run)."""
    return not any(_cone(x.symbols, x.params.k)[1])


def cone_dimension(x: Word) -> int:
    """Number of nonzero symbols in the difference string of an irreducible word.

    The descendant cone of x is coordinatized by vectors with this many
    coordinates plus one.
    """
    sigma = _cone(x.symbols, x.params.k)[1]
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
    r, sigma, _ = _cone(y.symbols, y.params.k)
    if r != x_root.symbols:
        raise ConeMismatchError(f"{y!r} is not in the descendant cone of {x_root!r}")
    return sigma


def psi_inv(x_root: Word, v: tuple[int, ...]) -> Word:
    """The unique cone member of x_root with the given coordinates."""
    sym, k = x_root.symbols, x_root.params.k
    _, sigma, ends = _cone(sym, k)
    if any(sigma):
        raise NotIrreducibleError(f"{x_root!r} is not irreducible")
    if len(v) != len(ends):
        raise DimensionMismatchError(f"expected {len(ends)} coordinates, got {len(v)}")
    if any(s < 0 for s in v):
        raise DomainError("sigma entries must be nonnegative")
    # run i grows by v[i] k-blocks: sym[e : e + k] is duplicated v[i] times
    out = ()
    cut = 0
    for e, s in zip(ends, v):
        if s:
            out += sym[cut : e + k] + sym[e : e + k] * s
            cut = e + k
    return Word._trusted(out + sym[cut:], x_root.params)


def channel_sample(x: Word, t: int, seed: int) -> Word:
    """One uniformly random t-step duplication history of x, fixed by seed."""
    k = x.params.k
    if len(x) < k:
        raise WordLengthError(f"word of length {len(x)} is shorter than k={k}")
    if t < 0:
        raise DomainError("number of duplications must be nonnegative")
    rng = random.Random(seed)
    sym = x.symbols
    for _ in range(t):
        i = rng.randrange(len(sym) - k + 1)
        sym = sym[: i + k] + sym[i:]
    return Word._trusted(sym, x.params)
