"""Reconstruction codes for the uniform tandem-duplication channel.

A code with uncertainty N at duplication count t is a set of equal-length
words whose distinct members never share more than N common t-step
descendants; any N+1 distinct reads then pin the codeword down.  Validity
can be checked literally (expand descendant sets) or through the cone
reduction (per-root minimum distance of the coordinate images); both
checkers live here, along with size accounting, a code construction built
on the capacity engine, the decoder, and a channel simulation harness.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import accumulate, islice, product, repeat
from operator import attrgetter, le
from typing import Callable, Iterable, Iterator, NamedTuple

from .capacity import capacity_profile
from .duplication import (
    DupParams,
    WALK_SYMBOL_BUDGET,
    Word,
    _cone,
    _effective_cap,
    _grow,
    _key,
    _layer,
    _symbols,
    _walk_price,
    _walk_symbols,
    channel_sample,
    descendants,
)
from .errors import (
    AmbiguityError,
    ConeMismatchError,
    DomainError,
    InfeasibleGeometryError,
    NoCandidateError,
    ParamsMismatchError,
    ResourceCapError,
    TandemError,
    WordLengthError,
    _shown,
)
from .simplex import (
    DEFAULT_ENUM_CAP,
    _close_pair,
    _sidon,
    binom,
    enumerate_simplex,
    exact_max_code,
    greedy_code,
    in_class,
    max_clique_bitset,
    required_distance,
    sidon_code_size,
)


_SYMBOLS = attrgetter("symbols")
_PARAMS = attrgetter("params")
_BUDGET = attrgetter("params", "n", "N", "t")
_CODE_KEYS = (("q", int), ("k", int), ("n", int), ("N", int), ("t", int))
_CONSTRUCTION_KEYS = (("m_n", int), ("r_n", int), ("dimensions", list))
_DIMENSION_KEYS = (("m", int), ("modulus", int), ("residue", int), ("weights", list))
IRREDUCIBLE_CAP = 10**6
BRUTEFORCE_MAX_WORDS = 4096
# steps one simulation may take (0.06-0.25 us a step on a shared 2-vCPU machine), priced
# before its first trial: the symbols its reads hold, the cone points it scans, 100 a trial
SIMULATION_BUDGET = 10**8


Symbols = tuple[int, ...]


class _Description(NamedTuple):
    """A Construction-A code: roots of weight at least m_n, and cones of weight r_n.

    ``counts`` maps each cone dimension m that occurs to its number of roots;
    ``classes`` maps each such m to its congruence class (m + 1 weights,
    modulus, residue), and ``points`` to the class's points in the
    (m, r_n)-simplex, in lex order.
    """

    m_n: int
    r_n: int
    counts: dict[int, int]
    classes: dict[int, tuple[Symbols, int, int]]
    points: dict[int, Sequence[Symbols]]


@dataclass(frozen=True, init=False)
class UtrCode:
    """An (N, t) reconstruction code: equal-length codewords plus its budget.

    A listed code keeps its codewords as one sorted tuple of distinct symbol
    tuples, and derives its cones from one root table (``_groups``).  A
    described code, as :func:`construction_a` builds it, keeps the number of
    its roots of each cone dimension and one congruence class per dimension
    instead, takes its size, rate and cone size counts from them, and writes
    only that description to its file.  It walks its roots once, when
    codewords are first read, and grows ``symbols`` and ``cone_index`` on
    first read.  ``codewords`` wraps the symbols in ``Word``s on first read.
    Described codes of one budget and description are equal without growing
    a codeword; other codes compare symbols.  Hash reads the size.
    """

    params: DupParams
    n: int
    N: int
    t: int
    symbols: tuple[Symbols, ...]

    def __init__(self, params: DupParams, n: int, N: int, t: int, codewords: Iterable[Word]):
        _check_budget(n, N, t)
        words = tuple(codewords)
        syms = tuple(map(_SYMBOLS, words))
        kinds = list(map(_PARAMS, words))
        # list.count tests identity before equality, so one shared params object is quick
        if not kinds.count(params) == list(map(len, syms)).count(n) == len(words):
            # the first offending word in symbol order is the one reported
            for w in sorted(set(words), key=_SYMBOLS):
                if w.params != params:
                    raise ParamsMismatchError(f"codeword {w!r} carries {w.params}")
                if len(w) != n:
                    raise WordLengthError(f"codeword {w!r} does not have length {n}")
        # equal params make equal symbols equal words; reversed, the first copy is kept
        unique = dict(zip(reversed(syms), reversed(words)))
        order = tuple(sorted(unique))
        # fields are set around the frozen __setattr__, as _of sets them
        vars(self).update(params=params, n=n, N=N, t=t, symbols=order)
        vars(self)["codewords"] = tuple(map(unique.__getitem__, order))

    # a described code's _Description; not a field, so equality skips it
    _description = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._description, other._description
        # (params, n, m_n) fix the roots and their counts, and the classes fix the points
        same = a is not None and b is not None and a[:2] == b[:2] and a.classes == b.classes
        return _BUDGET(self) == _BUDGET(other) and (same or self.symbols == other.symbols)

    def __hash__(self) -> int:
        # a listed code and its described twin have one size
        return hash((*_BUDGET(self), len(self)))

    def __repr__(self) -> str:
        # a described code prints its size, so printing it grows no codeword
        last = f"symbols={self.symbols!r}" if self._description is None else f"size={len(self)}"
        return f"UtrCode(params={self.params!r}, n={self.n!r}, N={self.N!r}, t={self.t!r}, {last})"

    @classmethod
    def _of(
        cls, params: DupParams, n: int, N: int, t: int, _description: _Description
    ) -> "UtrCode":
        """A described code of length n over params' alphabet, its roots all of one length."""
        _check_budget(n, N, t)
        code = object.__new__(cls)
        vars(code).update(params=params, n=n, N=N, t=t, _description=_description)
        return code

    # the symbols field's class default: a listed code holds its symbols, so only a
    # described code reaches this and grows them, or takes them from its grown index
    @cached_property
    def symbols(self) -> tuple[Symbols, ...]:
        index = vars(self).get("cone_index")
        if index is not None:
            return tuple(sorted([sym for members in index.values() for sym, _ in members]))
        return tuple(_grown(self, tuple))

    def __len__(self) -> int:
        # a listed code holds its symbols, and a described one may have grown them
        if "symbols" in vars(self):
            return len(self.symbols)
        return sum(size * count for size, count in self.cone_size_counts().items())

    @cached_property
    def _groups(self) -> dict[int | Symbols, tuple[Sequence[Symbols], int]]:
        """Each list of cone coordinates with the number of cones (roots) that hold it.

        A described code has one group per cone dimension m, keyed by m and
        read from its description without walking a root.  A listed code has
        one per root, keyed by the root's symbols: its root table, one
        ``_cone`` per codeword, each root's coordinates in symbol order.
        """
        if self._description is not None:
            _, _, counts, _, points = self._description
            return {m: (points[m], count) for m, count in counts.items()}
        k = self.params.k
        table: defaultdict[Symbols, list[Symbols]] = defaultdict(list)
        for sym in self.symbols if self.n >= k else ():
            r, sigma, _ = _cone(sym, k)
            table[r].append(sigma)
        return {r: (vs, 1) for r, vs in table.items()}

    @cached_property
    def _cones(self) -> list[tuple[Symbols, Sequence[int], list[tuple[Symbols, list]]]]:
        """Each root with its run ends and its members' :func:`_steps`, built on first read.

        A described code walks its roots, and the cones of one dimension
        share one steps list; a listed code takes its roots from its root
        table in ``_groups`` and decomposes each root once for its run ends.
        """
        if self._description is None:
            k = self.params.k
            return [(r, _cone(r, k)[2], _steps(vs)) for r, (vs, _) in self._groups.items()]
        m_n, r_n, _, _, points = self._description
        steps = {m: _steps(vs) for m, vs in points.items()}
        roots = _roots(self.params, self.n - self.params.k * r_n, m_n)
        return [(sym, ends, steps[len(ends) - 1]) for sym, ends in roots]

    def cone_size_counts(self) -> dict[int, int]:
        """How many cones of ``cone_index`` hold each number of codewords, from ``_groups``."""
        sizes: Counter[int] = Counter()
        for points, count in self._groups.values():
            # a group whose class is empty owns no cone
            if points:
                sizes[len(points)] += count
        return sizes

    @cached_property
    def codewords(self) -> tuple[Word, ...]:
        """The codewords as ``Word``s, made on first read and then kept."""
        params = self.params
        return tuple([Word._trusted(sym, params) for sym in self.symbols])

    def rate(self) -> float:
        size = len(self)
        if not size:
            return float("-inf")
        return math.log(size, self.params.q) / self.n

    @cached_property
    def cone_index(self) -> dict[Symbols, list[tuple[Symbols, Symbols]]]:
        """Codewords' symbols grouped by their root's symbols, each with its cone coordinates.

        Each root's members are in symbol order, grown cone by cone from
        ``_cones``, priced first.
        """
        _price_listing(self)
        k = self.params.k
        return {sym: _members(sym, k, ends, steps) for sym, ends, steps in self._cones if steps}

    def to_json(self) -> dict:
        head = {"q": self.params.q, "k": self.params.k, "n": self.n, "N": self.N, "t": self.t}
        if self._description is None:
            return {**head, "codewords": [w.text() for w in self.codewords]}
        m_n, r_n, _, classes, _ = self._description
        dimensions = [
            {"m": m, "weights": list(weights), "modulus": modulus, "residue": residue}
            for m, (weights, modulus, residue) in sorted(classes.items())
        ]
        return {**head, "construction": {"m_n": m_n, "r_n": r_n, "dimensions": dimensions}}

    @classmethod
    def from_json(cls, data: dict) -> "UtrCode":
        q, k, n, N, t = _read(data, "code", _CODE_KEYS)
        if "construction" in data:
            if "codewords" in data:
                raise DomainError("code holds both 'codewords' and 'construction'")
            params = DupParams(q, k)
            # before the walk, whose root length n sets
            _check_budget(n, N, t)
            description = _read_description(params, n, data["construction"])
            return cls._of(params, n, N, t, _description=description)
        (texts,) = _read(data, "code", (("codewords", list),))
        if not all(isinstance(s, str) for s in texts):
            raise DomainError("code key 'codewords' must hold strings")
        params = DupParams(q, k)
        return cls(params, n, N, t, [Word.parse(s, params) for s in texts])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "UtrCode":
        # bad JSON, deep nesting or a long number; from_json's DomainError is a ValueError
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as err:
            raise DomainError(f"code text is not JSON: {err}") from err
        return cls.from_json(data)


def _steps(points: Sequence[Symbols]) -> list[tuple[Symbols, list]]:
    """Each point with its nonzero coordinates (i, v[i]): the runs that grow."""
    return [(v, [(i, s) for i, s in enumerate(v) if s]) for v in points]


def _price_listing(code: UtrCode) -> None:
    """Refuse to grow a described code's codewords when they hold too many symbols."""
    size = len(code)
    if size * code.n > WALK_SYMBOL_BUDGET:
        raise ResourceCapError(
            f"{size} codewords of length {code.n} exceed the budget of "
            f"{WALK_SYMBOL_BUDGET} symbols"
        )


def _grown(code: UtrCode, form: Callable[[Symbols], Symbols | str]) -> list:
    """Every codeword, each grown from form(root symbols) along ``_cones``, sorted.

    ``tuple`` grows symbol tuples and ``_key`` walk keys, which sort alike;
    the listing is priced first.
    """
    _price_listing(code)
    k = code.params.k
    grown = []
    for sym, ends, steps in code._cones:
        root = form(sym)
        grown += [_grow(root, k, ends, g) for _, g in steps]
    grown.sort()
    return grown


def _members(
    sym: Symbols, k: int, ends: Symbols, steps: Iterable[tuple[Symbols, list]]
) -> list[tuple[Symbols, Symbols]]:
    """An irreducible word's cone members at the points of steps, with their points, in order."""
    return sorted([(_grow(sym, k, ends, g), v) for v, g in steps])


def _read(data, where: str, keys: tuple[tuple[str, type], ...]) -> list:
    """The values of a JSON object at keys, each checked to be of its key's kind."""
    if not isinstance(data, dict):
        raise DomainError(f"{where} must be a JSON object, got {type(data).__name__}")
    for key, kind in keys:
        if key not in data:
            raise DomainError(f"{where} lacks the key {key!r}")
        # bool is an int subclass, but true is not a count
        if not isinstance(data[key], kind) or isinstance(data[key], bool):
            raise DomainError(
                f"{where} key {key!r} must be {kind.__name__}, got {type(data[key]).__name__}"
            )
    return [data[key] for key, _ in keys]


def _read_description(params: DupParams, n: int, data) -> _Description:
    """The description in a code file's ``construction``, its points drawn from each class.

    The listed dimensions must be exactly those of the roots, which are
    counted and priced, not walked, and whose simplices keep their caps; no
    codeword is grown or checked here.
    """
    m_n, r_n, dimensions = _read(data, "construction", _CONSTRUCTION_KEYS)
    if m_n < 0 or r_n < 0:
        raise DomainError(f"construction needs m_n >= 0 and r_n >= 0, got {m_n} and {r_n}")
    classes = {}
    for entry in dimensions:
        m, modulus, residue, weights = _read(entry, "construction dimension", _DIMENSION_KEYS)
        if m in classes:
            raise DomainError(f"construction lists dimension {m} twice")
        if len(weights) != m + 1 or not all(type(w) is int for w in weights):
            raise DomainError(f"dimension {m} weights must be {m + 1} ints")
        if not 0 <= residue < modulus:
            raise DomainError(
                f"dimension {m} needs 0 <= residue < modulus, got {residue} mod {modulus}"
            )
        classes[m] = (tuple(weights), modulus, residue)
    root_len = n - r_n * params.k
    counts = _root_counts(params, root_len, m_n)
    if counts.keys() != classes.keys():
        raise DomainError(
            f"construction lists dimensions {sorted(classes)}, its roots have {sorted(counts)}"
        )
    points = {m: in_class(enumerate_simplex(m, r_n), *c) for m, c in classes.items()}
    return _Description(m_n, r_n, counts, classes, points)


def _check_budget(n: int, N: int, t: int) -> None:
    if n < 1:
        raise DomainError("codeword length must be positive")
    if N < 0 or t < 0:
        raise DomainError("uncertainty and duplication count must be nonnegative")


class UtrCheck(NamedTuple):
    """Checker verdict; on failure, the violating pair and the number seen."""

    ok: bool
    witness: tuple[Word, Word] | None = None
    detail: int | None = None


def _pair(code: UtrCode, a: Symbols, b: Symbols) -> tuple[Word, Word]:
    """A violating pair of codewords, from their symbols."""
    return Word._trusted(a, code.params), Word._trusted(b, code.params)


def _sharing_pairs(walks: Iterable[set[str]], count: int, N: int, cap: int) -> Iterator:
    """Each (i, j, shared), i < j, of words i and j that share more than N t-descendants.

    walks gives each of the count words' D_t keys, from the last word to the
    first, into an index from each key to its owners, so word i counts what it
    shares with each later word j.  At most ``cap`` nodes are indexed, and at
    most ``cap`` owner entries, one per pair and descendant it shares, copied.
    """
    nodes = entries = 0
    owners: dict[str, tuple[int, ...]] = {}
    for i, desc in zip(range(count - 1, -1, -1), walks):
        nodes += len(desc)
        if nodes > cap:
            raise ResourceCapError(f"descendant index exceeded cap of {cap} nodes")
        # the descendants word i owns alone share its one tuple; mates gets one
        # entry per descendant that word i shares with a later word
        mine = (i,)
        mates: list[int] = []
        for d in desc:
            owned = owners.get(d)
            if owned is None:
                owners[d] = mine
            else:
                mates += owned
                owners[d] = owned + mine
        entries += len(mates)
        if entries > cap:
            raise ResourceCapError(f"shared descendants exceeded cap of {cap} owner entries")
        # a later word sharing more than N descendants repeats N times in mates
        if len(mates) > N and len(mates) - len(set(mates)) >= N:
            for j, shared in Counter(mates).items():
                if shared > N:
                    yield i, j, shared


def is_utr_code_direct(code: UtrCode) -> UtrCheck:
    """Definition checked literally: the least pair that :func:`_sharing_pairs` yields.

    A codeword of cone dimension m has C(t + m, m) descendants; when no layer
    can pass the node cap but their total does, the index error is raised
    before any codeword is grown.  A described code grows walk keys only.
    """
    cap, t = _effective_cap(), code.t
    dims, largest = _priced_walks(code, t)
    if largest <= cap < sum(count * math.comb(t + m, m) for m, count in dims):
        raise ResourceCapError(f"descendant index exceeded cap of {cap} nodes")
    keys, k = _keys(code), code.params.k
    walks = (_layer(key, k, t, cap) for key in reversed(keys))
    least = min(_sharing_pairs(walks, len(keys), code.N, cap), default=None)
    if least is None:
        return UtrCheck(True)
    i, j, shared = least
    return UtrCheck(False, _pair(code, _symbols(keys[i]), _symbols(keys[j])), shared)


def _priced_walks(code: UtrCode, t: int) -> tuple[list[tuple[int, int]], int]:
    """Pairs (cone dimension, number of codewords) that cover the code, and the largest |D_t|.

    Every codeword's walk to depth t is priced before any starts: all have
    length n, so the walk of the largest dimension builds the most symbols
    (see :func:`_walk_price`).  Each group of ``_groups`` that holds a
    point gives one pair; words shorter than k have no cone and walk nothing.
    """
    dims = [(len(vs[0]) - 1, count * len(vs)) for vs, count in code._groups.values() if vs]
    return dims, _walk_price(max(dims)[0], t, code.n, code.params.k) if dims else 0


def _keys(code: UtrCode) -> list[str]:
    """The walk key of each codeword, in symbol order.

    A code that holds its symbols keys them; any other grows each key from
    its root's key, so it lists no symbol tuple.
    """
    if "symbols" in vars(code):
        return list(map(_key, code.symbols))
    return _grown(code, _key)


def is_utr_code_reduced(code: UtrCode) -> UtrCheck:
    """Definition checked through the cone reduction.

    Words shorter than k never duplicate, and words with different roots
    never share descendants; within one root's cone the shared-descendant
    bound is equivalent to a minimum distance on the coordinate images.
    Each group of ``_groups`` is compared once; of the failing groups' cones
    only the one with the least root is grown, and it names its first close
    pair in symbol order.  Must agree with :func:`is_utr_code_direct`.
    """
    N, t, k = code.N, code.t, code.params.k
    # a cone of one codeword holds no pair; the distance each dimension needs is found once
    coords = [vs for vs, _ in code._groups.values() if len(vs) > 1]
    need = {m: required_distance(N, t, m) for m in {len(vs[0]) - 1 for vs in coords}}
    # psi is injective, so a cone's coordinates are distinct points of one simplex
    failing = {tuple(vs) for vs in coords if _close_pair(vs, need[len(vs[0]) - 1])}
    if not failing:
        return UtrCheck(True)
    # roots are distinct, so the least of the failing cones is the one with the least root
    sym, ends, steps = min(cone for cone in code._cones if tuple(v for v, _ in cone[2]) in failing)
    members = _members(sym, k, ends, steps)
    points = [v for _, v in members]
    i, j, dist = _close_pair(points, need[len(points[0]) - 1])
    return UtrCheck(False, _pair(code, members[i][0], members[j][0]), dist)


def _rll_weights(l: int, top: int, params: DupParams) -> list[int]:
    """Words of length l with no zero run of k, counted by weight 0 ... top in one pass."""
    q, k = params.q, params.k
    # rows[j][w]: words so far of weight w that end in a zero run of length j
    rows = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(k - 1)]
    for _ in range(l):
        total = list(map(sum, zip(*rows)))
        # a nonzero symbol ends every run and adds one to the weight; a zero lengthens the run
        rows = [[0] + [(q - 1) * c for c in total[:-1]]] + rows[:-1]
    return list(map(sum, zip(*rows)))


def count_rll_weight(l: int, m: int, params: DupParams) -> int:
    """Words of length l, weight m, with every zero run shorter than k."""
    if l < 0 or m < 0:
        raise DomainError("length and weight must be nonnegative")
    return _rll_weights(l, m, params)[m]


def _root_weights(params: DupParams, length: int) -> list[int]:
    """The irreducible words of this length by cone dimension m = 0 ... length - k; [] below k.

    Each count is q^k prefixes times the difference strings of length - k with
    m nonzeros and no zero run of k, all m from one :func:`_rll_weights` pass.
    """
    l = length - params.k
    if l < 0:
        return []
    return [params.q**params.k * c for c in _rll_weights(l, l, params)]


def irreducible_count(params: DupParams, n: int) -> int:
    """Number of irreducible words of length n."""
    return sum(_root_weights(params, n))


SizeFn = Callable[[int, int, int], int]


def exact_size(m: int, r: int, d: int) -> int:
    return len(exact_max_code(m, r, d))


def greedy_size(m: int, r: int, d: int) -> int:
    return len(greedy_code(m, r, max(d, 0)))


def sidon_size(m: int, r: int, d: int) -> int:
    return sidon_code_size(m, r, max(d, 1))


def utr_size_formula(n: int, N: int, t: int, params: DupParams, code_size_fn: SizeFn) -> int:
    """Total code size over all cones, for a pluggable per-cone code size.

    Sums code_size_fn(m, r, required_distance(N, t, m)) over every root
    shape reachable at length n, weighted by how many roots have that shape.
    """
    total = 0
    for r in range(0, n // params.k):
        for m, cnt in enumerate(_root_weights(params, n - r * params.k)):
            if cnt:
                total += code_size_fn(m, r, required_distance(N, t, m)) * cnt
    return total


def irreducible_words(params: DupParams, length: int) -> list[Word]:
    """All irreducible words of one length, lex by transform."""
    return [Word._trusted(sym, params) for sym, _ in _roots(params, length, 0)]


def _roots(params: DupParams, length: int, min_weight: int) -> list[tuple[Symbols, Symbols]]:
    """The irreducible words of weight at least min_weight as symbols, lex by transform.

    Each comes with its zero-run ends (``_cone``'s third part).

    A layer-by-layer walk appends sym[-k] + d (mod q), d = 0 only while the
    zero run stays below k and min_weight in reach, so no layer outgrows the
    result; each is built to at most ``IRREDUCIBLE_CAP`` + 1 entries, and a
    full one raises.  A nonzero d at difference position j makes j a run end,
    and the last run ends at length - k.  Returns [] for lengths below k.
    """
    q, k = params.q, params.k
    left = length - k
    if left < 0 or left < min_weight:
        return []
    # (symbols, trailing zero run of the difference string, run ends so far)
    layer = ((prefix, 0, ()) for prefix in product(range(q), repeat=k))
    while True:
        layer = list(islice(layer, IRREDUCIBLE_CAP + 1))
        if len(layer) > IRREDUCIBLE_CAP:
            raise ResourceCapError(f"irreducible enumeration above cap {IRREDUCIBLE_CAP}")
        if not left:
            return [(sym, (*ends, length - k)) for sym, _, ends in layer]
        left -= 1
        j = length - k - 1 - left  # the difference position this step appends
        layer = (
            (sym + ((sym[-k] + d) % q,), 0, (*ends, j)) if d else (sym + (sym[-k],), run + 1, ends)
            for sym, run, ends in layer
            for d in range(q)
            if d or (run + 1 < k and len(ends) + left >= min_weight)
        )


def _root_counts(params: DupParams, root_len: int, m_n: int) -> dict[int, int]:
    """The number of Construction A's roots of each cone dimension m that has one.

    The roots are the irreducible words of length root_len and weight m >= m_n,
    counted by :func:`_root_weights` once its k * l * (l + 1) cells, l =
    root_len - k, are priced against ``DEFAULT_ENUM_CAP``.  Each node of the
    walk in :func:`_roots` completes to a root, so the walk passes
    ``IRREDUCIBLE_CAP`` exactly when the total does; that is raised here, before it.
    """
    l = root_len - params.k
    if l < m_n:
        return {}
    cells = params.k * l * (l + 1)
    if cells > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"root count of {_shown(cells)} cells above cap {DEFAULT_ENUM_CAP}")
    counts = {m: c for m, c in enumerate(_root_weights(params, root_len)) if m >= m_n and c}
    if sum(counts.values()) > IRREDUCIBLE_CAP:
        raise ResourceCapError(f"irreducible enumeration above cap {IRREDUCIBLE_CAP}")
    return counts


def construction_a(
    params: DupParams, n: int, t: int, N: int, theta: float | None = None
) -> UtrCode:
    """Build a reconstruction code from the rate-maximizing geometry.

    The capacity engine fixes the optimal root-length fraction; roots of
    that length with enough nonzero difference symbols are counted by cone
    dimension, and each cone is filled with a congruence-class code at the
    required distance, mapped back to words.  The roots are walked only when
    codewords are read.  The result is re-verified by :func:`is_utr_code_reduced`,
    the one distance check each dimension's class gets.
    """
    if params.k < 2:
        raise DomainError("construction needs k >= 2 (rate analysis is undefined at k = 1)")
    profile = capacity_profile(params, theta)
    k = params.k
    r_n = round((1.0 - profile.gamma0) * n / k - 1.0)
    if r_n < 0:
        raise InfeasibleGeometryError(
            f"n={n} leaves no duplication budget at q={params.q}, k={k}, gamma0={profile.gamma0:.4f}"
        )
    root_len = n - r_n * k
    if root_len < k:
        raise InfeasibleGeometryError(f"derived root length {root_len} is below k={k}")
    m_n = math.ceil(profile.theta * profile.gamma0 * n)

    counts = _root_counts(params, root_len, m_n)
    if not counts:
        raise InfeasibleGeometryError(f"no roots of length {root_len} with weight >= {m_n}")

    # every root of one cone dimension gets the same simplex code, so the code is
    # described by its roots' length and least weight and one congruence class per dimension
    classes, points = {}, {}
    for m in counts:
        classes[m], points[m] = _sidon(m, r_n, max(required_distance(N, t, m), 1))
    description = _Description(m_n, r_n, counts, classes, points)
    out = UtrCode._of(params, n, N, t, _description=description)
    check = is_utr_code_reduced(out)
    if not check.ok:
        raise TandemError(f"construction produced an invalid code: {check}")
    return out


def max_utr_code_bruteforce(params: DupParams, n: int, N: int, t: int) -> UtrCode:
    """Largest valid code over the whole space, by exact clique search.

    The compatibility graph joins two words when their t-step descendant
    sets share at most N members; a maximum code is a maximum clique.
    Independent of the per-cone accounting, so it serves as its oracle.
    """
    _check_budget(n, N, t)
    q, k = params.q, params.k
    # q^n of more digits than Python prints is far past the cap, and is not formed
    if n * math.log10(q) >= sys.get_int_max_str_digits() > 0:
        raise ResourceCapError(f"{q}^{n} words exceed the cap of {BRUTEFORCE_MAX_WORDS}")
    total = q**n
    if total > BRUTEFORCE_MAX_WORDS:
        raise ResourceCapError(f"{total} words exceed the cap of {BRUTEFORCE_MAX_WORDS}")
    # a word whose differences are all nonzero has the largest cone dimension, n - k
    if n >= k:
        _walk_price(n - k, t, n, k)
    syms = list(product(range(q), repeat=n))
    cap = _effective_cap()
    walks = (_layer(_key(sym), k, t, cap) for sym in reversed(syms))
    # from the complete graph, drop each pair that shares more than N descendants
    full = (1 << total) - 1
    adjacency = [full ^ (1 << i) for i in range(total)]
    for i, j, _ in _sharing_pairs(walks, total, N, cap):
        adjacency[i] ^= 1 << j
        adjacency[j] ^= 1 << i
    chosen = max_clique_bitset(adjacency)
    return UtrCode(params, n, N, t, [Word._trusted(syms[i], params) for i in chosen])


def _read_symbols(code: UtrCode, reads: Iterable[Word]) -> list[Symbols]:
    """The distinct reads' symbols in order, checked once for both decoders.

    The first distinct read in symbol order whose params are not the code's
    is named; an item that is not a ``Word`` raises from the sort that seeks it.
    """
    reads = list(reads)
    # list.count tests identity before equality, so one shared params object is quick
    if list(map(getattr, reads, repeat("params"), repeat(None))).count(code.params) != len(reads):
        for r in sorted(set(reads), key=_SYMBOLS):
            if r.params != code.params:
                raise ParamsMismatchError(f"mixed parameters: {code.params} vs {r.params}")
    syms = sorted(set(map(_SYMBOLS, reads)))
    if not syms:
        raise NoCandidateError("no reads given")
    lengths = set(map(len, syms))
    if len(lengths) != 1:
        raise NoCandidateError(f"reads have mixed lengths {sorted(lengths)}")
    extra = len(syms[0]) - code.n
    if extra < 0 or extra % code.params.k:
        raise NoCandidateError(
            f"read length {len(syms[0])} unreachable from codeword length {code.n}"
        )
    return syms


def reconstruct(code: UtrCode, reads: Iterable[Word]) -> Word:
    """Decode by intersecting cone coordinates.

    All reads must descend from one codeword, hence share its root; the
    componentwise minimum of their coordinates dominates the codeword and
    nothing closer, so exactly one codeword survives when enough distinct
    reads are supplied (N+1 for a valid code).  Fewer reads still decode
    whenever the survivor happens to be unique.  The survivor is grown from
    the root and its coordinates.  A listed code finds the root's cone in
    ``cone_index``; a described code decodes from its description and
    grows no other codeword.
    """
    syms = _read_symbols(code, reads)
    k = code.params.k
    if len(syms[0]) < k:
        # too short to carry a duplication: a read must be the codeword itself
        if len(syms) == 1 and syms[0] in code.symbols:
            return Word._trusted(syms[0], code.params)
        raise NoCandidateError("reads below the duplication length match no codeword")
    roots, sigmas, ends = zip(*map(_cone, syms, repeat(k)))
    if roots.count(roots[0]) != len(roots):
        raise ConeMismatchError("reads do not share a root")
    meet = list(map(min, zip(*sigmas)))
    candidates = [v for v in _cone_points(code, roots[0], len(meet) - 1) if all(map(le, v, meet))]
    if not candidates:
        raise NoCandidateError("no codeword is an ancestor of all reads")
    if len(candidates) > 1:
        raise AmbiguityError(f"{len(candidates)} codewords fit the reads")
    # a run of the root ends k symbols earlier for each k-block the read's runs so far hold
    root_ends = [e - k * s for e, s in zip(ends[0], accumulate(sigmas[0]))]
    return Word._trusted(_grow(roots[0], k, root_ends, enumerate(candidates[0])), code.params)


def _cone_points(code: UtrCode, root: Symbols, m: int) -> Sequence[Symbols]:
    """The cone coordinates of the codewords whose root is root, of cone dimension m."""
    described = code._description
    # a described code's roots are every irreducible word of one length, its groups keyed by m
    if described is not None and len(root) != code.n - code.params.k * described.r_n:
        return ()
    return code._groups.get(root if described is None else m, ((),))[0]


def reconstruct_scan(code: UtrCode, reads: Iterable[Word]) -> Word:
    """Oracle decoder: test read containment in literally expanded descendant sets."""
    syms = _read_symbols(code, reads)
    extra = (len(syms[0]) - code.n) // code.params.k
    read_keys = set(map(_key, syms))
    _priced_walks(code, extra)
    cap = _effective_cap()
    candidates = [key for key in _keys(code) if read_keys <= _layer(key, code.params.k, extra, cap)]
    if not candidates:
        raise NoCandidateError("no codeword is an ancestor of all reads")
    if len(candidates) > 1:
        raise AmbiguityError(f"{len(candidates)} codewords fit the reads")
    return Word._trusted(_symbols(candidates[0]), code.params)


@dataclass(frozen=True)
class SimulationReport:
    """Outcome counts of a seeded end-to-end channel experiment."""

    trials: int
    successes: int
    wrong: int
    ambiguous: int
    undecodable: int
    short_cone_trials: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def to_json(self) -> dict:
        return {**asdict(self), "success_rate": self.success_rate}


def simulate_reconstruction(code: UtrCode, trials: int, seed: int) -> SimulationReport:
    """Draw codewords, sample N+1 distinct reads through the channel, decode.

    When a cone holds fewer than N+1 distinct t-descendants the trial
    decodes with all of them instead of failing; such trials are counted
    separately.  Deterministic for a fixed seed.
    """
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    if not len(code):
        raise DomainError("cannot simulate an empty code")
    n, t, k, needed = code.n, code.t, code.params.k, code.N + 1
    if n < k:
        raise DomainError("codewords below the duplication length never mutate")
    # a trial walks needed reads, each priced as channel_sample prices it, and decodes them
    if trials:
        _walk_price(0, t, n, k)
    scan = max(len(vs) * len(vs[0]) for vs, _ in code._groups.values() if vs)
    steps = trials * (needed * (_walk_symbols(0, t, n, k) + n + t * k) + scan + 100)
    if steps > SIMULATION_BUDGET:
        raise ResourceCapError(
            f"{_shown(trials)} trials cost {_shown(steps)} steps, above cap {SIMULATION_BUDGET}"
        )
    rng = random.Random(seed)
    words = code.codewords
    seen: Counter[str] = Counter()  # trials by outcome, each named as its report field
    for _ in range(trials):
        c = words[rng.randrange(len(words))]
        # c and its root share their cone dimension, the number of zero runs less one
        m = len(_cone(c.symbols, k)[1]) - 1
        if binom(t + m, m) < needed:
            reads = set(descendants(c, t))
            seen["short_cone_trials"] += 1
        else:
            reads, attempts = set(), 0
            while len(reads) < needed:
                reads.add(channel_sample(c, t, seed=rng.randrange(2**32)))
                attempts += 1
                if attempts > 1000 * needed:
                    raise ResourceCapError("rejection sampling budget exhausted")
        try:
            seen["successes" if reconstruct(code, reads) == c else "wrong"] += 1
        except AmbiguityError:
            seen["ambiguous"] += 1
        except NoCandidateError:
            seen["undecodable"] += 1
    return SimulationReport(trials, *[seen[f.name] for f in fields(SimulationReport)[1:]])
