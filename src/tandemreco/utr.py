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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, NamedTuple

from .capacity import capacity_profile
from .duplication import (
    DupParams,
    Word,
    _cone,
    _effective_cap,
    _layer,
    _same_params,
    channel_sample,
    cone_dimension,
    descendants,
    psi_inv,
    root,
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
)
from .metric import descendant_count
from .simplex import (
    exact_max_code,
    greedy_code,
    half_manhattan,
    max_clique_bitset,
    required_distance,
    sidon_code,
    sidon_code_size,
)


_CODE_KEYS = (("q", int), ("k", int), ("n", int), ("N", int), ("t", int), ("codewords", list))
IRREDUCIBLE_CAP = 10**6
ROOT_ENUM_MAX_LEN = 20
BRUTEFORCE_MAX_WORDS = 4096


@dataclass(frozen=True)
class UtrCode:
    """An (N, t) reconstruction code: equal-length codewords plus its budget."""

    params: DupParams
    n: int
    N: int
    t: int
    codewords: tuple[Word, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("codeword length must be positive")
        if self.N < 0 or self.t < 0:
            raise DomainError("uncertainty and duplication count must be nonnegative")
        ordered = tuple(sorted(set(self.codewords), key=lambda w: w.symbols))
        object.__setattr__(self, "codewords", ordered)
        for w in ordered:
            if w.params != self.params:
                raise ParamsMismatchError(f"codeword {w!r} carries {w.params}")
            if len(w) != self.n:
                raise WordLengthError(f"codeword {w!r} does not have length {self.n}")

    def __len__(self) -> int:
        return len(self.codewords)

    def rate(self) -> float:
        if not self.codewords:
            return float("-inf")
        return math.log(len(self.codewords), self.params.q) / self.n

    @cached_property
    def cone_index(self) -> dict[tuple[int, ...], list[tuple[Word, tuple[int, ...]]]]:
        """Codewords grouped by their root's symbols, each with its cone coordinates."""
        index: dict[tuple[int, ...], list[tuple[Word, tuple[int, ...]]]] = defaultdict(list)
        k = self.params.k
        for w in self.codewords:
            if len(w) >= k:
                r, sigma, _ = _cone(w.symbols, k)
                index[r].append((w, sigma))
        return dict(index)

    def to_json(self) -> dict:
        return {
            "q": self.params.q,
            "k": self.params.k,
            "n": self.n,
            "N": self.N,
            "t": self.t,
            "codewords": [w.text() for w in self.codewords],
        }

    @classmethod
    def from_json(cls, data: dict) -> "UtrCode":
        if not isinstance(data, dict):
            raise DomainError(f"code must be a JSON object, got {type(data).__name__}")
        for key, kind in _CODE_KEYS:
            if key not in data:
                raise DomainError(f"code lacks the key {key!r}")
            if not isinstance(data[key], kind):
                raise DomainError(
                    f"code key {key!r} must be {kind.__name__}, got {type(data[key]).__name__}"
                )
        if not all(isinstance(s, str) for s in data["codewords"]):
            raise DomainError("code key 'codewords' must hold strings")
        params = DupParams(data["q"], data["k"])
        words = tuple(Word.parse(s, params) for s in data["codewords"])
        return cls(params, data["n"], data["N"], data["t"], words)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "UtrCode":
        return cls.from_json(json.loads(text))


class UtrCheck(NamedTuple):
    """Checker verdict; on failure, the violating pair and the number seen."""

    ok: bool
    witness: tuple[Word, Word] | None = None
    detail: int | None = None


def is_utr_code_direct(code: UtrCode) -> UtrCheck:
    """Definition checked literally: count every pair's shared descendants.

    An index maps each expanded t-descendant to the codewords that own it.
    Words enter it from last to first, so word i counts what it shares with
    every later word j, and the last violation seen is the smallest (i, j).
    The descendants together may hold at most the node cap.
    """
    words = code.codewords
    cap = _effective_cap()
    total = 0
    owners: dict[tuple[int, ...], tuple[int, ...]] = {}
    found = UtrCheck(True)
    for i in range(len(words) - 1, -1, -1):
        desc = _layer(words[i], code.t)
        total += len(desc)
        if total > cap:
            raise ResourceCapError(f"descendant index exceeded cap of {cap} nodes")
        # one entry per descendant that word i shares with a later word
        mates: list[int] = []
        for d in desc:
            owned = owners.get(d, ())
            mates += owned
            owners[d] = owned + (i,)
        if len(mates) > code.N:  # else no later word can share more than N
            shared = Counter(mates)
            bad = [j for j, count in shared.items() if count > code.N]
            if bad:
                j = min(bad)
                found = UtrCheck(False, (words[i], words[j]), shared[j])
    return found


def is_utr_code_reduced(code: UtrCode) -> UtrCheck:
    """Definition checked through the cone reduction.

    Words shorter than k never duplicate, and words with different roots
    never share descendants; within one root's cone the shared-descendant
    bound is equivalent to a minimum distance on the coordinate images.
    Must agree with :func:`is_utr_code_direct`.
    """
    needs: dict[int, int] = {}
    for members in code.cone_index.values():
        m = len(members[0][1]) - 1
        if m not in needs:
            needs[m] = required_distance(code.N, code.t, m)
        need = needs[m]
        # psi is injective, so distinct cone mates are always at least 1 apart
        if need <= 1:
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                dist = half_manhattan(members[i][1], members[j][1])
                if dist < need:
                    return UtrCheck(False, (members[i][0], members[j][0]), dist)
    return UtrCheck(True)


def count_rll_weight(l: int, m: int, params: DupParams) -> int:
    """Words of length l, weight m, with every zero run shorter than k."""
    if l < 0 or m < 0:
        raise DomainError("length and weight must be nonnegative")
    q, k = params.q, params.k
    # dp keyed by (trailing zero-run length, weight so far)
    dp: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(l):
        ndp: dict[tuple[int, int], int] = defaultdict(int)
        for (run, w), count in dp.items():
            if run + 1 < k:
                ndp[(run + 1, w)] += count
            if w < m:
                ndp[(0, w + 1)] += count * (q - 1)
        dp = dict(ndp)
    return sum(count for (run, w), count in dp.items() if w == m)


def irreducible_count(params: DupParams, n: int) -> int:
    """Number of irreducible words of length n."""
    if n < params.k:
        return 0
    l = n - params.k
    return params.q**params.k * sum(
        count_rll_weight(l, m, params) for m in range(l + 1)
    )


SizeFn = Callable[[int, int, int], int]


def exact_size(m: int, r: int, d: int) -> int:
    return len(exact_max_code(m, r, d))


def greedy_size(m: int, r: int, d: int) -> int:
    return len(greedy_code(m, r, max(d, 0)))


def sidon_size(m: int, r: int, d: int) -> int:
    return sidon_code_size(m, r, max(d, 1))


def utr_size_formula(
    n: int, N: int, t: int, params: DupParams, code_size_fn: SizeFn
) -> int:
    """Total code size over all cones, for a pluggable per-cone code size.

    Sums code_size_fn(m, r, required_distance(N, t, m)) over every root
    shape reachable at length n, weighted by how many roots have that shape.
    """
    q, k = params.q, params.k
    total = 0
    for r in range(0, n // k):
        l = n - (r + 1) * k
        for m in range(l + 1):
            cnt = count_rll_weight(l, m, params)
            if cnt:
                total += code_size_fn(m, r, required_distance(N, t, m)) * q**k * cnt
    return total


def irreducible_words(params: DupParams, length: int, min_weight: int = 0) -> list[Word]:
    """All irreducible words of one length (weight filter optional), lex by transform.

    Enumerates prefixes against zero-run-limited difference strings; returns
    [] for lengths below k, where irreducibility is not defined.
    """
    if length < params.k:
        return []
    q, k = params.q, params.k
    l = length - params.k

    diffs: list[tuple[int, ...]] = []

    def rec(acc: list[int], run: int, weight: int):
        if len(acc) == l:
            if weight >= min_weight:
                diffs.append(tuple(acc))
                if len(diffs) > IRREDUCIBLE_CAP:
                    raise ResourceCapError(f"irreducible enumeration above cap {IRREDUCIBLE_CAP}")
            return
        remaining = l - len(acc)
        if weight + remaining < min_weight:
            return
        if run + 1 < k:
            acc.append(0)
            rec(acc, run + 1, weight)
            acc.pop()
        for s in range(1, q):
            acc.append(s)
            rec(acc, 0, weight + 1)
            acc.pop()

    rec([], 0, 0)

    out: list[Word] = []
    for prefix in product(range(q), repeat=k):
        for diff in diffs:
            sym = list(prefix)
            for j, d in enumerate(diff):
                sym.append((sym[j] + d) % q)
            out.append(Word._trusted(tuple(sym), params))
            if len(out) > IRREDUCIBLE_CAP:
                raise ResourceCapError(f"irreducible enumeration above cap {IRREDUCIBLE_CAP}")
    return out


def construction_a(
    params: DupParams,
    n: int,
    t: int,
    N: int,
    theta: float | None = None,
) -> UtrCode:
    """Build a reconstruction code from the rate-maximizing geometry.

    The capacity engine fixes the optimal root-length fraction; roots of
    that length with enough nonzero difference symbols are enumerated, and
    each cone is filled with a congruence-class code at the required
    distance, mapped back to words.  The result is re-verified.
    """
    if params.k < 2:
        raise DomainError("construction needs k >= 2 (rate analysis is undefined at k = 1)")
    profile = capacity_profile(params, theta)
    k = params.k
    r_n = round((1.0 - profile.gamma0) * n / k - 1.0)
    if r_n < 0:
        raise InfeasibleGeometryError(
            f"n={n} leaves no duplication budget at gamma0={profile.gamma0:.4f}"
        )
    root_len = n - r_n * k
    if root_len < k:
        raise InfeasibleGeometryError(f"derived root length {root_len} is below k={k}")
    m_n = math.ceil(profile.theta * profile.gamma0 * n)

    if root_len > ROOT_ENUM_MAX_LEN:
        raise ResourceCapError(f"root length {root_len} above enumeration limit")
    pool = irreducible_words(params, root_len, min_weight=m_n)
    if not pool:
        raise InfeasibleGeometryError(
            f"no roots of length {root_len} with weight >= {m_n}"
        )

    # every root of one cone dimension gets the same simplex code
    points: dict[int, tuple] = {}
    codewords: list[Word] = []
    for x in pool:
        m = cone_dimension(x)
        if m not in points:
            points[m] = sidon_code(m, r_n, required_distance(N, t, m)).points
        codewords.extend(psi_inv(x, p) for p in points[m])

    out = UtrCode(params, n, N, t, tuple(codewords))
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
    q = params.q
    total = q**n
    if total > BRUTEFORCE_MAX_WORDS:
        raise ResourceCapError(f"{total} words exceed the cap of {BRUTEFORCE_MAX_WORDS}")
    words = [Word(sym, params) for sym in product(range(q), repeat=n)]
    desc = [_layer(w, t) for w in words]
    adjacency = [0] * total
    for i in range(total):
        for j in range(i + 1, total):
            if len(desc[i] & desc[j]) <= N:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    chosen = max_clique_bitset(adjacency)
    return UtrCode(params, n, N, t, tuple(words[i] for i in chosen))


def _validated_reads(code: UtrCode, reads: Iterable[Word]) -> list[Word]:
    out = sorted(set(reads), key=lambda w: w.symbols)
    if not out:
        raise NoCandidateError("no reads given")
    _same_params(code.codewords[0] if code.codewords else out[0], *out)
    lengths = {len(r) for r in out}
    if len(lengths) != 1:
        raise NoCandidateError(f"reads have mixed lengths {sorted(lengths)}")
    (length,) = lengths
    extra = length - code.n
    if extra < 0 or extra % code.params.k != 0:
        raise NoCandidateError(
            f"read length {length} unreachable from codeword length {code.n}"
        )
    return out


def reconstruct(code: UtrCode, reads: Iterable[Word]) -> Word:
    """Decode by intersecting cone coordinates.

    All reads must descend from one codeword, hence share its root; the
    componentwise minimum of their coordinates dominates the codeword and
    nothing closer, so exactly one codeword survives when enough distinct
    reads are supplied (N+1 for a valid code).  Fewer reads still decode
    whenever the survivor happens to be unique.
    """
    read_list = _validated_reads(code, reads)
    k = code.params.k
    if len(read_list[0]) < k:
        # too short to carry a duplication: a read must be the codeword itself
        if len(read_list) == 1 and read_list[0] in code.codewords:
            return read_list[0]
        raise NoCandidateError("reads below the duplication length match no codeword")
    cones = [_cone(r.symbols, k)[:2] for r in read_list]
    roots = {r for r, _ in cones}
    if len(roots) != 1:
        raise ConeMismatchError("reads do not share a root")
    (shared_root,) = roots
    meet = tuple(min(col) for col in zip(*(sigma for _, sigma in cones)))
    candidates = [
        w
        for w, coords in code.cone_index.get(shared_root, [])
        if all(a <= b for a, b in zip(coords, meet))
    ]
    if not candidates:
        raise NoCandidateError("no codeword is an ancestor of all reads")
    if len(candidates) > 1:
        raise AmbiguityError(f"{len(candidates)} codewords fit the reads")
    return candidates[0]


def reconstruct_scan(code: UtrCode, reads: Iterable[Word]) -> Word:
    """Oracle decoder: test read containment in literally expanded descendant sets."""
    read_list = _validated_reads(code, reads)
    extra = (len(read_list[0]) - code.n) // code.params.k
    read_syms = [r.symbols for r in read_list]
    candidates = []
    for w in code.codewords:
        pool = _layer(w, extra)
        if all(r in pool for r in read_syms):
            candidates.append(w)
    if not candidates:
        raise NoCandidateError("no codeword is an ancestor of all reads")
    if len(candidates) > 1:
        raise AmbiguityError(f"{len(candidates)} codewords fit the reads")
    return candidates[0]


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
        return {
            "trials": self.trials,
            "successes": self.successes,
            "wrong": self.wrong,
            "ambiguous": self.ambiguous,
            "undecodable": self.undecodable,
            "short_cone_trials": self.short_cone_trials,
            "success_rate": self.success_rate,
        }


def simulate_reconstruction(code: UtrCode, trials: int, seed: int) -> SimulationReport:
    """Draw codewords, sample N+1 distinct reads through the channel, decode.

    When a cone holds fewer than N+1 distinct t-descendants the trial
    decodes with all of them instead of failing; such trials are counted
    separately.  Deterministic for a fixed seed.
    """
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    if not code.codewords:
        raise DomainError("cannot simulate an empty code")
    if code.n < code.params.k:
        raise DomainError("codewords below the duplication length never mutate")
    rng = random.Random(seed)
    words = code.codewords
    successes = wrong = ambiguous = undecodable = short_cones = 0
    needed = code.N + 1
    for _ in range(trials):
        c = words[rng.randrange(len(words))]
        cone_total = descendant_count(root(c), code.t)
        if cone_total < needed:
            reads = set(descendants(c, code.t))
            short_cones += 1
        else:
            reads = set()
            attempts = 0
            while len(reads) < needed:
                reads.add(channel_sample(c, code.t, seed=rng.randrange(2**32)))
                attempts += 1
                if attempts > 1000 * needed:
                    raise ResourceCapError("rejection sampling budget exhausted")
        try:
            decoded = reconstruct(code, reads)
        except AmbiguityError:
            ambiguous += 1
            continue
        except NoCandidateError:
            undecodable += 1
            continue
        if decoded == c:
            successes += 1
        else:
            wrong += 1
    return SimulationReport(
        trials, successes, wrong, ambiguous, undecodable, short_cones
    )
