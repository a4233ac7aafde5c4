"""The duplication distance and descendant-cone counting.

Within one root's cone the distance has a closed form (half the L1 gap of
the cone coordinates); across cones it is infinite.  Every closed form here
is paired with a literal breadth-first oracle.  A word's root and
coordinates are computed once and kept on the word, since the pairwise
functions meet the same word again and again.
"""

from __future__ import annotations

import math

from .duplication import (
    WALK_SYMBOL_BUDGET,
    Word,
    _cone,
    _decomposed,
    _effective_cap,
    _grow,
    _layers,
    _same_params,
    cone_dimension,
)
from .errors import ConeMismatchError, DomainError, ResourceCapError, WordLengthError
from .simplex import binom, half_manhattan


def _distance_in_cone(x: Word, y: Word) -> tuple[int | float, int]:
    """Closed-form distance and the cone dimension of the shared root (-1 across cones)."""
    _same_params(x, y)
    if len(x.symbols) != len(y.symbols):
        raise WordLengthError(f"length mismatch: {len(x)} vs {len(y)}")
    rx, sx, _ = _decomposed(x)
    ry, sy, _ = _decomposed(y)
    if rx != ry:
        return math.inf, -1
    return half_manhattan(sx, sy), len(sx) - 1


def duplication_distance(x: Word, y: Word) -> int | float:
    """Closed-form distance between equal-length words; math.inf across cones."""
    return _distance_in_cone(x, y)[0]


def duplication_distance_bfs(x: Word, y: Word, t_max: int) -> int | None:
    """Distance by layered double expansion up to t_max; the oracle for the closed form."""
    _same_params(x, y)
    if len(x) != len(y):
        raise WordLengthError(f"length mismatch: {len(x)} vs {len(y)}")
    if t_max < 0:
        raise DomainError("search depth must be nonnegative")
    cap, k = _effective_cap(), x.params.k
    built = 0  # symbols of the layers of both walks so far
    for t, lx, ly in zip(range(t_max + 1), _layers(x, cap), _layers(y, cap)):
        if lx & ly:
            return t
        # the search ends at the first layer where the walks meet, so it is priced layer by
        # layer: a price over t_max up front would refuse answers found at small t
        built += (len(lx) + len(ly)) * (len(x) + t * k)
        if built > WALK_SYMBOL_BUDGET:
            raise ResourceCapError(
                f"a search to depth {t} from words of length {len(x)} built {built} symbols,"
                f" above the budget of {WALK_SYMBOL_BUDGET}"
            )
    return None


def descendant_count(x: Word, t: int) -> int:
    """Exact size of the t-th descendant layer of an irreducible word."""
    m = cone_dimension(x)
    return binom(t + m, m)


def cone_intersection_size(y: Word, y2: Word, t: int) -> int:
    """Number of common t-descendants of two equal-length cone mates."""
    d, m = _distance_in_cone(y, y2)
    if math.isinf(d):
        raise ConeMismatchError(
            "words have different roots; their descendant sets never meet"
        )
    if t < d:
        return 0
    return binom(t - d + m, m)


def join_meet(y: Word, y2: Word) -> tuple[Word, Word]:
    """Least common descendant and greatest common ancestor within one cone."""
    _same_params(y, y2)
    k = y.params.k
    r, u, _ = _decomposed(y)
    r2, v, _ = _decomposed(y2)
    if r2 != r:
        raise ConeMismatchError("words have different roots")
    ends = _cone(r, k)[2]
    join = _grow(r, k, ends, enumerate(map(max, u, v)))
    meet = _grow(r, k, ends, enumerate(map(min, u, v)))
    return Word._trusted(join, y.params), Word._trusted(meet, y.params)
