"""The duplication distance and descendant-cone counting.

Within one root's cone the distance has a closed form (half the L1 gap of
the cone coordinates); across cones it is infinite.  Every closed form here
is paired with a literal breadth-first oracle.
"""

from __future__ import annotations

import math

from .duplication import (
    Word,
    _cone,
    _layers,
    _same_params,
    cone_dimension,
    psi_inv,
)
from .errors import ConeMismatchError, WordLengthError
from .simplex import binom, half_manhattan


def _distance_in_cone(x: Word, y: Word) -> tuple[int | float, int]:
    """Closed-form distance and the cone dimension of the shared root (-1 across cones)."""
    _same_params(x, y)
    if len(x) != len(y):
        raise WordLengthError(f"length mismatch: {len(x)} vs {len(y)}")
    k = x.params.k
    rx, sx, _ = _cone(x.symbols, k)
    ry, sy, _ = _cone(y.symbols, k)
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
    for t, lx, ly in zip(range(t_max + 1), _layers(x), _layers(y)):
        if lx & ly:
            return t
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
    r, u, _ = _cone(y.symbols, y.params.k)
    r2, v, _ = _cone(y2.symbols, y2.params.k)
    if r2 != r:
        raise ConeMismatchError("words have different roots")
    r0 = Word._trusted(r, y.params)
    join = psi_inv(r0, tuple(max(a, b) for a, b in zip(u, v)))
    meet = psi_inv(r0, tuple(min(a, b) for a, b in zip(u, v)))
    return join, meet
