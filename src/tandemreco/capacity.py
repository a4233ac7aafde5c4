"""Numerical capacity engine.

Irreducible words correspond, through the prefix/difference transform, to
strings whose zero runs are shorter than k.  That constrained system has a
k-state transfer graph; its dominant eigenvalue lambda fixes the growth rate
of irreducible words, and the stationary Markov chain on the graph fixes the
typical density of nonzero symbols.  Both follow from the deficit
delta = q - lambda, solved in logarithms with no power of lambda or q.  On top
sits a one-parameter rate curve for reconstruction codes, maximized here by a
contraction fixed point with an independent bisection cross-check.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass

from .duplication import DupParams, Word
from .entropy import q_ary_entropy
from .errors import (
    DegenerateParamsError,
    DomainError,
    InvertedIntervalError,
    NonConvergenceError,
    RegimeParamsError,
    TandemError,
)
from .simplex import required_distance, required_distance_upper_log


@functools.cache
def _deficit(params: DupParams) -> float:
    """delta = q - lambda, where delta * (q - delta)^k = q - 1 (1 at k = 1).

    Newton in u = log delta on u - log(q-1) + k*log(q - e^u), which rises and
    is concave while k*delta < lambda, climbs from delta = (q-1)/q^k, below the
    root, until a step no longer rises.  delta underflows to 0.0 at huge k.
    Solved once per parameter pair; every quantity below reads it from here.
    """
    q, k = params.q, params.k
    if k == 1:
        return 1.0
    c = math.log(q - 1) - k * math.log(q)
    u = c
    while True:
        d = math.exp(u)
        nxt = u - (u - c + k * math.log1p(-d / q)) / (1.0 - k * d / (q - d))
        if not nxt > u:
            return d
        u = nxt


def perron_lambda(params: DupParams) -> float:
    """Dominant eigenvalue of the k-state zero-run-limited transfer graph.

    For k = 1 the graph has a single state and the eigenvalue is q - 1
    exactly (degenerate when q = 2: the constrained system then holds one
    word per length).  For k >= 2 it is the largest root of
    x^(k+1) - q x^k + (q-1), read as q - delta from the deficit solver.
    """
    return params.q - _deficit(params)


def irr_capacity(params: DupParams) -> float:
    """Growth exponent (base-q) of the number of irreducible words."""
    return 1.0 + math.log1p(-_deficit(params) / params.q) / math.log(params.q)


def pi1(params: DupParams) -> float:
    """Stationary probability of the zero-run-reset state; in (1/2, 1)."""
    if params.k < 2:
        raise DegenerateParamsError("stationary weight density needs k >= 2")
    delta, lam = _deficit(params), perron_lambda(params)
    return (lam - 1.0) / (lam - params.k * delta)


def default_theta(params: DupParams) -> float:
    """Default target weight density: just under the stationary density."""
    return pi1(params) - 0.01


@dataclass(frozen=True)
class ConstraintGraph:
    """Transfer graph of the zero-run constraint plus its stationary chain."""

    params: DupParams
    adjacency: tuple[tuple[int, ...], ...]
    right_eig: tuple[float, ...]
    left_eig: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]


def _chain(params: DupParams) -> tuple[float, tuple, tuple, tuple]:
    """lambda, the right and left eigenvectors and the stationary law, in O(k) memory.

    Where the stationary weights pass the largest double, the chain is refused
    before any of them is formed.
    """
    q, k = params.q, params.k
    lam = perron_lambda(params)
    # right eigenvector by the stable backward recurrence
    # v[k-1] = (q-1)/lambda, v[j] = (v[j+1] + q - 1)/lambda (v[0] comes out 1);
    # the equivalent closed form lam^j - (q-1)(lam^j-1)/(lam-1) cancels badly
    # at larger k.  The left eigenvector is geometric.
    right = [0.0] * k
    right[k - 1] = (q - 1) / lam
    for j in range(k - 2, -1, -1):
        right[j] = (right[j + 1] + (q - 1)) / lam
    # the stationary weights sum to lam^(k-1) * s, s = sum_j right[j] / lam^j; from
    # 2^1024 on, past the largest double, the powers overflow or their sum does
    s = 0.0
    for v in reversed(right):
        s = s / lam + v
    top = (k - 1) * math.log2(lam) + math.log2(s)
    if top >= 1024:
        raise DomainError(
            f"q={q}, k={k} lies beyond double precision: the stationary weights sum to 2^{top:.1f}"
        )
    left = tuple(lam ** (k - 1 - j) for j in range(k))
    unnormalized = [left[j] * right[j] for j in range(k)]
    total = sum(unnormalized)
    return lam, tuple(right), left, tuple(p / total for p in unnormalized)


def build_chain(params: DupParams) -> ConstraintGraph:
    """Adjacency matrix, eigenvectors, transition matrix and stationary law.

    State i remembers a running block of i zeros; from state i one of the
    q-1 nonzero symbols returns to state 0 and the zero symbol advances to
    state i+1 (impossible from state k-1).
    """
    q, k = params.q, params.k
    lam, right, left, stationary = _chain(params)
    adjacency = tuple(
        tuple((q - 1 if j == 0 else (1 if j == i + 1 else 0)) for j in range(k))
        for i in range(k)
    )
    transition = tuple(
        tuple(adjacency[i][j] * right[j] / (lam * right[i]) for j in range(k))
        for i in range(k)
    )
    return ConstraintGraph(params, adjacency, right, left, transition, stationary)


def sample_rll(params: DupParams, length: int, seed: int) -> Word:
    """Walk the stationary chain to emit a zero-run-limited word; seeded.

    From state i a zero advances with probability right[i+1] / (lambda right[i]),
    read off the chain's law: no k x k table is formed.
    """
    if length < 0:
        raise DomainError("length must be nonnegative")
    lam, right, _, stationary = _chain(params)
    advance = [right[i + 1] / (lam * right[i]) for i in range(params.k - 1)]
    rng = random.Random(seed)
    q, k = params.q, params.k

    # start from the stationary law
    u = rng.random()
    state = 0
    acc = 0.0
    for j, p in enumerate(stationary):
        acc += p
        if u < acc:
            state = j
            break

    symbols = []
    for _ in range(length):
        u = rng.random()
        if state + 1 < k and u < advance[state]:
            symbols.append(0)
            state += 1
        else:
            symbols.append(rng.randrange(1, q))
            state = 0
    return Word(tuple(symbols), params)


def _rate_terms(theta: float, params: DupParams, *guards: tuple) -> tuple[float, float]:
    """k*theta and lambda^(-k) = delta/(q - 1), once k >= 2, the guards and k*theta > 1 hold.

    A caller's guard (holds, message, value) that fails raises
    DomainError(message.format(value)).
    """
    if params.k < 2:
        raise DegenerateParamsError("rate analysis needs k >= 2")
    for holds, message, value in guards:
        if not holds:
            raise DomainError(message.format(value))
    kt = params.k * theta
    if kt <= 1.0:
        raise DomainError(f"need k*theta > 1, got {kt}")
    return kt, _deficit(params) / (params.q - 1)


def _check_rate_domain(gamma: float, theta: float, params: DupParams) -> float:
    """k*theta, once gamma and theta lie in (0, 1) on the rate analysis's domain."""
    return _rate_terms(
        theta,
        params,
        (0.0 < gamma < 1.0, "gamma must be in (0,1), got {}", gamma),
        (0.0 < theta < 1.0, "theta must be in (0,1), got {}", theta),
    )[0]


def rate_R(gamma: float, theta: float, params: DupParams) -> float:
    """Rate of root-fraction gamma: entropy of roots plus in-cone code rate."""
    u = (1.0 - gamma) / (_check_rate_domain(gamma, theta, params) * gamma)
    # (1 + u) ln(1 + u) - u ln u, with no 1 + u formed, so a tiny u keeps its digits
    in_cone = math.log1p(u) + u * math.log1p(1.0 / u)
    return gamma * irr_capacity(params) + theta * gamma * in_cone / math.log(params.q)


def rate_R_prime(gamma: float, theta: float, params: DupParams) -> float:
    """Closed-form derivative of the rate curve."""
    kt = _check_rate_domain(gamma, theta, params)
    u = (1.0 - gamma) / gamma / kt
    slope = ((kt - 1.0) * math.log(1.0 + u) + math.log(u)) / (params.k * math.log(params.q))
    return irr_capacity(params) + slope


def fixed_point_map(z: float, theta: float, params: DupParams) -> float:
    """One step of the contraction whose fixed point maximizes the rate curve."""
    kt, a = _rate_terms(theta, params)
    e = kt - 1.0
    # a / (1 + a/(1+z)^e)^e through log1p, so a tiny z or a keeps its digits
    return a * math.exp(-e * math.log1p(a * math.exp(-e * math.log1p(z))))


def x0_solve(
    theta: float, params: DupParams, tol: float = 1e-12
) -> tuple[float, float, int]:
    """Maximizing point of the rate curve by fixed-point iteration.

    Returns (x0, gamma0, iterations) where gamma0 = 1 / (1 + x0).  The
    iteration starts at 1/2 and is a contraction, so the convergence guard
    never fires for valid parameters.
    """
    kt, _ = _rate_terms(theta, params, (not tol <= 0.0, "tolerance must be positive", tol))
    z = 0.5
    for iteration in range(1, 501):
        nxt = fixed_point_map(z, theta, params)
        if abs(nxt - z) < tol:
            z = nxt
            x0 = kt * z
            return x0, 1.0 / (1.0 + x0), iteration
        z = nxt
    raise NonConvergenceError("fixed-point iteration did not settle in 500 steps")


def x0_bisect(theta: float, params: DupParams) -> float:
    """Independent root of the stationarity equation; cross-check for the solver."""
    kt, a = _rate_terms(theta, params)

    def residual(x: float) -> float:  # (1 + x/kt)^(kt-1) * x/kt - a, in sign
        return x / kt - a * (1.0 + x / kt) ** (1.0 - kt)

    lo, hi = 0.0, kt
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2.0
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def x0_bounds(theta: float, params: DupParams) -> tuple[float, float]:
    """A priori sandwich around the maximizing point."""
    kt, a = _rate_terms(theta, params)
    b = a * 2.0**-kt  # (2^theta * lambda)^(-k)
    lower = kt * b / (1.0 - b)
    # the root of x^2 + (1-a) x = kt q^2 a / 4, in the form that does not cancel
    spread = kt * params.q**2 * a
    upper_root = 0.5 * spread / (math.sqrt((1.0 - a) ** 2 + spread) + (1.0 - a))
    upper_coarse = spread / (4.0 * (1.0 - a))
    # a few ulps wider: at q = 2 the root bound meets x0 to second order in a
    return lower, min(upper_root, upper_coarse) * (1.0 + 2.0**-50)


def refine_bounds(
    z_lower: float,
    z_upper: float,
    theta: float,
    params: DupParams,
    steps: int,
) -> tuple[float, float]:
    """Tighten a sandwich (in the normalized variable z = x/(k*theta)).

    The map is monotone and contracts by at least 9/16 per step, so a valid
    sandwich stays valid and shrinks geometrically.
    """
    if z_lower > z_upper:
        raise InvertedIntervalError(f"inverted interval: [{z_lower}, {z_upper}]")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    lo, hi = z_lower, z_upper
    for _ in range(steps):
        lo = fixed_point_map(lo, theta, params)
        hi = fixed_point_map(hi, theta, params)
    return lo, hi


def hamming_fraction_bound(n: int, xi: float, params: DupParams) -> float:
    """Upper bound on the fraction of low-weight difference strings."""
    q, k = params.q, params.k
    if n <= k:
        raise DomainError(f"need n > k, got n={n}, k={k}")
    if not 0.0 < xi < 1.0 - 1.0 / q:
        raise DomainError(f"xi must be in (0, 1 - 1/q), got {xi}")
    return q ** ((n - k) * (q_ary_entropy(xi, q) - 1.0))


def regime_distance(
    params: DupParams,
    theta: float,
    gamma: float,
    n: int,
    regime: int,
    regime_params: dict,
) -> int:
    """Required code distance at block length n under an asymptotic regime.

    Regime 1 fixes the duplication count t and takes the uncertainty N
    directly; regime 2 scales N = 2^(alpha n) and t = beta n.  Returns the
    exact required distance for the derived (N, t, m).
    """
    if not 0.0 < gamma < 1.0 or not 0.0 < theta < 1.0:
        raise RegimeParamsError("theta and gamma must be in (0,1)")
    if n < 1:
        raise RegimeParamsError("block length must be positive")
    m_n = math.ceil(theta * gamma * n)
    r_n = (1.0 - gamma) * n / params.k - 1.0
    if r_n < 0.0:
        raise RegimeParamsError(f"no room for duplications at n={n}, gamma={gamma}")

    if regime == 1:
        try:
            big_n, t_n = int(regime_params["N"]), int(regime_params["t"])
        except KeyError as missing:
            raise RegimeParamsError(f"regime 1 needs parameter {missing}") from None
        if big_n < 0 or t_n < 1:
            raise RegimeParamsError("regime 1 needs N >= 0 and t >= 1")
    elif regime == 2:
        try:
            alpha, beta = float(regime_params["alpha"]), float(regime_params["beta"])
        except KeyError as missing:
            raise RegimeParamsError(f"regime 2 needs parameter {missing}") from None
        if alpha <= 0.0 or beta <= 0.0:
            raise RegimeParamsError("regime 2 needs alpha, beta > 0")
        exponent = alpha * n
        # exact floor for moderate exponents; huge N only matters through log2(N)
        big_n = int(2.0**exponent) if exponent < 960 else 1 << math.floor(exponent)
        t_n = max(1, round(beta * n))
    else:
        raise RegimeParamsError(f"unknown regime {regime!r}")

    d = required_distance(big_n, t_n, m_n)
    if 1 <= big_n <= m_n and d != t_n:
        raise TandemError(f"distance {d} differs from t={t_n} at N={big_n} <= m={m_n}")
    if big_n > m_n > 0:
        bound = required_distance_upper_log(big_n, t_n, m_n)
        if d > bound:
            raise TandemError(f"distance {d} exceeds the log bound {bound}")
    return d


@dataclass(frozen=True)
class CapacityProfile:
    """Everything the rate analysis produces for one parameter pair."""

    params: DupParams
    lambda_: float
    cap_irr: float
    pi1: float
    theta: float
    x0: float
    gamma0: float
    rate_at_gamma0: float

    def to_json(self) -> dict:
        data = asdict(self)
        # the field is lambda_ only because lambda is a Python keyword
        data["lambda"] = data.pop("lambda_")
        return {**data.pop("params"), **data}


def capacity_profile(
    params: DupParams, theta: float | None = None, tol: float = 1e-12
) -> CapacityProfile:
    """Run the whole engine: eigenvalue, stationary density, rate maximum."""
    q, k = params.q, params.k
    p1, delta = pi1(params), _deficit(params)
    theta = default_theta(params) if theta is None else theta
    in_unit = (0.0 < theta < 1.0, "theta must be in (0,1), got {}", theta)
    kt, _ = _rate_terms(theta, params, in_unit)
    # delta in (0, min(q/(k+1), 1/k)) is pi1 in (1/2, 1); beyond double precision
    # delta underflows, pi1 rounds to 1/2 or gamma0 rounds to 1
    beyond = f"q={q}, k={k} lies beyond double precision"
    if p1 == 0.5 or not 0.0 < delta < min(q / (k + 1), 1.0 / k):
        raise DomainError(f"{beyond}: q - lambda = {delta}, pi1 = {p1}")
    x0, gamma0, _ = x0_solve(theta, params, tol)
    if not 0.0 < x0 < kt:
        raise TandemError(f"x0 = {x0} outside (0, k*theta) = (0, {kt})")
    if gamma0 == 1.0:
        raise DomainError(f"{beyond}: gamma0 = 1 - {x0:.3g} rounds to 1")

    return CapacityProfile(
        params=params,
        lambda_=q - delta,
        cap_irr=irr_capacity(params),
        pi1=p1,
        theta=theta,
        x0=x0,
        gamma0=gamma0,
        rate_at_gamma0=rate_R(gamma0, theta, params),
    )
