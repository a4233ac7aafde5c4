"""Capacity engine: eigenvalues, the stationary chain, and the rate curve."""

import decimal
import itertools
import math
import random
import sys
import tracemalloc

import pytest

from tandemreco import capacity
from tandemreco.duplication import MAX_Q
from tandemreco import (
    DegenerateParamsError,
    DomainError,
    DupParams,
    InvertedIntervalError,
    RegimeParamsError,
    TandemError,
    binary_entropy,
    build_chain,
    cal_H,
    capacity_profile,
    fixed_point_map,
    hamming_fraction_bound,
    irr_capacity,
    perron_lambda,
    pi1,
    q_ary_entropy,
    rate_R,
    rate_R_prime,
    refine_bounds,
    regime_distance,
    required_distance_upper_log,
    sample_rll,
    x0_bisect,
    x0_bounds,
    x0_solve,
)

P22 = DupParams(2, 2)
P42 = DupParams(4, 2)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# regression value frozen from the first bisection run on the stationarity
# equation (theta = 0.7236, q = k = 2)
X0_REGRESSION = 0.48568059810038

# at q = 2 the root bound meets x0 to second order in lambda^(-k); at large k it is tiny
BOUNDS_GRID = [(DupParams(q, k), 0.9) for q in (2, 3, 4) for k in range(2, 201)]


def _twin(q: int, k: int) -> tuple[decimal.Decimal, ...]:
    """(delta, lambda, capacity, pi1) at 50 digits, by bisection on log delta.

    delta * (q - delta)^k = q - 1 has its root on (0, min(q/(k+1), 1/k)), where
    log delta + k*log(q - delta) rises; delta = (q-1)/q^k lies below the root.
    """
    with decimal.localcontext(prec=50):
        q_ = decimal.Decimal(q)
        target = (q_ - 1).ln()
        lo = target - k * q_.ln()
        hi = min(q_ / (k + 1), 1 / decimal.Decimal(k)).ln()
        while hi - lo > decimal.Decimal("1e-45") * max(1, abs(lo)):
            mid = (lo + hi) / 2
            if mid + k * (q_ - mid.exp()).ln() < target:
                lo = mid
            else:
                hi = mid
        delta = ((lo + hi) / 2).exp()
        lam = q_ - delta
        return delta, lam, lam.ln() / q_.ln(), (lam - 1) / (lam - k * delta)


def test_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
    assert cal_H(1.0) == 0.0
    assert cal_H(2.0) == 2.0
    assert q_ary_entropy(0.75, 4) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        binary_entropy(1.5)
    with pytest.raises(DomainError):
        cal_H(0.5)


def test_perron_examples():
    assert perron_lambda(P22) == pytest.approx(GOLDEN, abs=1e-9)
    assert perron_lambda(P42) == pytest.approx((3.0 + math.sqrt(21.0)) / 2.0, abs=1e-9)
    assert irr_capacity(P22) == pytest.approx(0.6942, abs=5e-4)
    assert irr_capacity(P42) == pytest.approx(0.9613, abs=5e-4)
    # one-state graph: eigenvalue q-1 exactly, degenerate at q=2
    assert perron_lambda(DupParams(3, 1)) == 2.0
    assert perron_lambda(DupParams(2, 1)) == 1.0
    assert irr_capacity(DupParams(2, 1)) == 0.0


def test_lambda_bracket():
    # from pi1 in (0,1): lambda above both q*k/(k+1) and q - 1/k, below q
    for q in (2, 3, 4, 5):
        for k in range(2, 9):
            lam = perron_lambda(DupParams(q, k))
            assert max(q - q / (k + 1), q - 1.0 / k) < lam < q


def test_pi1_examples():
    assert pi1(P22) == pytest.approx(0.5 * (1 + 1 / math.sqrt(5)), abs=1e-9)
    assert pi1(P42) == pytest.approx(0.5 * (1 + math.sqrt(3 / 7)), abs=1e-9)
    with pytest.raises(DegenerateParamsError):
        pi1(DupParams(2, 1))
    for q in (2, 3, 4, 5):
        for k in (2, 3, 5):
            assert pi1(DupParams(q, k)) > 0.5


def test_build_chain_contracts():
    for q in (2, 3, 4):
        for k in (2, 3, 4):
            graph = build_chain(DupParams(q, k))
            for row in graph.transition:
                assert abs(sum(row) - 1.0) < 1e-12
            for j in range(k):
                back = sum(
                    graph.stationary[i] * graph.transition[i][j] for i in range(k)
                )
                assert abs(back - graph.stationary[j]) < 1e-10
            assert abs(graph.stationary[0] - pi1(DupParams(q, k))) < 1e-10
            assert all(v > 0 for v in graph.right_eig)
            assert all(w > 0 for w in graph.left_eig)
            # last right entry has the closed form (q-1)/lambda
            lam = perron_lambda(DupParams(q, k))
            assert graph.right_eig[-1] == pytest.approx((q - 1) / lam)


def test_sample_rll_contracts():
    for params in (P22, P42, DupParams(2, 3), DupParams(3, 1)):
        w = sample_rll(params, 400, seed=5)
        assert len(w) == 400
        run = 0
        for s in w:
            run = run + 1 if s == 0 else 0
            assert run < params.k
    assert sample_rll(P22, 50, seed=9) == sample_rll(P22, 50, seed=9)
    # one-state chain: every symbol nonzero
    assert sample_rll(DupParams(2, 1), 30, seed=4).hamming_weight() == 30


def _sample_from_graph(graph, length: int, seed: int) -> tuple[int, ...]:
    """The reference sampler: the same walk, read off build_chain's k x k transition table."""
    rng = random.Random(seed)
    q, k = graph.params.q, graph.params.k
    u, state, acc = rng.random(), 0, 0.0
    for j, p in enumerate(graph.stationary):
        acc += p
        if u < acc:
            state = j
            break
    symbols = []
    for _ in range(length):
        u = rng.random()
        if state + 1 < k and u < graph.transition[state][state + 1]:
            symbols.append(0)
            state += 1
        else:
            symbols.append(rng.randrange(1, q))
            state = 0
    return tuple(symbols)


def test_sample_rll_draws_the_words_of_the_transition_table():
    for q, ks in ((2, (1, 2, 3, 5, 17, 200, 1000)), (3, (1, 2, 4, 120)), (4, (2, 3, 27))):
        for k in ks:
            graph = build_chain(DupParams(q, k))
            for seed in range(3):
                got = sample_rll(DupParams(q, k), 200, seed).symbols
                assert got == _sample_from_graph(graph, 200, seed), (q, k, seed)


def test_sample_rll_forms_no_k_by_k_table():
    # at the guard's edge the two dense tables would hold 2 * 1023^2 entries
    tracemalloc.start()
    try:
        sample_rll(DupParams(2, 1023), 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_chain_beyond_double_precision_is_refused():
    # lambda^(k-1) overflows at (2, 1100); at (3, 647) only the weights' sum did, and
    # every stationary weight read 0
    for q, k, top in ((2, 1100, "1100.0"), (3, 647, "1024.5"), (MAX_Q, 52, "1024.5")):
        message = f"^q={q}, k={k} lies beyond double precision: .* sum to 2\\^{top}$"
        with pytest.raises(DomainError, match=message):
            build_chain(DupParams(q, k))
    with pytest.raises(DomainError, match="^q=2, k=1100 lies beyond double precision"):
        sample_rll(DupParams(2, 1100), 10, 0)
    # the k just below still builds, and its law sums to 1
    for q, k in ((3, 646), (MAX_Q, 51)):
        assert sum(build_chain(DupParams(q, k)).stationary) == pytest.approx(1.0, abs=1e-12)


def test_sample_rll_weight_density():
    w = sample_rll(P22, 20000, seed=101)
    assert abs(w.hamming_weight() / 20000 - pi1(P22)) < 0.02


def test_rate_forms_agree():
    # rate_R against its formula at 50 digits, on the twin's capacity and the floats' exact values
    for params, theta in ((P22, 0.7236), (P42, 0.8273)):
        cap = _twin(params.q, params.k)[2]
        with decimal.localcontext(prec=50):
            th, lq = decimal.Decimal(theta), decimal.Decimal(params.q).ln()
            for i in range(1, 1000):
                g = i / 1000.0
                gd = decimal.Decimal(g)
                u = (1 - gd) / (params.k * th * gd)
                exact = gd * cap + th * gd * ((1 + u) * (1 + u).ln() - u * u.ln()) / lq
                error = abs(decimal.Decimal(rate_R(g, theta, params)) - exact)
                assert error <= exact * decimal.Decimal("1e-12"), (params, g)


def test_capacity_profile_solves_the_deficit_once():
    # every function of the engine reads delta from the one cached solve of its (q, k)
    capacity._deficit.cache_clear()
    capacity_profile(P22)
    assert capacity._deficit.cache_info().misses == 1


# (call, error type, message) on inputs that break two checks at once, so the first one speaks
P21, P31 = DupParams(2, 1), DupParams(3, 1)
NEEDS_K2 = (DegenerateParamsError, "rate analysis needs k >= 2")
KT_08 = (DomainError, "need k*theta > 1, got 0.8")
PI1_NEEDS_K2 = "stationary weight density needs k >= 2"
RATE_REFUSALS = [
    (lambda: rate_R(0.0, 0.4, P21), *NEEDS_K2),
    (lambda: rate_R(0.0, 1.5, P22), DomainError, "gamma must be in (0,1), got 0.0"),
    (lambda: rate_R_prime(0.5, 1.5, P22), DomainError, "theta must be in (0,1), got 1.5"),
    (lambda: rate_R(0.5, 0.4, P22), *KT_08),
    (lambda: x0_solve(0.4, P21, 0.0), *NEEDS_K2),
    (lambda: x0_solve(0.4, P22, 0.0), DomainError, "tolerance must be positive"),
    (lambda: x0_solve(0.4, P22, 1e-12), *KT_08),
    (lambda: x0_bisect(0.4, P21), *NEEDS_K2),
    (lambda: x0_bounds(0.4, P42), *KT_08),
    (lambda: fixed_point_map(0.5, 0.4, P22), *KT_08),
    (lambda: fixed_point_map(0.5, 1.5, P21), *NEEDS_K2),
    (lambda: refine_bounds(0.0, 0.6, 0.7, P31, 2), *NEEDS_K2),
    # pi1 checks k first, with its own message
    (lambda: capacity_profile(P21, 1.5, 0.0), DegenerateParamsError, PI1_NEEDS_K2),
    (lambda: capacity_profile(P22, 1.5, 0.0), DomainError, "theta must be in (0,1), got 1.5"),
    (lambda: capacity_profile(P22, 0.4, 0.0), *KT_08),
    (lambda: capacity_profile(P22, 0.7, 0.0), DomainError, "tolerance must be positive"),
]


@pytest.mark.parametrize("case", range(len(RATE_REFUSALS)))
def test_rate_domain_refusals_keep_their_order(case):
    call, error, message = RATE_REFUSALS[case]
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_rate_limits():
    for params, theta in ((P22, 0.7236), (P42, 0.8273)):
        cap = irr_capacity(params)
        assert abs(rate_R(1.0 - 1e-8, theta, params) - cap) < 1e-6
        assert rate_R(1e-6, theta, params) < 1e-4
    with pytest.raises(DegenerateParamsError):
        rate_R(0.5, 0.9, DupParams(2, 1))
    with pytest.raises(DomainError):
        rate_R(0.5, 0.4, P22)  # k*theta < 1


def test_rate_at_gamma0_is_at_most_one():
    # at (2, 53) u = (1 - gamma0)/(k*theta*gamma0) is 1.1e-16, which 1 + u would round to 2.2e-16
    assert capacity_profile(DupParams(2, 53)).rate_at_gamma0 <= 1.0
    for q in (2, 3, 4, 5):
        for k in itertools.count(2):
            try:
                profile = capacity_profile(DupParams(q, k))
            except DomainError:
                break
            assert profile.rate_at_gamma0 <= 1.0, (q, k)


def test_rate_derivative_matches_finite_difference():
    h = 1e-6
    for params, theta in ((P22, 0.7236), (P42, 0.8273)):
        for i in range(1, 100):
            g = i / 100.0
            if not h < g < 1 - h:
                continue
            fd = (rate_R(g + h, theta, params) - rate_R(g - h, theta, params)) / (2 * h)
            assert abs(rate_R_prime(g, theta, params) - fd) < 1e-6, (params, g)


def test_rate_derivative_sign_and_concavity():
    for params, theta in ((P22, 0.7236), (P42, 0.8273)):
        x0, gamma0, _ = x0_solve(theta, params)
        assert rate_R_prime(gamma0 - 0.05, theta, params) > 0
        assert rate_R_prime(gamma0 + 0.05, theta, params) < 0
        # numeric concavity on a grid
        h = 1e-4
        for i in range(1, 200):
            g = i / 200.0
            if not h < g < 1 - h:
                continue
            second = (
                rate_R(g + h, theta, params)
                - 2 * rate_R(g, theta, params)
                + rate_R(g - h, theta, params)
            )
            assert second < 0.0


def test_x0_solver_examples():
    x0, gamma0, iterations = x0_solve(0.7236, P22)
    assert x0 == pytest.approx(X0_REGRESSION, abs=1e-10)
    assert gamma0 == pytest.approx(1.0 / (1.0 + x0))
    assert iterations < 500
    # defining equation residual
    kt = 2 * 0.7236
    z = x0 / kt
    lam = perron_lambda(P22)
    assert abs((1 + z) ** (kt - 1) * z - lam**-2) < 1e-9
    # independent bisection agrees
    assert abs(x0 - x0_bisect(0.7236, P22)) < 1e-9


def test_x0_bounds_and_refine():
    for params, theta in BOUNDS_GRID:
        x0, _, _ = x0_solve(theta, params)
        lower, upper = x0_bounds(theta, params)
        assert 0 < lower <= x0 <= upper, params
    for params, theta in ((P22, 0.7236), (P42, 0.8273)):
        x0, _, _ = x0_solve(theta, params)
        lower, upper = x0_bounds(theta, params)
        assert 0 < lower <= x0 <= upper
        kt = params.k * theta
        zl, zu = lower / kt, upper / kt
        width0 = zu - zl
        one_l, one_u = refine_bounds(zl, zu, theta, params, 1)
        assert one_l <= x0 / kt <= one_u
        assert one_u - one_l < width0
        for steps in (2, 5):
            rl, ru = refine_bounds(zl, zu, theta, params, steps)
            # solver tolerance slack: the interval can shrink past it
            assert rl - 1e-10 <= x0 / kt <= ru + 1e-10
            assert ru - rl <= (9 / 16) ** steps * width0 + 1e-15
        z0 = x0 / kt
        assert abs(fixed_point_map(z0, theta, params) - z0) < 1e-9
    with pytest.raises(InvertedIntervalError):
        refine_bounds(0.5, 0.2, 0.7236, P22, 1)


def test_x0_upper_bound_monotone_in_theta():
    uppers = [x0_bounds(th, P22)[1] for th in (0.55, 0.60, 0.65, 0.70, 0.7236)]
    assert uppers == sorted(uppers)


def test_hamming_fraction_bound():
    params = DupParams(2, 2)
    n, xi = 14, 0.25
    limit = xi * (n - params.k)
    count = 0
    for v in range(2 ** (n - params.k)):
        if bin(v).count("1") <= limit:
            count += 1
    exact = count / 2 ** (n - params.k)
    assert exact <= hamming_fraction_bound(n, xi, params)
    # tends to 1 as xi approaches the entropy peak, decreasing in n below it
    assert hamming_fraction_bound(10, 0.499, params) > 0.9
    assert hamming_fraction_bound(30, 0.25, params) < hamming_fraction_bound(
        20, 0.25, params
    )
    with pytest.raises(DomainError):
        hamming_fraction_bound(10, 0.75, params)


def test_regime_distance_cases():
    # fixed duplication budget, sublinear uncertainty: distance equals the budget
    n = 400
    d = regime_distance(P22, 0.7236, 0.6733, n, 1, {"N": int(math.isqrt(n)), "t": 3})
    assert d == 3
    # exponential uncertainty with a steep exponent collapses the requirement
    d2 = regime_distance(P22, 0.7, 0.8, 200, 2, {"alpha": 1.5, "beta": 1.0})
    m_n = math.ceil(0.7 * 0.8 * 200)
    assert d2 <= 1
    assert required_distance_upper_log(int(2.0 ** (1.5 * 200)), 200, m_n) == 1
    # tiny n where the uncertainty swallows the whole layer
    d3 = regime_distance(P22, 0.7236, 0.5, 8, 1, {"N": 10**6, "t": 2})
    assert d3 == 0
    with pytest.raises(RegimeParamsError):
        regime_distance(P22, 0.7236, 0.5, 100, 3, {})
    with pytest.raises(RegimeParamsError):
        regime_distance(P22, 0.7236, 0.5, 100, 2, {"alpha": -1.0, "beta": 1.0})


def test_capacity_profile_fields():
    profile = capacity_profile(P22, 0.7236)
    data = profile.to_json()
    assert data["q"] == 2 and data["k"] == 2
    assert data["lambda"] == pytest.approx(GOLDEN, abs=1e-9)
    assert data["gamma0"] == pytest.approx(1.0 / (1.0 + data["x0"]))
    assert data["rate_at_gamma0"] > data["cap_irr"]
    # default theta sits just below the stationary density
    assert capacity_profile(P22).theta == pytest.approx(pi1(P22) - 0.01)
    with pytest.raises(DegenerateParamsError):
        capacity_profile(DupParams(2, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 16, 256])
def test_deficit_matches_the_decimal_twin(q):
    # lambda rounds to q from (2, 53) on: only delta keeps the digits there
    for k in (2, 3, 5, 10, 27, 53, 100, 250, 1000, 10**4):
        params = DupParams(q, k)
        delta, lam, cap, p1 = _twin(q, k)
        got = [(perron_lambda(params), lam), (irr_capacity(params), cap), (pi1(params), p1)]
        if delta >= sys.float_info.min:  # a subnormal delta keeps fewer digits
            got.append((capacity._deficit(params), delta))
        for value, exact in got:
            assert abs(decimal.Decimal(value) - exact) <= decimal.Decimal("1e-12") * exact, (q, k)


def test_capacity_profile_guard(monkeypatch):
    # a solver that leaves (0, k*theta) must be stopped, not passed on
    monkeypatch.setattr(capacity, "x0_solve", lambda theta, params, tol: (0.0, 1.0, 1))
    with pytest.raises(TandemError, match="outside"):
        capacity_profile(P22, 0.7236)


def test_capacity_profile_guard_survives_optimize(run_optimized):
    # under -O every assert is stripped, so only an explicit raise can stop the bad profile
    script = (
        "import sys\n"
        "from tandemreco import DupParams, TandemError, capacity\n"
        "capacity.x0_solve = lambda theta, params, tol: (0.0, 1.0, 1)\n"
        "try:\n"
        "    capacity.capacity_profile(DupParams(2, 2), 0.7236)\n"
        "except TandemError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert run_optimized(script).strip() == "1 x0 = 0.0 outside (0, k*theta) = (0, 1.4472)"
