"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Criterion 2 carries a known-red sub-check: at gamma = 1e-4 with
(q=2, k=2, theta=0.7236) the rate formula evaluates to about 1.0967e-3,
above the pinned 1e-3 threshold.  The threshold is asserted as stated
rather than loosened; see the assertion message for the measured value.
"""

import itertools
import math
import time

from tandemreco import (
    DupParams,
    UtrCode,
    cal_H,
    binary_entropy,
    build_chain,
    construction_a,
    descendants,
    fixed_point_map,
    irr_capacity,
    perron_lambda,
    pi1,
    rate_R,
    rate_R_prime,
    reconstruct,
    refine_bounds,
    regime_distance,
    required_distance_upper_log,
    sample_rll,
    sidon_code_size,
    simulate_reconstruction,
    word,
    x0_bisect,
    x0_bounds,
    x0_solve,
)
from tandemreco.oracles import (
    suite_ball,
    suite_bounds,
    suite_checker,
    suite_cone_count,
    suite_intersection,
    suite_sidon,
)
from tandemreco.simplex import asymptotic_simplex_rate

P22 = DupParams(2, 2)
P42 = DupParams(4, 2)
CASES = ((P22, 0.7236), (P42, 0.8273))


def _report(criterion: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {criterion}: {label}")
    assert not failures, f"criterion {criterion} ({label}): " + " | ".join(failures)


def test_criterion_01_example_numerics():
    start = time.perf_counter()
    failures = []
    checks = [
        (P22, (1 + math.sqrt(5)) / 2, 0.6942, 0.7236),
        (P42, (3 + math.sqrt(21)) / 2, 0.9613, 0.8273),
    ]
    for params, lam_exact, cap_ref, pi_ref in checks:
        lam = perron_lambda(params)
        if abs(lam - lam_exact) >= 1e-9:
            failures.append(f"lambda({params.q},{params.k}) = {lam} vs {lam_exact}")
        if abs(irr_capacity(params) - cap_ref) >= 5e-4:
            failures.append(f"cap({params.q},{params.k}) = {irr_capacity(params)}")
        if abs(pi1(params) - pi_ref) >= 5e-4:
            failures.append(f"pi1({params.q},{params.k}) = {pi1(params)}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, "eigenvalue/capacity/density example values", failures)


def test_criterion_02_rate_curve_shape():
    start = time.perf_counter()
    failures = []
    grid_n = 9999
    for params, theta in CASES:
        cap = irr_capacity(params)
        tag = f"(q={params.q},k={params.k})"

        near_zero = rate_R(1e-4, theta, params)
        if not near_zero < 1e-3:
            failures.append(f"{tag} R(1e-4) = {near_zero:.6e}, threshold 1e-3")
        near_one = rate_R(1.0 - 1e-8, theta, params)
        if not abs(near_one - cap) < 1e-6:
            failures.append(f"{tag} R(1-1e-8) = {near_one} vs cap {cap}")

        gammas = [i / (grid_n + 1) for i in range(1, grid_n + 1)]
        rates = [rate_R(g, theta, params) for g in gammas]
        best = max(range(grid_n), key=rates.__getitem__)
        if not rates[best] > cap:
            failures.append(f"{tag} grid max {rates[best]} does not exceed cap {cap}")

        x0, gamma0, _ = x0_solve(theta, params)
        slope = rate_R_prime(gamma0, theta, params)
        if not abs(slope) < 1e-8:
            failures.append(f"{tag} R'(gamma0) = {slope}")
        if not abs(gamma0 - gammas[best]) <= 1.0 / (grid_n + 1) + 1e-12:
            failures.append(f"{tag} gamma0 {gamma0} vs argmax {gammas[best]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _report(2, "rate curve endpoints, maximum, stationarity", failures)


def test_criterion_03_cone_count_oracle():
    start = time.perf_counter()
    result = suite_cone_count(max_root_len=6, max_t=3)
    failures = list(result.failures)
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget 60s")
    if result.checks != 4492:
        failures.append(f"ran {result.checks} checks, expected 4492")
    _report(3, f"descendant counts vs formula ({result.checks} checks)", failures)


def test_criterion_04_intersection_oracle():
    result = suite_intersection(max_root_len=6, max_t=3)
    failures = list(result.failures)
    if result.checks != 284_808:
        failures.append(f"ran {result.checks} checks, expected 284808")
    _report(4, f"cone intersections vs brute force ({result.checks} checks)", failures)


def test_criterion_05_checker_equivalence():
    result = suite_checker(samples=100, seed=20240)
    failures = list(result.failures)
    expected_cells = 2 * 2 * 6 * 2 * 4
    if result.checks != expected_cells * 100:
        failures.append(f"ran {result.checks} checks, expected {expected_cells * 100}")
    _report(5, "direct and reduced validity checkers agree", failures)


def test_criterion_06_distance_bounds():
    result = suite_bounds(samples=10_000, seed=51423)
    failures = list(result.failures)
    if result.checks != 11_000:
        failures.append(f"ran {result.checks} checks, expected 11000")
    _report(6, "bound ordering and small-uncertainty collapse", failures)


def test_criterion_07_numeric_inequalities():
    failures = []
    for i in range(10_000):
        x = 1.0 + 99.0 * i / 9999.0
        if not cal_H(x) <= 2.0 * math.sqrt(x - 1.0):
            failures.append(f"cal_H({x}) = {cal_H(x)} above 2*sqrt(x-1)")
            break
    for n in range(2, 61):
        for k in range(1, n):
            log_c = math.log2(math.comb(n, k))
            upper = n * binary_entropy(k / n)
            if not (upper - 0.5 * math.log2(2 * n) <= log_c < upper):
                failures.append(f"entropy sandwich broken at n={n}, k={k}")
    _report(7, "entropy inequality and binomial sandwich", failures)


def test_criterion_08_fixed_point_machinery():
    start = time.perf_counter()
    failures = []
    for params, theta in CASES:
        tag = f"(q={params.q},k={params.k})"
        kt = params.k * theta
        a = perron_lambda(params) ** (-params.k)
        x0, gamma0, _ = x0_solve(theta, params)
        z0 = x0 / kt
        residual = abs((1 + z0) ** (kt - 1) * z0 - a)
        if not residual < 1e-9:
            failures.append(f"{tag} stationarity residual {residual}")
        if not abs(x0 - x0_bisect(theta, params)) < 1e-9:
            failures.append(f"{tag} solver vs bisection mismatch")
        lower, upper = x0_bounds(theta, params)
        if not lower <= x0 <= upper:
            failures.append(f"{tag} x0 {x0} outside [{lower}, {upper}]")
        zl, zu = lower / kt, upper / kt
        width0 = zu - zl
        for steps in (1, 3, 6):
            rl, ru = refine_bounds(zl, zu, theta, params, steps)
            # the interval brackets the exact fixed point; the solver's z0
            # carries its own tolerance, so allow that much slack
            if not rl - 1e-10 <= z0 <= ru + 1e-10:
                failures.append(f"{tag} refined interval lost the fixed point")
            if not ru - rl <= (9 / 16) ** steps * width0 + 1e-15:
                failures.append(f"{tag} decay slower than (9/16)^{steps}")
        if not abs(fixed_point_map(z0, theta, params) - z0) < 1e-9:
            failures.append(f"{tag} fixed point does not map to itself")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(8, "fixed-point solve, bounds, contraction decay", failures)


def test_criterion_09_markov_chain():
    failures = []
    for q in (2, 3, 4):
        for k in (2, 3, 4):
            params = DupParams(q, k)
            graph = build_chain(params)
            tag = f"(q={q},k={k})"
            for row in graph.transition:
                if abs(sum(row) - 1.0) >= 1e-12:
                    failures.append(f"{tag} row sum {sum(row)}")
            for j in range(k):
                back = sum(
                    graph.stationary[i] * graph.transition[i][j] for i in range(k)
                )
                if abs(back - graph.stationary[j]) >= 1e-10:
                    failures.append(f"{tag} stationarity broken at state {j}")
            if abs(graph.stationary[0] - pi1(params)) >= 1e-10:
                failures.append(f"{tag} pi1 mismatch")
    for params in (P22, P42):
        w = sample_rll(params, 100_000, seed=2024)
        density = w.hamming_weight() / 100_000
        if abs(density - pi1(params)) >= 0.01:
            failures.append(
                f"(q={params.q},k={params.k}) empirical density {density} vs {pi1(params)}"
            )
    _report(9, "transfer chain contracts and empirical density", failures)


def test_criterion_10_reconstruction_round_trip():
    start = time.perf_counter()
    failures = []
    fixture = UtrCode(
        DupParams(2, 1),
        4,
        1,
        1,
        (word("0010", 2, 1), word("0110", 2, 1), word("0100", 2, 1)),
    )
    for c in fixture.codewords:
        reads_pool = sorted(descendants(c, 1), key=lambda w: w.symbols)
        for pair in itertools.combinations(reads_pool, 2):
            got = reconstruct(fixture, pair)
            if got != c:
                failures.append(f"pair {pair} decoded to {got}, expected {c}")
    built = construction_a(P22, 12, 1, 1)
    report = simulate_reconstruction(built, 1000, seed=7)
    if report.success_rate != 1.0:
        failures.append(f"simulation success rate {report.success_rate}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _report(10, "exhaustive fixture decode and seeded simulation", failures)


def test_criterion_11_sidon_and_ball():
    failures = []
    sidon = suite_sidon()
    failures += sidon.failures
    if sidon.checks != 135:
        failures.append(f"ran {sidon.checks} sidon checks, expected 135")
    ball = suite_ball()
    failures += ball.failures
    if ball.checks != 136:
        failures.append(f"ran {ball.checks} ball checks, expected 136")
    _report(
        11,
        f"congruence-code distance ({sidon.checks}) and ball sizes ({ball.checks})",
        failures,
    )


def test_criterion_12_asymptotic_substitutes():
    failures = []
    # regime 1: once the uncertainty drops below the cone dimension, the
    # required distance equals the duplication budget exactly
    for n in (100, 400, 900):
        d = regime_distance(
            P22, 0.7236, 0.6733, n, 1, {"N": math.isqrt(n), "t": 3}
        )
        if d != 3:
            failures.append(f"regime 1 at n={n}: d = {d}, expected 3")
    # regime 2 with alpha^2/beta > 4*theta*gamma: the closed-form bound
    # collapses to 1 and the exact distance sits at or below it (the exact
    # value reaches 0 once the uncertainty swallows whole layers)
    theta, gamma = 0.7, 0.8
    alpha, beta = 1.5, 1.0
    assert alpha**2 / beta > 4 * theta * gamma
    for n in (60, 120, 200):
        m_n = math.ceil(theta * gamma * n)
        t_n = round(beta * n)
        big_n = int(2.0 ** (alpha * n))
        bound = required_distance_upper_log(big_n, t_n, m_n)
        d = regime_distance(P22, theta, gamma, n, 2, {"alpha": alpha, "beta": beta})
        if bound != 1:
            failures.append(f"regime 2 bound at n={n}: {bound}, expected 1")
        if d > 1:
            failures.append(f"regime 2 at n={n}: d = {d} above the collapsed bound")
    # finite-length code rates climb toward the asymptotic exponent
    mu = rho = 0.25
    target = asymptotic_simplex_rate(mu, rho)
    rates = []
    for n in range(20, 201, 12):
        m = round(mu * n)
        r = round(rho * n)
        rates.append(math.log2(sidon_code_size(m, r, 2)) / n)
    if not all(b > a for a, b in zip(rates, rates[1:])):
        failures.append(f"rate sequence not increasing: {rates}")
    if not all(r < target for r in rates):
        failures.append(f"some rates at or above the limit {target}: {rates}")
    if not target - rates[-1] < 0.05:
        failures.append(f"final rate {rates[-1]} far from target {target}")
    _report(12, "regime collapses and rate trend toward the limit", failures)
