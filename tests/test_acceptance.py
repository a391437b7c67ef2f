"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its measured runtime. Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete.

Reference values are evaluated with raw math formulas, here and in
``conftest``, not with package code, so each criterion compares two
independent routes.
"""

import math
import time

import numpy as np
from conftest import reference_f, reference_h

from qdiscord.channel import linear_classical_correlation
from qdiscord.discord import (
    discord_rank2,
    discord_rho2_closed_form,
    identity_residuals,
)
from qdiscord.errors import DegenerateDenominator
from qdiscord.oracles import (
    decomposition_linear_cc,
    projective_classical_correlation,
)
from qdiscord.states import (
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_rho2,
    random_trials,
)

LOG2_3 = math.log2(3.0)


def report(number, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number}: {status} ({elapsed:.2f}s / limit {limit:.0f}s) "
          f"{detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_example1_point_value():
    started = time.perf_counter()
    got = discord_rank2(make_example1(2.0)).Q_discord
    target = 5.0 / 3.0 - LOG2_3
    err = abs(got - target)
    elapsed = time.perf_counter() - started
    report(1, err <= 1e-9, elapsed, 1.0,
           f"discord at the rank-2 point: |{got:.12f} - {target:.12f}| = {err:.2e}")


def test_criterion_2_example1_sweep_via_extraction():
    started = time.perf_counter()
    worst = 0.0
    for x in np.linspace(0.0, 2.0, 201):
        got = linear_classical_correlation(make_example1(float(x)))
        expected = max(1.0 / 9.0, (1.0 - 2.0 * float(x)) ** 2 / 9.0)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - started
    report(2, worst <= 1e-10, elapsed, 5.0,
           f"I2 over 201 points vs max(1/9, (1-2x)^2/9): worst {worst:.2e}")


def test_criterion_3_horodecki_sweep_via_pipeline():
    started = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        p = float(p)
        got = discord_rank2(make_horodecki(p)).Q_discord
        expected = reference_h(p / 2) - reference_h(p) + reference_f(2 * p * (1 - p))
        worst = max(worst, abs(got - expected))
    end_zero = abs(discord_rank2(make_horodecki(0.0)).Q_discord)
    end_one = abs(discord_rank2(make_horodecki(1.0)).Q_discord - 1.0)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and end_zero <= 1e-12 and end_one <= 1e-12
    report(3, ok, elapsed, 5.0,
           f"discord over 101 points: worst {worst:.2e}, "
           f"endpoints {end_zero:.2e} / {end_one:.2e}")


def test_criterion_4_rho2_closed_form_vs_pipeline():
    started = time.perf_counter()
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for _ in range(500):
        x = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        eta = float(rng.uniform(0.0, 2.0 * math.pi))
        pipeline = discord_rank2(make_rho2(x, theta, eta)).Q_discord
        try:
            closed = discord_rho2_closed_form(x, theta, eta)
        except DegenerateDenominator:
            closed = pipeline
        worst = max(worst, abs(closed - pipeline))
    worst_slice = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        p = float(p)
        expected = reference_h(p / 2) - reference_h(p) + reference_f(2 * p * (1 - p))
        try:
            closed = discord_rho2_closed_form(1.0 - p, math.pi / 2, math.pi / 4)
        except DegenerateDenominator:
            closed = discord_rank2(make_rho2(1.0 - p, math.pi / 2, math.pi / 4)).Q_discord
        worst_slice = max(worst_slice, abs(closed - expected))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and worst_slice <= 1e-9
    report(4, ok, elapsed, 30.0,
           f"500 random triples worst {worst:.2e}; "
           f"two-parameter slice worst {worst_slice:.2e}")


def test_criterion_5_two_bell_state_mixtures():
    started = time.perf_counter()
    worst_cc = worst_q = 0.0
    for lam in np.linspace(0.05, 0.95, 19):
        lam = float(lam)
        rho = make_bell_diagonal(1.0, 1.0 - 2.0 * lam, 2.0 * lam - 1.0)
        rep = discord_rank2(rho)
        worst_cc = max(worst_cc, abs(rep.I_cc - 1.0))
        worst_q = max(worst_q, abs(rep.Q_discord - (1.0 - reference_h(lam))))
    elapsed = time.perf_counter() - started
    ok = worst_cc <= 1e-9 and worst_q <= 1e-9
    report(5, ok, elapsed, 1.0,
           f"I_cc vs 1: {worst_cc:.2e}; discord vs 1-h(lam): {worst_q:.2e}")


def test_criterion_6_identity_suites_thousand_states():
    started = time.perf_counter()
    rho = random_trials(606, range(1000))[0]
    _, kw, monogamy, _ = identity_residuals(rho)
    worst_kw, worst_mono = float(np.max(np.abs(kw))), float(np.max(np.abs(monogamy)))
    elapsed = time.perf_counter() - started
    ok = worst_kw <= 1e-8 and worst_mono <= 1e-8
    report(6, ok, elapsed, 60.0,
           f"1000 states: worst KW {worst_kw:.2e}, worst monogamy {worst_mono:.2e}")


def test_criterion_7_projective_oracle_agreement():
    started = time.perf_counter()
    rho = make_horodecki(np.linspace(0.0, 1.0, 11))
    worst_family = float(np.max(np.abs(
        discord_rank2(rho).I_cc - projective_classical_correlation(rho)
    )))
    rho = make_example1(2.0)
    worst_family = max(
        worst_family,
        abs(discord_rank2(rho).I_cc - projective_classical_correlation(rho)),
    )
    rho = random_trials(707, range(200))[0]
    theorem = discord_rank2(rho).I_cc
    excess = projective_classical_correlation(rho) - theorem
    violations = int(np.count_nonzero(excess > 1e-6))
    worst_excess = max(0.0, float(np.max(excess)))
    worst_gap = max(0.0, float(np.max(-excess)))
    elapsed = time.perf_counter() - started
    ok = worst_family <= 1e-4 and violations == 0 and worst_gap <= 1e-6
    report(7, ok, elapsed, 300.0,
           f"family agreement worst {worst_family:.2e}; "
           f"200 random states, {violations} bound violations "
           f"(max oracle excess {worst_excess:.2e}, max attainment gap {worst_gap:.2e})")


def test_criterion_8_prefactor_at_d3():
    started = time.perf_counter()
    stack = random_trials(808, range(50), dim_a=3)[0]
    closed_form = linear_classical_correlation(stack)
    oracle = decomposition_linear_cc(stack, trials=64,
                                     seed=[808 ^ ((t + 1) << 64) for t in range(50)])
    worst_over = max(0.0, float(np.max(oracle - closed_form)))
    worst_gap = max(0.0, float(np.max(closed_form - oracle)))
    elapsed = time.perf_counter() - started
    ok = worst_over <= 1e-8 and worst_gap <= 1e-4
    report(8, ok, elapsed, 120.0,
           f"50 states at d=3: max oracle excess {worst_over:.2e}, "
           f"max attainment gap {worst_gap:.2e}")
