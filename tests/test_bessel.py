"""Bessel engine: identities, oracle agreement, asymptotic bands, errors."""

import csv
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synge_riemann import bessel
from synge_riemann.errors import AccuracyWindowWarning, DomainError

import oracles
from helpers import DATA, log_grid

GRID = log_grid(1e-6, 1e4, 61)


def test_k0_at_one_matches_oracle():
    k0 = bessel.bessel_k(0, 1.0)
    assert abs(k0 - 0.4210244382) < 1e-9  # printed reference
    oracle = oracles.oracle_quadrature(0, 1.0)
    assert abs(k0 / oracle - 1.0) < 1e-12


def test_oracle_fixture_k1():
    # frozen during fixture generation; the oracle is the reference here
    assert abs(oracles.oracle_quadrature(1, 1.0) - 0.60190723019723457) < 1e-12


def test_recurrence_identity_exact_for_k3():
    for g in GRID:
        k1 = bessel.bessel_k(1, g)
        k2 = bessel.bessel_k(2, g)
        k3 = bessel.bessel_k(3, g)
        assert k3 == 4.0 * k2 / g + k1  # construction route


def test_recurrence_residuals_on_grid():
    for g in GRID:
        k = [bessel.bessel_k(j, g) for j in range(4)]
        if k[3] == 0.0:  # unscaled underflow at the far end
            k = [bessel.bessel_k_scaled(j, g) for j in range(4)]
        for j in (1, 2):
            resid = abs(k[j + 1] - 2.0 * j * k[j] / g - k[j - 1]) / k[j + 1]
            assert resid < 1e-12, (g, j, resid)


def test_derivative_identity_finite_difference():
    # d/dg (K_j / g^j) = -K_{j+1} / g^j to 1e-6 relative
    for g in log_grid(1e-2, 300.0, 13):
        h = 3e-6 * g

        for j in range(3):
            def f(x, j=j):
                return bessel.bessel_k(j, x) / x**j

            lhs = (f(g + h) - f(g - h)) / (2.0 * h)
            rhs = -bessel.bessel_k(j + 1, g) / g**j
            assert abs(lhs / rhs - 1.0) < 1e-6, (g, j)


def test_small_gamma_ratio_limit():
    # K1/K2 -> gamma/2 as gamma -> 0
    for g in (1e-6, 1e-5, 1e-4):
        r = bessel.k1_over_k2(g)
        assert abs(r / (g / 2.0) - 1.0) < 1e-4, g


def test_ratio_k1k2_tiny_value():
    r = bessel.k1_over_k2(1e-6)
    assert abs(r - 5e-7) / 5e-7 < 1e-3


def test_ratio_k0k1_coarse_band_at_4():
    r = bessel.k0_over_k1(4.0)
    assert 1.0 - 1.0 / 8.0 <= r <= 1.0 - 1.0 / 8.0 + 3.0 / 128.0 + 3.0 / 1024.0


def test_ratios_below_one_on_grid():
    for g in GRID:
        assert 0.0 < bessel.k0_over_k1(g) < 1.0
        assert 0.0 < bessel.k1_over_k2(g) < 1.0


def test_scaled_band_order0_at_100():
    lead = math.sqrt(math.pi / 200.0)
    val = bessel.bessel_k_scaled(0, 100.0)
    slack = oracles.asymptotic_remainder_bound(0, 2, 100.0) / 100.0**2
    lo = lead * (1.0 - 1.0 / 800.0 - slack)
    hi = lead * (1.0 - 1.0 / 800.0 + slack)
    assert lo <= val <= hi


def test_scaled_band_order1_at_100():
    lead = math.sqrt(math.pi / 200.0)
    val = bessel.bessel_k_scaled(1, 100.0)
    slack = oracles.asymptotic_remainder_bound(1, 2, 100.0) / 100.0**2
    assert lead * (1.0 + 3.0 / 800.0 - slack) <= val <= lead * (1.0 + 3.0 / 800.0 + slack)


def test_scaling_definition():
    em1 = math.exp(-1.0)
    for j in range(4):
        assert abs(bessel.bessel_k_scaled(j, 1.0) * em1 / bessel.bessel_k(j, 1.0) - 1.0) < 1e-12


def test_asymptotic_remainder_bound_certificate():
    # n-term truncations sit inside the certified remainder band
    for g in (32.0, 50.0, 100.0, 500.0):
        for j in (0, 1):
            exact = math.sqrt(2.0 * g / math.pi) * bessel.bessel_k_scaled(j, g)
            for n in range(1, 6):
                partial = sum(
                    oracles.asymptotic_coefficient(j, m) * g**-m for m in range(n)
                )
                bound = oracles.asymptotic_remainder_bound(j, n, g)
                assert abs(g**n * (exact - partial)) <= bound * (1.0 + 1e-9), (g, j, n)


def test_branch_switch_continuity():
    # the power series and CF2 agree across the switch at gamma = 2
    for g in [1.9 + 0.0125 * i for i in range(17)]:
        series = bessel._k01_series(g)
        cf2 = bessel._k01_cf2(g)
        for a, b in zip(series, cf2):
            assert abs(a / b - 1.0) < 1e-14, (g, series, cf2)


def test_kernel_against_mpmath():
    # e^g K0 and e^g K1 to 4e-15 relative, from inside the extended window
    # up to ten times past the documented one
    with mpmath.workdps(30):
        for g in log_grid(1e-14, 1e5, 61):
            _, k0s, _, k1s = bessel.k01(g)
            x = mpmath.mpf(g)
            scale = mpmath.exp(x)
            for got, order in ((k0s, 0), (k1s, 1)):
                ref = mpmath.besselk(order, x) * scale
                assert abs(got / ref - 1) <= 4e-15, (g, order)


def test_oracle_agreement_sample():
    for g in log_grid(1e-3, 500.0, 21):
        for j in range(4):
            assert abs(bessel.bessel_k(j, g) / oracles.oracle_quadrature(j, g) - 1.0) < 1e-10


def test_oracle_scaled_at_500():
    lhs = oracles.oracle_quadrature(0, 500.0) * math.exp(500.0)
    assert math.isfinite(lhs)
    assert abs(lhs / bessel.bessel_k_scaled(0, 500.0) - 1.0) < 1e-8


def test_frozen_fixtures():
    with open(DATA / "bessel_fixtures.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 192
    for row in rows:
        j = int(row["order"])
        g = float(row["gamma"])
        assert abs(bessel.bessel_k(j, g) / float(row["value"]) - 1.0) < 1e-12
        assert abs(bessel.bessel_k_scaled(j, g) / float(row["scaled"]) - 1.0) < 1e-12
        assert abs(bessel.bessel_k(j, g) / float(row["oracle_value"]) - 1.0) < 1e-10


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel.bessel_k(0, 0.0)
    with pytest.raises(DomainError):
        bessel.bessel_k(0, -1.0)
    with pytest.raises(DomainError):
        bessel.bessel_k(4, 1.0)
    with pytest.raises(DomainError):
        bessel.k0_over_k1(0.0)
    with pytest.raises(DomainError):
        oracles.oracle_quadrature(0, -2.0)


def test_window_warning():
    with pytest.warns(AccuracyWindowWarning):
        bessel.bessel_k(0, 1e-8)
    with pytest.warns(AccuracyWindowWarning):
        bessel.bessel_k_scaled(1, 2e4)


@given(st.floats(min_value=1e-6, max_value=1e4 / 1.001))
@settings(max_examples=60, deadline=None)
def test_monotone_decreasing_and_order_increasing(g):
    # capped so that both g and 1.001 g stay inside bessel.WINDOW
    h = g * (1.0 + 1e-3)
    for j in range(4):
        # strict decrease of the unscaled function via scaled comparison:
        # K(g) > K(h) <=> Ks(g) > Ks(h) e^{g-h}
        assert bessel.bessel_k_scaled(j, g) > bessel.bessel_k_scaled(j, h) * math.exp(g - h)
    for j in range(3):
        assert bessel.bessel_k_scaled(j, g) < bessel.bessel_k_scaled(j + 1, g)


@given(st.floats(min_value=1e-6, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_holder_inequality(g):
    k0s, k1s, k2s, _ = bessel._k_all_scaled(g)
    assert k1s * k1s <= 3.0 * k0s * k2s * (1.0 + 1e-14)
    u = k0s / k1s
    assert 3.0 * u * u + 6.0 * u / g - 1.0 >= -1e-14
