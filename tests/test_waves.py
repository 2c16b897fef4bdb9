"""Wave structure: eigenvalues, invariants, shocks, rarefactions, curves."""

import math
import os
import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synge_riemann import eos, waves
from synge_riemann.eos import FluidState, GasKind
from synge_riemann.errors import AccuracyWindowWarning, DomainError, WindowError

import oracles
from helpers import log_grid

MONO = GasKind.MONATOMIC
DIA = GasKind.DIATOMIC


def anchor_state(gas, rho=1.0, v=0.0, p=1.0):
    return eos.state_from_primitive(gas, rho, v, p)


class TestEigenvalues:
    def test_rest_frame(self, gas):
        st_ = anchor_state(gas)
        l1, l2, l3 = waves.eigenvalues(gas, st_)
        cs = 1.0 / math.sqrt(eos.e_p(gas, st_.gamma))
        assert l2 == 0.0
        assert l1 == pytest.approx(-cs, rel=1e-14)
        assert l3 == pytest.approx(cs, rel=1e-14)

    def test_middle_is_velocity(self, gas):
        st_ = eos.state_from_primitive(gas, 1.0, 0.37, 0.8)
        assert waves.eigenvalues(gas, st_)[1] == 0.37

    def test_subluminal_random_sweep(self, gas):
        rng = random.Random(20240817)
        for _ in range(1000):
            g = 10.0 ** rng.uniform(-4, 3)
            v = rng.uniform(-0.999, 0.999)
            p = 10.0 ** rng.uniform(-3, 3)
            st_ = eos.state_from_primitive(gas, g * p, v, p)
            lams = waves.eigenvalues(gas, st_)
            assert max(abs(l) for l in lams) < 1.0
            assert lams[0] < lams[1] < lams[2]


class TestRiemannInvariants:
    def test_rest_frame_symmetry(self, gas):
        st_ = anchor_state(gas)
        rbar, sbar = waves.riemann_invariants(gas, st_)
        assert rbar > 0.0
        assert rbar == pytest.approx(-sbar, rel=1e-14)

    def test_dual_quadrature_oracle(self, gas):
        """gamma-substituted J against a direct p-quadrature on [p/1e6, p]
        plus an independent tail estimate in the regularizing variable
        q = p^(1/5), where the p -> 0 endpoint becomes smooth."""
        from scipy.integrate import quad

        st_ = anchor_state(gas)
        shat = st_.shat
        p0 = st_.p
        wide = (1e-12, 1e11)

        def integrand_p(p):
            g = eos.gamma_from(gas, p, shat, window=wide)
            return math.sqrt(eos.e_p(gas, g, window=wide)) / (
                p * (eos.energy_ratio(gas, g, window=wide) + 1.0)
            )

        p_cut = p0 * 1e-6
        body, _ = quad(integrand_p, p_cut, p0, epsabs=1e-13, epsrel=1e-11, limit=300)

        # classical isentrope p ~ gamma^-n/2-ish: the q = p^(1/n) variable
        # makes the p -> 0 endpoint smooth (n = 5 monatomic, 7 diatomic)
        n = 5.0 if gas is MONO else 7.0

        def tail_integrand(q):
            return n * q ** (n - 1.0) * integrand_p(q**n)

        p_floor = eos.pressure_isentrope(gas, 1e10, shat, window=wide)
        q_lo, q_hi = p_floor ** (1.0 / n), p_cut ** (1.0 / n)
        tail, _ = quad(tail_integrand, q_lo, q_hi, epsabs=1e-13, epsrel=1e-11, limit=300)
        tail += tail_integrand(q_lo) * q_lo  # classical plateau below q_lo

        j_gamma = eos.invariant(gas, st_.gamma)
        assert abs((body + tail) / j_gamma - 1.0) < 1e-7

    def test_table_against_quadrature_oracle(self, gas):
        for g in log_grid(1e-14, 30.0, 25):
            J = eos.invariant(gas, g)
            assert abs(J - oracles.invariant_quadrature(gas, g)) <= 1e-12 * max(1.0, abs(J)), g

    def test_continuous_at_series_switch(self, gas):
        below = eos.invariant(gas, math.nextafter(30.0, 0.0))
        assert abs(below - eos.invariant(gas, 30.0)) < 1e-13

    def test_below_extended_window_rejected(self, gas):
        with pytest.raises(WindowError):
            eos.invariant(gas, 1e-15)

    def test_table_build_raises_no_window_warning(self, gas, monkeypatch):
        # the table's nodes reach gamma = 1e-14, below the Bessel window
        monkeypatch.setattr(eos, "_INVARIANT_TABLES", {})
        eos._cold.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWindowWarning)
            eos.invariant(gas, 1.0)
        assert gas in eos._INVARIANT_TABLES

    def test_table_not_built_by_import_or_verify(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import synge_riemann as s\n"
            "assert not s.eos._INVARIANT_TABLES\n"
            "s.verify.run_checks(points=50)\n"
            "assert not s.eos._INVARIANT_TABLES\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_invariant_constant_along_rarefaction_curve(self, gas):
        left = anchor_state(gas)
        rbar_l, _ = waves.riemann_invariants(gas, left)
        for frac in (0.8, 0.5, 0.25, 0.1):
            st_ = waves.rarefaction_state(gas, left, 1, frac * left.p)
            rbar, _ = waves.riemann_invariants(gas, st_)
            assert abs(rbar - rbar_l) < 1e-8
            assert st_.shat == left.shat


class TestRarefaction:
    def test_zero_strength_returns_anchor(self, gas):
        left = anchor_state(gas)
        assert waves.rarefaction_state(gas, left, 1, left.p) is left

    def test_velocity_slope_sign(self, gas):
        left = anchor_state(gas)
        v1 = waves.rarefaction_state(gas, left, 1, 0.9).v
        v2 = waves.rarefaction_state(gas, left, 1, 0.8).v
        # family 1: dv/dp < 0
        assert (v2 - v1) / (0.8 - 0.9) < 0.0
        # family 3 mirrored
        w1 = waves.rarefaction_state(gas, left, 3, 0.9).v
        w2 = waves.rarefaction_state(gas, left, 3, 0.8).v
        assert (w2 - w1) / (0.8 - 0.9) > 0.0

    def test_invariant_drift_p_halving(self):
        left = anchor_state(MONO)
        st_ = waves.rarefaction_state(MONO, left, 1, 0.5)
        rb0, _ = waves.riemann_invariants(MONO, left)
        rb1, _ = waves.riemann_invariants(MONO, st_)
        assert abs(rb1 - rb0) < 1e-8

    def test_ode_against_closed_form(self, gas):
        left = anchor_state(gas)
        for frac in (0.7, 0.3, 0.1):
            v_ode = oracles.rarefaction_ode(gas, left, 1, frac).v
            v_inv = waves.rarefaction_state(gas, left, 1, frac).v
            assert abs(v_ode - v_inv) < 1e-9

    def test_ode_next_to_vacuum(self, gas):
        # deep into the fan tail (gamma 2e3..1e8), from fast anchors of both families
        wide = eos.EXTENDED_WINDOW
        for v0, family in ((0.0, 1), (0.9, 1), (-0.9, 3), (0.99, 3)):
            left = anchor_state(gas, v=v0)
            for frac in (1e-12, 1e-18):
                st_ode = oracles.rarefaction_ode(gas, left, family, frac, window=wide)
                st_inv = waves.rarefaction_state(gas, left, family, frac, window=wide)
                assert st_inv.gamma == st_ode.gamma and st_inv.gamma > 1e3
                assert abs(st_ode.v - st_inv.v) < 1e-9, (v0, family, frac)

    def test_shock_side_rejected(self, gas):
        with pytest.raises(DomainError):
            waves.rarefaction_state(gas, anchor_state(gas), 1, 2.0)


class TestShock:
    def test_zero_strength_degenerates_to_characteristic(self, gas):
        left = anchor_state(gas)
        sp = waves.shock_state(gas, left, 1, left.p)
        lam1 = waves.eigenvalues(gas, left)[0]
        assert sp.state is left
        assert sp.s == pytest.approx(lam1, rel=1e-14)

    def test_taub_residual_and_velocity_sign(self):
        left = eos.state_from_primitive(MONO, 1.0, 0.0, 0.1)
        sp = waves.shock_state(MONO, left, 1, 0.2)
        resid = waves.taub_adiabat_residual(MONO, left, sp.state.gamma, 0.2)
        assert abs(resid) < 1e-10
        assert sp.state.v < 0.0

    def test_energy_jump_dominates_pressure_jump(self, gas):
        left = anchor_state(gas)
        for p in log_grid(1.1, 30.0, 12):
            sp = waves.shock_state(gas, left, 1, p)
            assert sp.state.e - left.e > p - left.p > 0.0

    def test_residuals_small(self, gas):
        left = anchor_state(gas)
        for p in log_grid(1.05, 50.0, 20):
            sp = waves.shock_state(gas, left, 1, p)
            assert max(abs(r) for r in sp.residuals) < 1e-9

    def test_entropy_grows_along_1_shock(self, gas):
        left = anchor_state(gas)
        prev = left.shat
        for p in log_grid(1.1, 50.0, 15):
            sp = waves.shock_state(gas, left, 1, p)
            assert sp.state.shat > prev  # dS/dp > 0 along the Hugoniot
            prev = sp.state.shat

    def test_velocity_monotone_decreasing_in_p(self, gas):
        left = anchor_state(gas)
        vs = [waves.shock_state(gas, left, 1, p).state.v for p in log_grid(1.05, 20.0, 12)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_family3_mirror(self, gas):
        left = anchor_state(gas)
        sp1 = waves.shock_state(gas, left, 1, 2.5)
        sp3 = waves.shock_state(gas, left, 3, 2.5)
        assert sp3.state.v == pytest.approx(-sp1.state.v, rel=1e-14)
        assert sp3.s == pytest.approx(-sp1.s, rel=1e-14)
        assert sp3.state.shat == pytest.approx(sp1.state.shat, rel=1e-14)

    def test_frame_covariance(self, gas):
        for v_boost in (0.3, -0.3, 0.9, -0.9):
            rest = anchor_state(gas)
            sp_rest = waves.shock_state(gas, rest, 1, 3.0)
            boosted_left = eos.state_from_primitive(gas, rest.rho, v_boost, rest.p)
            sp_boost = waves.shock_state(gas, boosted_left, 1, 3.0)
            v_expect = (v_boost + sp_rest.state.v) / (1.0 + v_boost * sp_rest.state.v)
            s_expect = (v_boost + sp_rest.s) / (1.0 + v_boost * sp_rest.s)
            assert abs(sp_boost.state.v - v_expect) < 1e-9
            assert abs(sp_boost.s - s_expect) < 1e-9
            assert abs(sp_boost.state.shat - sp_rest.state.shat) < 1e-9


class TestHugoniotResidual:
    def test_zero_jump(self, gas):
        left = anchor_state(gas)
        assert waves.hugoniot_residual(gas, left, left, 0.37) == (0.0, 0.0, 0.0)

    def test_non_solution_detected(self, gas):
        left = anchor_state(gas)
        sp = waves.shock_state(gas, left, 1, 2.0)
        bad = eos.state_from_pvs(gas, sp.state.p * 1.01, sp.state.v, sp.state.shat)
        res = waves.hugoniot_residual(gas, left, bad, sp.s)
        assert max(abs(r) for r in res) > 1e-4


class TestEntropyProduction:
    def test_zero_strength(self, gas):
        left = anchor_state(gas)
        assert waves.entropy_production(gas, left, left, -0.5) == pytest.approx(0.0, abs=1e-9)

    def test_positive_and_increasing_with_strength(self, gas):
        left = anchor_state(gas)
        prev = 0.0
        for p in log_grid(1.05, 50.0, 20):
            sp = waves.shock_state(gas, left, 1, p)
            eta = waves.entropy_production(gas, left, sp.state, sp.s)
            assert eta > prev
            prev = eta

    def test_closed_form_cross_check(self):
        left = anchor_state(MONO)
        for p in log_grid(1.1, 40.0, 20):
            sp = waves.shock_state(MONO, left, 1, p)
            a = waves.entropy_production(MONO, left, sp.state, sp.s)
            b = oracles.entropy_production_closed(MONO, left, sp.state, sp.s)
            assert abs(a - b) < 1e-8

    def test_positive_for_3_shocks(self, gas):
        # 3-shock of a Riemann solution: literal-left is the downstream side
        right = anchor_state(gas)
        sp = waves.shock_state(gas, right, 3, 4.0)
        eta = waves.entropy_production(gas, sp.state, right, sp.s)
        assert eta > 0.0


class TestLax:
    def test_holds_along_strength_grid(self, gas):
        left = anchor_state(gas)
        for p in log_grid(1.02, 50.0, 50):
            sp = waves.shock_state(gas, left, 1, p)
            assert min(waves.lax_margins(gas, left, sp)) > 1e-8

    def test_expansion_shock_rejected(self, gas):
        left = anchor_state(gas)
        sp = waves.shock_state(gas, left, 1, 3.0)
        swapped = waves.ShockPoint(state=left, s=sp.s, family=1, residuals=sp.residuals)
        assert not min(waves.lax_margins(gas, sp.state, swapped)) > 1e-8

    def test_zero_strength_boundary(self, gas):
        left = anchor_state(gas)
        sp = waves.shock_state(gas, left, 1, left.p)
        m1, m2 = waves.lax_margins(gas, left, sp)
        assert abs(m1) < 1e-8 and abs(m2) < 1e-8
        assert not min(waves.lax_margins(gas, left, sp)) > 1e-8


class TestWaveCurve:
    def test_anchor_row_reproduces_anchor(self, gas):
        left = anchor_state(gas)
        tab = waves.wave_curve(gas, left, 1, [0.5, 1.0, 2.0])
        row = tab.rows[1]
        assert row.p == left.p and row.v == left.v and row.shat == left.shat

    def test_velocity_monotone_both_branches(self, gas):
        left = anchor_state(gas)
        grid = log_grid(0.05, 20.0, 41)
        tab = waves.wave_curve(gas, left, 1, grid)
        vs = [r.v for r in tab.rows]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_family3_mirror_of_family1(self, gas):
        left = anchor_state(gas)
        grid = log_grid(0.2, 5.0, 11)
        t1 = waves.wave_curve(gas, left, 1, grid)
        t3 = waves.wave_curve(gas, left, 3, grid)
        for r1, r3 in zip(t1.rows, t3.rows):
            assert r3.v == pytest.approx(-r1.v, abs=1e-12)
            assert r3.gamma == pytest.approx(r1.gamma, rel=1e-12)

    def test_c1_contact_at_anchor(self, gas):
        # one-sided secants straddle the anchor; their gap is ~curvature*dp
        left = anchor_state(gas)
        dp = 5e-5 * left.p
        v_r = waves.rarefaction_state(gas, left, 1, left.p - dp).v
        v_s = waves.shock_state(gas, left, 1, left.p + dp).state.v
        slope_r = (left.v - v_r) / dp
        slope_s = (v_s - left.v) / dp
        assert abs(slope_r / slope_s - 1.0) < 1e-4

    def test_lambda_monotone_along_rarefaction_branch(self, gas):
        # lambda_1 falls with p: fan interiors sweep it monotonically
        left = anchor_state(gas)
        grid = log_grid(0.05, 1.0, 21)
        tab = waves.wave_curve(gas, left, 1, grid)
        lams = [
            waves.eigenvalues(gas, eos.state_from_pvs(gas, r.p, r.v, r.shat))[0]
            for r in tab.rows
        ]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_csv_format(self, gas):
        left = anchor_state(gas)
        tab = waves.wave_curve(gas, left, 1, [0.5, 2.0])
        text = tab.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "p,v,shat,gamma,kind,speed_lo,speed_hi"
        assert len(lines) == 3
        assert "rarefaction" in lines[1] and "shock" in lines[2]


@given(st.floats(min_value=-0.95, max_value=0.95), st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_eigenvalue_ordering_property(v, p):
    st_ = eos.state_from_primitive(MONO, p * 1.3, v, p)
    l1, l2, l3 = waves.eigenvalues(MONO, st_)
    assert -1.0 < l1 < l2 < l3 < 1.0
