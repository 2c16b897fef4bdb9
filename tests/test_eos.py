"""Constitutive layer: limits, derivatives vs finite differences, inversions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synge_riemann import bessel, eos
from synge_riemann.eos import GasKind
from synge_riemann.errors import BracketError, DomainError, WindowError

from helpers import log_grid

MONO = GasKind.MONATOMIC
DIA = GasKind.DIATOMIC


def isentrope_fd_ep(gas, g, shat=0.0, rel_h=1e-6):
    """de/dp|_S by central differences of p(gamma) and e(gamma) = p r."""
    h = rel_h * g
    p = lambda x: eos.pressure_isentrope(gas, x, shat)
    e = lambda x: p(x) * eos.energy_ratio(gas, x)
    return (e(g + h) - e(g - h)) / (p(g + h) - p(g - h))


def isentrope_fd_epp(gas, g, shat=0.0, rel_h=3e-4):
    """d2e/dp2|_S by second central differences of e against p."""
    p0 = eos.pressure_isentrope(gas, g, shat)
    hp = rel_h * p0

    def e_of_p(pv):
        gg = eos.gamma_from(gas, pv, shat)
        return pv * eos.energy_ratio(gas, gg)

    return (e_of_p(p0 + hp) - 2.0 * e_of_p(p0) + e_of_p(p0 - hp)) / (hp * hp)


class TestEnergyRatio:
    def test_ultra_relativistic_limit(self, gas):
        assert abs(eos.energy_ratio(gas, 1e-6) - 3.0) < 1e-3

    def test_classical_limit(self):
        assert abs(eos.energy_ratio(MONO, 1e4) - 1e4 - 1.5) < 1e-3
        assert abs(eos.energy_ratio(DIA, 1e4) - 1e4 - 2.5) < 1e-3

    def test_monatomic_value_from_ratios(self):
        g = 1.7
        z = bessel.k1_over_k2(g)
        assert abs(eos.energy_ratio(MONO, g) - (g * z + 3.0)) < 1e-14


class TestEP:
    def test_ur_limit(self, gas):
        assert abs(eos.e_p(gas, 1e-6) - 3.0) < 1e-3

    def test_above_three_on_grid(self, gas):
        for g in log_grid(1e-6, 1e4, 60):
            assert eos.e_p(gas, g) > 3.0

    def test_matches_finite_difference(self, gas):
        for g in (0.1, 1.0, 10.0):
            ana = eos.e_p(gas, g)
            num = isentrope_fd_ep(gas, g)
            assert abs(ana / num - 1.0) < 1e-6, (gas, g)


class TestGnIndicator:
    def test_negative_at_sample_points(self, gas):
        for g in (0.1, 1.0, 10.0):
            assert eos.gn_indicator(gas, g) < 0.0

    def test_negative_at_ur_end(self, gas):
        assert eos.gn_indicator(gas, 1e-6) < 0.0

    def test_matches_second_finite_difference(self, gas):
        for g in (0.1, 1.0, 10.0):
            c_epp = isentrope_fd_epp(gas, g)
            p0 = eos.pressure_isentrope(gas, g, 0.0)
            e0 = p0 * eos.energy_ratio(gas, g)
            ep = eos.e_p(gas, g)
            num = (e0 + p0) * c_epp - 2.0 * ep * (ep - 1.0)
            ana = eos.gn_indicator(gas, g)
            assert abs(ana / num - 1.0) < 1e-5, (gas, g, ana, num)


class TestPressureIsentrope:
    def test_entropy_shift_is_exact_factor(self, gas):
        p0 = eos.pressure_isentrope(gas, 1.3, 0.25)
        p1 = eos.pressure_isentrope(gas, 1.3, 1.25)
        assert abs(p1 * math.e / p0 - 1.0) < 1e-15

    def test_decreasing_in_gamma(self, gas):
        for g in log_grid(1e-6, 1e4, 40):
            assert eos.pressure_coldness_slope(gas, g) < 0.0

    def test_gamma_from_round_trip(self, gas):
        for g in (0.01, 1.0, 100.0):
            p = eos.pressure_isentrope(gas, g, 0.0)
            assert abs(eos.gamma_from(gas, p, 0.0) / g - 1.0) < 1e-10


class TestEntropy:
    def test_density_shift(self, gas):
        s1 = eos.entropy(gas, 1.7, 1.0)
        s2 = eos.entropy(gas, 1.7, 2.0)
        assert s2 == pytest.approx(s1 - math.log(2.0), abs=1e-15)

    def test_alternative_form_differs_by_constant(self):
        # number-density form vs the K3-based form: constant offset (= 4)
        def shat_k3(g, rho):
            k1s, k2s = bessel.bessel_k_scaled(1, g), bessel.bessel_k_scaled(2, g)
            k3s = 4.0 * k2s / g + k1s
            return g * k3s / k2s - math.log(g) + (math.log(k2s) - g) - math.log(rho)

        offs = [shat_k3(g, 1.0) - eos.entropy(MONO, g, 1.0) for g in (0.1, 1.0, 10.0)]
        assert max(offs) - min(offs) < 1e-10
        assert abs(offs[0] - 4.0) < 1e-10


class TestGammaFrom:
    def test_monotone_inverse(self, gas):
        p1 = eos.pressure_isentrope(gas, 2.0, 0.0)
        p2 = eos.pressure_isentrope(gas, 1.0, 0.0)
        assert p1 < p2
        assert eos.gamma_from(gas, p1, 0.0) > eos.gamma_from(gas, p2, 0.0)

    def test_diatomic_fixture_from_independent_bisection(self):
        # frozen from an mpmath bisection of the isentrope at 1e-14 tolerance
        g = eos.gamma_from(DIA, 0.35, 0.7)
        assert abs(g - 1.1531200030909809) < 1e-12

    def test_bracket_error_reports_bracket(self):
        with pytest.raises(BracketError) as exc:
            eos.gamma_from(MONO, 1e300, 0.0)
        assert exc.value.bracket is not None


class TestStates:
    def test_primitive_gamma(self):
        st_ = eos.state_from_primitive(MONO, 1.0, 0.0, 0.5)
        assert st_.gamma == pytest.approx(2.0, abs=1e-15)

    def test_fast_state(self):
        st_ = eos.state_from_primitive(MONO, 1.0, 0.9, 0.1)
        assert st_.gamma == pytest.approx(10.0, abs=1e-12)

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            eos.state_from_primitive(MONO, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            eos.state_from_primitive(MONO, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            eos.state_from_primitive(MONO, 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["rho", "v", "p"])
    def test_non_finite_primitive_rejected(self, field, bad):
        args = {"rho": 1.0, "v": 0.0, "p": 1.0, field: bad}
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            eos.state_from_primitive(MONO, args["rho"], args["v"], args["p"])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["p", "v", "shat"])
    def test_non_finite_pvs_rejected(self, field, bad):
        args = {"p": 1.0, "v": 0.0, "shat": 0.0, field: bad}
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            eos.state_from_pvs(DIA, args["p"], args["v"], args["shat"])

    def test_round_trip(self, gas):
        st_ = eos.state_from_primitive(gas, 0.7, 0.3, 0.2)
        rho, v, p = eos.primitive_from_state(st_)
        assert (rho, v, p) == (0.7, 0.3, 0.2)
        st2 = eos.state_from_pvs(gas, p, v, st_.shat)
        assert abs(st2.rho / rho - 1.0) < 1e-12
        assert abs(st2.gamma / st_.gamma - 1.0) < 1e-12

    def test_vacuum_marker(self):
        vac = eos.FluidState.vacuum(v=0.25)
        assert vac.is_vacuum and vac.p == 0.0 and vac.e == 0.0 and vac.rho == 0.0

    def test_json_dict(self):
        st_ = eos.state_from_primitive(MONO, 1.0, 0.0, 1.0)
        d = st_.to_dict()
        assert set(d) == {"rho", "v", "p", "gamma", "shat", "e"}
        assert set(st_.to_dict(echo=False)) == {"rho", "v", "p"}


class TestRestFrameSpeed:
    def test_ur_limit(self, gas):
        assert abs(eos.rest_frame_speed(gas, 1e-6) - 1.0 / math.sqrt(3.0)) < 1e-3

    def test_strictly_decreasing(self, gas):
        grid = log_grid(1e-4, 1e3, 1000)
        vals = [eos.rest_frame_speed(gas, g) for g in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_specific_heat_identity(self, gas):
        for g in (0.1, 1.0, 10.0, 500.0):
            cv, cp = eos.specific_heats(gas, g)
            r = eos.energy_ratio(gas, g)
            rhs = math.sqrt(cp / cv / (1.0 + r))
            assert abs(eos.rest_frame_speed(gas, g) / rhs - 1.0) < 1e-10


class TestSpecificHeats:
    def test_classical_values(self):
        assert abs(eos.specific_heats(MONO, 1e4)[0] - 1.5) < 1e-2
        assert abs(eos.specific_heats(DIA, 1e4)[0] - 2.5) < 1e-2

    def test_positive_on_grid(self, gas):
        for g in log_grid(1e-6, 1e4, 60):
            cv, cp = eos.specific_heats(gas, g)
            assert cv > 0.0 and cp == pytest.approx(1.0 + cv)


class TestMainField:
    def test_rest_state_components(self):
        st_ = eos.state_from_primitive(MONO, 1.0, 0.0, 0.5)
        u0, u1, u2 = eos.main_field(MONO, st_)
        assert u1 == 0.0
        # 1/(T c) with T = 1/gamma
        assert u2 == pytest.approx(st_.gamma, rel=1e-14)

    def test_chemical_potential_identity(self, gas):
        st_ = eos.state_from_primitive(gas, 1.2, 0.4, 0.6)
        u0, _, _ = eos.main_field(gas, st_)
        T = 1.0 / st_.gamma
        eps = st_.e / st_.rho - 1.0
        gpot = eps + st_.p / st_.rho - T * st_.shat
        assert abs(u0 - (gpot + 1.0) / T) < 1e-12 * abs(u0)


class TestGibbs:
    def test_gibbs_relation_partials(self, gas):
        # T dS = d eps - (p/rho^2) d rho, checked by finite differences
        g0, rho0 = 1.7, 0.8
        T = 1.0 / g0
        h = 1e-6

        def eps(g):
            r = eos.energy_ratio(gas, g)
            return r / g - 1.0

        lhs_gamma = T * (eos.entropy(gas, g0 + h, rho0) - eos.entropy(gas, g0 - h, rho0)) / (2 * h)
        rhs_gamma = (eps(g0 + h) - eps(g0 - h)) / (2 * h)
        assert abs(lhs_gamma / rhs_gamma - 1.0) < 1e-6

        p0 = rho0 / g0
        hr = 1e-6 * rho0
        lhs_rho = T * (eos.entropy(gas, g0, rho0 + hr) - eos.entropy(gas, g0, rho0 - hr)) / (2 * hr)
        rhs_rho = -p0 / rho0**2
        assert abs(lhs_rho / rhs_rho - 1.0) < 1e-6


class TestWindow:
    def test_window_error(self, gas):
        with pytest.raises(WindowError):
            eos.energy_ratio(gas, 1e-7)
        with pytest.raises(WindowError):
            eos.e_p(gas, 2e4)

    def test_domain_error(self, gas):
        with pytest.raises(DomainError):
            eos.energy_ratio(gas, 0.0)

    def test_extended_window_explicit(self, gas):
        # internal solver range stays evaluable when requested explicitly
        assert eos.e_p(gas, 1e6, window=eos.EXTENDED_WINDOW) > 3.0


class TestThermoPoint:
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_consistency(self, g, rho):
        tp = eos.thermo_point(MONO, g, rho)
        assert tp.p == pytest.approx(rho / g, rel=1e-14)
        assert tp.e > 3.0 * tp.p
        assert tp.T == pytest.approx(1.0 / g, rel=1e-14)
        assert tp.shat == pytest.approx(eos.entropy(MONO, g, rho), rel=1e-14)
