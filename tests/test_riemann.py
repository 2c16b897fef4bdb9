"""Riemann problem: intersection fixtures, sampling, vacuum criterion.

The Sod-like and mirror fixtures were frozen from an independent
high-precision implementation (mpmath Bessel functions, bisection-only root
finding at 1e-14, its own quadrature of the invariant integral); agreement
is required to 1e-8, far looser than the observed ~1e-13.
"""

import json
import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synge_riemann import eos, riemann, waves
from synge_riemann.eos import FluidState, GasKind, Units
from synge_riemann.riemann import RiemannInput

MONO = GasKind.MONATOMIC
DIA = GasKind.DIATOMIC

# independent-oracle fixtures
SOD_PM = {MONO: 0.31244502886190321, DIA: 0.31220343752497326}
SOD_VM = {MONO: 0.43761668036278029, DIA: 0.42475056027230582}
MIRROR_PM_MONO = 0.60780560536556746
VACUUM_W_STAR = {MONO: 0.99894249699274743, DIA: 0.99976657249309439}


def sod_input(gas, units=eos.DEFAULT_UNITS):
    """Sod data (1, 0, 1 | 0.125, 0, 0.1) in units of c: (rho, v/c, p/c^2)."""
    return scaled_input(gas, (1.0, 0.0, 1.0), (0.125, 0.0, 0.1), units)


def mirror_input(gas, w, p=1.0, rho=1.0, units=eos.DEFAULT_UNITS):
    return scaled_input(gas, (rho, -w, p), (rho, w, p), units)


def scaled_input(gas, left, right, units):
    c = units.c

    def state(rho, v, p):
        return eos.state_from_primitive(gas, rho, v * c, p * c * c, units=units)

    return RiemannInput(gas=gas, left=state(*left), right=state(*right))


class TestCurveVelocity:
    def test_anchors(self, gas):
        inp = sod_input(gas)
        f1 = riemann.curve_velocity(gas, "1-from-left", inp.left.p, inp.left)
        f3 = riemann.curve_velocity(gas, "3-from-right", inp.right.p, inp.right)
        assert f1 == inp.left.v
        assert f3 == inp.right.v

    def test_strict_monotonicity(self, gas):
        inp = sod_input(gas)
        ps = [0.05 * 1.09**i for i in range(100)]
        f1 = [riemann.curve_velocity(gas, "1-from-left", p, inp.left) for p in ps]
        f3 = [riemann.curve_velocity(gas, "3-from-right", p, inp.right) for p in ps]
        assert all(a > b for a, b in zip(f1, f1[1:]))
        assert all(a < b for a, b in zip(f3, f3[1:]))

    def test_continuity_at_anchor(self, gas):
        inp = sod_input(gas)
        pL = inp.left.p
        lo = riemann.curve_velocity(gas, "1-from-left", pL * (1.0 - 1e-11), inp.left)
        hi = riemann.curve_velocity(gas, "1-from-left", pL * (1.0 + 1e-11), inp.left)
        assert abs(lo - hi) < 1e-10


class TestSolve:
    def test_equal_states(self, gas):
        left = eos.state_from_primitive(gas, 1.0, 0.2, 1.0)
        sol = riemann.solve(RiemannInput(gas=gas, left=left, right=left))
        assert not sol.vacuum
        assert sol.waves == ()
        assert sol.p_m == left.p and sol.v_m == left.v

    def test_pure_contact(self, gas):
        left = eos.state_from_primitive(gas, 1.0, 0.2, 1.0)
        right = eos.state_from_primitive(gas, 2.0, 0.2, 1.0)
        sol = riemann.solve(RiemannInput(gas=gas, left=left, right=right))
        assert [w.kind for w in sol.waves] == ["contact"]
        assert sol.waves[0].speed == pytest.approx(0.2)

    def test_mirror_symmetric_expansion(self, gas):
        sol = riemann.solve(mirror_input(gas, 0.2))
        assert not sol.vacuum
        kinds = [w.kind for w in sol.waves]
        assert kinds == ["rarefaction", "rarefaction"]
        assert abs(sol.v_m) < 1e-10
        assert sol.p_m < 1.0
        if gas is MONO:
            assert abs(sol.p_m - MIRROR_PM_MONO) < 1e-8

    def test_sod_fixture(self, gas):
        sol = riemann.solve(sod_input(gas))
        assert abs(sol.p_m - SOD_PM[gas]) < 1e-8
        assert abs(sol.v_m - SOD_VM[gas]) < 1e-8
        assert [w.kind for w in sol.waves] == ["rarefaction", "contact", "shock"]
        assert [w.family for w in sol.waves] == [1, 2, 3]

    def test_wave_speeds_ordered(self, gas):
        sol = riemann.solve(sod_input(gas))
        speeds = []
        for w in sol.waves:
            speeds.extend([w.speed_lo, w.speed_hi])
        assert speeds == sorted(speeds)

    def test_swap_mirror_consistency(self, gas):
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        flipped = RiemannInput(
            gas=gas,
            left=eos.state_from_primitive(gas, 0.125, 0.0, 0.1),
            right=eos.state_from_primitive(gas, 1.0, 0.0, 1.0),
        )
        sol2 = riemann.solve(flipped)
        assert abs(sol2.p_m - sol.p_m) < 1e-10
        assert abs(sol2.v_m + sol.v_m) < 1e-10

    def test_contact_continuity(self, gas):
        sol = riemann.solve(sod_input(gas))
        assert abs(sol.u_ml.p - sol.u_mr.p) < 1e-10 * sol.p_m
        assert abs(sol.u_ml.v - sol.u_mr.v) < 1e-10
        assert sol.u_ml.shat != sol.u_mr.shat

    def test_intermediate_entropies(self, gas):
        # 1-rarefaction keeps the left entropy; the 3-shock raises the
        # right-side entropy label above the right state's
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        assert sol.u_ml.shat == inp.left.shat
        assert sol.u_mr.shat > inp.right.shat

    def test_shock_admissibility_in_solution(self, gas):
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        shock = next(w for w in sol.waves if w.kind == "shock")
        res = waves.hugoniot_residual(gas, sol.u_mr, inp.right, shock.speed)
        assert max(abs(r) for r in res) < 1e-9
        eta = waves.entropy_production(gas, sol.u_mr, inp.right, shock.speed)
        assert eta > 0.0

    def test_pressures_one_ulp_apart(self, gas):
        # the bracket evaluates a shock of strength ~1e-16 on the lower side
        p_hi = math.nextafter(0.05, 1.0)
        sol = riemann.solve(scaled_input(gas, (1.0, 0.0, 0.05), (1.0, 0.5, p_hi),
                                         eos.DEFAULT_UNITS))
        ref = riemann.solve(scaled_input(gas, (1.0, 0.0, 0.05), (1.0, 0.5, 0.05),
                                         eos.DEFAULT_UNITS))
        assert abs(sol.p_m / ref.p_m - 1.0) < 1e-10
        assert abs(sol.v_m - ref.v_m) < 1e-10

    def test_strong_expansion_vacuum(self, gas):
        sol = riemann.solve(mirror_input(gas, 0.9999))
        assert sol.vacuum
        assert sol.p_m is None and sol.u_ml is None
        kinds = [w.kind for w in sol.waves]
        assert kinds == ["rarefaction", "vacuum_edge", "rarefaction"]


class TestSample:
    def test_left_of_leftmost_wave(self, gas):
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        assert riemann.sample(sol, -0.99) is inp.left

    def test_right_of_rightmost_wave(self, gas):
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        assert riemann.sample(sol, 0.99) is inp.right

    def test_mirror_midpoint_velocity(self, gas):
        sol = riemann.solve(mirror_input(gas, 0.2))
        assert abs(riemann.sample(sol, 0.0).v) < 1e-10

    def test_fan_interior_characteristic_condition(self, gas):
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        fan = sol.waves[0]
        assert fan.kind == "rarefaction"
        for i in range(1, 21):
            xi = fan.speed_lo + (fan.speed_hi - fan.speed_lo) * i / 21.0
            st_ = riemann.sample(sol, xi)
            lam1 = waves.eigenvalues(gas, st_)[0]
            assert abs(lam1 - xi) < 1e-8

    def test_fan_sample_invariant_calls(self, gas, monkeypatch):
        # one root in the coldness: the anchor's J once, one J per
        # evaluation of the objective and one for the returned state
        sol = riemann.solve(sod_input(gas))
        fan = sol.waves[0]
        riemann.sample(sol, 0.5 * (fan.speed_lo + fan.speed_hi))
        invariant = eos.invariant
        calls = []

        def counted(gas_, gamma):
            calls.append(gamma)
            return invariant(gas_, gamma)

        monkeypatch.setattr(eos, "invariant", counted)
        for t in (0.1, 0.3, 0.7, 0.9):
            del calls[:]
            riemann.sample(sol, fan.speed_lo + t * (fan.speed_hi - fan.speed_lo))
            assert 4 <= len(calls) <= 14

    def test_star_regions(self, gas):
        sol = riemann.solve(sod_input(gas))
        eps = 1e-6
        st_l = riemann.sample(sol, sol.v_m - eps)
        st_r = riemann.sample(sol, sol.v_m + eps)
        assert abs(st_l.p - sol.p_m) < 1e-12
        assert abs(st_r.p - sol.p_m) < 1e-12
        assert st_l.shat == sol.u_ml.shat
        assert st_r.shat == sol.u_mr.shat

    def test_right_star_beside_3_fan(self, gas):
        # R C R: between the contact and the 3-fan head lies u_mr
        inp = scaled_input(gas, (0.3, -0.2, 1.0), (1.5, 0.25, 0.5), eos.DEFAULT_UNITS)
        sol = riemann.solve(inp)
        assert [w.kind for w in sol.waves] == ["rarefaction", "contact", "rarefaction"]
        xi = 0.5 * (sol.v_m + sol.waves[2].speed_lo)
        assert riemann.classify_region(sol, xi) == "right-star"
        assert riemann.sample(sol, xi) is sol.u_mr

    def test_weak_solution_across_shock(self, gas):
        # flux balance over a cell straddling only the shock
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        shock = next(w for w in sol.waves if w.kind == "shock")
        ua = riemann.sample(sol, shock.speed - 1e-3)
        ub = riemann.sample(sol, shock.speed + 1e-3)
        res = waves.hugoniot_residual(gas, ua, ub, shock.speed)
        assert max(abs(r) for r in res) < 1e-8

    def test_main_field_continuous_across_fan(self, gas):
        inp = sod_input(gas)
        sol = riemann.solve(inp)
        fan = sol.waves[0]
        xis = [fan.speed_lo + (fan.speed_hi - fan.speed_lo) * i / 30.0 for i in range(31)]
        comps = [eos.main_field(gas, riemann.sample(sol, xi)) for xi in xis]
        for a, b in zip(comps, comps[1:]):
            for x, y in zip(a, b):
                assert math.isfinite(x) and abs(x - y) < 0.05 * max(1.0, abs(x))

    def test_vacuum_sampling(self, gas):
        sol = riemann.solve(mirror_input(gas, 0.9999))
        fan1, edge, fan3 = sol.waves
        inside = riemann.sample(sol, 0.0)
        assert inside.is_vacuum
        assert inside.v == 0.0
        near_left_edge = riemann.sample(sol, edge.speed_lo + 1e-9)
        assert near_left_edge.is_vacuum
        # interpolated marker velocity tracks xi inside the region
        assert abs(near_left_edge.v - (edge.speed_lo + 1e-9)) < 1e-12
        st_fan = riemann.sample(sol, 0.5 * (fan1.speed_lo + fan1.speed_hi))
        assert not st_fan.is_vacuum

    @given(st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_sampled_states_physical(self, xi):
        sol = riemann.solve(sod_input(MONO))
        st_ = riemann.sample(sol, xi)
        assert abs(st_.v) < 1.0
        assert st_.p >= 0.0


class TestVacuumCriterion:
    def test_threshold_location(self, gas):
        w_star = VACUUM_W_STAR[gas]

        def has_vacuum(w):
            return riemann.solve(mirror_input(gas, w)).vacuum

        lo, hi = w_star - 1e-4, min(w_star + 1e-4, 0.99999999)
        assert not has_vacuum(lo) and has_vacuum(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if has_vacuum(mid):
                hi = mid
            else:
                lo = mid
            if hi - lo < 2e-9:
                break
        assert abs(0.5 * (lo + hi) - w_star) < 1e-8

    def test_flag_matches_invariant_ordering(self, gas):
        for w in (0.5, 0.99, 0.9999):
            inp = mirror_input(gas, w)
            sol = riemann.solve(inp)
            rbar_l, _ = waves.riemann_invariants(gas, inp.left)
            _, sbar_r = waves.riemann_invariants(gas, inp.right)
            assert sol.vacuum == (rbar_l <= sbar_r + 1e-10)

    def test_boundary_case_flag(self, gas):
        # construct data from the invariants themselves: exactly critical
        w_star = VACUUM_W_STAR[gas]
        sol = riemann.solve(mirror_input(gas, w_star))
        assert sol.vacuum  # onset treated as vacuum, flagged as boundary
        assert sol.vacuum_boundary


class TestUnits:
    """A solve in Units(c=2) is the c = 1 solve with p scaled by c^2 and
    velocities by c; the coldness does not change."""

    @pytest.mark.parametrize("problem", ["sod", "mirror"])
    def test_light_speed_scaling(self, gas, problem):
        c = 2.0
        units = Units(c=c)
        if problem == "sod":
            inputs = sod_input(gas), sod_input(gas, units)
        else:
            inputs = mirror_input(gas, 0.2), mirror_input(gas, 0.2, units=units)
        one = riemann.solve(inputs[0])
        two = riemann.solve(inputs[1], units)
        assert abs(two.p_m / c**2 - one.p_m) < 1e-10 * one.p_m
        assert abs(two.v_m / c - one.v_m) < 1e-10
        assert [w.kind for w in two.waves] == [w.kind for w in one.waves]
        for w1, w2 in zip(one.waves, two.waves):
            assert abs(w2.speed_lo / c - w1.speed_lo) < 1e-10
            assert abs(w2.speed_hi / c - w1.speed_hi) < 1e-10
        for a, b in ((one.u_ml, two.u_ml), (one.u_mr, two.u_mr)):
            assert abs(b.gamma / a.gamma - 1.0) < 1e-10
        assert abs(riemann.sample(two, 0.0, units).v - two.v_m) < 1e-10 * c
        fan = one.waves[0]
        for xi in (fan.speed_lo, 0.5 * (fan.speed_lo + fan.speed_hi), fan.speed_hi):
            a = riemann.sample(one, xi)
            b = riemann.sample(two, xi * c, units)
            assert abs(b.v / c - a.v) < 1e-10
            assert abs(b.p / c**2 - a.p) < 1e-10 * a.p


positive = st.floats(min_value=0.05, max_value=20.0)
speed = st.floats(min_value=-0.95, max_value=0.95)


@given(
    st.sampled_from([MONO, DIA]),
    st.tuples(positive, speed, positive),
    st.tuples(positive, speed, positive),
)
@settings(max_examples=25, deadline=None)
def test_swap_mirrors_solution(gas, left, right):
    """Swapping the sides and reversing the velocities mirrors the solution:
    the same p_m, v_m -> -v_m, and the waves in reverse order with their
    families exchanged and their speeds negated."""
    sol = riemann.solve(scaled_input(gas, left, right, eos.DEFAULT_UNITS))
    swapped = scaled_input(gas, right, left, eos.DEFAULT_UNITS)
    swapped = RiemannInput(gas=gas, left=swapped.left.mirrored(), right=swapped.right.mirrored())
    mir = riemann.solve(swapped)
    assert mir.vacuum == sol.vacuum
    if not sol.vacuum:
        assert abs(mir.p_m / sol.p_m - 1.0) < 1e-10
        assert abs(mir.v_m + sol.v_m) < 1e-10
    assert len(mir.waves) == len(sol.waves)
    for w, m in zip(sol.waves, reversed(mir.waves)):
        assert (m.kind, m.family) == (w.kind, 4 - w.family)
        assert abs(m.speed_lo + w.speed_hi) < 1e-10
        assert abs(m.speed_hi + w.speed_lo) < 1e-10


#: Gauss-Legendre nodes per fan, in the rapidity atanh(xi), where the Lorentz
#: factors of fans reaching |xi| -> 1 stay tame; 16 nodes met the law to
#: 5e-8 at worst on 400 random problems, so the bound below has a margin.
LAW_NODES = 16
#: bound on each component's defect, relative to the law's largest term
LAW_TOL = 1e-6


def _profile_integral(sol):
    """int_{-1}^{1} U(xi) dxi over the sampled profile: exact on the constant
    and vacuum pieces between wave speeds, Gauss-Legendre on the fans."""
    nodes, weights = numpy.polynomial.legendre.leggauss(LAW_NODES)
    speeds = {s for w in sol.waves for s in (w.speed_lo, w.speed_hi)}
    breaks = sorted(speeds | {-1.0, 1.0})
    total = [0.0, 0.0, 0.0]
    for a, b in zip(breaks, breaks[1:]):
        mid = 0.5 * (a + b)
        if riemann.classify_region(sol, mid).endswith("fan"):
            ea, eb = math.atanh(a), math.atanh(b)
            points = []
            for t, w in zip(nodes, weights):
                xi = math.tanh(0.5 * (ea + eb) + 0.5 * (eb - ea) * t)
                points.append((xi, 0.5 * (eb - ea) * w * (1.0 - xi * xi)))
        else:
            points = [(mid, b - a)]
        for xi, w in points:
            u = waves.conserved(riemann.sample(sol, xi))
            total = [acc + w * ui for acc, ui in zip(total, u)]
    return total


def _side(log_gamma, log_p, rapidity):
    p = 10.0**log_p
    return (10.0**log_gamma * p, math.tanh(rapidity), p)


side = st.builds(
    _side,
    st.floats(min_value=-6.0, max_value=4.0),  # coldness across the window
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-7.0, max_value=7.0),  # |v| up to 1 - 1.7e-6
)


@given(st.sampled_from([MONO, DIA]), side, side, st.booleans())
@settings(max_examples=40, deadline=None)
def test_integral_conservation_law(gas, left, right, outgoing):
    """A self-similar solution satisfies
    int_a^b U dxi = b U(b) - a U(a) - (F(U(b)) - F(U(a))); with a = -1 and
    b = 1 (units of c) every wave lies inside, so the law checks fans,
    shocks, contacts and vacuum together.  `outgoing` sends the two sides
    apart, toward vacuum."""
    if outgoing:
        left = (left[0], -abs(left[1]), left[2])
        right = (right[0], abs(right[1]), right[2])
    sol = riemann.solve(scaled_input(gas, left, right, eos.DEFAULT_UNITS))
    integral = _profile_integral(sol)
    a, b = -1.0, 1.0
    ua, ub = riemann.sample(sol, a), riemann.sample(sol, b)
    terms = (waves.conserved(ub), waves.conserved(ua), waves.flux(ub), waves.flux(ua))
    for i, (ub_i, ua_i, fb_i, fa_i) in enumerate(zip(*terms)):
        rhs = b * ub_i - a * ua_i - (fb_i - fa_i)
        scale = max(abs(b * ub_i), abs(a * ua_i), abs(fb_i), abs(fa_i))
        assert abs(integral[i] - rhs) <= LAW_TOL * scale, (i, integral[i], rhs)


class TestSerialization:
    def test_solution_document_schema(self, gas):
        sol = riemann.solve(sod_input(gas))
        doc = json.loads(sol.to_json())
        assert set(doc) == {
            "gas", "left", "right", "vacuum", "p_m", "v_m", "waves", "u_ml", "u_mr",
        }
        assert doc["gas"] == gas.value
        kinds = [w["kind"] for w in doc["waves"]]
        assert kinds == ["rarefaction", "contact", "shock"]
        assert "head" in doc["waves"][0] and "speed" in doc["waves"][1]

    def test_vacuum_document(self, gas):
        sol = riemann.solve(mirror_input(gas, 0.9999))
        doc = json.loads(sol.to_json())
        assert doc["vacuum"] is True
        assert doc["p_m"] is None
        assert doc["vacuum_boundary"] is False

    def test_sample_csv(self, gas):
        sol = riemann.solve(sod_input(gas))
        text = riemann.sample_csv(sol, [-0.9, 0.0, 0.9])
        lines = text.strip().split("\n")
        assert lines[0] == "xi,rho,v,p,gamma,shat,region"
        assert len(lines) == 4
        assert lines[1].endswith("left")
        assert lines[3].endswith("right")
