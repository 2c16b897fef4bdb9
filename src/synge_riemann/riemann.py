"""Exact solution of the Riemann problem.

The non-vacuum solution intersects the forward 1-curve from the left state
with the backward 3-curve from the right state in the p-v plane; both are
strictly monotone, so the intersection is unique and safely bracketed.
Vacuum forms exactly when the acoustic invariants satisfy rbar_L <= sbar_R,
in which case two rarefactions to zero energy flank a vacuum region.

Self-similar sampling resolves rarefaction fans by root-finding the
characteristic condition lambda(u(xi)) = xi in the coldness along the
isentrope; lambda is monotone there by genuine nonlinearity.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from . import eos, waves
from ._roots import brentq
from .eos import DEFAULT_UNITS, FluidState, GasKind
from .errors import BracketError, ConvergenceError, DomainError

#: tolerance stack: curve evaluations 1e-10 -> intersection 1e-10 -> sampler 1e-8
INTERSECTION_TOL = 1e-10
VACUUM_BAND = 1e-10
ZERO_STRENGTH = 1e-12

#: coldness range for curve construction inside the solver; wider than the
#: documented input window so near-vacuum / strong-shock intermediate states
#: stay representable (the asymptotic evaluation only improves out there)
_SOLVER_WINDOW = eos.EXTENDED_WINDOW


@dataclass(frozen=True)
class RiemannInput:
    gas: GasKind
    left: FluidState
    right: FluidState


@dataclass(frozen=True)
class Wave:
    """One elementary wave.  Shocks and contacts carry a single speed
    (speed_lo == speed_hi); fans carry [head, tail] edges; the vacuum_edge
    pseudo-wave carries the two boundary speeds of the vacuum region."""

    family: int
    kind: str  # "shock" | "rarefaction" | "contact" | "vacuum_edge"
    speed_lo: float
    speed_hi: float

    @property
    def speed(self):
        return self.speed_lo

    def to_dict(self):
        if self.kind in ("shock", "contact"):
            return {"family": self.family, "kind": self.kind, "speed": self.speed_lo}
        return {
            "family": self.family,
            "kind": self.kind,
            "head": self.speed_lo,
            "tail": self.speed_hi,
        }


@dataclass(frozen=True)
class RiemannSolution:
    input: RiemannInput
    vacuum: bool
    waves: Tuple[Wave, ...]
    u_ml: Optional[FluidState]
    u_mr: Optional[FluidState]
    p_m: Optional[float]
    v_m: Optional[float]
    vacuum_boundary: bool = False
    #: invariants of the data, kept for the sampler and the vacuum edges
    rbar_left: float = 0.0
    sbar_right: float = 0.0

    def to_dict(self):
        d = {
            "gas": self.input.gas.value,
            "left": self.input.left.to_dict(),
            "right": self.input.right.to_dict(),
            "vacuum": self.vacuum,
            "p_m": self.p_m,
            "v_m": self.v_m,
            "waves": [w.to_dict() for w in self.waves],
            "u_ml": self.u_ml.to_dict() if self.u_ml is not None else None,
            "u_mr": self.u_mr.to_dict() if self.u_mr is not None else None,
        }
        if self.vacuum:
            d["vacuum_boundary"] = self.vacuum_boundary
        return d

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def curve_velocity(gas, side, p, anchor, units=DEFAULT_UNITS, window=_SOLVER_WINDOW):
    """Composite wave-curve velocity f_1(p; left data) or f_3(p; right data).

    side "1-from-left": rarefaction for p < p_anchor, shock for p > p_anchor,
    strictly decreasing in p.  side "3-from-right" is the mirror image,
    strictly increasing.
    """
    if side == "1-from-left":
        if p > anchor.p:
            return waves.shock_state(gas, anchor, 1, p, units, window).state.v
        return waves.rarefaction_state(gas, anchor, 1, p, units, window).v
    if side == "3-from-right":
        return -curve_velocity(gas, "1-from-left", p, anchor.mirrored(), units, window)
    raise DomainError(f"side must be '1-from-left' or '3-from-right', got {side!r}")


def _acoustic_wave(gas, anchor, family, p_m, units):
    """Build the family-1 or family-3 wave of the solution and its inner
    state.  `anchor` is the known outer state (left data for family 1, right
    data for family 3)."""
    if abs(anchor.p - p_m) < ZERO_STRENGTH * max(anchor.p, p_m):
        return None, anchor
    if p_m > anchor.p:
        sp = waves.shock_state(gas, anchor, family, p_m, units, _SOLVER_WINDOW)
        return Wave(family=family, kind="shock", speed_lo=sp.s, speed_hi=sp.s), sp.state
    st = waves.rarefaction_state(gas, anchor, family, p_m, units, _SOLVER_WINDOW)
    lam_out = waves._acoustic_lambda(gas, anchor, family, units)
    lam_in = waves._acoustic_lambda(gas, st, family, units)
    if family == 1:
        wave = Wave(family=1, kind="rarefaction", speed_lo=lam_out, speed_hi=lam_in)
    else:
        wave = Wave(family=3, kind="rarefaction", speed_lo=lam_in, speed_hi=lam_out)
    return wave, st


def solve(riemann_input, units=DEFAULT_UNITS):
    """Exact Riemann solution for the given left/right data."""
    gas = riemann_input.gas
    left = riemann_input.left
    right = riemann_input.right

    rbar_l, _ = waves.riemann_invariants(gas, left, units)
    _, sbar_r = waves.riemann_invariants(gas, right, units)

    if rbar_l <= sbar_r + VACUUM_BAND * max(1.0, abs(rbar_l), abs(sbar_r)):
        boundary = abs(rbar_l - sbar_r) <= VACUUM_BAND * max(1.0, abs(rbar_l), abs(sbar_r))
        c = units.c
        v_edge_l = c * math.tanh(rbar_l)
        v_edge_r = c * math.tanh(sbar_r)
        lam1 = waves._acoustic_lambda(gas, left, 1, units)
        lam3 = waves._acoustic_lambda(gas, right, 3, units)
        wave_list = (
            Wave(family=1, kind="rarefaction", speed_lo=lam1, speed_hi=v_edge_l),
            Wave(family=2, kind="vacuum_edge", speed_lo=v_edge_l, speed_hi=v_edge_r),
            Wave(family=3, kind="rarefaction", speed_lo=v_edge_r, speed_hi=lam3),
        )
        return RiemannSolution(
            input=riemann_input, vacuum=True, waves=wave_list,
            u_ml=None, u_mr=None, p_m=None, v_m=None,
            vacuum_boundary=boundary, rbar_left=rbar_l, sbar_right=sbar_r,
        )

    def phi(p):
        return curve_velocity(gas, "1-from-left", p, left, units) - curve_velocity(
            gas, "3-from-right", p, right, units
        )

    # equal-state fast path
    if (
        abs(left.p - right.p) < ZERO_STRENGTH * left.p
        and abs(left.v - right.v) < ZERO_STRENGTH * max(1.0, abs(left.v))
    ):
        p_m, v_m = left.p, left.v
        u_ml, u_mr = left, right
        wave_list = []
        if abs(left.shat - right.shat) > 1e-14 * max(1.0, abs(left.shat)):
            wave_list.append(Wave(family=2, kind="contact", speed_lo=v_m, speed_hi=v_m))
        return RiemannSolution(
            input=riemann_input, vacuum=False, waves=tuple(wave_list),
            u_ml=u_ml, u_mr=u_mr, p_m=p_m, v_m=v_m,
            rbar_left=rbar_l, sbar_right=sbar_r,
        )

    # bracket: phi > 0 at small p (non-vacuum criterion), expand upward for
    # the sign change; monotone decrease makes this safe
    p_lo = min(left.p, right.p) * 1e-6
    p_hi = max(left.p, right.p)
    trace = [(p_lo, p_hi)]
    f_lo = phi(p_lo)
    if f_lo <= 0.0:
        # intersection below p_lo: shrink further (deep expansion)
        for _ in range(40):
            p_hi, f_hi = p_lo, f_lo
            p_lo *= 1e-3
            trace.append((p_lo, p_hi))
            f_lo = phi(p_lo)
            if f_lo > 0.0:
                break
        else:
            raise BracketError("intersection bracket exhausted downward", bracket=trace)
    else:
        f_hi = phi(p_hi)
        tries = 0
        while f_hi > 0.0:
            tries += 1
            if tries > 200:
                raise BracketError("intersection bracket exhausted upward", bracket=trace)
            p_lo, f_lo = p_hi, f_hi
            p_hi *= 2.0
            trace.append((p_lo, p_hi))
            f_hi = phi(p_hi)

    p_m = brentq(phi, p_lo, p_hi, f_lo, f_hi, xtol=1e-300)
    v1 = curve_velocity(gas, "1-from-left", p_m, left, units)
    v3 = curve_velocity(gas, "3-from-right", p_m, right, units)
    if abs(v1 - v3) > INTERSECTION_TOL * max(1.0, abs(v1)):
        raise ConvergenceError(
            f"curve intersection residual {abs(v1 - v3):.2e} at p_m={p_m!r}"
        )
    v_m = 0.5 * (v1 + v3)

    wave1, u_ml = _acoustic_wave(gas, left, 1, p_m, units)
    wave3, u_mr = _acoustic_wave(gas, right, 3, p_m, units)

    wave_list = []
    if wave1 is not None:
        wave_list.append(wave1)
    if abs(u_ml.shat - u_mr.shat) > 1e-12 * max(1.0, abs(u_ml.shat)):
        wave_list.append(Wave(family=2, kind="contact", speed_lo=v_m, speed_hi=v_m))
    if wave3 is not None:
        wave_list.append(wave3)

    return RiemannSolution(
        input=riemann_input, vacuum=False, waves=tuple(wave_list),
        u_ml=u_ml, u_mr=u_mr, p_m=p_m, v_m=v_m,
        rbar_left=rbar_l, sbar_right=sbar_r,
    )


def _fan_state(gas, outer, family, xi, units):
    """State inside a family-1/3 fan at similarity coordinate xi: the point
    of the rarefaction curve from `outer` where lambda_family = xi.

    lambda_family is monotone in the coldness along the curve (genuine
    nonlinearity), so one bracketed root in ln gamma on lambda(gamma) = xi
    finds it; the pressure then follows from the isentrope.  The outer
    state's invariant is computed once, outside the root's objective.  In
    vacuum-adjacent fans the coldness is capped at the extended window and
    the vacuum marker is returned past the cap.
    """
    lam_outer = waves._acoustic_lambda(gas, outer, family, units)
    if (xi <= lam_outer) if family == 1 else (xi >= lam_outer):
        return outer
    # lambda_1 rises and lambda_3 falls as the coldness grows along the fan
    sign = 1.0 if family == 1 else -1.0
    j_outer = eos.invariant(gas, outer.gamma)

    def h(lg):
        gamma = math.exp(lg)
        v = waves._rarefaction_velocity(gas, outer, family, gamma, units, j_outer)
        cs = eos.rest_frame_speed(gas, gamma, window=_SOLVER_WINDOW, units=units)
        return sign * (waves._compose(v, -sign * cs, units.c) - xi)

    lo, hi = math.log(outer.gamma), math.log(_SOLVER_WINDOW[1])
    h_lo = h(lo)
    if h_lo >= 0.0:  # xi within rounding of the head characteristic
        return outer
    h_hi = h(hi)
    if h_hi <= 0.0:
        # beyond the representable tail of a vacuum-adjacent fan
        return FluidState.vacuum(v=xi)
    gamma = math.exp(brentq(h, lo, hi, h_lo, h_hi, xtol=1e-14))
    p = eos.pressure_isentrope(gas, gamma, outer.shat, window=_SOLVER_WINDOW, units=units)
    return waves._rarefaction_at(gas, outer, family, gamma, p, units, j_outer)


def classify_region(solution, xi):
    """Label of the region of `solution` that xi falls in: left, 1-fan,
    left-star, vacuum, right-star, 3-fan or right."""
    if solution.vacuum:
        fan1, edge, fan3 = solution.waves
        if xi <= fan1.speed_lo:
            return "left"
        if xi < edge.speed_lo:
            return "1-fan"
        if xi <= edge.speed_hi:
            return "vacuum"
        if xi < fan3.speed_hi:
            return "3-fan"
        return "right"
    wave1 = next((w for w in solution.waves if w.family == 1), None)
    wave3 = next((w for w in solution.waves if w.family == 3), None)
    if wave1 is not None:
        if xi < wave1.speed_lo:
            return "left"
        if wave1.kind == "rarefaction" and xi <= wave1.speed_hi:
            return "1-fan"
        if wave1.kind == "shock" and xi == wave1.speed_lo:
            return "left"
    elif xi < solution.v_m:
        return "left"
    if xi <= solution.v_m:
        return "left-star"
    if wave3 is not None:
        if xi > wave3.speed_hi:
            return "right"
        if wave3.kind == "rarefaction":
            return "3-fan" if xi >= wave3.speed_lo else "right-star"
        return "right-star" if xi < wave3.speed_lo else "right"
    return "right-star"


def _region_state(solution, region, xi, units):
    gas = solution.input.gas
    if region == "left":
        return solution.input.left
    if region == "1-fan":
        return _fan_state(gas, solution.input.left, 1, xi, units)
    if region == "left-star":
        return solution.u_ml
    if region == "vacuum":
        return FluidState.vacuum(v=xi)
    if region == "right-star":
        return solution.u_mr
    if region == "3-fan":
        return _fan_state(gas, solution.input.right, 3, xi, units)
    return solution.input.right


def sample(solution, xi, units=DEFAULT_UNITS):
    """Self-similar state u(xi = x/t) of a RiemannSolution.

    Total in xi: constant states outside the waves, fan interiors resolved
    by the characteristic condition, a marker state inside vacuum regions.
    """
    return _region_state(solution, classify_region(solution, xi), xi, units)


SAMPLE_CSV_HEADER = "xi,rho,v,p,gamma,shat,region"


def sample_csv(solution, xi_values, units=DEFAULT_UNITS):
    lines = [SAMPLE_CSV_HEADER]
    for xi in xi_values:
        region = classify_region(solution, xi)
        st = _region_state(solution, region, xi, units)
        lines.append(
            f"{xi:.17g},{st.rho:.17g},{st.v:.17g},{st.p:.17g},"
            f"{st.gamma:.17g},{st.shat:.17g},{region}"
        )
    return "\n".join(lines) + "\n"
