"""Eigenstructure, Riemann invariants, and the elementary wave curves.

Shocks are built from the relativistic Hugoniot (Taub) adiabat plus the
rest-frame jump relations, in the frame where the anchor state is at rest,
and return to the lab frame by relativistic velocity composition, which is
exact in one dimension.  Rarefactions carry the anchor's acoustic Riemann
invariant: artanh(v/c) -/+ J(gamma) is constant along them, with J the
dimensionless integral `eos.invariant` of the coldness alone.
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

from . import eos
from ._roots import brentq
from .eos import DEFAULT_UNITS, DEFAULT_WINDOW, FluidState, GasKind
from .errors import BracketError, ConvergenceError, DomainError

FAMILIES = (1, 2, 3)

#: tolerances of the construction layer
RH_TOL = 1e-9
#: relative shock strength p/p_L - 1 at or below which the shock is the
#: anchor's acoustic wave: the Taub root cannot resolve it (its bracket fails
#: or e - e_L rounds to 0 up to about 1e-13), and the velocity it would add
#: is below 1e-12 c
WEAK_SHOCK = 1e-12


def _require_family(family, acoustic_only=True):
    allowed = (1, 3) if acoustic_only else FAMILIES
    if family not in allowed:
        raise DomainError(f"family must be in {allowed}, got {family!r}")


def eigenvalues(gas, state, units=DEFAULT_UNITS):
    """(lambda_1, lambda_2, lambda_3); strictly ordered, all |.| < c.

    lambda_2 = v; the acoustic pair composes v with the rest-frame sound
    speed c/sqrt(e_p) relativistically.
    """
    if state.is_vacuum:
        return (state.v, state.v, state.v)
    c = units.c
    cs = eos.rest_frame_speed(gas, state.gamma, window=eos.EXTENDED_WINDOW, units=units)
    v = state.v
    lam1 = (v - cs) / (1.0 - v * cs / (c * c))
    lam3 = (v + cs) / (1.0 + v * cs / (c * c))
    return (lam1, v, lam3)


def _acoustic_lambda(gas, state, family, units=DEFAULT_UNITS):
    lams = eigenvalues(gas, state, units)
    return lams[0] if family == 1 else lams[2]


def riemann_invariants(gas, state, units=DEFAULT_UNITS):
    """(rbar, sbar): artanh(v/c) +/- J(gamma).

    rbar is constant across 1-rarefactions, sbar across 3-rarefactions;
    their ordering across the initial jump decides vacuum formation.
    """
    w = math.atanh(state.v / units.c)
    if state.is_vacuum:
        return (w, w)
    J = eos.invariant(gas, state.gamma)
    return (w + J, w - J)


def _compose(v1, v2, c):
    """Relativistic velocity composition (v1 + v2)/(1 + v1 v2/c^2)."""
    return (v1 + v2) / (1.0 + v1 * v2 / (c * c))


# ---------------------------------------------------------------------------
# rarefaction branch


def rarefaction_state(gas, left, family, p, units=DEFAULT_UNITS, window=DEFAULT_WINDOW):
    """State on the family-1 (or forward family-3) rarefaction curve from
    `left` at pressure p (p <= p_anchor: expansion side).

    The coldness follows from the carried entropy, gamma = gamma_from(p, shat);
    `_rarefaction_at` then builds the state there.
    """
    _require_family(family)
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p!r}")
    if p > left.p * (1.0 + 1e-14):
        raise DomainError(
            f"rarefaction side requires p <= p_anchor: p={p!r}, p_anchor={left.p!r}"
        )
    if p == left.p:
        return left
    gamma = eos.gamma_from(gas, p, left.shat, window=window, units=units)
    return _rarefaction_at(gas, left, family, gamma, p, units, eos.invariant(gas, left.gamma))


def _rarefaction_velocity(gas, left, family, gamma, units, j_left):
    """Velocity at coldness gamma on the rarefaction curve from `left`,
    whose invariant is j_left = J(gamma_a):
    artanh(v/c) = artanh(v_a/c) -/+ (J(gamma) - J(gamma_a)), the invariant
    rbar (family 1) or sbar (family 3) of the anchor carried over."""
    dJ = eos.invariant(gas, gamma) - j_left
    w = math.atanh(left.v / units.c)
    w = w - dJ if family == 1 else w + dJ
    return units.c * math.tanh(w)


def _rarefaction_at(gas, left, family, gamma, p, units, j_left):
    """State on the rarefaction curve from `left` (invariant j_left) at
    coldness gamma, where the isentrope of `left` passes through pressure p."""
    return FluidState(
        p=p,
        v=_rarefaction_velocity(gas, left, family, gamma, units, j_left),
        shat=left.shat,
        gamma=gamma,
        rho=gamma * p / units.c2,
        e=p * eos.energy_ratio(gas, gamma, window=eos.EXTENDED_WINDOW),
    )


# ---------------------------------------------------------------------------
# shock branch


@dataclass(frozen=True)
class ShockPoint:
    """Downstream state of one shock with its lab-frame speed."""

    state: FluidState
    s: float
    family: int
    residuals: Tuple[float, float, float]


def taub_adiabat_residual(gas, left, right_gamma, p):
    """Residual of the Hugoniot (Taub) adiabat
    (e+p)(e+p_L)/n^2 - (e_L+p_L)(e_L+p)/n_L^2 at downstream (right_gamma, p),
    normalized by the left-state magnitude."""
    rL = eos.energy_ratio(gas, left.gamma, window=eos.EXTENDED_WINDOW)
    r = eos.energy_ratio(gas, right_gamma, window=eos.EXTENDED_WINDOW)
    # n proportional to gamma p; the constant cancels between the two sides
    lhs = (r + 1.0) * (r + left.p / p) / (right_gamma * right_gamma)
    rhs = (rL + 1.0) * (rL + p / left.p) / (left.gamma * left.gamma)
    return (lhs - rhs) / abs(rhs)


def _taub_gamma(gas, left, p):
    """Downstream coldness on the compressive branch (p >= p_L): the root of
    the Taub adiabat adjacent to gamma_L, bracketed below it (temperature
    rises across the shock, so the coldness falls)."""
    def F(lg):
        return taub_adiabat_residual(gas, left, math.exp(lg), p)

    hi = math.log(left.gamma)
    f_hi = F(hi)
    # F(gamma_L) < 0 for p > p_L; expand the bracket downward
    lo = hi
    f_lo = f_hi
    step = math.log(2.0)
    lo_lim = math.log(eos.EXTENDED_WINDOW[0])
    while f_lo <= 0.0:
        if lo <= lo_lim:
            raise BracketError(
                "Taub adiabat root not bracketed",
                bracket=(math.exp(lo), math.exp(hi)),
            )
        hi, f_hi = lo, f_lo
        lo = max(lo - step, lo_lim)
        f_lo = F(lo)
        step *= 2.0
    root = brentq(F, lo, hi, f_lo, f_hi, xtol=1e-15)
    return math.exp(root)


def shock_state(gas, left, family, p, units=DEFAULT_UNITS, window=DEFAULT_WINDOW):
    """Downstream state and speed of the family-1 (or mirrored family-3)
    shock from anchor `left` at downstream pressure p >= p_anchor.

    Works in the anchor rest frame: downstream coldness from the Taub
    adiabat, fluid speed from
        vhat^2 = (p - p_L)(e - e_L) c^2 / ((p + e_L)(p_L + e)),
    shock speed from s (e - e_L) = (e + p_L) vhat, then both are composed
    back with the anchor velocity.  All three jump residuals are checked.
    """
    _require_family(family)
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p!r}")
    if p < left.p * (1.0 - 1e-14):
        raise DomainError(
            f"compressive side requires p >= p_anchor: p={p!r}, p_anchor={left.p!r}"
        )
    c = units.c
    if p <= left.p * (1.0 + WEAK_SHOCK):
        s = _acoustic_lambda(gas, left, family, units)
        return ShockPoint(state=left, s=s, family=family, residuals=(0.0, 0.0, 0.0))
    if family == 3:
        sp = shock_state(gas, left.mirrored(), 1, p, units, window)
        return ShockPoint(state=sp.state.mirrored(), s=-sp.s, family=3, residuals=sp.residuals)

    gamma_d = _taub_gamma(gas, left, p)
    r_d = eos.energy_ratio(gas, gamma_d, window=eos.EXTENDED_WINDOW)
    e_d = p * r_d
    e_L, p_L = left.e, left.p
    vhat = -c * math.sqrt((p - p_L) * (e_d - e_L) / ((p + e_L) * (p_L + e_d)))
    s_rest = (e_d + p_L) * vhat / (e_d - e_L)
    v_lab = _compose(left.v, vhat, c)
    s_lab = _compose(left.v, s_rest, c)
    shat_d = eos.entropy(
        gas, gamma_d, gamma_d * p / units.c2, window=eos.EXTENDED_WINDOW, units=units
    )
    state = FluidState(
        p=p, v=v_lab, shat=shat_d, gamma=gamma_d, rho=gamma_d * p / units.c2, e=e_d
    )
    res = hugoniot_residual(gas, left, state, s_lab, units)
    if max(abs(x) for x in res) > RH_TOL:
        raise ConvergenceError(
            f"shock construction residuals {res!r} exceed {RH_TOL:g}"
        )
    return ShockPoint(state=state, s=s_lab, family=family, residuals=res)


def conserved(state, units=DEFAULT_UNITS):
    """Conserved vector (particle, momentum, energy densities) of the 1-D system."""
    c = units.c
    c2 = c * c
    v = state.v
    denom = c2 - v * v
    D = state.rho * c / math.sqrt(denom)
    M = (state.e + state.p) * v / denom
    E = (state.e * c2 + state.p * v * v) / denom
    return (D, M, E)


def flux(state, units=DEFAULT_UNITS):
    c = units.c
    c2 = c * c
    v = state.v
    denom = c2 - v * v
    return (
        state.rho * c * v / math.sqrt(denom),
        (state.e + state.p) * v * v / denom + state.p,
        (state.e + state.p) * c2 * v / denom,
    )


def hugoniot_residual(gas, left, right, s, units=DEFAULT_UNITS):
    """The three jump residuals s [[u]] - [[F(u)]], each normalized by the
    larger flux magnitude of its component."""
    uL = conserved(left, units)
    uR = conserved(right, units)
    fL = flux(left, units)
    fR = flux(right, units)
    out = []
    for i in range(3):
        raw = s * (uR[i] - uL[i]) - (fR[i] - fL[i])
        scale = max(abs(fL[i]), abs(fR[i]), abs(s) * max(abs(uL[i]), abs(uR[i])), 1e-300)
        out.append(raw / scale)
    return tuple(out)


def entropy_production(gas, left, right, s, units=DEFAULT_UNITS):
    """Entropy production rate across a jump, nondimensionalized:
    etahat = -sbar_rest (shat_R - shat_L) evaluated in the frame where the
    literal left state is at rest.  Positive exactly on admissible shocks.
    """
    c = units.c
    s_rest = (s - left.v) / (1.0 - s * left.v / (c * c))
    return -(s_rest / c) * (right.shat - left.shat)


def lax_margins(gas, left, shock, units=DEFAULT_UNITS):
    """(s - lambda(downstream), lambda(upstream) - s); both positive on
    admissible shocks."""
    lam_up = _acoustic_lambda(gas, left, shock.family, units)
    lam_down = _acoustic_lambda(gas, shock.state, shock.family, units)
    return (shock.s - lam_down, lam_up - shock.s)


# ---------------------------------------------------------------------------
# composite curve


@dataclass(frozen=True)
class CurveRow:
    p: float
    v: float
    shat: float
    gamma: float
    kind: str            # "rarefaction" | "shock"
    speed_lo: float
    speed_hi: float


@dataclass(frozen=True)
class CurveTable:
    """Sampled composite wave curve: shock branch on the compressive side of
    the anchor, rarefaction branch on the other, per the entropy conditions."""

    gas: GasKind
    family: int
    anchor: FluidState
    rows: List[CurveRow]

    CSV_HEADER = "p,v,shat,gamma,kind,speed_lo,speed_hi"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.p:.17g},{r.v:.17g},{r.shat:.17g},{r.gamma:.17g},"
                f"{r.kind},{r.speed_lo:.17g},{r.speed_hi:.17g}"
            )
        return "\n".join(lines) + "\n"


def wave_curve(gas, anchor, family, p_grid, units=DEFAULT_UNITS, window=DEFAULT_WINDOW):
    """CurveTable for the composite family-1 or family-3 curve through
    `anchor` at the given pressures (sorted ascending)."""
    _require_family(family)
    rows = []
    for p in p_grid:
        if p <= anchor.p:
            st = rarefaction_state(gas, anchor, family, p, units, window)
            lam_a = _acoustic_lambda(gas, anchor, family, units)
            lam_s = _acoustic_lambda(gas, st, family, units)
            rows.append(
                CurveRow(
                    p=p, v=st.v, shat=st.shat, gamma=st.gamma,
                    kind="rarefaction", speed_lo=min(lam_a, lam_s),
                    speed_hi=max(lam_a, lam_s),
                )
            )
        else:
            sp = shock_state(gas, anchor, family, p, units, window)
            rows.append(
                CurveRow(
                    p=p, v=sp.state.v, shat=sp.state.shat, gamma=sp.state.gamma,
                    kind="shock", speed_lo=sp.s, speed_hi=sp.s,
                )
            )
    return CurveTable(gas=gas, family=family, anchor=anchor, rows=rows)
