"""Constitutive layer for the relativistic monatomic and diatomic ideal gas.

The gas is closed by the kinetic-theory (Juttner-equilibrium) equation of
state: p = rho c^2 / gamma with gamma = m c^2 / (k_B T) the relativistic
coldness, and energy density e = p * r(gamma) where

    monatomic:  r = gamma K_1/K_2 + 3      (Synge energy)
    diatomic:   r = gamma K_0/K_1 + 3      (generalized Synge energy, a = 0)

Everything else (entropy, isentropes, sound speed, specific heats, the
genuine-nonlinearity sign, the acoustic Riemann invariant) follows from r
and the Bessel-ratio identities.
Formulas are evaluated directly from scaled Bessel ratios below gamma = 30
and from exact-coefficient 1/gamma expansions above, where the direct
expressions would cancel catastrophically.

Nondimensional defaults c = m = k_B = 1; the entropy reference absorbs the
kinetic-theory normalization constant, so only entropy differences are
physical and cross-gas entropy comparisons are meaningless.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from . import _series, bessel
from ._roots import brentq
from .errors import BracketError, ConvergenceError, DomainError, WindowError

#: documented accuracy window for the coldness gamma
DEFAULT_WINDOW = (1e-6, 1e4)
#: wider range used internally by the Riemann solver for near-vacuum and
#: strong-shock intermediate states (the asymptotic branches only get more
#: accurate out there; the documented certification still covers
#: DEFAULT_WINDOW).  Near-threshold vacuum localization pushes intermediate
#: pressures to ~(distance to threshold)^5, hence the generous ceiling.
EXTENDED_WINDOW = (1e-14, 1e18)


class GasKind(Enum):
    """Constitutive closure selector.

    MONATOMIC is the a = -1 (classical D = 3) closure, DIATOMIC the a = 0
    closure corresponding to D = 5 internal degrees of freedom.
    """

    MONATOMIC = "monatomic"
    DIATOMIC = "diatomic"


@dataclass(frozen=True)
class Units:
    """Physical constants; defaults give the nondimensional system."""

    c: float = 1.0
    m: float = 1.0
    k_B: float = 1.0
    S0: float = 0.0  # entropy reference

    @property
    def c2(self):
        return self.c * self.c


DEFAULT_UNITS = Units()


def _require_gamma(gamma, window, context=""):
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    if not window[0] <= gamma <= window[1]:
        raise WindowError(gamma, window, context)


class _Cold(NamedTuple):
    """Coldness-only constitutive bundle at one gamma."""

    ratio: float   # K1/K2 (monatomic) or K0/K1 (diatomic)
    r: float       # e/p
    rp: float      # dr/dgamma
    g: float       # d ln p / d gamma at fixed entropy (negative)
    m: float       # gamma * (1 - ratio)


_LIN = {GasKind.MONATOMIC: (4.0, 3.0), GasKind.DIATOMIC: (2.0, 1.0)}
_TABLES = {GasKind.MONATOMIC: _series.MONATOMIC, GasKind.DIATOMIC: _series.DIATOMIC}


@lru_cache(maxsize=16384)
def _cold(gas, gamma):
    lin_rp, lin_g = _LIN[gas]
    if gamma >= _series.LARGE_GAMMA_SWITCH:
        tab = _TABLES[gas]
        eps = 1.0 / gamma
        q = _series.horner(tab["ratio"], eps)
        m = _series.horner(tab["m"], eps)
        rp = _series.horner(tab["rp"], eps)
        g = _series.horner(tab["g"], eps)
        r = gamma * q + 3.0
        return _Cold(q, r, rp, g, m)
    k0s, k1s, k2s, _ = bessel._k_all_scaled(gamma)
    q = k1s / k2s if gas is GasKind.MONATOMIC else k0s / k1s
    r = gamma * q + 3.0
    rp = gamma * q * q + lin_rp * q - gamma
    g = gamma * q * q + lin_g * q - gamma - 4.0 / gamma
    return _Cold(q, r, rp, g, m=gamma * (1.0 - q))


def energy_ratio(gas, gamma, window=DEFAULT_WINDOW):
    """r(gamma) = e/p.  Tends to 3 in the ultra-relativistic limit and to
    gamma + 3/2 (monatomic) or gamma + 5/2 (diatomic) in the classical one."""
    _require_gamma(gamma, window, "energy_ratio")
    return _cold(gas, gamma).r


def e_p(gas, gamma, window=DEFAULT_WINDOW):
    """Isentropic compressibility de/dp|_S; always > 3 (sub-luminal sound)."""
    _require_gamma(gamma, window, "e_p")
    c = _cold(gas, gamma)
    return c.r + c.rp / c.g


def pressure_coldness_slope(gas, gamma, window=DEFAULT_WINDOW):
    """d ln p / d gamma at fixed entropy; strictly negative."""
    _require_gamma(gamma, window, "pressure_coldness_slope")
    return _cold(gas, gamma).g


def gn_indicator(gas, gamma, window=DEFAULT_WINDOW):
    """(e + p) e_pp - 2 e_p (e_p - 1), with the overall 1/p cleared so the
    value depends on gamma alone.  Strictly negative: both acoustic fields
    are genuinely nonlinear."""
    _require_gamma(gamma, window, "gn_indicator")
    if gamma >= _series.LARGE_GAMMA_SWITCH:
        tab = _TABLES[gas]
        return _series.horner(tab["ind"], 1.0 / gamma) * gamma * gamma
    lin_rp, lin_g = _LIN[gas]
    c = _cold(gas, gamma)
    q = c.ratio
    qp = q * q + (lin_rp - 1.0) * q / gamma - 1.0
    common = q * q + 2.0 * gamma * q * qp - 1.0
    rpp = common + lin_rp * qp
    gp = common + lin_g * qp + 4.0 / (gamma * gamma)
    p_epp = c.rp / c.g + (rpp * c.g - c.rp * gp) / c.g**3
    ep = c.r + c.rp / c.g
    return (c.r + 1.0) * p_epp - 2.0 * ep * (ep - 1.0)


def specific_heats(gas, gamma, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """(c_V, c_p) per unit mass; c_p = k_B/m + c_V."""
    _require_gamma(gamma, window, "specific_heats")
    if gamma >= _series.LARGE_GAMMA_SWITCH:
        cv = _series.horner(_TABLES[gas]["cv"], 1.0 / gamma)
    else:
        c = _cold(gas, gamma)
        cv = c.r - gamma * c.rp
    kb_m = units.k_B / units.m
    return kb_m * cv, kb_m * (1.0 + cv)


def rest_frame_speed(gas, gamma, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """Rest-frame acoustic characteristic speed c/sqrt(e_p), in (0, c/sqrt(3))."""
    _require_gamma(gamma, window, "rest_frame_speed")
    c = _cold(gas, gamma)
    return units.c / math.sqrt(c.r + c.rp / c.g)


def _ln_k_scaled(order, gamma):
    """ln(e^gamma K_order(gamma)) without cancellation at large gamma."""
    if gamma >= _series.LARGE_GAMMA_SWITCH:
        poly = _series.K_SCALED_POLY[order]
        return 0.5 * math.log(math.pi / (2.0 * gamma)) + math.log(
            _series.horner(poly, 1.0 / gamma)
        )
    return math.log(bessel._k_all_scaled(gamma)[order])


def _ln_phi(gas, gamma):
    """ln of the isentrope shape: p(gamma, shat) = exp(S0 - shat) * Phi(gamma).

    Phi = K_2/gamma^2 e^{gamma K_1/K_2} (monatomic) or
          K_1/gamma^3 e^{gamma K_0/K_1} (diatomic);
    evaluated as ln K_scaled - gamma (1 - ratio) - (2|3) ln gamma.
    """
    c = _cold(gas, gamma)
    if gas is GasKind.MONATOMIC:
        return _ln_k_scaled(2, gamma) - c.m - 2.0 * math.log(gamma)
    return _ln_k_scaled(1, gamma) - c.m - 3.0 * math.log(gamma)


def pressure_isentrope(gas, gamma, shat, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """Pressure on the isentrope shat at coldness gamma; strictly decreasing
    in gamma."""
    _require_gamma(gamma, window, "pressure_isentrope")
    return math.exp(units.S0 - shat + _ln_phi(gas, gamma))


def entropy(gas, gamma, rho, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """Dimensionless specific entropy shat = (m/k_B) S at (gamma, rho)."""
    _require_gamma(gamma, window, "entropy")
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho!r}")
    # shat = ln Phi + ln gamma - ln(rho c^2) + S0, from p = rho c^2 / gamma
    return _ln_phi(gas, gamma) + math.log(gamma) - math.log(rho * units.c2) + units.S0


def gamma_from(gas, p, shat, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """Invert the isentrope: the unique gamma with p(gamma, shat) = p.

    Monotonicity of p in gamma makes bracketing safe; the bracket expands
    geometrically inside the window and exhaustion raises BracketError.
    """
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p!r}")
    target = math.log(p) + shat - units.S0

    def f(lg):
        return _ln_phi(gas, math.exp(lg)) - target

    lo_lim, hi_lim = math.log(window[0]), math.log(window[1])
    lg = min(max(0.0, lo_lim), hi_lim)
    flg = f(lg)
    step = 2.0
    if flg > 0.0:  # pressure too high at lg: need larger gamma
        a, fa = lg, flg
        b = lg
        while True:
            b = min(b + step, hi_lim)
            fb = f(b)
            if fb <= 0.0:
                break
            if b >= hi_lim:
                raise BracketError(
                    f"gamma_from: p={p!r} below the isentrope image on the window",
                    bracket=(math.exp(a), math.exp(b)),
                )
            a, fa = b, fb
            step *= 2.0
    else:
        b, fb = lg, flg
        a = lg
        while True:
            a = max(a - step, lo_lim)
            fa = f(a)
            if fa >= 0.0:
                break
            if a <= lo_lim:
                raise BracketError(
                    f"gamma_from: p={p!r} above the isentrope image on the window",
                    bracket=(math.exp(a), math.exp(b)),
                )
            b, fb = a, fa
            step *= 2.0
    lg_root = brentq(f, a, b, fa, fb, xtol=1e-15)
    gamma = math.exp(lg_root)
    resid = abs(math.exp(_ln_phi(gas, gamma) - target) - 1.0)
    if resid > 1e-12:
        raise ConvergenceError(
            f"gamma_from residual {resid:.2e} exceeds 1e-12 at gamma={gamma!r}"
        )
    return gamma


@dataclass(frozen=True)
class ThermoPoint:
    """EOS-level state (gamma, rho) with derived p, e, T, shat."""

    gamma: float
    rho: float
    p: float
    e: float
    T: float
    shat: float


def thermo_point(gas, gamma, rho, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    _require_gamma(gamma, window, "thermo_point")
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho!r}")
    p = rho * units.c2 / gamma
    return ThermoPoint(
        gamma=gamma,
        rho=rho,
        p=p,
        e=p * _cold(gas, gamma).r,
        T=units.m * units.c2 / (units.k_B * gamma),
        shat=entropy(gas, gamma, rho, window, units),
    )


@dataclass(frozen=True)
class FluidState:
    """Primitive hydrodynamic state (p, v, shat) with cached gamma, rho, e.

    The cached fields are consistent with (p, shat) through the EOS maps.
    A vacuum marker state (p = rho = e = 0, gamma = inf) stands in for the
    degenerate region of vacuum Riemann solutions.
    """

    p: float
    v: float
    shat: float
    gamma: float
    rho: float
    e: float

    @property
    def is_vacuum(self):
        return self.p == 0.0

    @classmethod
    def vacuum(cls, v=0.0):
        return cls(p=0.0, v=v, shat=math.nan, gamma=math.inf, rho=0.0, e=0.0)

    def mirrored(self):
        """The same state moving the other way (v -> -v)."""
        return replace(self, v=-self.v)

    def to_dict(self, echo=True):
        d = {"rho": self.rho, "v": self.v, "p": self.p}
        if echo:
            d.update({"gamma": self.gamma, "shat": self.shat, "e": self.e})
        return d


def _require_finite(**values):
    for name, x in values.items():
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")


def _require_velocity(v, units):
    if not abs(v) < units.c:
        raise DomainError(f"|v| must be < c={units.c!r}, got {v!r}")


def state_from_primitive(gas, rho, v, p, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """FluidState from (rho, v, p); gamma = rho c^2 / p must land in the window."""
    _require_finite(rho=rho, v=v, p=p)
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho!r}")
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p!r}")
    _require_velocity(v, units)
    gamma = rho * units.c2 / p
    _require_gamma(gamma, window, "state_from_primitive")
    return FluidState(
        p=p,
        v=v,
        shat=entropy(gas, gamma, rho, window, units),
        gamma=gamma,
        rho=rho,
        e=p * _cold(gas, gamma).r,
    )


def state_from_pvs(gas, p, v, shat, window=DEFAULT_WINDOW, units=DEFAULT_UNITS):
    """FluidState from wave-curve coordinates (p, v, shat)."""
    _require_finite(p=p, v=v, shat=shat)
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p!r}")
    _require_velocity(v, units)
    gamma = gamma_from(gas, p, shat, window, units)
    return FluidState(
        p=p,
        v=v,
        shat=shat,
        gamma=gamma,
        rho=gamma * p / units.c2,
        e=p * _cold(gas, gamma).r,
    )


def primitive_from_state(state):
    """(rho, v, p) triple of a FluidState."""
    return state.rho, state.v, state.p


def main_field(gas, state, units=DEFAULT_UNITS):
    """Godunov/main-field components (1/T)((e+p)/rho - T S, Gamma v, Gamma/c).

    Diagnostic only: these are the symmetrizing variables of the system.
    """
    if state.is_vacuum:
        raise DomainError("main field undefined for the vacuum marker state")
    c2 = units.c2
    T = units.m * c2 / (units.k_B * state.gamma)
    S = units.k_B / units.m * state.shat
    lorentz = 1.0 / math.sqrt(1.0 - state.v * state.v / c2)
    u0 = ((state.e + state.p) / state.rho - T * S) / T
    return (u0, lorentz * state.v / T, lorentz / (units.c * T))


def invariant_integrand(gas, gamma):
    """Integrand of the acoustic Riemann-invariant integral in the coldness
    variable: sqrt(e_p) (-dlnp/dgamma) / (r + 1), positive, ~ 1.94 gamma^-3/2
    (monatomic) in the classical tail."""
    if gamma >= _series.LARGE_GAMMA_SWITCH:
        tab = _TABLES[gas]
        eps = 1.0 / gamma
        e_val = _series.horner(tab["e"], eps)
        g_val = _series.horner(tab["g"], eps)
        zp4 = _series.horner(tab["zp4"], eps)
        return math.sqrt(e_val / eps) * (-g_val) * eps / zp4
    c = _cold(gas, gamma)
    return math.sqrt(c.r + c.rp / c.g) * (-c.g) / (c.r + 1.0)


def invariant_tail(gas, gamma):
    """Closed form of integral_gamma^inf of `invariant_integrand`, valid for
    gamma >= LARGE_GAMMA_SWITCH (exact-series antiderivative)."""
    return _series.horner(_TABLES[gas]["jtail"], 1.0 / gamma) / math.sqrt(gamma)


#: Chebyshev table of the invariant on s = ln gamma in [ln 1e-14, ln 30]
INVARIANT_NODES = 128
_INVARIANT_SPAN = (math.log(EXTENDED_WINDOW[0]), math.log(_series.LARGE_GAMMA_SWITCH))
#: per-gas coefficients of J as a Chebyshev series, built on first use
_INVARIANT_TABLES = {}


def _invariant_table(gas):
    """Chebyshev coefficients of J(gamma) on _INVARIANT_SPAN.

    dJ/ds = -gamma * invariant_integrand is smooth in s = ln gamma (it tends
    to -sqrt(3) in the ultra-relativistic limit), so it is interpolated at
    INVARIANT_NODES Chebyshev points of the first kind.  The series is then
    integrated term by term and its constant fixed so that J meets
    `invariant_tail` at gamma = LARGE_GAMMA_SWITCH.
    """
    n = INVARIANT_NODES
    a, b = _INVARIANT_SPAN
    half = 0.5 * (b - a)
    angles = [math.pi * (k + 0.5) / n for k in range(n)]
    vals = []
    for t in angles:
        gamma = math.exp(a + half * (math.cos(t) + 1.0))
        vals.append(-gamma * invariant_integrand(gas, gamma))
    # dJ/dx = half * dJ/ds = sum_j d_j T_j(x), d from the discrete cosine transform
    d = [
        (2.0 / n) * half * math.fsum(v * math.cos(j * t) for v, t in zip(vals, angles))
        for j in range(n)
    ]
    d[0] *= 0.5
    d += [0.0, 0.0]
    # integral of sum d_j T_j: coefficient k of the antiderivative is
    # (d_{k-1} - d_{k+1}) / (2k), with d_0 counted twice for k = 1
    coef = [0.0] + [((2.0 if k == 1 else 1.0) * d[k - 1] - d[k + 1]) / (2 * k)
                    for k in range(1, n + 1)]
    # T_k(1) = 1: fix the constant by J(x = 1) = invariant_tail(switch)
    coef[0] = invariant_tail(gas, _series.LARGE_GAMMA_SWITCH) - math.fsum(coef[1:])
    return tuple(coef)


def _clenshaw(coef, x):
    """sum_k coef[k] T_k(x) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for c in reversed(coef[1:]):
        b1, b2 = x2 * b1 - b2 + c, b1
    return x * b1 - b2 + coef[0]


def invariant(gas, gamma):
    """Acoustic Riemann invariant J(gamma) = integral_gamma^inf of
    `invariant_integrand`: dimensionless and a function of the coldness
    alone.  A per-gas Chebyshev series from EXTENDED_WINDOW[0] up to
    LARGE_GAMMA_SWITCH, built on first use, and `invariant_tail` from there on."""
    _require_gamma(gamma, (EXTENDED_WINDOW[0], math.inf), "invariant")
    if gamma >= _series.LARGE_GAMMA_SWITCH:
        return invariant_tail(gas, gamma)
    coef = _INVARIANT_TABLES.get(gas)
    if coef is None:
        coef = _INVARIANT_TABLES[gas] = _invariant_table(gas)
    a, b = _INVARIANT_SPAN
    return _clenshaw(coef, (2.0 * math.log(gamma) - a - b) / (b - a))
