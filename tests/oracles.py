"""Second routes kept as test oracles for the library's own.

- `oracle_quadrature` evaluates K_0..K_3 by adaptive quadrature of an
  integral representation, independent of `bessel`; `asymptotic_coefficient`
  and `asymptotic_remainder_bound` give the large-gamma expansion of the
  scaled K with a certified remainder.
- `invariant_quadrature` and `rarefaction_ode` check `eos.invariant` and
  `waves.rarefaction_state`.  Both share only the integrand
  `eos.invariant_integrand` with the library: the first integrates it
  adaptively in the coldness, the second integrates the rarefaction ODE for
  v with an embedded Runge-Kutta pair instead of carrying the invariant over.
- `entropy_production_closed` checks `waves.entropy_production` on
  monatomic shocks through the closed-form entropy jump.
- `scipy_brentq` is scipy's Brent root finder, which `_roots.brentq` ports.
"""

import math
import warnings

from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from synge_riemann import eos
from synge_riemann.eos import DEFAULT_UNITS, FluidState, GasKind
from synge_riemann.errors import AccuracyWindowWarning, ConvergenceError, DomainError

ORACLE_WINDOW = (1e-3, 500.0)

SWITCH = 30.0


def invariant_quadrature(gas, gamma):
    """J(gamma) = integral_0^p sqrt(e_p)/(e+p) dp along the isentrope,
    expressed in the coldness variable (integral from gamma to infinity);
    dimensionless and independent of the entropy label."""
    tail = eos.invariant_tail(gas, max(gamma, SWITCH))
    if gamma >= SWITCH:
        return tail
    body, err = quad(
        lambda t: eos.invariant_integrand(gas, t),
        gamma,
        SWITCH,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    if err > 1e-10 * max(1.0, abs(body)):
        raise ConvergenceError(
            f"invariant quadrature error estimate {err:.2e} too large at gamma={gamma!r}"
        )
    return body + tail


def rarefaction_ode(gas, left, family, p, units=DEFAULT_UNITS, window=eos.EXTENDED_WINDOW):
    """State on the family-1/3 rarefaction curve from `left` at pressure p,
    from dv/dp = -/+ sqrt(e_p)(c^2 - v^2)/((e+p) c) integrated by DOP853 in
    s = ln gamma, where the right side is closed-form."""
    sign = -1.0 if family == 1 else 1.0
    c = units.c
    g_to = eos.gamma_from(gas, p, left.shat, window=window, units=units)

    def rhs(s, y):
        # dp = p dlnp/dgamma dgamma turns dv/dp into
        # dv/ds = -/+ sqrt(e_p) (-dlnp/dg)/(r+1) * gamma * (c^2 - v^2)/c
        g = math.exp(s)
        f = eos.invariant_integrand(gas, g)
        return (-sign * f * g * (c * c - y[0] * y[0]) / c,)

    sol = solve_ivp(
        rhs,
        (math.log(left.gamma), math.log(g_to)),
        (left.v,),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise ConvergenceError(f"rarefaction ODE failed: {sol.message}")
    return FluidState(
        p=p,
        v=float(sol.y[0][-1]),
        shat=left.shat,
        gamma=g_to,
        rho=g_to * p / units.c2,
        e=p * eos.energy_ratio(gas, g_to, window=eos.EXTENDED_WINDOW),
    )


def entropy_production_closed(gas, left, right, s, units=DEFAULT_UNITS):
    """Monatomic closed form of `waves.entropy_production` written directly
    in Bessel ratios and densities."""
    if gas is not GasKind.MONATOMIC:
        raise DomainError("closed-form entropy production is monatomic-only")
    c = units.c
    s_rest = (s - left.v) / (1.0 - s * left.v / (c * c))
    gL, gR = left.gamma, right.gamma
    rL = eos.energy_ratio(gas, gL, window=eos.EXTENDED_WINDOW)
    rR = eos.energy_ratio(gas, gR, window=eos.EXTENDED_WINDOW)
    ln_k2_ratio = eos._ln_k_scaled(2, gR) - eos._ln_k_scaled(2, gL) - (gR - gL)
    jump = rR - rL + ln_k2_ratio + math.log(gL / gR) + math.log(left.rho / right.rho)
    return -(s_rest / c) * jump


def asymptotic_coefficient(order, m):
    """Coefficient of gamma^-m in the large-gamma expansion of
    sqrt(2 gamma/pi) e^gamma K_order(gamma)."""
    if m == 0:
        return 1.0
    num = 1.0
    mu = 4.0 * order * order
    for i in range(1, m + 1):
        num *= mu - (2.0 * i - 1.0) ** 2
    return num / (math.factorial(m) * 8.0**m)


def asymptotic_remainder_bound(order, n, gamma):
    """Bound on the magnitude of the n-th remainder coefficient: the absolute
    error of the n-term truncation is at most this times gamma^-n."""
    return 2.0 * math.exp((order * order - 0.25) / gamma) * abs(asymptotic_coefficient(order, n))


def oracle_quadrature(order, gamma):
    """Independent evaluation of K_order by adaptive quadrature of

        K_j(gamma) = (2^j j!/(2j)!) gamma^-j
                     * integral_gamma^inf e^-t (t^2 - gamma^2)^(j-1/2) dt.

    The endpoint is regularized by t = gamma + u^2, which removes the
    integrable singularity (j = 0) and the square-root derivative kink
    (j >= 1).  Target relative error 1e-13.
    """
    if order not in (0, 1, 2, 3):
        raise DomainError(f"order must be one of 0..3, got {order!r}")
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    if not ORACLE_WINDOW[0] <= gamma <= ORACLE_WINDOW[1]:
        warnings.warn(
            f"gamma={gamma!r} outside the oracle window {ORACLE_WINDOW}",
            AccuracyWindowWarning,
            stacklevel=2,
        )

    j = order
    prefac = (2.0**j) * math.factorial(j) / math.factorial(2 * j) / gamma**j
    a = max(1.0, gamma)  # split point t = gamma + a

    def near(u):
        # t = gamma + u^2: e^-t (t^2-g^2)^{j-1/2} dt = 2 e^{-g-u^2} u^{2j} (u^2+2g)^{j-1/2} du
        return 2.0 * math.exp(-gamma - u * u) * u ** (2 * j) * (u * u + 2.0 * gamma) ** (j - 0.5)

    def far(t):
        return math.exp(-t) * (t * t - gamma * gamma) ** (j - 0.5)

    i1, e1 = quad(near, 0.0, math.sqrt(a), epsabs=0.0, epsrel=1e-13, limit=300)
    i2, e2 = quad(far, gamma + a, math.inf, epsabs=0.0, epsrel=1e-13, limit=300)
    total = prefac * (i1 + i2)
    err = prefac * (e1 + e2)
    if not total > 0.0 or err > 5e-12 * total:
        raise ConvergenceError(
            f"oracle quadrature for K_{j}({gamma}) missed tolerance: value={total!r}, err={err!r}"
        )
    return total


def scipy_brentq(f, a, b, xtol, rtol):
    """(root, evaluations of f) from scipy's brentq on the bracket [a, b]."""
    root, info = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
    return root, info.function_calls
