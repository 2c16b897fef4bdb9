"""Second routes to the acoustic Riemann invariant and the rarefaction
curve, kept as test oracles for `eos.invariant` and
`waves.rarefaction_state`.

Both share only the integrand `eos.invariant_integrand` with the library:
`invariant_quadrature` integrates it adaptively in the coldness, and
`rarefaction_ode` integrates the rarefaction ODE for v with an embedded
Runge-Kutta pair instead of carrying the invariant over.
"""

import math

from synge_riemann import eos
from synge_riemann.eos import DEFAULT_UNITS, FluidState
from synge_riemann.errors import ConvergenceError

SWITCH = 30.0


def invariant_quadrature(gas, gamma):
    """J(gamma) = integral_0^p sqrt(e_p)/(e+p) dp along the isentrope,
    expressed in the coldness variable (integral from gamma to infinity);
    dimensionless and independent of the entropy label."""
    from scipy.integrate import quad

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
    from scipy.integrate import solve_ivp

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
