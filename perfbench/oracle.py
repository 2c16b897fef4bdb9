"""Reference physics for the benchmark's correctness checks.

Nothing here imports `synge_riemann`.  Bessel values come from mpmath, or,
below gamma = 30 where mpmath's K_nu is slow, from scipy's AMOS-based
`kve`; the constitutive derivatives come from the Bessel recurrences
written out below, and the conserved vector and flux from the perfect-fluid
stress tensor T^{mu nu} = (e + p) u^mu u^nu + p eta^{mu nu}.

Closures (q is the Bessel ratio, gamma the coldness):

    monatomic  q = K1/K2   e/p = gamma q + 3
    diatomic   q = K0/K1   e/p = gamma q + 3

From K0' = -K1, K1' = -K0 - K1/gamma, K2' = -K1 - 2 K2/gamma:

    q' = q^2 + a q / gamma - 1          (a = 3 monatomic, 1 diatomic)
    r' = d(e/p)/dgamma = gamma q^2 + (a + 1) q - gamma
    g  = d ln p/dgamma at fixed entropy = gamma q^2 + a q - gamma - 4/gamma
    de/dp at fixed entropy = r + r'/g,  rest-frame sound speed c/sqrt(de/dp)

The entropy label is ln K_n + gamma q - k ln gamma - ln(rho c^2) with
(n, k) = (2, 1) monatomic and (1, 2) diatomic; only differences are used.
"""

import math

import mpmath
from scipy.special import kve

SERIES_SWITCH = 30.0
_ORDERS = {"monatomic": (1, 2), "diatomic": (0, 1)}
_A = {"monatomic": 3, "diatomic": 1}
_MP_DPS = 60


def _dps(gamma):
    """Digits that survive the O(gamma) cancellations at large gamma."""
    return 20 + 2 * int(math.log10(max(gamma, 1.0)))


def mp_ratio(gas, gamma):
    """Bessel ratio q(gamma) as an mpmath number at the working precision."""
    lo, hi = _ORDERS[gas]
    g = mpmath.mpf(gamma)
    return mpmath.besselk(lo, g) / mpmath.besselk(hi, g)


def energy_ratio_mp(gas, gamma):
    """e/p = gamma q + 3 with q from mpmath."""
    with mpmath.workdps(20):
        return float(mpmath.mpf(gamma) * mp_ratio(gas, gamma) + 3)


def _closure(gas, gamma):
    """(r, r', g) at gamma, each accurate to double precision.

    Above gamma = 30 the expressions for r' and g cancel to O(1/gamma) out
    of O(gamma) terms, so they are formed in mpmath there, where mpmath's
    K_nu is also fast.  Below, scipy's kve is accurate and cheap.
    """
    a = _A[gas]
    if gamma >= SERIES_SWITCH:
        with mpmath.workdps(_dps(gamma)):
            g = mpmath.mpf(gamma)
            q = mp_ratio(gas, gamma)
            r = g * q + 3
            rp = g * q * q + (a + 1) * q - g
            gs = g * q * q + a * q - g - 4 / g
            return float(r), float(rp), float(gs)
    lo, hi = _ORDERS[gas]
    q = float(kve(lo, gamma) / kve(hi, gamma))
    rp = gamma * q * q + (a + 1) * q - gamma
    gs = gamma * q * q + a * q - gamma - 4.0 / gamma
    return gamma * q + 3.0, rp, gs


def sound_speed(gas, gamma, c):
    """Rest-frame acoustic speed c / sqrt(de/dp|_S)."""
    r, rp, gs = _closure(gas, gamma)
    return c / math.sqrt(r + rp / gs)


def compose(v1, v2, c):
    return (v1 + v2) / (1.0 + v1 * v2 / (c * c))


def acoustic_speeds(gas, gamma, v, c):
    """(lambda_1, lambda_3) of a non-vacuum state."""
    cs = sound_speed(gas, gamma, c)
    return compose(v, -cs, c), compose(v, cs, c)


def entropy(gas, gamma, rho, c):
    """Entropy label up to a gas-dependent constant."""
    n, k = (2, 1) if gas == "monatomic" else (1, 2)
    if gamma >= SERIES_SWITCH:
        with mpmath.workdps(_dps(gamma)):
            g = mpmath.mpf(gamma)
            ln_k = mpmath.log(mpmath.besselk(n, g))
            q = mp_ratio(gas, gamma)
            return float(ln_k + g * q - k * mpmath.log(g)) - math.log(rho * c * c)
    lo, hi = _ORDERS[gas]
    ln_k = math.log(kve(n, gamma)) - gamma
    q = float(kve(lo, gamma) / kve(hi, gamma))
    return ln_k + gamma * q - k * math.log(gamma) - math.log(rho * c * c)


def conserved(rho, v, p, e, c):
    """(D, M, E): rest-mass, momentum and energy densities (M carries 1/c^2
    so that the momentum flux is M v + p)."""
    w2 = 1.0 / (1.0 - (v / c) ** 2)
    h = (e + p) * w2
    return (rho * math.sqrt(w2), h * v / (c * c), h - p)


def flux(rho, v, p, e, c):
    w2 = 1.0 / (1.0 - (v / c) ** 2)
    h = (e + p) * w2
    return (rho * math.sqrt(w2) * v, h * v * v / (c * c) + p, h * v)


def jump_residual(a, b, s, c):
    """max_i |s [[U_i]] - [[F_i]]| / scale_i between states a and b, each a
    (rho, v, p, e) tuple; scale_i is the largest term entering component i."""
    ua, ub = conserved(*a, c), conserved(*b, c)
    fa, fb = flux(*a, c), flux(*b, c)
    worst = 0.0
    for i in range(3):
        raw = s * (ub[i] - ua[i]) - (fb[i] - fa[i])
        scale = max(abs(fa[i]), abs(fb[i]), abs(s) * max(abs(ua[i]), abs(ub[i])), 1e-300)
        worst = max(worst, abs(raw) / scale)
    return worst


# --- Bessel-level margins of the verification catalog, in mpmath -----------

_CE = mpmath.euler


def bessel_margin(check_id, gamma):
    """The margin of a gas-independent catalog check at gamma, from mpmath."""
    with mpmath.workdps(_MP_DPS):
        g = mpmath.mpf(gamma)
        k0, k1 = mpmath.besselk(0, g), mpmath.besselk(1, g)
        u = k0 / k1
        if check_id == "ratio-band-coarse":
            lo = u - (1 - 1 / (2 * g))
            hi = (1 - 1 / (2 * g) + mpmath.mpf(3) / (8 * g**2) + mpmath.mpf(3) / (16 * g**3)) - u
            m = min(lo, hi)
        elif check_id == "ratio-band-tight":
            base = (1 - 1 / (2 * g) + mpmath.mpf(3) / (8 * g**2) - mpmath.mpf(3) / (8 * g**3)
                    + mpmath.mpf(63) / (128 * g**4))
            m = min(u - (base - mpmath.mpf(31) / (20 * g**5)),
                    (base + mpmath.mpf(7) / (8 * g**5)) - u)
        elif check_id == "ratio-band-mid":
            gamma_0 = 2 * mpmath.exp(-_CE)
            m = (1 - (gamma_0 - 1) / g) - u
        elif check_id == "ratio-band-small":
            lo = u - g / (mpmath.sqrt(g * g + 1) + 1)
            hi = g * (mpmath.mpf(11) / 16 - (mpmath.log(g / 2) + _CE)) - u
            m = min(lo, hi)
        elif check_id == "ratio-quadratic-small":
            m = u * u + 2 * u / g - 1
        elif check_id == "holder-k-product":
            k2 = 2 * k1 / g + k0
            m = 3 * k0 * k2 / (k1 * k1) - 1
        elif check_id == "holder-ratio-quadratic":
            m = 3 * u * u + 6 * u / g - 1
        elif check_id == "ratio-below-one":
            m = 1 - u
        else:
            raise KeyError(check_id)
        return float(m)


BESSEL_CHECKS = (
    "ratio-band-coarse", "ratio-band-tight", "ratio-band-mid", "ratio-band-small",
    "ratio-quadratic-small", "holder-k-product", "holder-ratio-quadratic",
    "ratio-below-one",
)
