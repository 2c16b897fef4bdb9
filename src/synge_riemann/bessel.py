"""Modified Bessel functions of the second kind K_0..K_3 and their ratios.

Self-contained evaluation in plain doubles (Temme's method; N. M. Temme,
J. Comput. Phys. 19 (1975) 324-337, and Numerical Recipes, 3rd ed., 6.6):
the K_0/K_1 power series up to gamma = 2 and Steed's continued fraction
CF2 above it, which yields e^gamma K_0 and e^gamma K_1 directly so nothing
underflows.  K_2 and K_3 come from the upward recurrence
K_{j+1} = 2j K_j / gamma + K_{j-1} (stable for K, whose values grow with
the order).  The documented window is gamma in [1e-6, 1e4]; outside it the
code still evaluates but emits :class:`AccuracyWindowWarning`.
"""

import math
import warnings
from functools import lru_cache

from .errors import AccuracyWindowWarning, ConvergenceError, DomainError

WINDOW = (1e-6, 1e4)


def _check_gamma(gamma):
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    if not WINDOW[0] <= gamma <= WINDOW[1]:
        warnings.warn(
            f"gamma={gamma!r} outside the documented accuracy window {WINDOW}",
            AccuracyWindowWarning,
            stacklevel=3,
        )


def _check_order(order):
    if order not in (0, 1, 2, 3):
        raise DomainError(f"order must be one of 0..3, got {order!r}")


_EULER = 0.5772156649015329
_SERIES_SWITCH = 2.0  # power series at or below, CF2 above
_SERIES_TERMS = 14  # 1/(m!)^2 < 3e-20 at m = 13, y <= 1
_CF2_CAP = 1000  # CF2 needs at most 90 terms, as gamma -> 2


def _series_coefficients():
    """Per power m of y = (gamma/2)^2, highest first: 1/(m!)^2, psi(m+1)/(m!)^2,
    1/(m!(m+1)!) and (psi(m+1) + psi(m+2))/(m!(m+1)!)."""
    rows = []
    for m in range(_SERIES_TERMS):
        psi = math.fsum([1.0 / k for k in range(1, m + 1)] + [-_EULER])
        psi_next = psi + 1.0 / (m + 1)
        inv = 1.0 / math.factorial(m) ** 2
        inv1 = 1.0 / (math.factorial(m) * math.factorial(m + 1))
        rows.append((inv, inv * psi, inv1, inv1 * (psi + psi_next)))
    return tuple(reversed(rows))


_SERIES = _series_coefficients()


def _k01_series(gamma):
    """(K0, e^g K0, K1, e^g K1) from the power series, for gamma <= 2:

        K0 = sum y^m psi(m+1)/(m!)^2 - ln(gamma/2) I0,
        K1 = 1/gamma + ln(gamma/2) I1 - (gamma/4) sum y^m (psi(m+1)+psi(m+2))/(m!(m+1)!).
    """
    y = 0.25 * gamma * gamma
    i0 = p0 = i1 = p1 = 0.0
    for a, b, c, d in _SERIES:
        i0 = i0 * y + a
        p0 = p0 * y + b
        i1 = i1 * y + c
        p1 = p1 * y + d
    half = 0.5 * gamma
    ln_half = math.log(half)
    k0 = p0 - ln_half * i0
    k1 = 1.0 / gamma + half * (ln_half * i1 - 0.5 * p1)
    eg = math.exp(gamma)
    return k0, k0 * eg, k1, k1 * eg


def _k01_cf2(gamma):
    """(K0, e^g K0, K1, e^g K1) from Steed's continued fraction CF2 at order 0,
    for gamma > 2; the scaled pair is computed directly."""
    b = 2.0 * (1.0 + gamma)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = 0.25
    a = -0.25
    s = 1.0 + q * delh
    for i in range(1, _CF2_CAP):
        a -= 2 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 1e-17 * abs(s):
            break
    else:
        raise ConvergenceError(f"CF2 for K0({gamma!r}) did not converge in {_CF2_CAP} terms")
    k0s = math.sqrt(math.pi / (2.0 * gamma)) / s
    k1s = k0s * (gamma + 0.5 - 0.25 * h) / gamma
    emg = math.exp(-gamma)
    return k0s * emg, k0s, k1s * emg, k1s


def k01(gamma):
    """(K0, e^g K0, K1, e^g K1) for gamma > 0.

    Worst relative error of the scaled pair against mpmath on 800
    log-spaced points of [1e-14, 1e5]: 1.0e-15 for e^g K0 and 9.7e-16 for
    e^g K1.  The unscaled values turn subnormal past gamma ~ 708 and reach 0
    past ~745; the scaled pair stays finite everywhere.
    """
    if gamma <= _SERIES_SWITCH:
        return _k01_series(gamma)
    return _k01_cf2(gamma)


# holds the whole default `verify` grid (10,499 points), so that the checks
# of one run after the first find every point cached
@lru_cache(maxsize=16384)
def _k01_cached(gamma):
    return k01(gamma)


def _k_all_scaled(gamma):
    """(K0, K1, K2, K3) all scaled by e^gamma, via the upward recurrence."""
    _, k0s, _, k1s = _k01_cached(gamma)
    k2s = 2.0 * k1s / gamma + k0s
    k3s = 4.0 * k2s / gamma + k1s
    return k0s, k1s, k2s, k3s


def bessel_k(order, gamma):
    """K_order(gamma).  Underflows past gamma ~ 708 (use the scaled form)."""
    _check_order(order)
    _check_gamma(gamma)
    k0, k0s, k1, k1s = _k01_cached(gamma)
    if order == 0:
        return k0
    if order == 1:
        return k1
    k2 = 2.0 * k1 / gamma + k0
    if order == 2:
        return k2
    return 4.0 * k2 / gamma + k1


def bessel_k_scaled(order, gamma):
    """e^gamma * K_order(gamma); finite over the whole window."""
    _check_order(order)
    _check_gamma(gamma)
    return _k_all_scaled(gamma)[order]


def k0_over_k1(gamma):
    """K0/K1 in (0, 1), from the scaled pair so it stays accurate where the
    unscaled values underflow."""
    _check_gamma(gamma)
    _, k0s, _, k1s = _k01_cached(gamma)
    return k0s / k1s


def k1_over_k2(gamma):
    """K1/K2 in (0, 1), evaluated as K1 / (2 K1/gamma + K0)."""
    _check_gamma(gamma)
    _, k0s, _, k1s = _k01_cached(gamma)
    return k1s / (2.0 * k1s / gamma + k0s)
