"""Double-double kernels for the modified-Bessel engine.

K_0 and K_1 are summed from their log/power series with compensated
(double-double) arithmetic: near the series/asymptotic switch the raw terms
reach ~e^gamma while the result is ~e^-gamma, so plain doubles lose up to
2*gamma/ln(10) digits to cancellation.  Double-double accumulation keeps the
result correctly rounded through gamma ~ 20.

The large-gamma branch sums the divergent asymptotic expansion to its
smallest term; at the switch point (gamma = 16) that term is already below
1e-14 of the leading one.
"""

import math

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17
# Euler's constant, double-double
_CE_HI = 0.5772156649015329
_CE_LO = -4.942915152430645e-18

SERIES_SWITCH = 16.0  # series below, asymptotic expansion above
SERIES_TERM_CAP = 60


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(ahi, alo, bhi, blo):
    s, e = _two_sum(ahi, bhi)
    e += alo + blo
    return _quick_two_sum(s, e)


def _dd_mul(ahi, alo, bhi, blo):
    p, e = _two_prod(ahi, bhi)
    e += ahi * blo + alo * bhi
    return _quick_two_sum(p, e)


def _dd_mul_d(ahi, alo, b):
    p, e = _two_prod(ahi, b)
    e += alo * b
    return _quick_two_sum(p, e)


def _dd_div_d(ahi, alo, b):
    q1 = ahi / b
    p, e = _two_prod(q1, b)
    q2 = (((ahi - p) - e) + alo) / b
    return _quick_two_sum(q1, q2)


def _dd_log(x):
    """Natural log of a positive double, in double-double precision."""
    m, k = math.frexp(x)
    if m < 0.7071067811865476:
        m *= 2.0
        k -= 1
    # ln(m) = 2 atanh(t), t = (m-1)/(m+1), |t| <= 0.172
    num_hi = m - 1.0  # exact (Sterbenz)
    den_hi, den_lo = _two_sum(m, 1.0)
    q1 = num_hi / den_hi
    phi, plo = _dd_mul_d(den_hi, den_lo, q1)
    rhi, rlo = _dd_add(num_hi, 0.0, -phi, -plo)
    q2 = rhi / den_hi
    thi, tlo = _quick_two_sum(q1, q2)
    # atanh series in t^2
    t2hi, t2lo = _dd_mul(thi, tlo, thi, tlo)
    shi, slo = thi, tlo
    uhi, ulo = thi, tlo
    j = 3.0
    while True:
        uhi, ulo = _dd_mul(uhi, ulo, t2hi, t2lo)
        whi, wlo = _dd_div_d(uhi, ulo, j)
        shi, slo = _dd_add(shi, slo, whi, wlo)
        if abs(whi) <= 1e-35 * abs(shi):
            break
        j += 2.0
    shi, slo = _dd_mul_d(shi, slo, 2.0)
    khi, klo = _dd_mul_d(_LN2_HI, _LN2_LO, float(k))
    return _dd_add(shi, slo, khi, klo)


def _k01_series(g):
    """(K0, e^g K0, K1, e^g K1) from the small-argument series, gamma <= ~20."""
    half = 0.5 * g
    lhi, llo = _dd_log(half)

    # A_m = psi(m+1) - ln(g/2); starts at -C_E - L
    ahi, alo = _dd_add(_CE_HI, _CE_LO, lhi, llo)
    ahi, alo = -ahi, -alo

    x2hi, x2lo = _two_prod(half, half)

    # q_m = (g/2)^(2m) / (m!)^2 ; K0 = sum q_m A_m
    qhi, qlo = 1.0, 0.0
    s0hi, s0lo = ahi, alo

    # K1 = 1/g + sum w_m (-A_m - 1/(2(m+1))), w_m = q_m (g/2)/(m+1)
    s1hi, s1lo = _dd_div_d(1.0, 0.0, g)

    m = 0
    while m < SERIES_TERM_CAP:
        fm1 = float(m + 1)
        whi, wlo = _dd_mul_d(qhi, qlo, half)
        whi, wlo = _dd_div_d(whi, wlo, fm1)
        rhi, rlo = _dd_div_d(-1.0, 0.0, 2.0 * fm1)
        bhi, blo = _dd_add(-ahi, -alo, rhi, rlo)
        thi, tlo = _dd_mul(whi, wlo, bhi, blo)
        s1hi, s1lo = _dd_add(s1hi, s1lo, thi, tlo)

        rhi, rlo = _dd_div_d(1.0, 0.0, fm1)
        ahi, alo = _dd_add(ahi, alo, rhi, rlo)

        qhi, qlo = _dd_mul(qhi, qlo, x2hi, x2lo)
        qhi, qlo = _dd_div_d(qhi, qlo, fm1 * fm1)

        thi, tlo = _dd_mul(qhi, qlo, ahi, alo)
        s0hi, s0lo = _dd_add(s0hi, s0lo, thi, tlo)

        m += 1
        if float(m) >= half and abs(qhi) * (abs(ahi) + 1.0) < 1e-34 * (abs(s0hi) + abs(s1hi)):
            break

    k0 = s0hi + s0lo
    k1 = s1hi + s1lo
    eg = math.exp(g)
    return k0, k0 * eg, k1, k1 * eg


def _k_asym_scaled(j, g):
    """e^gamma K_j(gamma) from the asymptotic expansion, truncated at the
    smallest term.  Sound for gamma >= SERIES_SWITCH, j in {0, 1}."""
    mu = 4.0 * float(j) * float(j)
    term = 1.0
    s = 1.0
    m = 1.0
    while m < 400.0:
        t_next = term * (mu - (2.0 * m - 1.0) ** 2) / (8.0 * m * g)
        if abs(t_next) >= abs(term):
            break
        term = t_next
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
        m += 1.0
    return math.sqrt(math.pi / (2.0 * g)) * s


def k01(gamma):
    """(K0, e^g K0, K1, e^g K1) for gamma > 0, relative error < 1e-13.

    Unscaled values underflow to 0 for gamma > ~705; the scaled pair stays
    finite everywhere.
    """
    if gamma <= SERIES_SWITCH:
        return _k01_series(gamma)
    k0s = _k_asym_scaled(0, gamma)
    k1s = _k_asym_scaled(1, gamma)
    emg = math.exp(-gamma) if gamma < 708.0 else 0.0
    return k0s * emg, k0s, k1s * emg, k1s
