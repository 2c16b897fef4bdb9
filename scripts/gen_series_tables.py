"""Regenerate src/synge_riemann/_series.py, the large-gamma series tables.

Every quantity is expanded in eps = 1/gamma with exact rational
coefficients (`fractions.Fraction`, built from the asymptotic coefficients
of K_0..K_2) and written out as float literals; `repr` round-trips, so the
module holds the correctly rounded coefficients without building them at
import.  Run `python3 scripts/gen_series_tables.py` to rewrite the module,
or with `--check` to exit non-zero when the committed module differs from
a rebuild.
"""

import argparse
import math
import pathlib
import sys
from fractions import Fraction

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "synge_riemann" / "_series.py"

N_TERMS = 26
LARGE_GAMMA_SWITCH = 30.0
WIDTH = 88


def _s_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _s_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _s_scale(a, c):
    return [c * x for x in a]


def _s_mul(a, b):
    out = [Fraction(0)] * N_TERMS
    for i, ai in enumerate(a):
        if ai:
            for j in range(N_TERMS - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _s_div(a, b):
    if b[0] == 0:
        raise ZeroDivisionError("series division needs a nonzero constant term")
    out = [Fraction(0)] * N_TERMS
    for n in range(N_TERMS):
        acc = a[n]
        for k in range(1, n + 1):
            acc -= b[k] * out[n - k]
        out[n] = acc / b[0]
    return out


def _s_shift_down(a):
    """Divide by eps; requires a zero constant term (drops the top order)."""
    if a[0] != 0:
        raise ValueError("cannot divide series with nonzero constant term by eps")
    return a[1:] + [Fraction(0)]


def _s_dgamma(a):
    """d/dgamma acting on a(1/gamma): the series of -eps^2 a'(eps)."""
    out = [Fraction(0)] * N_TERMS
    for k in range(2, N_TERMS):
        out[k] = -(k - 1) * a[k - 1]
    return out


def _const(c):
    out = [Fraction(0)] * N_TERMS
    out[0] = Fraction(c)
    return out


def _poly_in_eps(*coeffs):
    """Series for sum coeffs[k] * eps^k from rationals."""
    out = [Fraction(0)] * N_TERMS
    for k, c in enumerate(coeffs):
        out[k] = Fraction(c)
    return out


def _floats(series):
    return tuple(float(c) for c in series)


_EPS = _poly_in_eps(0, 1)


def _a_coeff(j, m):
    """Coefficient of gamma^-m in sqrt(2 gamma/pi) e^gamma K_j(gamma)."""
    if m == 0:
        return Fraction(1)
    num = Fraction(1)
    for i in range(1, m + 1):
        num *= 4 * j * j - (2 * i - 1) ** 2
    return num / (math.factorial(m) * 8**m)


def _gas_tables(ratio_series, lin_rp, lin_g):
    """Series bundle for one gas.

    lin_rp / lin_g are the coefficients of the ratio in r' and in the
    isentropic log-derivative: r' = (R^2-1)/eps + lin_rp * R and
    g = (R^2-1)/eps + lin_g * R - 4 eps.
    """
    R = ratio_series
    one = _const(1)
    lead = _s_shift_down(_s_sub(_s_mul(R, R), one))  # (R^2 - 1)/eps
    RP = _s_add(lead, _s_scale(R, lin_rp))
    G = _s_sub(_s_add(lead, _s_scale(R, lin_g)), _s_scale(_EPS, 4))
    M = _s_shift_down(_s_sub(one, R))                # gamma (1 - ratio)
    HH = _s_shift_down(G)                            # g / eps
    E = _s_add(_s_add(R, _s_scale(_EPS, 3)), _s_div(RP, HH))  # eps * e_p
    CV = _s_add(_s_shift_down(_s_sub(R, RP)), _const(3))      # c_V = r - gamma r'
    # eps^2 * [(e+p) e_pp - 2 e_p (e_p - 1)], the genuine-nonlinearity sign
    R2 = _s_dgamma(RP)
    GP = _s_dgamma(G)
    NUM2 = _s_shift_down(_s_shift_down(_s_sub(_s_mul(R2, G), _s_mul(RP, GP))))
    HH3 = _s_mul(HH, _s_mul(HH, HH))
    W = _s_add(_s_div(RP, HH), _s_div(NUM2, HH3))
    ZP4 = _s_add(R, _s_scale(_EPS, 4))               # eps * (r + 1)
    IND = _s_sub(_s_mul(ZP4, W), _s_scale(_s_mul(E, _s_sub(E, _EPS)), 2))

    bundle = {
        "ratio": R,
        "m": M,
        "rp": RP,
        "g": G,
        "e": E,
        "cv": CV,
        "ind": IND,
        "zp4": ZP4,
    }
    floats = {k: _floats(v) for k, v in bundle.items()}

    # invariant-integrand factor Q: integrand = gamma^-3/2 Q(1/gamma),
    # Q = sqrt(eps e_p) * (-g/eps) / (eps (r+1)); float series (sqrt is irrational)
    ef = floats["e"]
    hh = _floats(HH)
    zp4 = floats["zp4"]
    s = [0.0] * N_TERMS
    s[0] = math.sqrt(ef[0])
    for n in range(1, N_TERMS):
        acc = ef[n]
        for k in range(1, n):
            acc -= s[k] * s[n - k]
        s[n] = acc / (2.0 * s[0])
    num = [0.0] * N_TERMS
    for i in range(N_TERMS):
        for j in range(N_TERMS - i):
            num[i + j] += s[i] * (-hh[j])
    q = [0.0] * N_TERMS
    for n in range(N_TERMS):
        acc = num[n]
        for k in range(1, n + 1):
            acc -= zp4[k] * q[n - k]
        q[n] = acc / zp4[0]
    floats["q"] = tuple(q)
    # antiderivative of the tail: integral_gamma^inf t^-3/2 Q(1/t) dt
    #   = gamma^-1/2 * sum_k 2 Q_k / (2k+1) gamma^-k
    floats["jtail"] = tuple(2.0 * q[k] / (2 * k + 1) for k in range(N_TERMS))
    return floats


def _quartic_predicate(series_u, terms):
    """Series of eps^2 * sum_d c_d(eps) u^d for the verification quartics.

    `terms` maps power-of-u -> eps-polynomial coefficient list of
    eps^2 * c_d(gamma) (already multiplied through by eps^2)."""
    acc = [Fraction(0)] * N_TERMS
    power = _const(1)
    for d in range(5):
        if d in terms:
            acc = _s_add(acc, _s_mul(_poly_in_eps(*terms[d]), power))
        power = _s_mul(power, series_u)
    return _floats(acc)


def build():
    """The tables of `_series` in module order: a list of
    (name, comment, value), the value a tuple of floats or a dict of such
    tuples."""
    P = {j: [_a_coeff(j, m) for m in range(N_TERMS)] for j in (0, 1, 2)}
    Z = _s_div(P[1], P[2])
    U = _s_div(P[0], P[1])
    u2 = _s_mul(U, U)
    one_minus_u2_over_eps = _s_shift_down(_s_sub(_const(1), u2))
    tight_common = (1, Fraction(-1, 2), Fraction(3, 8), Fraction(-3, 8), Fraction(63, 128))
    return [
        ("Z_SERIES", "K1/K2 as a 1/gamma-series", _floats(Z)),
        ("U_SERIES", "K0/K1 as a 1/gamma-series", _floats(U)),
        ("MONATOMIC", "per-gas Horner tables; keys: ratio, m, rp, g, e, cv, ind, zp4, q, jtail",
         _gas_tables(Z, 4, 3)),
        ("DIATOMIC", None, _gas_tables(U, 2, 1)),
        ("K_SCALED_POLY",
         "scaled-K series sqrt(2 gamma/pi) e^gamma K_j as plain floats (no cancellation)",
         {j: _floats(P[j]) for j in (0, 1, 2)}),
        # Verification predicates with leading-order cancellation: exact-series
        # forms of eps^2 * (value), evaluated by Horner for gamma >= LARGE_GAMMA_SWITCH.
        ("GN_QUARTIC_MONO",
         "quartic in z = K1/K2 whose positivity gives genuine nonlinearity (monatomic):\n"
         "g^2 z^4 + 4 g z^3 - (2 g^2 + 9) z^2 - (4 g + 33/g) z + g^2 + 12 + 12/g^2,\n"
         "as eps^2 times it",
         _quartic_predicate(Z, {
             4: (1,),
             3: (0, 4),
             2: (-2, 0, -9),
             1: (0, -4, 0, -33),
             0: (1, 0, 12, 0, 12),
         })),
        ("GN_QUARTIC_MONO_U", "the same quartic rewritten in u = K0/K1",
         _quartic_predicate(U, {
             4: (1, 0, 12, 0, 12),
             3: (0, 4, 0, 63, 0, 96),
             2: (-2, 0, -9, 0, 90, 0, 288),
             1: (0, -4, 0, -52, 0, -12, 0, 384),
             0: (1, 0, 0, 0, -52, 0, -72, 0, 192),
         })),
        ("GN_QUARTIC_DIA",
         "diatomic analog g^2 (1-u^2)^2 - 11 u^2 - 9 u/g + 10 + 12/g^2, as eps^2 times it",
         _floats(_s_add(
             _s_mul(_poly_in_eps(0, 0, 1),
                    _s_mul(one_minus_u2_over_eps, one_minus_u2_over_eps)),
             _s_add(_s_mul(_poly_in_eps(0, 0, -11), u2),
                    _s_add(_s_mul(_poly_in_eps(0, 0, 0, -9), U),
                           _poly_in_eps(0, 0, 10, 0, 12))),
         ))),
        # Margins of the two-sided K0/K1 envelopes (value > 0 == inside the band).
        ("RATIO_BAND_COARSE_LOWER",
         "coarse band on (sqrt(2), inf): 1 - 1/(2g) <= u <= 1 - 1/(2g) + 3/(8g^2) + 3/(16g^3)",
         _floats(_s_sub(U, _poly_in_eps(1, Fraction(-1, 2))))),
        ("RATIO_BAND_COARSE_UPPER", None,
         _floats(_s_sub(_poly_in_eps(1, Fraction(-1, 2), Fraction(3, 8), Fraction(3, 16)), U))),
        ("RATIO_BAND_TIGHT_LOWER",
         "tight band on (2, inf):\n"
         "1 - 1/(2g) + 3/(8g^2) - 3/(8g^3) + 63/(128g^4) - 31/(20g^5) <= u <= ... + 7/(8g^5)",
         _floats(_s_sub(U, _poly_in_eps(*tight_common, Fraction(-31, 20))))),
        ("RATIO_BAND_TIGHT_UPPER", None,
         _floats(_s_sub(_poly_in_eps(*tight_common, Fraction(7, 8)), U))),
    ]


HEADER = '''\
# Generated by scripts/gen_series_tables.py, do not edit.
"""Large-gamma (classical-limit) expansions of the constitutive quantities.

Direct evaluation of expressions such as gamma z^2 + 3 z - gamma - 4/gamma
(z a Bessel ratio near 1) cancels to O(1/gamma) out of O(gamma) terms and
loses ~gamma^2 * eps relative accuracy in doubles.  Here the cancellations
are performed symbolically: every needed quantity is expanded once in
eps = 1/gamma with exact rational coefficients (built from the asymptotic
coefficients of K_0..K_2 by scripts/gen_series_tables.py), rounded to the
float literals below and evaluated by Horner's rule.

Truncation at order 26 keeps the expansions below 1e-15 relative error for
gamma >= LARGE_GAMMA_SWITCH = 30; they improve rapidly beyond.
"""

N_TERMS = {n_terms}
LARGE_GAMMA_SWITCH = {switch!r}
'''

FOOTER = '''

def horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
'''


def _tuple_lines(values, indent):
    """A tuple literal of floats wrapped at WIDTH, without its parentheses."""
    lines, line = [], indent
    for v in values:
        item = repr(float(v)) + ","
        if line != indent and len(line) + 1 + len(item) > WIDTH:
            lines.append(line)
            line = indent
        line += item if line == indent else " " + item
    lines.append(line)
    return lines


def render(tables):
    """Source text of `_series` holding the given tables."""
    out = [HEADER.format(n_terms=N_TERMS, switch=LARGE_GAMMA_SWITCH).rstrip("\n")]
    for name, comment, value in tables:
        out.append("")
        if comment:
            out += ["#: " + line for line in comment.split("\n")]
        if isinstance(value, dict):
            out.append(f"{name} = {{")
            for key, coeffs in value.items():
                out.append(f"    {key!r}: (")
                out += _tuple_lines(coeffs, " " * 8)
                out.append("    ),")
            out.append("}")
        else:
            out.append(f"{name} = (")
            out += _tuple_lines(value, " " * 4)
            out.append(")")
    return "\n".join(out) + "\n" + FOOTER


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if the committed module differs from a rebuild")
    args = ap.parse_args(argv)
    text = render(build())
    if args.check:
        if OUT.read_text() != text:
            print(f"{OUT} differs from a rebuild; run scripts/gen_series_tables.py")
            return 1
        print(f"{OUT} is up to date")
        return 0
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
