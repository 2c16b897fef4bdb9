"""Machine verification of the analytic inequality catalog.

Every inequality that underpins the solver (positivity of specific heats,
sub-luminal sound, genuine-nonlinearity signs, the shock-curve sign lemmas,
and the two-sided Bessel-ratio envelopes) is checked pointwise on a
configurable coldness grid with worst-margin reporting.  This is
falsification-style regression assurance for the implementation, not a
proof; the analysis guarantees the inequalities on all of (0, inf).

Predicates whose defining polynomials cancel at large gamma (the
genuine-nonlinearity quartics, the tight ratio envelopes) switch to exact
series forms beyond gamma = 30 so reported margins stay meaningful down to
~1e-20.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from . import _series, bessel, eos
from .eos import GasKind
from .errors import DomainError, WindowError

GAMMA_0 = 2.0 * math.exp(-0.5772156649015329)  # root of ln(g/2) + C_E = 0
GAMMA_1 = (-9.0 + math.sqrt(129.0)) / 2.0      # root of g^2 + 9 g - 12 = 0
SQRT2 = math.sqrt(2.0)

#: grid refinement targets: boundaries where the underlying proofs split cases
PROOF_BOUNDARIES = (GAMMA_0, GAMMA_1, SQRT2, 2.0, 4.0)

_SWITCH = _series.LARGE_GAMMA_SWITCH


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable inequality: margin(gamma) > 0 on `domain` means pass."""

    id: str
    gas: Optional[GasKind]  # None: gas-independent (Bessel level)
    domain: Tuple[float, float]
    margin: Callable[[float], float]
    description: str


@dataclass(frozen=True)
class CheckResult:
    id: str
    gas: Optional[str]
    passed: bool
    worst_gamma: float
    worst_margin: float
    points: int
    description: str

    def to_dict(self):
        return {
            "id": self.id,
            "gas": self.gas,
            "passed": self.passed,
            "worst_gamma": self.worst_gamma,
            "worst_margin": self.worst_margin,
            "points": self.points,
            "description": self.description,
        }


@dataclass(frozen=True)
class CheckReport:
    results: Tuple[CheckResult, ...]
    grid: dict

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    @property
    def failures(self):
        return [r for r in self.results if not r.passed]

    def to_dict(self):
        return {
            "grid": self.grid,
            "all_passed": self.all_passed,
            "checks": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def to_table(self):
        lines = [
            f"{'check':<34} {'gas':<10} {'status':<6} {'worst margin':>13} {'at gamma':>12} {'pts':>6}"
        ]
        lines.append("-" * len(lines[0]))
        for r in self.results:
            lines.append(
                f"{r.id:<34} {r.gas or '-':<10} {'pass' if r.passed else 'FAIL':<6} "
                f"{r.worst_margin:>13.4e} {r.worst_gamma:>12.5g} {r.points:>6d}"
            )
        lines.append("-" * len(lines[0]))
        lines.append(
            f"{len(self.results)} checks, "
            f"{sum(1 for r in self.results if r.passed)} passed, "
            f"{len(self.failures)} failed"
        )
        return "\n".join(lines) + "\n"


def _z(g):
    return bessel.k1_over_k2(g)


def _u(g):
    return bessel.k0_over_k1(g)


# --- monatomic predicates (z = K1/K2) -------------------------------------


def _cv_margin_mono(g):
    return eos.specific_heats(GasKind.MONATOMIC, g)[0]


def _sound_cubic_mono(g):
    z = _z(g)
    return -(g * z**3 + 4.0 * z * z - g * z - 1.0)


def _gn_quartic_mono(g):
    if g >= _SWITCH:
        return _series.horner(_series.GN_QUARTIC_MONO, 1.0 / g) * g * g
    z = _z(g)
    return (
        g * g * z**4
        + 4.0 * g * z**3
        - (2.0 * g * g + 9.0) * z * z
        - (4.0 * g + 33.0 / g) * z
        + g * g
        + 12.0
        + 12.0 / (g * g)
    )


def _gn_quartic_mono_u(g):
    if g >= _SWITCH:
        return _series.horner(_series.GN_QUARTIC_MONO_U, 1.0 / g) * g * g
    u = _u(g)
    return (
        (g * g + 12.0 + 12.0 / g**2) * u**4
        + (4.0 * g + 63.0 / g + 96.0 / g**3) * u**3
        + (-2.0 * g * g - 9.0 + 90.0 / g**2 + 288.0 / g**4) * u * u
        + (-4.0 * g - 52.0 / g - 12.0 / g**3 + 384.0 / g**5) * u
        + g * g
        - 52.0 / g**2
        - 72.0 / g**4
        + 192.0 / g**6
    )


def _b1_mono(g):
    z = _z(g)
    return g * g * z**3 + 7.0 * g * z * z + (8.0 - g * g) * z - 4.0 * g - 16.0 / g


def _b2_mono(g):
    z = _z(g)
    return g * z * z + 2.0 * z - g - 8.0 / g


def _b3_mono(g):
    z = _z(g)
    return g * z * z + 4.0 * z - g


def _slope_margin(gas):
    def m(g):
        return -eos.pressure_coldness_slope(gas, g)

    return m


def _ep_margin(gas):
    def m(g):
        return eos.e_p(gas, g) - 3.0

    return m


def _sound_range_margin(gas):
    def m(g):
        pe = 1.0 / eos.e_p(gas, g)
        return min(pe, 1.0 / 3.0 - pe)

    return m


# --- diatomic predicates (u = K0/K1) ---------------------------------------


def _cv_margin_dia(g):
    return eos.specific_heats(GasKind.DIATOMIC, g)[0]


def _sound_cubic_dia(g):
    u = _u(g)
    return -(g * g * u**3 + 2.0 * g * u * u - (g * g + 2.0) * u - g)


def _gn_quartic_dia(g):
    if g >= _SWITCH:
        return _series.horner(_series.GN_QUARTIC_DIA, 1.0 / g) * g * g
    u = _u(g)
    return g * g * (1.0 - u * u) ** 2 - 11.0 * u * u - 9.0 * u / g + 10.0 + 12.0 / (g * g)


def _b1_dia(g):
    u = _u(g)
    return g * g * u**3 + 5.0 * g * u * u - g * g * u - 4.0 * g - 16.0 / g


def _b2_dia(g):
    u = _u(g)
    return g * u * u - g - 8.0 / g


def _b3_dia(g):
    u = _u(g)
    return g * u * u + 2.0 * u - g


# --- gas-independent Bessel-ratio predicates --------------------------------


def _band_coarse(g):
    if g >= _SWITCH:
        e = 1.0 / g
        return min(
            _series.horner(_series.RATIO_BAND_COARSE_LOWER, e),
            _series.horner(_series.RATIO_BAND_COARSE_UPPER, e),
        )
    u = _u(g)
    lo = u - (1.0 - 1.0 / (2.0 * g))
    hi = (1.0 - 1.0 / (2.0 * g) + 3.0 / (8.0 * g * g) + 3.0 / (16.0 * g**3)) - u
    return min(lo, hi)


def _band_tight(g):
    if g >= _SWITCH:
        e = 1.0 / g
        return min(
            _series.horner(_series.RATIO_BAND_TIGHT_LOWER, e),
            _series.horner(_series.RATIO_BAND_TIGHT_UPPER, e),
        )
    u = _u(g)
    base = (
        1.0
        - 1.0 / (2.0 * g)
        + 3.0 / (8.0 * g * g)
        - 3.0 / (8.0 * g**3)
        + 63.0 / (128.0 * g**4)
    )
    lo = u - (base - 31.0 / (20.0 * g**5))
    hi = (base + 7.0 / (8.0 * g**5)) - u
    return min(lo, hi)


def _band_mid(g):
    # on [gamma_0, sqrt(2)]: u <= 1 - (gamma_0 - 1)/g
    return (1.0 - (GAMMA_0 - 1.0) / g) - _u(g)


def _band_small(g):
    # on (0, gamma_0]: g/(sqrt(g^2+1)+1) <= u <= g (11/16 - ln(g/2) - C_E)
    u = _u(g)
    lo = u - g / (math.sqrt(g * g + 1.0) + 1.0)
    hi = g * (11.0 / 16.0 - (math.log(0.5 * g) + 0.5772156649015329)) - u
    return min(lo, hi)


def _ratio_quadratic_small(g):
    # on (0, gamma_0]: u^2 + 2u/g - 1 > 0
    u = _u(g)
    return u * u + 2.0 * u / g - 1.0


def _holder_scaled(g):
    # K1^2 <= 3 K0 K2, in scaled form (margin 3 K0 K2 / K1^2 - 1 >= 0)
    k0s, k1s, k2s, _ = bessel._k_all_scaled(g)
    return 3.0 * k0s * k2s / (k1s * k1s) - 1.0


def _holder_ratio(g):
    u = _u(g)
    return 3.0 * u * u + 6.0 * u / g - 1.0


def _ratio_below_one(g):
    return 1.0 - _u(g)


def catalog():
    """The full check catalog; every entry maps to one analytic statement."""
    mono, dia = GasKind.MONATOMIC, GasKind.DIATOMIC
    full = (0.0, math.inf)
    return [
        CheckSpec("cv-positive-monatomic", mono, full, _cv_margin_mono,
                  "specific heat c_V > 0 (strict hyperbolicity input)"),
        CheckSpec("sound-cubic-monatomic", mono, full, _sound_cubic_mono,
                  "cubic ratio bound giving de/dp|_S > 3"),
        CheckSpec("gn-quartic-monatomic", mono, full, _gn_quartic_mono,
                  "quartic positivity giving genuine nonlinearity"),
        CheckSpec("gn-quartic-monatomic-k01", mono, full, _gn_quartic_mono_u,
                  "the same quartic rewritten in K0/K1"),
        CheckSpec("shock-b1-negative-monatomic", mono, full, lambda g: -_b1_mono(g),
                  "shock-curve coefficient B1 < 0"),
        CheckSpec("shock-b2-negative-monatomic", mono, full, lambda g: -_b2_mono(g),
                  "shock-curve coefficient B2 < 0"),
        CheckSpec("shock-b3-positive-monatomic", mono, full, _b3_mono,
                  "shock-curve coefficient B3 > 0"),
        CheckSpec("shock-b1-b2-negative-monatomic", mono, full,
                  lambda g: -(_b1_mono(g) - _b2_mono(g)), "B1 - B2 < 0"),
        CheckSpec("shock-b1-b2-b3-negative-monatomic", mono, full,
                  lambda g: -(_b1_mono(g) - _b2_mono(g) - _b3_mono(g)),
                  "B1 - B2 - B3 < 0"),
        CheckSpec("isentrope-slope-monatomic", mono, full, _slope_margin(mono),
                  "dp/dgamma|_S < 0 (isentrope invertibility)"),
        CheckSpec("compressibility-above-3-monatomic", mono, full, _ep_margin(mono),
                  "de/dp|_S > 3"),
        CheckSpec("sound-speed-range-monatomic", mono, full, _sound_range_margin(mono),
                  "squared sound speed in (0, 1/3)"),
        CheckSpec("cv-positive-diatomic", dia, full, _cv_margin_dia,
                  "specific heat c_V > 0"),
        CheckSpec("sound-cubic-diatomic", dia, full, _sound_cubic_dia,
                  "cubic ratio bound giving de/dp|_S > 3"),
        CheckSpec("gn-quartic-diatomic", dia, full, _gn_quartic_dia,
                  "quartic positivity giving genuine nonlinearity"),
        CheckSpec("shock-b1-negative-diatomic", dia, full, lambda g: -_b1_dia(g),
                  "shock-curve coefficient B1 < 0"),
        CheckSpec("shock-b2-negative-diatomic", dia, full, lambda g: -_b2_dia(g),
                  "shock-curve coefficient B2 < 0"),
        CheckSpec("shock-b3-positive-diatomic", dia, full, _b3_dia,
                  "shock-curve coefficient B3 > 0"),
        CheckSpec("shock-b1-b2-negative-diatomic", dia, full,
                  lambda g: -(_b1_dia(g) - _b2_dia(g)), "B1 - B2 < 0"),
        CheckSpec("shock-b1-b2-b3-negative-diatomic", dia, full,
                  lambda g: -(_b1_dia(g) - _b2_dia(g) - _b3_dia(g)),
                  "B1 - B2 - B3 < 0"),
        CheckSpec("isentrope-slope-diatomic", dia, full, _slope_margin(dia),
                  "dp/dgamma|_S < 0"),
        CheckSpec("compressibility-above-3-diatomic", dia, full, _ep_margin(dia),
                  "de/dp|_S > 3"),
        CheckSpec("sound-speed-range-diatomic", dia, full, _sound_range_margin(dia),
                  "squared sound speed in (0, 1/3)"),
        CheckSpec("ratio-band-coarse", None, (SQRT2, math.inf), _band_coarse,
                  "two-sided K0/K1 envelope on (sqrt(2), inf)"),
        CheckSpec("ratio-band-tight", None, (2.0, math.inf), _band_tight,
                  "five-term K0/K1 envelope on (2, inf)"),
        CheckSpec("ratio-band-mid", None, (GAMMA_0, SQRT2), _band_mid,
                  "upper K0/K1 bound on [gamma_0, sqrt(2)]"),
        CheckSpec("ratio-band-small", None, (0.0, GAMMA_0), _band_small,
                  "two-sided K0/K1 envelope on (0, gamma_0]"),
        CheckSpec("ratio-quadratic-small", None, (0.0, GAMMA_0), _ratio_quadratic_small,
                  "u^2 + 2u/gamma - 1 > 0 on (0, gamma_0]"),
        CheckSpec("holder-k-product", None, full, _holder_scaled,
                  "K1^2 <= 3 K0 K2"),
        CheckSpec("holder-ratio-quadratic", None, full, _holder_ratio,
                  "3 u^2 + 6 u/gamma - 1 >= 0"),
        CheckSpec("ratio-below-one", None, full, _ratio_below_one,
                  "K0 < K1 (orders increase)"),
    ]


def build_grid(gamma_min=1e-6, gamma_max=1e4, points=10000, spacing="log",
               refine_boundaries=True):
    """Evaluation grid; proof-split boundaries get 100 extra points in a
    +-1% neighborhood each."""
    if not 0.0 < gamma_min < gamma_max:
        raise DomainError(f"invalid grid range [{gamma_min!r}, {gamma_max!r}]")
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    if spacing == "log":
        lo, hi = math.log(gamma_min), math.log(gamma_max)
        base = [math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
    elif spacing == "linear":
        base = [gamma_min + (gamma_max - gamma_min) * i / (points - 1) for i in range(points)]
    else:
        raise DomainError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    if refine_boundaries:
        for b in PROOF_BOUNDARIES:
            if gamma_min <= b <= gamma_max:
                for i in range(100):
                    base.append(b * (0.99 + 0.02 * i / 99.0))
    return sorted(set(g for g in base if gamma_min <= g <= gamma_max))


def run_checks(gas_filter=None, gamma_min=1e-6, gamma_max=1e4, points=10000,
               spacing="log", window=eos.DEFAULT_WINDOW, checks=None):
    """Evaluate the catalog on the grid and report worst margins.

    gas_filter: None for everything, or a GasKind to restrict gas-specific
    checks (gas-independent ones always run).  `checks` overrides the
    catalog (used by the self-test harness).
    """
    if not (window[0] <= gamma_min and gamma_max <= window[1]):
        raise WindowError(gamma_min if gamma_min < window[0] else gamma_max, window,
                          "verification grid")
    grid = build_grid(gamma_min, gamma_max, points, spacing)
    active = list(catalog() if checks is None else checks)
    if gas_filter is not None:
        active = [c for c in active if c.gas is None or c.gas is gas_filter]
    results = []
    for spec in active:
        lo, hi = spec.domain
        worst = math.inf
        worst_g = math.nan
        n = 0
        for g in grid:
            # proof domains are (lo, hi]; the refinement points straddle
            # each boundary so both sides get probed
            if not lo < g <= hi:
                continue
            m = spec.margin(g)
            n += 1
            if m < worst:
                worst = m
                worst_g = g
        results.append(
            CheckResult(
                id=spec.id,
                gas=spec.gas.value if spec.gas is not None else None,
                # fail iff the predicate is violated at >= 1 grid point;
                # a check whose domain misses the grid passes vacuously
                passed=bool(n == 0 or worst > 0.0),
                worst_gamma=worst_g,
                worst_margin=worst if n > 0 else math.nan,
                points=n,
                description=spec.description,
            )
        )
    return CheckReport(
        results=tuple(results),
        grid={
            "gamma_min": gamma_min,
            "gamma_max": gamma_max,
            "points": points,
            "spacing": spacing,
            "evaluated_points": len(grid),
        },
    )
