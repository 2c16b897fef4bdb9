"""Machine verification of the analytic inequality catalog.

Every inequality that underpins the solver (positivity of specific heats,
sub-luminal sound, genuine-nonlinearity signs, the shock-curve sign lemmas,
and the two-sided Bessel-ratio envelopes) is checked pointwise on a
configurable coldness grid with worst-margin reporting.  This is
falsification-style regression assurance for the implementation, not a
proof; the analysis guarantees the inequalities on all of (0, inf).

The grid is a tuple of GridPoint records, built once per grid: each holds
gamma, the ratios u = K0/K1 and z = K1/K2, and the scaled pair e^gamma K0,
e^gamma K1, all from one kernel evaluation.  Every margin is a function of
one GridPoint.  Each Bessel-ratio predicate is written once as P(gamma, q)
in one ratio; the eos-backed margins call `eos` at the point's gamma.

Predicates whose defining polynomials cancel at large gamma (the
genuine-nonlinearity quartics, the tight ratio envelopes) switch to exact
series forms beyond gamma = 30 so reported margins stay meaningful down to
~1e-20.
"""

import bisect
import functools
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


@dataclass(frozen=True, slots=True)
class GridPoint:
    """One coldness gamma with the Bessel data the margins read there:
    u = K0/K1, z = K1/K2 and the scaled pair e^gamma K0, e^gamma K1."""

    gamma: float
    u: float
    z: float
    k0s: float
    k1s: float


def grid_point(gamma):
    """The GridPoint at gamma, from one cached kernel evaluation.  u and z
    are formed exactly as in bessel.k0_over_k1 and bessel.k1_over_k2, so
    they equal those ratios bit for bit."""
    bessel._check_gamma(gamma)
    _, k0s, _, k1s = bessel._k01_cached(gamma)
    return GridPoint(gamma, k0s / k1s, k1s / (2.0 * k1s / gamma + k0s), k0s, k1s)


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable inequality: margin(point) > 0 at every GridPoint whose
    gamma lies in `domain` means pass."""

    id: str
    gas: Optional[GasKind]  # None: gas-independent (Bessel level)
    domain: Tuple[float, float]
    margin: Callable[[GridPoint], float]
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


# --- monatomic predicates (z = K1/K2) -------------------------------------


def _sound_cubic_mono(g, z):
    return -(g * z**3 + 4.0 * z * z - g * z - 1.0)


def _gn_quartic_mono(g, z):
    if g >= _SWITCH:
        return _series.horner(_series.GN_QUARTIC_MONO, 1.0 / g) * g * g
    return (
        g * g * z**4
        + 4.0 * g * z**3
        - (2.0 * g * g + 9.0) * z * z
        - (4.0 * g + 33.0 / g) * z
        + g * g
        + 12.0
        + 12.0 / (g * g)
    )


def _gn_quartic_mono_u(g, u):
    if g >= _SWITCH:
        return _series.horner(_series.GN_QUARTIC_MONO_U, 1.0 / g) * g * g
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


def _b1_mono(g, z):
    return g * g * z**3 + 7.0 * g * z * z + (8.0 - g * g) * z - 4.0 * g - 16.0 / g


def _b2_mono(g, z):
    return g * z * z + 2.0 * z - g - 8.0 / g


def _b3_mono(g, z):
    return g * z * z + 4.0 * z - g


# --- eos-backed margins, either gas -----------------------------------------


def _cv_margin(gas):
    def m(p):
        return eos.specific_heats(gas, p.gamma)[0]

    return m


def _slope_margin(gas):
    def m(p):
        return -eos.pressure_coldness_slope(gas, p.gamma)

    return m


def _ep_margin(gas):
    def m(p):
        return eos.e_p(gas, p.gamma) - 3.0

    return m


def _sound_range_margin(gas):
    def m(p):
        pe = 1.0 / eos.e_p(gas, p.gamma)
        return min(pe, 1.0 / 3.0 - pe)

    return m


# --- diatomic predicates (u = K0/K1) ---------------------------------------


def _sound_cubic_dia(g, u):
    return -(g * g * u**3 + 2.0 * g * u * u - (g * g + 2.0) * u - g)


def _gn_quartic_dia(g, u):
    if g >= _SWITCH:
        return _series.horner(_series.GN_QUARTIC_DIA, 1.0 / g) * g * g
    return g * g * (1.0 - u * u) ** 2 - 11.0 * u * u - 9.0 * u / g + 10.0 + 12.0 / (g * g)


def _b1_dia(g, u):
    return g * g * u**3 + 5.0 * g * u * u - g * g * u - 4.0 * g - 16.0 / g


def _b2_dia(g, u):
    return g * u * u - g - 8.0 / g


def _b3_dia(g, u):
    return g * u * u + 2.0 * u - g


# --- gas-independent Bessel-ratio predicates (u = K0/K1) --------------------


def _band_coarse(g, u):
    if g >= _SWITCH:
        e = 1.0 / g
        return min(
            _series.horner(_series.RATIO_BAND_COARSE_LOWER, e),
            _series.horner(_series.RATIO_BAND_COARSE_UPPER, e),
        )
    lo = u - (1.0 - 1.0 / (2.0 * g))
    hi = (1.0 - 1.0 / (2.0 * g) + 3.0 / (8.0 * g * g) + 3.0 / (16.0 * g**3)) - u
    return min(lo, hi)


def _band_tight(g, u):
    if g >= _SWITCH:
        e = 1.0 / g
        return min(
            _series.horner(_series.RATIO_BAND_TIGHT_LOWER, e),
            _series.horner(_series.RATIO_BAND_TIGHT_UPPER, e),
        )
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


def _band_mid(g, u):
    # on [gamma_0, sqrt(2)]: u <= 1 - (gamma_0 - 1)/g
    return (1.0 - (GAMMA_0 - 1.0) / g) - u


def _band_small(g, u):
    # on (0, gamma_0]: g/(sqrt(g^2+1)+1) <= u <= g (11/16 - ln(g/2) - C_E)
    lo = u - g / (math.sqrt(g * g + 1.0) + 1.0)
    hi = g * (11.0 / 16.0 - (math.log(0.5 * g) + 0.5772156649015329)) - u
    return min(lo, hi)


def _ratio_quadratic_small(g, u):
    # on (0, gamma_0]: u^2 + 2u/g - 1 > 0
    return u * u + 2.0 * u / g - 1.0


def _holder_scaled(p):
    # K1^2 <= 3 K0 K2, in scaled form (margin 3 K0 K2 / K1^2 - 1 >= 0), with
    # K2 from the recurrence as in bessel._k_all_scaled
    k0s, k1s = p.k0s, p.k1s
    k2s = 2.0 * k1s / p.gamma + k0s
    return 3.0 * k0s * k2s / (k1s * k1s) - 1.0


def _holder_ratio(g, u):
    return 3.0 * u * u + 6.0 * u / g - 1.0


def catalog():
    """The full check catalog; every entry maps to one analytic statement."""
    mono, dia = GasKind.MONATOMIC, GasKind.DIATOMIC
    full = (0.0, math.inf)
    return [
        CheckSpec("cv-positive-monatomic", mono, full, _cv_margin(mono),
                  "specific heat c_V > 0 (strict hyperbolicity input)"),
        CheckSpec("sound-cubic-monatomic", mono, full,
                  lambda p: _sound_cubic_mono(p.gamma, p.z),
                  "cubic ratio bound giving de/dp|_S > 3"),
        CheckSpec("gn-quartic-monatomic", mono, full,
                  lambda p: _gn_quartic_mono(p.gamma, p.z),
                  "quartic positivity giving genuine nonlinearity"),
        CheckSpec("gn-quartic-monatomic-k01", mono, full,
                  lambda p: _gn_quartic_mono_u(p.gamma, p.u),
                  "the same quartic rewritten in K0/K1"),
        CheckSpec("shock-b1-negative-monatomic", mono, full,
                  lambda p: -_b1_mono(p.gamma, p.z),
                  "shock-curve coefficient B1 < 0"),
        CheckSpec("shock-b2-negative-monatomic", mono, full,
                  lambda p: -_b2_mono(p.gamma, p.z),
                  "shock-curve coefficient B2 < 0"),
        CheckSpec("shock-b3-positive-monatomic", mono, full,
                  lambda p: _b3_mono(p.gamma, p.z),
                  "shock-curve coefficient B3 > 0"),
        CheckSpec("shock-b1-b2-negative-monatomic", mono, full,
                  lambda p: -(_b1_mono(p.gamma, p.z) - _b2_mono(p.gamma, p.z)),
                  "B1 - B2 < 0"),
        CheckSpec("shock-b1-b2-b3-negative-monatomic", mono, full,
                  lambda p: -(_b1_mono(p.gamma, p.z) - _b2_mono(p.gamma, p.z)
                              - _b3_mono(p.gamma, p.z)),
                  "B1 - B2 - B3 < 0"),
        CheckSpec("isentrope-slope-monatomic", mono, full, _slope_margin(mono),
                  "dp/dgamma|_S < 0 (isentrope invertibility)"),
        CheckSpec("compressibility-above-3-monatomic", mono, full, _ep_margin(mono),
                  "de/dp|_S > 3"),
        CheckSpec("sound-speed-range-monatomic", mono, full, _sound_range_margin(mono),
                  "squared sound speed in (0, 1/3)"),
        CheckSpec("cv-positive-diatomic", dia, full, _cv_margin(dia),
                  "specific heat c_V > 0"),
        CheckSpec("sound-cubic-diatomic", dia, full,
                  lambda p: _sound_cubic_dia(p.gamma, p.u),
                  "cubic ratio bound giving de/dp|_S > 3"),
        CheckSpec("gn-quartic-diatomic", dia, full,
                  lambda p: _gn_quartic_dia(p.gamma, p.u),
                  "quartic positivity giving genuine nonlinearity"),
        CheckSpec("shock-b1-negative-diatomic", dia, full,
                  lambda p: -_b1_dia(p.gamma, p.u),
                  "shock-curve coefficient B1 < 0"),
        CheckSpec("shock-b2-negative-diatomic", dia, full,
                  lambda p: -_b2_dia(p.gamma, p.u),
                  "shock-curve coefficient B2 < 0"),
        CheckSpec("shock-b3-positive-diatomic", dia, full,
                  lambda p: _b3_dia(p.gamma, p.u),
                  "shock-curve coefficient B3 > 0"),
        CheckSpec("shock-b1-b2-negative-diatomic", dia, full,
                  lambda p: -(_b1_dia(p.gamma, p.u) - _b2_dia(p.gamma, p.u)),
                  "B1 - B2 < 0"),
        CheckSpec("shock-b1-b2-b3-negative-diatomic", dia, full,
                  lambda p: -(_b1_dia(p.gamma, p.u) - _b2_dia(p.gamma, p.u)
                              - _b3_dia(p.gamma, p.u)),
                  "B1 - B2 - B3 < 0"),
        CheckSpec("isentrope-slope-diatomic", dia, full, _slope_margin(dia),
                  "dp/dgamma|_S < 0"),
        CheckSpec("compressibility-above-3-diatomic", dia, full, _ep_margin(dia),
                  "de/dp|_S > 3"),
        CheckSpec("sound-speed-range-diatomic", dia, full, _sound_range_margin(dia),
                  "squared sound speed in (0, 1/3)"),
        CheckSpec("ratio-band-coarse", None, (SQRT2, math.inf),
                  lambda p: _band_coarse(p.gamma, p.u),
                  "two-sided K0/K1 envelope on (sqrt(2), inf)"),
        CheckSpec("ratio-band-tight", None, (2.0, math.inf),
                  lambda p: _band_tight(p.gamma, p.u),
                  "five-term K0/K1 envelope on (2, inf)"),
        CheckSpec("ratio-band-mid", None, (GAMMA_0, SQRT2),
                  lambda p: _band_mid(p.gamma, p.u),
                  "upper K0/K1 bound on [gamma_0, sqrt(2)]"),
        CheckSpec("ratio-band-small", None, (0.0, GAMMA_0),
                  lambda p: _band_small(p.gamma, p.u),
                  "two-sided K0/K1 envelope on (0, gamma_0]"),
        CheckSpec("ratio-quadratic-small", None, (0.0, GAMMA_0),
                  lambda p: _ratio_quadratic_small(p.gamma, p.u),
                  "u^2 + 2u/gamma - 1 > 0 on (0, gamma_0]"),
        CheckSpec("holder-k-product", None, full, _holder_scaled,
                  "K1^2 <= 3 K0 K2"),
        CheckSpec("holder-ratio-quadratic", None, full,
                  lambda p: _holder_ratio(p.gamma, p.u),
                  "3 u^2 + 6 u/gamma - 1 >= 0"),
        CheckSpec("ratio-below-one", None, full, lambda p: 1.0 - p.u,
                  "K0 < K1 (orders increase)"),
    ]


@functools.lru_cache(maxsize=4)
def build_grid(gamma_min=1e-6, gamma_max=1e4, points=10000, spacing="log",
               refine_boundaries=True):
    """Sorted evaluation grid as an immutable tuple; proof-split boundaries
    get 100 extra points in a +-1% neighborhood each.

    The grid depends on its arguments alone, so the most recent few grids are
    cached and repeated `run_checks` calls share one tuple.
    """
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
    return tuple(sorted(set(g for g in base if gamma_min <= g <= gamma_max)))


@functools.lru_cache(maxsize=4)
def _grid_points(gamma_min, gamma_max, points, spacing):
    """build_grid's gammas as GridPoints, one kernel evaluation each."""
    return tuple(map(grid_point, build_grid(gamma_min, gamma_max, points, spacing)))


def _domain_slice(grid, domain):
    """The slice of the sorted `grid` in the proof domain (lo, hi]; the
    refinement points straddle each boundary so both sides get probed."""
    lo, hi = domain
    return slice(bisect.bisect_right(grid, lo), bisect.bisect_right(grid, hi))


def run_checks(gas_filter=None, gamma_min=1e-6, gamma_max=1e4, points=10000,
               spacing="log", window=eos.DEFAULT_WINDOW, checks=None):
    """Evaluate the catalog on the grid and report worst margins.

    gas_filter: None for everything, or a GasKind to restrict gas-specific
    checks (gas-independent ones always run).  `checks` overrides the
    catalog (used by the self-test harness).

    [gamma_min, gamma_max] must lie in both `window` and eos.DEFAULT_WINDOW,
    else WindowError ("verification grid") names the window it leaves: the
    catalog's eos-backed margins are accurate only in DEFAULT_WINDOW, and
    beyond it roundoff alone makes predicates fail, so a wider `window`
    does not widen the grid.  A narrower one restricts it.

    The grid is built once per argument set as a tuple of GridPoints, so
    every check reads the Bessel ratios of a point from that record instead
    of fetching them again.  Each check scans the slice of the sorted grid in
    its proof domain (lo, hi], found by bisection on the gammas.  The worst
    margin is the first minimum along the slice; a NaN margin fails the
    check at the first gamma where it occurs.  A check whose domain holds no
    grid point passes vacuously.
    """
    for w in (window, eos.DEFAULT_WINDOW):
        if not (w[0] <= gamma_min and gamma_max <= w[1]):
            raise WindowError(gamma_min if gamma_min < w[0] else gamma_max, w,
                              "verification grid")
    grid = build_grid(gamma_min, gamma_max, points, spacing)
    grid_points = _grid_points(gamma_min, gamma_max, points, spacing)
    active = list(catalog() if checks is None else checks)
    if gas_filter is not None:
        active = [c for c in active if c.gas is None or c.gas is gas_filter]
    results = []
    for spec in active:
        domain = grid_points[_domain_slice(grid, spec.domain)]
        margin = spec.margin
        worst = math.inf
        worst_p = None
        for p in domain:
            m = margin(p)
            if not m >= worst:  # a new first minimum, or NaN
                worst = m
                worst_p = p
                if m != m:
                    break
        n = len(domain)
        results.append(
            CheckResult(
                id=spec.id,
                gas=spec.gas.value if spec.gas is not None else None,
                # fail iff the predicate is violated or undefined at >= 1
                # grid point; an empty domain passes vacuously
                passed=bool(n == 0 or worst > 0.0),
                worst_gamma=math.nan if worst_p is None else worst_p.gamma,
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
