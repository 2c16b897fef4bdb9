"""The four workloads: seeded inputs, one library call per operation, and
the checks each result must pass.

A workload is built once per process from its seed, warms the package up
(`warm_up`), then hands out rounds of operations (`round_ops`).  Every
round holds the same number of operations of the same kinds, so a failure
that repeats in every round is the same share of every run.  Each round's
results are checked after it (`Op.check`) against `oracle`, which shares
no code with the package."""

import math
import random
from dataclasses import dataclass
from typing import Callable, List

import numpy

# Reference values from the independent high-precision implementation that
# froze the fixtures of tests/test_riemann.py (mpmath Bessel functions,
# bisection to 1e-14, its own quadrature of the invariant integral).
SOD_PM = {"monatomic": 0.31244502886190321, "diatomic": 0.31220343752497326}
SOD_VM = {"monatomic": 0.43761668036278029, "diatomic": 0.42475056027230582}
MIRROR_PM = {"monatomic": 0.60780560536556746}
REFERENCE_TOL = 1e-8
# share of the largest term to which a fan must meet its integral law
FAN_BALANCE_TOL = 1e-4

GASES = ("monatomic", "diatomic")
SERIES_SWITCH = 30.0


@dataclass
class Op:
    """One library call.  `check(result, round_results)` returns a list of
    problems; `known_fault` marks an operation that a named program fault
    makes fail, which is counted as failed rather than incorrect."""

    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], List[str]]
    known_fault: bool = False


# ---------------------------------------------------------------------------
# solve checks


def _state_tuple(st):
    return (st.rho, st.v, st.p, st.e)


# how much of `oracle` a solution check uses
BASIC, SPEEDS, FULL = 0, 1, 2


def check_solution(gas, sol, c, level=FULL):
    """Properties every exact Riemann solution must have.

    BASIC: wave speeds ordered and below c, p and v continuous across the
    contact, Rankine-Hugoniot across every shock and the contact.
    SPEEDS adds the Lax inequalities, fan edges equal to the characteristic
    speeds, and fans that keep the entropy; FULL adds e/p at the star
    states against mpmath.  The higher levels cost milliseconds per state,
    so the workloads with many ops apply them to a stride of their ops.
    """
    import oracle

    probs = []
    left, right = sol.input.left, sol.input.right
    speeds = []
    for w in sol.waves:
        speeds.extend([w.speed_lo, w.speed_hi])
    if speeds != sorted(speeds):
        probs.append(f"wave speeds not ordered: {speeds}")
    if any(not abs(s) < c for s in speeds):
        probs.append(f"wave speed not below c: {speeds}")

    def lam(st, family):
        return oracle.acoustic_speeds(gas, st.gamma, st.v, c)[0 if family == 1 else 1]

    if sol.vacuum:
        fan1, _, fan3 = sol.waves
        if level >= SPEEDS and (abs(fan1.speed_lo - lam(left, 1)) > 1e-8 * c
                                or abs(fan3.speed_hi - lam(right, 3)) > 1e-8 * c):
            probs.append("vacuum fan outer edges differ from lambda of the data")
        return probs

    ml, mr = sol.u_ml, sol.u_mr
    if abs(ml.p - mr.p) > 1e-10 * sol.p_m or abs(ml.p - sol.p_m) > 1e-10 * sol.p_m:
        probs.append(f"p not continuous across the contact: {ml.p!r} {mr.p!r} {sol.p_m!r}")
    if max(abs(ml.v - sol.v_m), abs(mr.v - sol.v_m)) > 1e-9 * c:
        probs.append(f"v not continuous across the contact: {ml.v!r} {mr.v!r} {sol.v_m!r}")

    for w in sol.waves:
        if w.kind == "contact":
            if abs(w.speed_lo - sol.v_m) > 1e-12 * c:
                probs.append("contact speed differs from v_m")
            res = oracle.jump_residual(_state_tuple(ml), _state_tuple(mr), w.speed_lo, c)
            if res > 1e-8:
                probs.append(f"contact jump residual {res:.2e}")
            continue
        outer, inner = (left, ml) if w.family == 1 else (right, mr)
        if w.kind == "shock":
            s = w.speed_lo
            res = oracle.jump_residual(_state_tuple(outer), _state_tuple(inner), s, c)
            if res > 1e-8:
                probs.append(f"{w.family}-shock Rankine-Hugoniot residual {res:.2e}")
        if level < SPEEDS:
            continue
        lam_out, lam_in = lam(outer, w.family), lam(inner, w.family)
        if w.kind == "shock":
            # Lax: the family's characteristics run into the shock from both
            # sides; the outer state is upstream of a 1-shock and of a 3-shock
            tol = 1e-9 * c
            lo, hi = (lam_in, lam_out) if w.family == 1 else (lam_out, lam_in)
            if not lo - tol < s < hi + tol:
                probs.append(f"{w.family}-shock violates Lax: s={s!r} "
                             f"lambda_out={lam_out!r} lambda_in={lam_in!r}")
        else:
            head, tail = (lam_out, lam_in) if w.family == 1 else (lam_in, lam_out)
            if abs(w.speed_lo - head) > 1e-8 * c or abs(w.speed_hi - tail) > 1e-8 * c:
                probs.append(f"{w.family}-fan edges {w.speed_lo!r},{w.speed_hi!r} differ "
                             f"from lambda {head!r},{tail!r}")
            s_out = oracle.entropy(gas, outer.gamma, outer.rho, c)
            ds = oracle.entropy(gas, inner.gamma, inner.rho, c) - s_out
            if abs(ds) > 1e-8 * max(1.0, abs(s_out)):
                probs.append(f"{w.family}-fan does not keep the entropy: jump {ds:.2e}")

    if level >= FULL:
        for st in (ml, mr):
            want = oracle.energy_ratio_mp(gas, st.gamma)
            if abs(st.e / st.p - want) > 1e-10 * want:
                probs.append(f"e/p={st.e / st.p!r} at gamma={st.gamma!r}, mpmath gives {want!r}")
    return probs


# ---------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class Problem:
    """Dimensionless Riemann data: (rho, v/c, p/c^2) on each side."""

    name: str
    gas: str
    left: tuple
    right: tuple


def _pose(pkg, prob, c=1.0):
    """RiemannInput and Units for a problem posed at light speed c."""
    eos = pkg.eos
    units = eos.Units(c=c)
    gas = eos.GasKind(prob.gas)

    def state(rho, v, p):
        return eos.state_from_primitive(gas, rho, v * c, p * c * c, units=units)

    inp = pkg.riemann.RiemannInput(gas=gas, left=state(*prob.left), right=state(*prob.right))
    return inp, units


def fixed_problems(gas):
    """The fixed set: Sod, a 1e5 pressure-ratio shock, the mirror expansion,
    near-vacuum at |v| = 0.9999 and shock-shock at +-0.99."""
    return {
        "sod": Problem("sod", gas, (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)),
        "mirror": Problem("mirror", gas, (1.0, -0.2, 1.0), (1.0, 0.2, 1.0)),
        "shock-1e5": Problem("shock-1e5", gas, (1.0, 0.0, 1e3), (1.0, 0.0, 1e-2)),
        "vacuum-0.9999": Problem("vacuum-0.9999", gas, (1.0, -0.9999, 1.0), (1.0, 0.9999, 1.0)),
        "shock-shock-0.99": Problem("shock-shock-0.99", gas, (1.0, 0.99, 1.0), (1.0, -0.99, 1.0)),
    }


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _side(rng, gamma_lo, gamma_hi, p_lo, p_hi, v=0.0):
    """(rho, v, p) with coldness log-uniform in [gamma_lo, gamma_hi]."""
    gamma = _loguniform(rng, gamma_lo, gamma_hi)
    p = _loguniform(rng, p_lo, p_hi)
    return (gamma * p, v, p)


# Templates of the seeded problems of `solve-mixed`, as (rho, v, p) pairs:
# every wave pattern, coldness from 2e-6 to 5e3, |v| up to 0.9998.  Each op
# jitters one template by a few percent, so that no two inputs repeat and
# the program's caches cannot serve them, while the cost of a round hardly
# depends on the seed.
MIXED_TEMPLATES = {
    "tube-left": ((2.5, 0.0, 5.0), (1.0, 0.0, 0.05)),             # R C S
    "tube-right": ((1.0, 0.0, 0.01), (0.01, 0.0, 10.0)),          # S C R
    "boosted": ((2.0, 0.99, 1.0), (0.5, 0.99, 0.1)),              # R C S at 0.99 c
    "collide": ((1.0, 0.9, 1.0), (5.0, -0.5, 0.5)),               # S C S
    "diverge": ((0.3, -0.2, 1.0), (1.5, 0.25, 0.5)),              # R C R
    "vacuum": ((50.0, -0.9995, 1.0), (60.0, 0.9998, 0.3)),        # R vacuum R
    "window-edges": ((1e-5, 0.0, 5.0), (25.0, 0.0, 0.005)),       # gamma 2e-6 and 5e3
    "contact": ((1.4, 0.5, 2.0), (14.0, 0.5, 2.0)),               # C alone
}


def _boost(v, rapidity):
    """Velocity v (in units of c) boosted by the given rapidity."""
    return math.tanh(math.atanh(v) + rapidity)


def _jitter(rng, name, gas, template):
    """The template with rho and p scaled by up to 10% and the rapidity
    shifted by up to 0.05; both sides share one shift of v and of p where
    the template has equal v and p (the pure contact)."""
    (rl, vl, pl), (rr, vr, pr) = template
    shared = vl == vr and pl == pr
    def draw():
        return rng.uniform(-0.05, 0.05), math.exp(rng.uniform(-0.1, 0.1))

    dvl, dpl = draw()
    dvr, dpr = (dvl, dpl) if shared else draw()
    left = (rl * math.exp(rng.uniform(-0.1, 0.1)), _boost(vl, dvl), pl * dpl)
    right = (rr * math.exp(rng.uniform(-0.1, 0.1)), _boost(vr, dvr), pr * dpr)
    return Problem(name, gas, left, right)


def _reference_problems(sol, prob):
    """Problems comparing a c = 1 solution with the fixed reference values."""
    probs = []
    if prob.name == "sod":
        if abs(sol.p_m - SOD_PM[prob.gas]) > REFERENCE_TOL or abs(
            sol.v_m - SOD_VM[prob.gas]
        ) > REFERENCE_TOL:
            probs.append(f"Sod ({prob.gas}) p_m={sol.p_m!r} v_m={sol.v_m!r} off the reference")
    elif prob.name == "mirror":
        if prob.gas in MIRROR_PM and abs(sol.p_m - MIRROR_PM[prob.gas]) > REFERENCE_TOL:
            probs.append(f"mirror ({prob.gas}) p_m={sol.p_m!r} off the reference")
        if abs(sol.v_m) > 1e-10:
            probs.append(f"mirror ({prob.gas}) v_m={sol.v_m!r} is not 0")
    return probs


def _scaled_problems(sol, ref, c):
    """A solution posed at light speed c against its c = 1 answer, scaled:
    p by c^2, velocities and wave speeds by c, coldness unchanged."""
    if ref is None:
        return ["the c = 1 answer of the same round is missing"]
    pairs = [("p_m", sol.p_m / c**2, ref.p_m), ("v_m", sol.v_m / c, ref.v_m),
             ("u_ml.v", sol.u_ml.v / c, ref.u_ml.v), ("u_mr.v", sol.u_mr.v / c, ref.u_mr.v),
             ("u_ml.gamma", sol.u_ml.gamma, ref.u_ml.gamma)]
    pairs += [(f"wave {w.family} speed", w.speed_lo / c, r.speed_lo)
              for w, r in zip(sol.waves, ref.waves)]
    return [f"c={c:g}: {name}/c^k = {got!r}, c = 1 gives {want!r}"
            for name, got, want in pairs if abs(got - want) > 1e-8 * max(1.0, abs(want))]


def warm_up_solver(pkg):
    """Solve and sample a mild shock tube of each gas, outside the timed set,
    so that the lazy scipy imports of solve, gamma_from and waves are done."""
    for gas in GASES:
        inp, units = _pose(pkg, Problem("warm-up", gas, (2.0, 0.0, 2.0), (1.0, 0.0, 1.0)))
        sol = pkg.riemann.solve(inp, units)
        fan = sol.waves[0]
        pkg.riemann.sample(sol, 0.5 * (fan.speed_lo + fan.speed_hi), units)


class SolveWorkload:
    """One `riemann.solve` per op."""

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.rng = random.Random(f"{self.name}:{seed}")

    def _solve_op(self, prob, c=1.0, tag="", level=FULL, known_fault=False, min_gamma=0.0):
        """The op solving `prob` at light speed c.  Its check compares a c = 1
        answer with the reference values and a c != 1 answer with the c = 1
        answer of the same round; min_gamma bounds the coldness of every
        state of the solution from below."""
        inp, units = _pose(self.pkg, prob, c)
        label = f"{prob.name}-{prob.gas}{tag}"

        def call():
            return self.pkg.riemann.solve(inp, units)

        def check(sol, round_results):
            probs = check_solution(prob.gas, sol, c, level)
            if c == 1.0:
                probs += _reference_problems(sol, prob)
            else:
                probs += _scaled_problems(sol, round_results.get(f"{prob.name}-{prob.gas}"), c)
            states = [sol.input.left, sol.input.right]
            if not sol.vacuum:
                states += [sol.u_ml, sol.u_mr]
            low = [st.gamma for st in states if st.gamma < min_gamma]
            if low:
                probs.append(f"coldness {low} below {min_gamma:g}")
            return probs

        return Op(label, call, check, known_fault)

    def warm_up(self):
        warm_up_solver(self.pkg)


class SolveMixed(SolveWorkload):
    """Each round: the fixed set in one gas, Sod and the mirror expansion
    again at c = 2, and one jittered copy of every template in
    MIXED_TEMPLATES; the gases alternate between rounds and templates, so
    every round costs about the same.  e/p is compared with mpmath on every
    FULL_STRIDE-th op, rotating through the kinds."""

    name = "solve-mixed"
    SCALED = ("sod", "mirror")
    FULL_STRIDE = 3

    def round_ops(self, r):
        # (problem, light speed, label suffix, known fault)
        plan = []
        for name, prob in fixed_problems(GASES[r % 2]).items():
            plan.append((prob, 1.0, "", False))
            if name in self.SCALED:
                plan.append((prob, 2.0, "-c2", True))
        for i, (kind, template) in enumerate(MIXED_TEMPLATES.items()):
            plan.append((_jitter(self.rng, kind, GASES[(r + i) % 2], template), 1.0,
                         f"-r{r}", False))
        return [self._solve_op(prob, c, tag, FULL if (i + r) % self.FULL_STRIDE == 0 else SPEEDS,
                               fault)
                for i, (prob, c, tag, fault) in enumerate(plan)]


class SolveCold(SolveWorkload):
    """Classical-limit data: coldness >= 300 on both sides, relative
    velocities under 0.03 c in the frame of a common boost up to 0.9 c,
    and pressure ratios within 10^+-0.5, so every state of the solution
    stays above gamma = 30.  Every op gets the BASIC checks, every
    SPEEDS_STRIDE-th the SPEEDS checks and the first of each round FULL."""

    name = "solve-cold"
    PER_ROUND = 16
    SPEEDS_STRIDE = 8

    def round_ops(self, r):
        ops = []
        rng = self.rng
        for i in range(self.PER_ROUND):
            w = rng.uniform(-0.9, 0.9)
            vl = _boost(w, rng.uniform(-0.03, 0.03))
            vr = _boost(w, rng.uniform(-0.03, 0.03))
            left = _side(rng, 300.0, 3000.0, 1.0, 1.0, vl)
            right = _side(rng, 300.0, 3000.0, 10.0**-0.5, 10.0**0.5, vr)
            prob = Problem("cold", GASES[i % 2], left, right)
            level = FULL if i == 0 else SPEEDS if i % self.SPEEDS_STRIDE == 0 else BASIC
            ops.append(self._solve_op(prob, tag=f"-r{r}-{i}", level=level,
                                      min_gamma=SERIES_SWITCH))
        return ops


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = numpy.polynomial.legendre.leggauss(n)
    return [0.5 * (t + 1.0) for t in x], [0.5 * wi for wi in w]


def graded_nodes(a, b, n, split):
    """n quadrature nodes and weights on [a, b], graded toward both ends.

    xi = a + (b - a) psi(t) with psi(t) = t^2 / (t^2 + (1-t)^2), whose
    derivative vanishes at both ends; t runs over two Gauss-Legendre panels
    of n/2 nodes, [0, split] and [split, 1].  psi is analytic on [0, 1] with
    its nearest poles at t = (1 +- i)/2, so the rule converges fast on the
    smooth fans; a steeper psi (t^3 ...) has poles nearer the interval and
    needed twice the nodes for the same accuracy.
    """
    ts, ws = gauss_legendre(n // 2)
    nodes, weights = [], []
    for lo, hi in ((0.0, split), (split, 1.0)):
        for t0, w0 in zip(ts, ws):
            t, w = lo + (hi - lo) * t0, (hi - lo) * w0
            den = t * t + (1.0 - t) ** 2
            nodes.append(a + (b - a) * t * t / den)
            weights.append((b - a) * 2.0 * t * (1.0 - t) / den**2 * w)
    return nodes, weights


class SampleFans:
    """`riemann.sample` at graded Gauss nodes inside the 1- and 3-fans of
    four problems solved in set-up: a two-rarefaction problem and a problem
    with a vacuum, for each gas, each a jittered copy of FAN_TEMPLATES.
    Each round draws a new split point of the two Gauss panels, so no two
    rounds sample the same xi."""

    name = "sample-fans"
    NODES = 12
    FAN_TEMPLATES = {
        "expand": ((1.0, -0.3, 1.0), (2.4, 0.3, 0.8)),                   # R C R
        "vacuum": ((3.0, -0.99995, 1.0), (2.5, 0.99995, 0.5)),           # R vacuum R
    }

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.rng = random.Random(f"{self.name}:{seed}")
        self.solutions = []
        for name, template in self.FAN_TEMPLATES.items():
            for gas in GASES:
                prob = _jitter(self.rng, name, gas, template)
                inp, units = _pose(pkg, prob)
                self.solutions.append((prob, pkg.riemann.solve(inp, units), units))

    def warm_up(self):
        warm_up_solver(self.pkg)

    def round_ops(self, r):
        split = self.rng.uniform(0.3, 0.7)
        ops = []
        for prob, sol, units in self.solutions:
            fans = [w for w in sol.waves if w.kind == "rarefaction"]
            for fan in fans:
                fan_id = f"{prob.name}-{prob.gas}-{fan.family}"
                nodes, weights = graded_nodes(fan.speed_lo, fan.speed_hi, self.NODES, split)
                for k, xi in enumerate(nodes):
                    ops.append(self._sample_op(prob, sol, units, fan, fan_id, k, xi, weights))
        return ops

    def _sample_op(self, prob, sol, units, fan, fan_id, k, xi, weights):
        sample = self.pkg.riemann.sample
        gas = prob.gas
        outer = sol.input.left if fan.family == 1 else sol.input.right

        def call():
            return sample(sol, xi, units)

        def check(st, round_results):
            import oracle

            probs = []
            if not st.is_vacuum:
                lam = oracle.acoustic_speeds(gas, st.gamma, st.v, 1.0)[0 if fan.family == 1 else 1]
                if abs(lam - xi) > 1e-8:
                    probs.append(f"{fan_id}: lambda(u(xi))={lam!r} at xi={xi!r}")
                s_out = oracle.entropy(gas, outer.gamma, outer.rho, 1.0)
                ds = oracle.entropy(gas, st.gamma, st.rho, 1.0) - s_out
                if abs(ds) > 1e-8 * max(1.0, abs(s_out)):
                    probs.append(f"{fan_id}: entropy jump {ds:.2e} at xi={xi!r}")
            if k == len(weights) - 1:
                states = [round_results[f"{fan_id}-{j}"] for j in range(len(weights))]
                probs += _fan_balance(sol, fan, states, weights, fan_id)
            return probs

        return Op(f"{fan_id}-{k}", call, check)


def _fan_balance(sol, fan, states, weights, fan_id):
    """The integral conservation law of a self-similar solution over the fan
    [a, b]: int_a^b U dxi = b U(b) - a U(a) - (F(U(b)) - F(U(a)))."""
    import oracle

    # U = F = 0 in vacuum (st None or the package's vacuum marker)
    def cons(st):
        vacuum = st is None or st.is_vacuum
        return (0.0,) * 3 if vacuum else oracle.conserved(*_state_tuple(st), 1.0)

    def flx(st):
        vacuum = st is None or st.is_vacuum
        return (0.0,) * 3 if vacuum else oracle.flux(*_state_tuple(st), 1.0)

    if fan.family == 1:
        ua, ub = sol.input.left, sol.u_ml
    else:
        ua, ub = sol.u_mr, sol.input.right
    a, b = fan.speed_lo, fan.speed_hi
    probs = []
    cu = [cons(st) for st in states]
    for i in range(3):
        integral = sum(w * u[i] for w, u in zip(weights, cu))
        rhs = b * cons(ub)[i] - a * cons(ua)[i] - (flx(ub)[i] - flx(ua)[i])
        scale = max(abs(b * cons(ub)[i]), abs(a * cons(ua)[i]), abs(flx(ub)[i]),
                    abs(flx(ua)[i]), 1e-300)
        if abs(integral - rhs) > FAN_BALANCE_TOL * scale:
            probs.append(f"{fan_id}: balance of component {i} off by "
                         f"{abs(integral - rhs) / scale:.2e}")
    return probs


def grid_points():
    """The `verify` default grid: 10^4 log-spaced points on [1e-6, 1e4] plus
    100 points across +-1% of each proof boundary, written out
    independently of the package."""
    gamma_0 = 2.0 * math.exp(-0.5772156649015329)
    gamma_1 = (-9.0 + math.sqrt(129.0)) / 2.0
    lo, hi, n = math.log(1e-6), math.log(1e4), 10000
    pts = {math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(n)}
    for b in (gamma_0, gamma_1, math.sqrt(2.0), 2.0, 4.0):
        pts.update(b * (0.99 + 0.02 * i / 99.0) for i in range(100))
    return sorted(g for g in pts if 1e-6 <= g <= 1e4)


class VerifyCatalog:
    """The catalog in order, one `verify.run_checks(checks=[spec])` per op,
    on the default 10^4-point grid: the calls `synge-riemann verify` makes.
    The inputs are the catalog itself, so the seed does not change them."""

    name = "verify-catalog"

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.specs = pkg.verify.catalog()
        self.grid = grid_points()

    def warm_up(self):
        self.pkg.verify.run_checks(points=50)

    def round_ops(self, r):
        return [self._check_op(spec) for spec in self.specs]

    def _check_op(self, spec):
        run_checks = self.pkg.verify.run_checks

        def call():
            return run_checks(checks=[spec])

        def check(report, round_results):
            import oracle

            (res,) = report.results
            probs = []
            if not res.passed:
                probs.append(f"{spec.id} failed: worst margin {res.worst_margin!r} "
                             f"at gamma={res.worst_gamma!r}")
            lo, hi = spec.domain
            want = sum(1 for g in self.grid if lo < g <= hi)
            if res.points != want:
                probs.append(f"{spec.id}: {res.points} points, the grid has {want} in its domain")
            if spec.id in oracle.BESSEL_CHECKS:
                ref = oracle.bessel_margin(spec.id, res.worst_gamma)
                if abs(res.worst_margin - ref) > 1e-6 * abs(ref) + 1e-300:
                    probs.append(f"{spec.id}: worst margin {res.worst_margin!r}, "
                                 f"mpmath gives {ref!r}")
            return probs

        return Op(spec.id, call, check)


WORKLOADS = {cls.name: cls for cls in (SolveMixed, SolveCold, SampleFans, VerifyCatalog)}
