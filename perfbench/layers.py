"""Per-layer tracing for the `--trace 1` run.

Module-level functions of the package are replaced by wrappers that count
calls and record spans.  Calls inside the package resolve through module
globals, so the wrappers see them as well.  A span's self time is its
duration minus the time of the spans it encloses.  A function that a later
change removes is reported as absent instead of failing the run.
"""

import time
from collections import Counter
from dataclasses import replace

# (module, function, span name or None for a bare counter)
SPANS = [
    ("bessel", "k01", "bessel.kernel"),
    ("_series", "horner", "series"),
    ("eos", "_cold", "eos"),
    ("eos", "_ln_phi", "eos"),
    ("eos", "_ln_k_scaled", "eos"),
    ("eos", "gamma_from", "eos"),
    ("eos", "energy_ratio", "eos"),
    ("eos", "e_p", "eos"),
    ("eos", "pressure_coldness_slope", "eos"),
    ("eos", "specific_heats", "eos"),
    ("eos", "rest_frame_speed", "eos"),
    ("eos", "entropy", "eos"),
    ("eos", "pressure_isentrope", "eos"),
    ("eos", "invariant_integrand", "eos"),
    ("eos", "invariant_tail", "eos"),
    ("waves", "invariant_quadrature", "waves.quadrature"),
    ("waves", "rarefaction_state", "waves.rarefaction_state"),
    ("waves", "shock_state", "waves.shock_state"),
    ("waves", "taub_adiabat_residual", None),
    ("riemann", "curve_velocity", None),
    ("riemann", "solve", "riemann.solve"),
    ("riemann", "sample", "riemann.sample"),
    ("verify", "run_checks", "verify"),
]

# the cache whose statistics each hit ratio reads
CACHES = {"bessel.cache_hit_ratio": ("bessel", "_k01_cached"),
          "eos.cold_hit_ratio": ("eos", "_cold")}

PER_LAYER = [
    ("bessel.kernel_calls", "count/op"),
    ("bessel.kernel_self_ms", "ms/op"),
    ("bessel.cache_hit_ratio", "ratio"),
    ("bessel.window_warnings", "count/op"),
    ("series.horner_calls", "count/op"),
    ("series.self_ms", "ms/op"),
    ("eos.cold_calls", "count/op"),
    ("eos.cold_hit_ratio", "ratio"),
    ("eos.gamma_from_calls", "count/op"),
    ("eos.ln_phi_evals", "count/op"),
    ("eos.self_ms", "ms/op"),
    ("waves.quadrature_calls", "count/op"),
    ("waves.integrand_evals", "count/op"),
    ("waves.quadrature_self_ms", "ms/op"),
    ("waves.rarefaction_state_calls", "count/op"),
    ("waves.rarefaction_state_self_ms", "ms/op"),
    ("waves.shock_state_calls", "count/op"),
    ("waves.taub_evals", "count/op"),
    ("waves.shock_state_self_ms", "ms/op"),
    ("riemann.curve_evals", "count/op"),
    ("riemann.solve_self_ms", "ms/op"),
    ("riemann.sample_self_ms", "ms/op"),
    ("verify.margin_evals", "count/op"),
    ("verify.self_ms", "ms/op"),
    ("host.ref_loop_ms", "ms"),
]

# metric name -> counter key
COUNTS = {
    "bessel.kernel_calls": "bessel.k01",
    "series.horner_calls": "_series.horner",
    "eos.cold_calls": "eos._cold",
    "eos.gamma_from_calls": "eos.gamma_from",
    "eos.ln_phi_evals": "eos._ln_phi",
    "waves.quadrature_calls": "waves.invariant_quadrature",
    "waves.integrand_evals": "integrand-in-quadrature",
    "waves.rarefaction_state_calls": "waves.rarefaction_state",
    "waves.shock_state_calls": "waves.shock_state",
    "waves.taub_evals": "waves.taub_adiabat_residual",
    "riemann.curve_evals": "riemann.curve_velocity",
    "verify.margin_evals": "verify.margin",
    "bessel.window_warnings": "window-warnings",
}

# metric name -> span name
SELF_TIMES = {
    "bessel.kernel_self_ms": "bessel.kernel",
    "series.self_ms": "series",
    "eos.self_ms": "eos",
    "waves.quadrature_self_ms": "waves.quadrature",
    "waves.rarefaction_state_self_ms": "waves.rarefaction_state",
    "waves.shock_state_self_ms": "waves.shock_state",
    "riemann.solve_self_ms": "riemann.solve",
    "riemann.sample_self_ms": "riemann.sample",
    "verify.self_ms": "verify",
}


class Tracer:
    """Counts and self times of the wrapped functions, kept in memory."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.counts = Counter()
        self.self_s = Counter()
        self.absent = []
        self.cache_stats = {name: Counter() for name in CACHES}
        self.ref_ms = []  # host loop timings (host.py), filled in by the worker
        self._stack = []  # [span name, time of enclosed spans]
        self._caches = {}
        for metric, (mod, attr) in CACHES.items():
            obj = getattr(getattr(pkg, mod), attr, None)
            if hasattr(obj, "cache_info"):
                self._caches[metric] = obj
            else:
                self.absent.append(f"{mod}.{attr} cache")
        for mod, attr, span in SPANS:
            module = getattr(pkg, mod)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, f"{mod}.{attr}", span))

    def _wrap(self, fn, key, span):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        if key == "riemann.curve_velocity":
            # count each evaluation once: the 3-curve recurses into the 1-curve
            def counted(gas, side, *args, **kwargs):
                if side == "1-from-left":
                    counts[key] += 1
                return fn(gas, side, *args, **kwargs)

            return counted
        if span is None:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        in_quad = key == "eos.invariant_integrand"

        def spanned(*args, **kwargs):
            counts[key] += 1
            if in_quad and stack and stack[-1][0] == "waves.quadrature":
                counts["integrand-in-quadrature"] += 1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[span] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return spanned

    def wrap_specs(self, specs):
        """Catalog entries whose margin functions count their calls."""
        counts = self.counts

        def counting(margin):
            def m(g):
                counts["verify.margin"] += 1
                return margin(g)

            return m

        return [replace(s, margin=counting(s.margin)) for s in specs]

    def before_clear(self):
        """Fold the cache statistics in before the caches are emptied."""
        for metric, obj in self._caches.items():
            info = obj.cache_info()
            self.cache_stats[metric].update(hits=info.hits, misses=info.misses)

    def record_warnings(self, caught):
        category = getattr(self.pkg, "AccuracyWindowWarning", None)
        if category is None:
            if "AccuracyWindowWarning" not in self.absent:
                self.absent.append("AccuracyWindowWarning")
            return
        self.counts["window-warnings"] += sum(1 for w in caught if issubclass(w.category, category))

    def metrics(self, ops):
        out = {}
        for name, unit in PER_LAYER:
            if name in COUNTS:
                value = self.counts[COUNTS[name]] / ops
            elif name in SELF_TIMES:
                value = self.self_s[SELF_TIMES[name]] * 1e3 / ops
            elif name in CACHES:
                st = self.cache_stats[name]
                total = st["hits"] + st["misses"]
                value = st["hits"] / total if total else 0.0
            else:  # host.ref_loop_ms
                value = sorted(self.ref_ms)[len(self.ref_ms) // 2] if self.ref_ms else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

