"""One workload in one fresh process: set-up, the timed closed loop, then
the checks.  Started by run.py; prints one JSON object on stdout.

The loop runs the whole number of rounds whose timed wall time comes
nearest to --seconds (at least one); --ops N instead runs the first N
operations of the first round only.  Each round starts with every cache of
the package emptied, so a round costs the same wherever it falls in the
run; only the round's operations fall inside the timed wall time, and its
results are checked after it and dropped.  Every time the worker reports
is scaled to the nominal host of host.py."""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types
import warnings

import host

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def package_caches(pkg):
    """Every functools cache at module level in the package."""
    caches = []
    for module in vars(pkg).values():
        if isinstance(module, types.ModuleType) and module.__name__.startswith(pkg.__name__ + "."):
            for attr in vars(module).values():
                if hasattr(attr, "cache_clear") and callable(attr):
                    caches.append(attr)
    return caches


def percentile(values, q):
    """The q-quantile of values by linear interpolation between order
    statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class ScaledTimes:
    """Operation latencies scaled to the nominal host.  The host loop is
    timed when it is made, after every LOOP_EVERY_S of operation time and
    at the end of each round; the operations between two loop timings are
    scaled by the mean of the two."""

    LOOP_EVERY_S = 0.25

    def __init__(self):
        self.last = host.loop_s()
        self.loops = [self.last]
        self.values = []
        self._pending = []
        self._pending_s = 0.0

    def add(self, seconds):
        self._pending.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= self.LOOP_EVERY_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        now = host.loop_s()
        f = host.scale(self.last, now)
        self.values += [t * f for t in self._pending]
        self.last = now
        self.loops.append(now)
        self._pending, self._pending_s = [], 0.0


class Tally:
    """What the checks found: ops attempted and failed, whether every op
    that did not fail was correct, and the first problems seen."""

    KEEP = 50

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems = []
        self.seconds = 0.0

    def check_round(self, outcomes):
        """Check one round's results, which are dropped afterwards so that
        memory does not grow with the length of the run."""
        t0 = time.perf_counter()
        done = {op.label: res for op, res, err in outcomes if err is None}
        for op, result, error in outcomes:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                found = ["raised " + "".join(traceback.format_exception_only(error)).strip()]
            else:
                found = op.check(result, done)
                if found and op.known_fault:
                    self.failed += 1
                elif found:
                    self.correct = False
            tag = " (known fault)" if op.known_fault else ""
            self.problems += [f"{op.label}{tag}: {p}" for p in found]
        del self.problems[self.KEEP:]
        self.seconds += time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import synge_riemann as pkg
    import workloads

    wl = workloads.WORKLOADS[args.workload](pkg, args.seed)
    wl.warm_up()
    caches = package_caches(pkg)
    if args.setup_only:
        setup_s = time.monotonic() - args.t0
        print(json.dumps({"setup_s": setup_s, "setup_loop_s": host.loop_s()}))
        return 0

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer(pkg)
        if hasattr(wl, "specs"):
            wl.specs = tracer.wrap_specs(wl.specs)

    tally, busy, r = Tally(), 0.0, 0
    setup_s = times = None
    with warnings.catch_warnings(record=bool(tracer)) as caught:
        if tracer:
            warnings.simplefilter("always")
        while True:
            if tracer and r:
                tracer.before_clear()
            for cache in caches:
                cache.cache_clear()
            ops = wl.round_ops(r)[:args.ops or None]
            outcomes = []
            if setup_s is None:
                setup_s = time.monotonic() - args.t0
                times = ScaledTimes()
            t_round = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a failed op is counted, the run goes on
                    result, error = None, exc
                times.add(time.perf_counter() - t0)
                outcomes.append((op, result, error))
                if tracer:
                    tracer.record_warnings(caught)
                    del caught[:]
            times.flush()
            busy += time.perf_counter() - t_round
            r += 1
            tally.check_round(outcomes)
            # stop at the whole number of rounds nearest to --seconds
            if args.ops or busy * (1.0 + 0.5 / r) >= args.seconds:
                break
    if tracer:
        tracer.before_clear()
        tracer.ref_ms = [x * 1e3 for x in times.loops]

    latencies = times.values
    out = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": r,
        "setup_s": setup_s,
        "setup_loop_s": times.loops[0],
        "busy_s": busy,
        "check_s": tally.seconds,
        "loop_ms": [x * 1e3 for x in times.loops],
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": percentile(latencies, 0.9) * 1e3,
        "ops_per_s": tally.attempted / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": [x * 1e3 for x in latencies],
        "problems": tally.problems,
    }
    if tracer:
        out["per_layer"] = tracer.metrics(tally.attempted)
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
