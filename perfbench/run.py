"""Benchmark of the synge_riemann package, one workload per call.

    python3 perfbench/run.py --workload solve-mixed --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload runs in a fresh process as one
closed-loop caller: each operation starts when the previous one returned.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run instead.  Set-up is timed in the measured process and in four
more processes that only set up; setup_s is the median of the five.
Every time is scaled to the nominal host of host.py; each set-up by the
host loop timed just before its process starts and just after it is set up.
The worker's full output, with every latency, goes to
.perfbench_out/<workload>-seed<seed>-trace<trace>.json, and its stderr to
the matching .log file.  Exits non-zero, printing no result, if the package
sources are missing or a process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import host

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "synge_riemann", "__init__.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("solve-mixed", "solve-cold", "sample-fans", "verify-catalog")
SETUP_REPEATS = 4
TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def run_worker(args, extra, log, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--ops", str(args.ops),
           "--trace", str(args.trace)] + extra
    loop_before = host.loop_s()
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {args.workload} timed out")
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] *= host.scale(loop_before, out["setup_loop_s"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="run only the first N operations of the first round (for tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(PACKAGE):
        print(f"package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        with open(stem + ".log", "w") as log:
            result = run_worker(args, [], log, deadline)
            setups = [result["setup_s"]]
            if not args.trace:
                for _ in range(SETUP_REPEATS):
                    setups.append(run_worker(args, ["--setup-only"], log, deadline)["setup_s"])
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"{exc}; see {stem}.log", file=sys.stderr)
        return 1
    result["setup_runs_s"] = setups
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh)

    for p in result["problems"][:20]:
        print(p, file=sys.stderr)
    if result.get("absent"):
        print("absent from the package, reported as 0: " + ", ".join(result["absent"]),
              file=sys.stderr)
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
