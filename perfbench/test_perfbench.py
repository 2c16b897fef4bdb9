"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs a few operations through run.py with its correctness
checks; a traced run is repeated to show that its counts are exact; and
the checks are shown to reject a wrong answer.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# ops to run per workload: enough for one c = 2 op of solve-mixed, one
# whole fan (so its balance check runs) of sample-fans
OPS = {"solve-mixed": 3, "solve-cold": 4, "sample-fans": workloads.SampleFans.NODES,
       "verify-catalog": 2}


def bench(workload, trace=0, ops=None, seed=3, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--ops", str(ops or OPS[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_and_checks(workload):
    out = last_json(bench(workload))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] == OPS[workload]
    # the only failing op is solve-mixed's second one: Sod at c = 2
    assert out["failed"] == (1 if workload == "solve-mixed" else 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_counts_repeat():
    runs = [last_json(bench("solve-mixed", trace=1)) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in runs:
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in out["metrics"].items() if v["unit"] != "ms/op"
               and k != "host.ref_loop_ms"} for out in runs]
    assert counts[0] == counts[1]
    assert counts[0]["bessel.kernel_calls"] > 0
    assert counts[0]["riemann.curve_evals"] > 0


def test_times_scale_to_the_nominal_host(monkeypatch):
    import host
    import worker

    loops = iter([2 * host.NOMINAL_S, 2 * host.NOMINAL_S, 4 * host.NOMINAL_S])
    monkeypatch.setattr(host, "loop_s", lambda: next(loops))
    times = worker.ScaledTimes()
    times.add(0.1)
    times.add(0.2)  # the host loop is timed after 0.25 s of operations
    times.add(0.3)
    times.flush()
    # the first two ran while the loop took 2x nominal, the third 3x
    assert times.values == pytest.approx([0.05, 0.1, 0.1])


def test_refuses_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("solve-cold", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_a_wrong_solution():
    import synge_riemann as pkg

    prob = workloads.fixed_problems("monatomic")["sod"]
    inp, units = workloads._pose(pkg, prob)
    sol = pkg.riemann.solve(inp, units)
    assert workloads.check_solution("monatomic", sol, 1.0) == []
    assert workloads._reference_problems(sol, prob) == []
    bad_star = dataclasses.replace(sol.u_mr, e=sol.u_mr.e * (1 + 1e-6))
    assert workloads.check_solution("monatomic", dataclasses.replace(sol, u_mr=bad_star), 1.0)
    moved = dataclasses.replace(sol, p_m=sol.p_m * (1 + 1e-7))
    assert workloads._reference_problems(moved, prob)
