"""The package runs on the standard library alone: no scipy or numpy module
is loaded by solving, sampling or verifying, and the frozen `_series`
tables equal a rebuild from exact rationals."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

GUARD = """
import sys
import synge_riemann
from synge_riemann import eos, riemann, verify
from synge_riemann.riemann import RiemannInput

gas = eos.GasKind.MONATOMIC
sol = riemann.solve(RiemannInput(gas=gas, left=eos.state_from_primitive(gas, 1.0, 0.0, 1.0),
                                 right=eos.state_from_primitive(gas, 0.125, 0.0, 0.1)))
fan = sol.waves[0]
assert fan.kind == "rarefaction"
riemann.sample(sol, 0.5 * (fan.speed_lo + fan.speed_hi))
assert verify.run_checks(points=50).all_passed
print(" ".join(sorted(m for m in sys.modules if m.startswith(("scipy", "numpy")))))
"""


def test_no_scipy_or_numpy_at_run_time():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run([sys.executable, "-c", GUARD], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


def test_series_tables_equal_their_rebuild():
    spec = importlib.util.spec_from_file_location(
        "gen_series_tables", ROOT / "scripts" / "gen_series_tables.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    # the module's text equals a rebuild's, and repr round-trips floats
    assert gen.main(["--check"]) == 0
