"""Brent's root finder: bit-equality with scipy's on the library's four
objectives, and its edge cases."""

import math
import random

import pytest

from synge_riemann import _roots, eos, riemann, waves
from synge_riemann.eos import GasKind
from synge_riemann.errors import BracketError, ConvergenceError
from synge_riemann.riemann import RiemannInput

import oracles


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def _compare_with_scipy(f, a, b, fa, fb, xtol):
    """Our root with the end values passed in, checked against scipy's
    root and evaluation count on the same bracket."""
    ours = _counted(f)
    root = _roots.brentq(ours, a, b, fa, fb, xtol=xtol)
    ref, ref_calls = oracles.scipy_brentq(f, a, b, xtol, _roots.RTOL)
    assert root.hex() == ref.hex(), (root, ref)
    assert ours.calls == ref_calls - 2
    return root


def test_library_objectives_match_scipy(monkeypatch):
    # every root the library takes (isentrope inverse, Taub adiabat, curve
    # intersection, fan sampler) is repeated with scipy on the same objective
    seen = set()

    def recorder(module):
        def brentq(f, a, b, fa, fb, xtol):
            seen.add((module, xtol))
            return _compare_with_scipy(f, a, b, fa, fb, xtol)

        return brentq

    for module in (eos, waves, riemann):
        monkeypatch.setattr(module, "brentq", recorder(module.__name__))
    rng = random.Random(6)
    for i in range(16):
        gas = (GasKind.MONATOMIC, GasKind.DIATOMIC)[i % 2]

        def state():
            gamma = 10.0 ** rng.uniform(-3.0, 2.0)
            p = 10.0 ** rng.uniform(-2.0, 2.0)
            return eos.state_from_primitive(gas, gamma * p, rng.uniform(-0.9, 0.9), p)

        sol = riemann.solve(RiemannInput(gas=gas, left=state(), right=state()))
        for w in sol.waves:
            if w.kind == "rarefaction":
                for t in (0.2, 0.5, 0.8):
                    riemann.sample(sol, w.speed_lo + t * (w.speed_hi - w.speed_lo))
    assert seen == {("synge_riemann.eos", 1e-15), ("synge_riemann.waves", 1e-15),
                         ("synge_riemann.riemann", 1e-300), ("synge_riemann.riemann", 1e-14)}


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x**3 - 2.0, 0.0, 4.0),
        (lambda x: math.exp(x) - 1e-6, -30.0, 5.0),
        (lambda x: math.atan(x - 0.3), 10.0, -10.0),
    ],
)
def test_plain_functions_match_scipy(f, a, b):
    _compare_with_scipy(f, a, b, f(a), f(b), 1e-15)


def test_root_at_an_endpoint():
    f = _counted(lambda x: x - 1.0)
    assert _roots.brentq(f, 1.0, 2.0, 0.0, 1.0, xtol=1e-15) == 1.0
    assert _roots.brentq(f, 0.0, 1.0, -1.0, 0.0, xtol=1e-15) == 1.0
    assert f.calls == 0


def test_same_sign_bracket():
    with pytest.raises(BracketError) as info:
        _roots.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, xtol=1e-15)
    assert info.value.bracket == (-1.0, 1.0)


def test_convergence_error_at_maxiter():
    # a step at 0 leaves only bisection, and halving [-1e300, 1e300] down to
    # xtol = 1e-300 takes about 2000 steps
    f = _counted(lambda x: -1.0 if x < 0.0 else 1.0)
    with pytest.raises(ConvergenceError):
        _roots.brentq(f, -1e300, 1e300, -1.0, 1.0, xtol=1e-300)
    assert f.calls == _roots.MAXITER


def test_nan_objective():
    with pytest.raises(ConvergenceError):
        _roots.brentq(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, xtol=1e-15)
    with pytest.raises(ConvergenceError):
        _roots.brentq(lambda x: x, 0.0, 1.0, math.nan, 1.0, xtol=1e-15)
