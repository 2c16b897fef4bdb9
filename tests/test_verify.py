"""Verification catalog: constants, pass behavior, harness self-test."""

import json
import math

import pytest

from synge_riemann import bessel, eos, verify
from synge_riemann.eos import GasKind
from synge_riemann.errors import DomainError, WindowError

MONO = GasKind.MONATOMIC
DIA = GasKind.DIATOMIC


def small_report(**kw):
    kw.setdefault("points", 400)
    return verify.run_checks(**kw)


class TestConstants:
    def test_gamma0_root(self):
        # gamma_0 solves ln(g/2) + C_E = 0; literature value 1.1229189...
        assert abs(math.log(verify.GAMMA_0 / 2.0) + 0.5772156649015329) < 1e-15
        assert abs(verify.GAMMA_0 - 1.1229189671337703) < 1e-12

    def test_gamma1_quadratic(self):
        g1 = verify.GAMMA_1
        assert abs(g1 * g1 + 9.0 * g1 - 12.0) < 1e-12
        assert verify.GAMMA_1 > 1.1789 > verify.GAMMA_0


class TestRunChecks:
    def test_all_pass_small_grid(self):
        rep = small_report()
        assert rep.all_passed
        for r in rep.results:
            assert r.worst_margin > 0.0
            assert r.points > 0

    def test_gas_filter(self):
        rep = small_report(gas_filter=MONO)
        gases = {r.gas for r in rep.results}
        assert gases == {"monatomic", None}

    def test_deliberately_negated_predicate_reported(self):
        bad = verify.CheckSpec(
            id="self-test-negated",
            gas=None,
            domain=(0.0, math.inf),
            margin=lambda g: -(1.0 - verify._u(g)),  # always negative
            description="harness self-test",
        )
        rep = small_report(checks=[bad])
        assert not rep.all_passed
        (res,) = rep.results
        assert not res.passed
        assert res.worst_margin < 0.0
        assert math.isfinite(res.worst_gamma)

    def test_gn_quartic_dia_waypoints(self):
        # positivity margins at the case-split waypoints of the proof
        for g in (0.5, verify.GAMMA_1, math.sqrt(2.0), 4.0):
            assert verify._gn_quartic_dia(g) > 0.0

    def test_linear_spacing(self):
        rep = verify.run_checks(gamma_min=0.5, gamma_max=2.0, points=101, spacing="linear")
        assert rep.all_passed

    def test_window_guard(self):
        with pytest.raises(WindowError):
            verify.run_checks(gamma_min=1e-8, points=10)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            verify.build_grid(1.0, 0.5)
        with pytest.raises(DomainError):
            verify.build_grid(1.0, 2.0, points=1)
        with pytest.raises(DomainError):
            verify.build_grid(1.0, 2.0, spacing="cubic")

    def test_boundary_refinement(self):
        grid = verify.build_grid(1.0, 2.0, points=10)
        near_g0 = [g for g in grid if abs(g / verify.GAMMA_0 - 1.0) <= 0.0101]
        assert len(near_g0) >= 100


    def test_second_check_on_default_grid_hits_the_kernel_cache(self):
        # the Bessel cache holds the whole default grid
        spec = next(c for c in verify.catalog() if c.id == "holder-k-product")
        bessel._k01_cached.cache_clear()
        eos._cold.cache_clear()
        verify.run_checks(checks=[spec])
        first = bessel._k01_cached.cache_info()
        verify.run_checks(checks=[spec])
        second = bessel._k01_cached.cache_info()
        assert first.misses > 10000
        assert second.hits - first.hits > 0
        assert second.misses == first.misses


class TestMarginContinuity:
    def test_margins_vary_smoothly(self):
        # smoke test: adjacent margins never jump by more than 10x the
        # locally expected change
        grid = verify.build_grid(1e-4, 1e3, 300, refine_boundaries=False)
        for spec in verify.catalog():
            lo, hi = spec.domain
            pts = [g for g in grid if lo < g <= hi]
            vals = [spec.margin(g) for g in pts]
            if len(vals) < 8:
                continue
            deltas = [abs(b - a) for a, b in zip(vals, vals[1:])]
            scale = max(max(vals), 1e-30)
            for i in range(1, len(deltas) - 1):
                local = max(deltas[i - 1], deltas[i + 1], 1e-12 * scale)
                assert deltas[i] <= 10.0 * local, (spec.id, pts[i])


class TestReport:
    def test_json_round_trip(self):
        rep = small_report(points=120)
        doc = json.loads(rep.to_json())
        assert doc["all_passed"] is True
        assert doc["grid"]["points"] == 120
        assert len(doc["checks"]) == len(rep.results)
        sample = doc["checks"][0]
        assert set(sample) == {
            "id", "gas", "passed", "worst_gamma", "worst_margin", "points", "description",
        }

    def test_table_format(self):
        rep = small_report(points=120)
        table = rep.to_table()
        assert "pass" in table
        assert table.strip().endswith("0 failed")
        assert len(table.strip().split("\n")) == len(rep.results) + 4

    def test_catalog_ids_unique(self):
        ids = [c.id for c in verify.catalog()]
        assert len(ids) == len(set(ids))
