"""Verification catalog: constants, pass behavior, harness self-test."""

import dataclasses
import json
import math
import os

import pytest

from synge_riemann import bessel, eos, verify
from synge_riemann.eos import GasKind
from synge_riemann.errors import DomainError, WindowError

MONO = GasKind.MONATOMIC
DIA = GasKind.DIATOMIC

PINNED_DEFAULT = os.path.join(os.path.dirname(__file__), "data", "verify_default.json")


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
            margin=lambda p: -(1.0 - p.u),  # always negative
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
            assert verify._gn_quartic_dia(g, verify.grid_point(g).u) > 0.0

    def test_linear_spacing(self):
        rep = verify.run_checks(gamma_min=0.5, gamma_max=2.0, points=101, spacing="linear")
        assert rep.all_passed

    def test_window_guard(self):
        with pytest.raises(WindowError):
            verify.run_checks(gamma_min=1e-8, points=10)

    def test_widened_window_still_guards_the_verification_grid(self):
        # the eos-backed margins lose to roundoff outside DEFAULT_WINDOW, so a
        # wider window leaves the grid inside DEFAULT_WINDOW
        with pytest.raises(WindowError, match="verification grid") as info:
            verify.run_checks(gamma_min=1e-8, points=10, window=(1e-8, 1e4))
        assert info.value.window == eos.DEFAULT_WINDOW
        with pytest.raises(WindowError, match="verification grid") as info:
            verify.run_checks(gamma_max=1e5, points=10, window=(1e-6, 1e6))
        assert info.value.gamma == 1e5
        with pytest.raises(WindowError, match="verification grid") as info:
            verify.run_checks(gamma_min=2e5, gamma_max=3e5, points=10, window=(1e5, 1e6))
        assert info.value.window == eos.DEFAULT_WINDOW

    def test_narrower_window_restricts_the_grid(self):
        with pytest.raises(WindowError, match="verification grid") as info:
            verify.run_checks(points=10, window=(1e-3, 1e4))
        assert info.value.window == (1e-3, 1e4)
        rep = verify.run_checks(gamma_min=1e-3, points=50, window=(1e-3, 1e4))
        assert rep.all_passed

    @pytest.mark.parametrize("nan_above", [0.0, 1.0])
    def test_nan_margin_fails_at_its_first_gamma(self, nan_above):
        # nan_above=0: NaN on all of the domain; 1: NaN on part of it, after
        # a positive stretch
        spec = verify.CheckSpec(
            id="self-test-nan",
            gas=None,
            domain=(0.0, math.inf),
            margin=lambda p: math.nan if p.gamma > nan_above else 1.0,
            description="harness self-test",
        )
        (res,) = small_report(checks=[spec]).results
        first_nan = min(g for g in verify.build_grid(points=400) if g > nan_above)
        assert not res.passed
        assert math.isnan(res.worst_margin)
        assert res.worst_gamma == first_nan

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            verify.build_grid(1.0, 0.5)
        with pytest.raises(DomainError):
            verify.build_grid(1.0, 2.0, points=1)
        with pytest.raises(DomainError):
            verify.build_grid(1.0, 2.0, spacing="cubic")

    def test_grid_is_a_cached_tuple_matching_the_list_construction(self):
        def listed(gamma_min, gamma_max, points, spacing):
            if spacing == "log":
                lo, hi = math.log(gamma_min), math.log(gamma_max)
                base = [math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
            else:
                base = [gamma_min + (gamma_max - gamma_min) * i / (points - 1)
                        for i in range(points)]
            for b in verify.PROOF_BOUNDARIES:
                if gamma_min <= b <= gamma_max:
                    base.extend(b * (0.99 + 0.02 * i / 99.0) for i in range(100))
            return sorted(set(g for g in base if gamma_min <= g <= gamma_max))

        for args in ((1e-6, 1e4, 10000, "log"), (0.5, 2.0, 101, "linear")):
            grid = verify.build_grid(*args)
            assert isinstance(grid, tuple)
            assert list(grid) == listed(*args)
            assert verify.build_grid(*args) is grid

    def test_domain_is_half_open_on_a_node(self):
        grid = verify.build_grid(1.0, 3.0, points=3, spacing="linear",
                                 refine_boundaries=False)
        assert grid == (1.0, 2.0, 3.0)
        assert grid[verify._domain_slice(grid, (2.0, math.inf))] == (3.0,)
        assert grid[verify._domain_slice(grid, (0.0, 2.0))] == (1.0, 2.0)

    def test_boundary_refinement(self):
        grid = verify.build_grid(1.0, 2.0, points=10)
        near_g0 = [g for g in grid if abs(g / verify.GAMMA_0 - 1.0) <= 0.0101]
        assert len(near_g0) >= 100

    def test_second_check_on_default_grid_evaluates_no_kernel(self, monkeypatch):
        # the grid points are cached with the grid, so a second check reads
        # its ratios from them and never reaches the Bessel kernel
        calls = []
        k01 = bessel.k01
        monkeypatch.setattr(bessel, "k01", lambda g: calls.append(g) or k01(g))
        spec = next(c for c in verify.catalog() if c.id == "holder-k-product")
        bessel._k01_cached.cache_clear()
        verify._grid_points.cache_clear()
        verify.run_checks(checks=[spec])
        assert len(calls) == len(verify.build_grid())
        del calls[:]
        verify.run_checks(checks=[spec])
        assert calls == []

    def test_counting_wrappers_see_every_point_once(self):
        # the benchmark's traced run wraps each margin in a one-argument
        # forwarder (dataclasses.replace on the spec); the report must not
        # change, and each margin is called once per point of its domain
        counts = {}

        def counting(spec):
            def m(point):
                counts[spec.id] += 1
                return spec.margin(point)

            counts[spec.id] = 0
            return dataclasses.replace(spec, margin=m)

        wrapped = [counting(spec) for spec in verify.catalog()]
        plain = small_report()
        traced = small_report(checks=wrapped)
        assert traced.to_dict() == plain.to_dict()
        for r in traced.results:
            assert counts[r.id] == r.points, r.id

    def test_grid_point_ratios_equal_the_bessel_ratios(self):
        for g in (1e-6, 0.3, verify.GAMMA_0, 2.0, 2.5, 30.0, 1e4):
            p = verify.grid_point(g)
            assert p.gamma == g
            assert p.u == bessel.k0_over_k1(g)
            assert p.z == bessel.k1_over_k2(g)
            assert (p.k0s, p.k1s) == bessel._k_all_scaled(g)[:2]

    def test_margins_share_the_bessel_window(self):
        # the margins read ratios from grid points and no longer call
        # bessel._check_gamma; run_checks keeps every grid inside
        # eos.DEFAULT_WINDOW, which must then be the kernel's window
        assert bessel.WINDOW == eos.DEFAULT_WINDOW


class TestDefaultGrid:
    @pytest.fixture(scope="class")
    def full(self):
        return verify.run_checks()

    def test_one_check_equals_its_entry_in_the_full_run(self, full):
        for spec, entry in zip(verify.catalog(), full.results, strict=True):
            (alone,) = verify.run_checks(checks=[spec]).results
            assert alone.to_dict() == entry.to_dict()

    def test_report_equals_the_pinned_file(self, full):
        """The default run, byte for byte as pinned in
        tests/data/verify_default.json.  After a deliberate change to the
        catalog's answers, regenerate the file with

            synge-riemann verify --out tests/data/verify_default.json
        """
        with open(PINNED_DEFAULT, encoding="utf-8", newline="") as fh:
            pinned = fh.read()
        assert full.to_json() + "\n" == pinned

    def test_holder_forms_agree_at_every_point(self):
        # K2 = 2 K1/gamma + K0 makes the scaled-K form and the K0/K1 form
        # one inequality; a swapped record field breaks the agreement
        margins = {c.id: c.margin for c in verify.catalog()}
        k_form = margins["holder-k-product"]
        u_form = margins["holder-ratio-quadratic"]
        for p in verify._grid_points(1e-6, 1e4, 10000, "log"):
            a, b = k_form(p), u_form(p)
            assert abs(a - b) <= 2e-15 * abs(b), p

    def test_points_count_the_grid_in_each_domain(self, full):
        grid = verify.build_grid()
        for spec, entry in zip(verify.catalog(), full.results, strict=True):
            lo, hi = spec.domain
            assert entry.points == sum(1 for g in grid if lo < g <= hi), spec.id


class TestMarginContinuity:
    def test_margins_vary_smoothly(self):
        # smoke test: adjacent margins never jump by more than 10x the
        # locally expected change
        grid = verify.build_grid(1e-4, 1e3, 300, refine_boundaries=False)
        for spec in verify.catalog():
            lo, hi = spec.domain
            pts = [g for g in grid if lo < g <= hi]
            vals = [spec.margin(verify.grid_point(g)) for g in pts]
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
