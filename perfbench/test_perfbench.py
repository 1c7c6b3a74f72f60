"""Tests of the benchmark harness itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, lee_distance_total  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------- percentiles


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(range(99), 90) is None
    assert run.percentile(range(100), 90) == 89
    assert run.percentile(range(19), 50) is None
    assert run.percentile(range(20), 50) == 9
    assert run.percentile([], 50) is None


def test_quartile_spread():
    assert run.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert run.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# ------------------------------------------------------------ self times


def test_self_time_subtracts_nested_layers():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock)

    def leaf(dt):
        clock.now += dt

    wrapped_leaf = rec.timed("leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf(2.0)
        wrapped_leaf(3.0)

    wrapped_middle = rec.timed("middle", middle)

    def root():
        clock.now += 0.5
        wrapped_middle()

    rec.timed("root", root)()
    stats = rec.stats
    assert (stats["leaf"].calls, stats["leaf"].busy_s, stats["leaf"].self_s) == (2, 5.0, 5.0)
    assert (stats["middle"].busy_s, stats["middle"].self_s) == (6.0, 1.0)
    assert (stats["root"].busy_s, stats["root"].self_s) == (6.5, 0.5)
    assert sum(s.self_s for s in stats.values()) == stats["root"].busy_s


def test_reentered_layer_counts_once():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock)

    def inner():
        clock.now += 1.0

    wrapped_inner = rec.timed("paths", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()

    rec.timed("paths", outer)()
    assert (rec.stats["paths"].calls, rec.stats["paths"].busy_s) == (1, 2.0)
    assert rec.stats["paths"].self_s == 2.0


def test_counted_layer_leaves_time_with_caller():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock)

    def tick():
        clock.now += 1.0

    counted = rec.counted("tick", tick)

    def caller():
        counted()
        counted()

    rec.timed("caller", caller)()
    assert rec.stats["tick"].calls == 2
    assert rec.stats["caller"].self_s == 2.0


def test_install_patches_consumers_and_uninstall_restores():
    import repro.load.odr_loads as odr_loads
    import repro.placements.exact_search as exact_search
    from repro.routing.dimension_order import DimensionOrderRouting

    originals = (
        odr_loads.odr_edge_loads_add_delta,
        DimensionOrderRouting.paths,
    )
    rec = layers.Recorder()
    rec.install()
    try:
        # imported by name into exact_search: patched there too
        assert exact_search.odr_edge_loads_add_delta is odr_loads.odr_edge_loads_add_delta
        assert odr_loads.odr_edge_loads_add_delta.__wrapped__ is originals[0]
        assert DimensionOrderRouting.paths.__wrapped__ is originals[1]
    finally:
        rec.uninstall()
    assert (odr_loads.odr_edge_loads_add_delta, DimensionOrderRouting.paths) == originals
    assert exact_search.odr_edge_loads_add_delta is originals[0]


# ------------------------------------------------------- untraced passes


def test_untraced_pass_never_installs_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced pass installed wrappers")

    monkeypatch.setattr(layers.Recorder, "install", refuse)
    report = worker.run_pass("certify-t6x2", 1, trace=False, smoke=True)
    assert "layers" not in report
    assert all(ok for _, ok in report["checks"])


# ------------------------------------------------------- smoke workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload_passes_its_checks(name, trace):
    report = worker.run_pass(name, 7, trace=trace, smoke=True)
    assert report["checks"]
    assert all(ok for _, ok in report["checks"]), report["checks"]
    assert report["wall_s"] > 0 and report["setup_s"] >= report["import_s"] > 0
    if trace:
        got = report["layers"]
        total = sum(v for k, v in got.items() if k.endswith(".self_s"))
        assert total == pytest.approx(got["bench.pass.busy_s"], rel=1e-9)


def test_smoke_counts_repeat_for_the_same_seed():
    first = worker.run_pass("local-search-t16x2", 11, trace=True, smoke=True)
    second = worker.run_pass("local-search-t16x2", 11, trace=True, smoke=True)
    assert run.count_keys(first) == run.count_keys(second)


def test_lee_distance_total_matches_pairwise_sum():
    from repro.placements.random_placement import random_placement
    from repro.torus.topology import Torus

    torus = Torus(5, 3)
    placement = random_placement(torus, 9, seed=3)
    coords = placement.coords()
    expected = sum(
        torus.lee_distance(p, q) for p in coords for q in coords
    )
    assert lee_distance_total(placement) == expected


# ----------------------------------------------------- failure accounting


def fake_report(checks, counts=None):
    return {
        "wall_s": 1.0, "setup_s": 0.5, "import_s": 0.4, "peak_rss_mb": 50.0,
        "checks": checks, "counts": counts or {}, "latencies_s": [],
    }


def run_main(monkeypatch, capsys, reports, tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "build", lambda root: None)
    monkeypatch.setattr(run, "calibrate", lambda: 0.01)
    feed = iter(reports)
    monkeypatch.setattr(run, "run_pass", lambda *a, **k: next(feed))
    code = run.main(["--workload", "load-sweep", "--seed", "1", "--seconds", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failed_check_is_counted_and_fails_the_run(monkeypatch, capsys, tmp_path):
    reports = [fake_report([("a", True), ("b", ok)]) for ok in (True, False, True)]
    code, result = run_main(monkeypatch, capsys, reports, tmp_path)
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 6, 1)


def test_count_mismatch_is_a_failure(monkeypatch, capsys, tmp_path):
    reports = [fake_report([("a", True)], {"sim.cycles": n}) for n in (5, 5, 6)]
    code, result = run_main(monkeypatch, capsys, reports, tmp_path)
    assert code == 1 and result["failed"] == 1


def test_clean_run_reports_every_end_to_end_metric(monkeypatch, capsys, tmp_path):
    reports = [fake_report([("a", True)], {"sim.cycles": 5}) for _ in range(3)]
    code, result = run_main(monkeypatch, capsys, reports, tmp_path)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_no_program_exits_nonzero_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "load-sweep", "--seed", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
