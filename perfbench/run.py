"""End-to-end benchmark of the repro package, with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify-t6x2 --seed 1 --seconds 24 --trace 0

Each pass runs in a fresh interpreter (:mod:`worker`), so import cost
counts toward ``setup_s``.  An untraced run repeats passes until
``--seconds`` is spent (at least three) and reports the median of each
end-to-end metric.  A traced run (``--trace 1``) makes one untraced pass
and two traced passes with the same seed: the first traced pass gives the
per-layer numbers, the untraced one the tracing overhead, and the two
traced passes must report identical counts.  Every pass checks its output
against an oracle; a failed check makes the run exit 1.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: a run never exceeds this many seconds (the harness limit is 180).
RUN_BUDGET_S = 170.0
MIN_PASSES = 3
MAX_PASSES = 25
#: at least this many samples must lie beyond a reported percentile.
TAIL_SAMPLES = 10

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: ``(name, unit)`` of every per-layer metric of a traced run; see README.md
#: for the end-to-end metric and workload each should move.
PER_LAYER = (
    ("odr_loads.add_delta.calls", "count"),
    ("odr_loads.add_delta.busy_s", "s"),
    ("odr_loads.swap_delta.calls", "count"),
    ("odr_loads.swap_delta.busy_s", "s"),
    ("odr_loads.full.calls", "count"),
    ("odr_loads.full.busy_s", "s"),
    ("symmetry.canonicity.calls", "count"),
    ("symmetry.canonicity.busy_s", "s"),
    ("symmetry.canonical_ratio", "ratio"),
    ("separator.size.calls", "count"),
    ("separator.size.busy_s", "s"),
    ("exact_search.self_s", "s"),
    ("exact_search.leaf_orbits", "count"),
    ("exact_search.variant_evaluations", "count"),
    ("exact_search.pair_updates", "count"),
    ("exact_search.subtrees_pruned", "count"),
    ("exact_search.variants_dropped", "count"),
    ("local_search.self_s", "s"),
    ("local_search.evaluations", "count"),
    ("local_search.accepted_moves", "count"),
    ("engine.edge_loads.calls", "count"),
    ("engine.edge_loads.busy_s", "s"),
    ("engine.edge_loads_many.calls", "count"),
    ("engine.edge_loads_many.busy_s", "s"),
    ("engine.backend.vectorized.calls", "count"),
    ("engine.backend.vectorized.busy_s", "s"),
    ("engine.backend.fft.calls", "count"),
    ("engine.backend.fft.busy_s", "s"),
    ("engine.backend.displacement.calls", "count"),
    ("engine.backend.displacement.busy_s", "s"),
    ("engine.backend.reference.calls", "count"),
    ("engine.backend.reference.busy_s", "s"),
    ("plancache.hits", "count"),
    ("plancache.misses", "count"),
    ("plancache.hit_rate", "ratio"),
    ("routing.paths.calls", "count"),
    ("routing.paths.busy_s", "s"),
    ("torus.node_id.calls", "count"),
    ("sim.build_packets.busy_s", "s"),
    ("sim.build_packets.self_s", "s"),
    ("sim.cycle_engine.busy_s", "s"),
    ("sim.cycles", "count"),
    ("sim.packets", "count"),
    ("sim.max_queue", "count"),
    ("sweep.eval_p50_ms", "ms"),
    ("sweep.eval_p90_ms", "ms"),
    ("sweep.eval_samples", "count"),
    ("setup.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, a pass crashed)."""


# ------------------------------------------------------------- statistics


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` unless at least
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """``(Q3 - Q1) / median`` — the run-to-run spread the bounds are set on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ------------------------------------------------------------- provenance


def calibrate() -> float:
    """Seconds for a fixed mix of pure-Python, large-array and small-array
    numpy work, the three kinds of work the workloads do.

    Recorded with every result so numbers from different machines can be
    told apart; never gated (on a shared box it is as noisy as the passes).
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(1_200_000):
        acc += i * i
    data = np.arange(500_000, dtype=np.float64)
    for _ in range(20):
        data = np.sqrt(data * data + 1.0)
    small = np.arange(64)
    for _ in range(40_000):
        small = (small * 3 + 1) % 1000
    return time.perf_counter() - start


def provenance(root: Path, workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "calibration_s": calibrate(),
    }


# ------------------------------------------------------------------ passes


def run_pass(root: Path, workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One :mod:`worker` pass in a fresh interpreter; its JSON report."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def build(root: Path) -> None:
    """Byte-compile the package so the first timed pass does not."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "repro")],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def repeat_checks(reports: list[dict]) -> list[tuple[str, bool]]:
    """Same seed, fresh processes: every count must repeat exactly."""
    if len(reports) < 2:
        return []
    first, *rest = [count_keys(r) for r in reports]
    return [
        (f"repeat.{key}", all(other[key] == value for other in rest))
        for key, value in first.items()
    ]


def count_keys(report: dict) -> dict:
    """The exactly repeatable readings of one pass, flattened."""
    out = {f"counts.{k}": v for k, v in report["counts"].items() if isinstance(v, int)}
    for key, value in report.get("layers", {}).items():
        if key.endswith(".calls"):
            out[f"layers.{key}"] = value
    return out


# ------------------------------------------------------------- aggregation


def untraced_metrics(reports: list[dict]) -> dict[str, float]:
    return {
        name: statistics.median(r[name] for r in reports) for name, _ in END_TO_END
    }


def traced_metrics(untraced: dict, traced: list[dict]) -> dict[str, float]:
    first = traced[0]
    values: dict[str, float] = dict.fromkeys((n for n, _ in PER_LAYER), 0)
    values.update({k: v for k, v in first["layers"].items() if k in values})
    values.update({k: v for k, v in first["counts"].items() if k in values})
    root = "bench.pass"
    root_busy = first["layers"][f"{root}.busy_s"]
    values["trace.attributed_frac"] = 1 - first["layers"][f"{root}.self_s"] / root_busy
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1
    values["setup.import_s"] = first["import_s"]
    p50 = percentile(first["latencies_s"], 50)
    p90 = percentile(first["latencies_s"], 90)
    values["sweep.eval_p50_ms"] = 0.0 if p50 is None else p50 * 1000
    values["sweep.eval_p90_ms"] = 0.0 if p90 is None else p90 * 1000
    return values


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {root / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    try:
        build(root)
        prov = provenance(root, args.workload, args.seed, trace)
        measure_start = time.perf_counter()
        untraced: list[dict] = []
        traced: list[dict] = []
        if trace:
            untraced.append(run_pass(root, args.workload, args.seed, False, remaining()))
            for _ in range(2):
                traced.append(run_pass(root, args.workload, args.seed, True, remaining()))
        else:
            while len(untraced) < MAX_PASSES:
                elapsed = time.perf_counter() - measure_start
                if len(untraced) >= MIN_PASSES:
                    per_pass = elapsed / len(untraced)
                    if elapsed + per_pass > args.seconds:
                        break
                untraced.append(
                    run_pass(root, args.workload, args.seed, False, remaining())
                )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    checks = [c for r in untraced + traced for c in r["checks"]]
    checks += repeat_checks(untraced) + repeat_checks(traced)
    failed = [name for name, ok in checks if not ok]

    e2e = untraced_metrics(untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {fmt(e2e[name])} {unit}")
    latencies = [x for r in untraced for x in r["latencies_s"]]
    if latencies:
        for q in (50, 90):
            value = percentile(latencies, q)
            shown = "n/a" if value is None else fmt(value * 1000)
            print(f"  eval_p{q}_ms    {shown} ms (n={len(latencies)})")
    print(f"  failed_frac    {len(failed) / len(checks):.6g} "
          f"({len(failed)}/{len(checks)} checks)")
    for name in failed:
        print(f"  FAILED {name}")

    if trace:
        units = dict(PER_LAYER)
        metrics = traced_metrics(e2e, traced)
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {fmt(metrics[name])} {unit}")
        out_dir = root / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"provenance": prov, "untraced": untraced, "traced": traced}, indent=1
        ))
        print(f"  layer trace written to {trace_file.relative_to(root)}")
    else:
        units = dict(END_TO_END)
        metrics = e2e
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
