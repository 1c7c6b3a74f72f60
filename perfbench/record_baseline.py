"""Run the benchmark over several seeds and record the baseline.

From the root of a checkout::

    python3 perfbench/record_baseline.py --runs 10 --out perfbench/BASELINE.json

For each seed, every workload runs once untraced (round robin, so slow
phases of a shared machine spread over all workloads); with
``--traced`` each workload also makes one traced run.  Prints, per
workload and end-to-end metric, the median, the quartiles and the spread
``(Q3 - Q1) / median`` next to the metric's bound from ``BENCHMARK.json``,
and writes all of it, with every per-run value and the provenance of the
first run, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    prov = next(
        json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")
    )
    return json.loads(lines[-1]), prov


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    first_prov = None
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for seed in seeds:
        for workload in workloads:
            result, prov = run_once(workload, seed, args.seconds, False)
            first_prov = first_prov or prov
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)

    record: dict = {"provenance": first_prov, "seeds": list(seeds), "workloads": {}}
    ok = True
    for workload in workloads:
        entry = {"end_to_end": {}}
        for name, series in values[workload].items():
            entry["end_to_end"][name] = summary = summarize(series)
            steady = name == "setup_s" or summary["spread"] <= bounds[name] / 3
            ok &= steady
            print(f"{workload:<20} {name:<12} median {summary['median']:.4f} "
                  f"spread {summary['spread']:.3f} bound {bounds[name]} "
                  f"{'' if steady else 'UNSTEADY'}")
        if args.traced:
            traced, _ = run_once(workload, args.first_seed, args.seconds, True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
