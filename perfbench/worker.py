"""One benchmark pass in a fresh interpreter.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload certify-t6x2 --seed 1 --trace 0

Times the imports and input building (set-up), then one pass of the
workload, and prints one JSON object on its last stdout line.  With
``--trace 1`` the layer wrappers are installed after set-up and the pass
runs inside a ``bench.pass`` root layer, so the self times of all layers
sum to the traced pass time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Recorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT_LAYER = "bench.pass"


def run_pass(name: str, seed: int, trace: bool, smoke: bool = False) -> dict:
    """Set up and run one pass of ``name``; the report as a JSON-able dict."""
    workload = WORKLOADS[name]
    workload.imports()
    import_s = time.perf_counter() - _T0
    inputs = workload.setup(seed, workload.smoke if smoke else workload.full)
    setup_s = time.perf_counter() - _T0

    recorder = Recorder() if trace else None
    if recorder is not None:
        recorder.install()
    try:
        start = time.perf_counter()
        if recorder is not None:
            outcome: Outcome = recorder.timed(ROOT_LAYER, workload.run)(inputs)
        else:
            outcome = workload.run(inputs)
        wall_s = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()

    report = {
        "workload": name,
        "seed": seed,
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": outcome.checks,
        "counts": outcome.counts,
        "latencies_s": outcome.latencies_s,
    }
    if recorder is not None:
        report["layers"] = layer_metrics(recorder)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run_pass(args.workload, args.seed, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
