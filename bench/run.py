"""polarkit benchmark: one workload, every metric by name with its unit, and the checks.

    python3 bench/run.py --workload {bler,codec,curves} --seed N --seconds S --trace {0,1}

Run from the root of a polarkit checkout; polarkit is imported from ./src.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json: set-up
is measured in several fresh processes and reported as their median, and
the workload runs in one more process (a clean peak RSS) for --seconds.
With --trace 1 one process wraps polarkit's public functions and prints the
per-module metrics and the tracing overhead.  The last stdout line is JSON:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric definitions and the module-to-metric predictions: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Fresh processes that only set up, half before and half after the run;
# with the run's own set-up they make 21 samples, spread over the run so
# that their median does not hang on one spell of the host's speed.
SETUP_PROBES = 20
IMPORT_PROBES = 5  # fresh processes timing `import polarkit.cli`
# Every child is killed and waited for within --seconds plus this margin.
MARGIN_S = 120.0


def child_env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(argv: list[str], deadline: float) -> dict:
    """Run a child to completion; return its last stdout line as JSON."""
    # subprocess.run kills the child on timeout and waits for it.
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark child {argv[:3]} ran past the deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child {argv[:3]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds(deadline: float) -> float:
    code = ("import time; t = time.perf_counter(); import polarkit.cli; "
            "import json; print(json.dumps(time.perf_counter() - t))")
    return statistics.median(spawn(["-c", code], deadline) for _ in range(IMPORT_PROBES))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bler", "codec", "curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds + MARGIN_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "polarkit" / "__init__.py").is_file():
        raise SystemExit(f"no polarkit sources under {ROOT / 'src'}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    child = [str(BENCH / "workloads.py")]
    if args.trace:
        result = spawn(child + ["--role", "trace", *common], deadline)
        result["metrics"]["cli.import_s"] = import_seconds(deadline)
    else:
        probe = child + ["--role", "setup", *common]
        setups = [spawn(probe, deadline) for _ in range(SETUP_PROBES // 2)]
        result = spawn(
            child + ["--role", "run", *common, "--seconds", str(args.seconds)], deadline)
        setups.append(result)
        setups += [spawn(probe, deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        samples = [r["setup_s"] for r in setups]
        result["metrics"]["setup_s"] = statistics.median(samples)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"metric  {name:42s} {value:>16.6g} {units[name]}")
    for name, value in result["notes"].items():
        print(f"note    {name:42s} {value!s:>16}")
    for name, (passed, total) in sorted(result["checks"].items()):
        print(f"check   {name:42s} {passed:>7}/{total:<8} {'ok' if passed == total else 'FAIL'}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
