"""Benchmark command: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; fracfv is imported
from the checkout's ``src/``. Each sample is one complete study in a fresh
process (``study.py``), and samples run one after another, never side by
side. The command repeats whole rounds until ``--seconds`` have passed: a
round is one untraced study, and with ``--trace 1`` one untraced and one
traced study. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
medians of the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics. A summary with quartiles goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Every sample, and so the whole command, ends within this many seconds.
BUDGET_S = 170.0


def run_sample(workload: str, seed: int, inputs_path: Path, traced: bool, timeout: float):
    """One study in a fresh process; None if it crashed or ran out of time."""
    out_dir = OUT / workload / ("traced" if traced else "untraced")
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs_path), "--out", str(out_dir)]
    if traced:
        cmd.append("--trace")
    # run_case asks git for a build id; keep git from searching above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: a study ran past {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: a study exited with {proc.returncode}:\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g}, quartiles {q1:.4g}..{q3:.4g} (n={len(values)})"


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Medians of the layer times; counts, which must agree between samples."""
    metrics, steady = {}, True
    for name, first in traced[0]["layers"].items():
        values = [s["layers"][name]["value"] for s in traced]
        if first["unit"] == "s":
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
            print(f"  {name}: {spread(values)} s", file=sys.stderr)
            continue
        if len(set(values)) != 1:
            print(f"count {name} differs between traced studies: {values}", file=sys.stderr)
            steady = False
        metrics[name] = first
        print(f"  {name}: {first['value']} {first['unit']}", file=sys.stderr)
    overhead = (statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in untraced))
    metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracfv" / "__init__.py").is_file():
        print(f"no fracfv sources under {ROOT / 'src'}; run inside a repository checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    inputs_path = work_dir / "inputs.json"
    inputs_path.write_text(json.dumps(make_inputs(args.workload, args.seed, work_dir)))

    rounds = [False, True] if args.trace else [False]
    samples, failed, longest_round = [], 0, 0.0
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in rounds:
            remaining = BUDGET_S - (time.perf_counter() - start)
            sample = run_sample(args.workload, args.seed, inputs_path, traced, max(remaining, 1.0))
            if sample is None:
                failed += 1
            else:
                samples.append(sample)
        now = time.perf_counter()
        longest_round = max(longest_round, now - round_start)
        if not samples or now - measure_start >= args.seconds:
            break
        if now - start + longest_round > BUDGET_S:
            break

    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    if not untraced or (args.trace and not traced):
        print(f"{args.workload}: no study finished; no result", file=sys.stderr)
        return 1

    correct = True
    for sample in samples:
        for name, value, limit, passed in sample["checks"]:
            if not passed:
                print(f"{args.workload}: check {name} failed: {value:.3e}, needs {limit}",
                      file=sys.stderr)
                correct = False

    print(f"{args.workload} seed {args.seed}:", file=sys.stderr)
    if args.trace:
        metrics, steady = layer_metrics(traced, untraced)
        correct = correct and steady
    else:
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            values = [s[name] for s in untraced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name}: {spread(values)} {unit}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(samples) + failed,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
