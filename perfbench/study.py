"""One sample of a workload in this fresh process, printed as one JSON line.

``run.py`` starts this script once per sample. It times the import of
fracfv (``setup_s``), then the workload's studies, run once each in the
order the inputs list them (``wall_s``), reads the peak resident set
(``peak_rss_mb``) and checks every study's outputs. With ``--trace`` the
layers are wrapped by the span recorder first, and the span tree and layer
metrics are written to ``<out>/trace.json``; untraced samples never import
the recorder.

    python3 perfbench/study.py --workload library-3d --seed 1 \\
        --inputs perfbench/out/library-3d/inputs.json \\
        --out perfbench/out/library-3d/untraced
"""

import os

# One BLAS/OpenMP thread, set before anything imports numpy, so a sample
# does not depend on how the machine schedules BLAS threads.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SOURCE), str(HERE)]
    start = time.perf_counter()
    import fracfv.coupling  # noqa: F401
    import fracfv.elimination  # noqa: F401
    import fracfv.fvdiscretize  # noqa: F401
    import fracfv.harness  # noqa: F401
    import fracfv.linsolve  # noqa: F401
    import fracfv.mdmesh  # noqa: F401
    import fracfv.tensors  # noqa: F401
    import fracfv.transport  # noqa: F401

    setup_s = time.perf_counter() - start
    if SOURCE not in Path(fracfv.__file__).resolve().parents:
        print(f"fracfv was imported from {fracfv.__file__}, not from {SOURCE}", file=sys.stderr)
        return 3

    import workloads

    inputs = json.loads(args.inputs.read_text())
    studies = [(name, *workloads.STUDIES[name]) for name in inputs]
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.instrument(recorder, callers=(workloads,))
        studies = [(name, recorder.span(f"bench.{name}", run), check)
                   for name, run, check in studies]

    def run_all():
        return {name: run(inputs[name], args.out / name) for name, run, _ in studies}

    if recorder is not None:
        run_all = recorder.span("bench.study", run_all)
    start = time.perf_counter()
    results = run_all()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [[f"{name}.{c.name}", c.value, c.limit, c.passed]
              for name, _, check in studies
              for c in check(results[name], inputs[name], args.seed)]
    sample = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "traced": args.trace,
        "checks": checks,
    }
    if recorder is not None:
        sample["layers"] = recorder.layer_metrics()
        trace = {"workload": args.workload, "seed": args.seed, "wall_s": wall_s,
                 "layers": sample["layers"], "tree": recorder.tree()}
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "trace.json").write_text(json.dumps(trace, indent=2) + "\n")
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
