"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload {tables,sweep,serve} --seed N \\
        --seconds S --trace {0,1}

The program is imported from the ``src/`` beside this ``perfbench/``
directory, and run output goes to ``.perfbench/`` there. The exit status
is 0 when every check passed, 1 when one failed (the result line counts
the failed ops), and 2 when there is no program to measure.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tables", "sweep", "serve")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    # Measure the default configuration: no disk cache of generated
    # workloads, the default kernel backend.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_BACKEND", None)
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]

    from perfbench.harness import print_result, run_benchmark
    from perfbench.workloads import WORKLOADS as CLASSES

    out_dir = os.path.join(ROOT, ".perfbench")
    kwargs = {"workdir": out_dir} if args.workload == "serve" else {}
    workload = CLASSES[args.workload](**kwargs)
    try:
        result, diagnostics = run_benchmark(
            workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            t0=_T0,
            trace_path=os.path.join(out_dir, f"trace-{args.workload}.jsonl"),
        )
    finally:
        workload.close()
    print_result(result, diagnostics)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
