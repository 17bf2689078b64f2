"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload known_walk --seed 0 \\
        --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 408, "failed": 0,
     "metrics": {"trials_per_s": {"value": 40.1, "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` list.
``correct`` is false when any chunk's records, warm re-sweep or query
rows differ from ``perfbench/digests.json``.  A human-readable report
goes to standard error.  ``--preset tiny`` runs the small grids the
self-tests use (``python -m pytest perfbench``).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Least repetitions of the pass in an untraced run, and traced rounds.
PRESETS = {
    "full": {"min_passes": 3, "rounds": 3},
    "tiny": {"min_passes": 1, "rounds": 1},
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put this checkout's sources first on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no program sources in src/repro "
                         "next to perfbench/")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         "not from this checkout")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    tiny = args.preset == "tiny"
    if args.setup_probe:
        harness.warm_up(workload)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    checker = harness.Checker(workload, tiny)
    work = pathlib.Path(
        tempfile.mkdtemp(prefix="_work-", dir=ROOT / "perfbench")
    )
    try:
        preset = PRESETS[args.preset]
        if args.trace:
            metrics, notes = harness.traced_run(
                workload, args.seed, tiny, work, checker, preset["rounds"]
            )
        else:
            metrics, notes = harness.untraced_run(
                workload, args.seed, args.seconds, tiny, work, checker,
                preset["min_passes"],
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise SystemExit(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            f"{sorted(set(names) ^ set(metrics))}"
        )

    report = sys.stderr
    print(f"workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, preset {args.preset}", file=report)
    for key, value in notes.items():
        print(f"{key}: {value}", file=report)
    for m in wanted:
        print(f"  {m['name']:32s} {metrics[m['name']]!r:>24} {m['unit']}",
              file=report)
    for problem in checker.problems:
        print(f"INCORRECT {problem}", file=report)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
