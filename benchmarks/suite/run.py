"""The benchmark's one command.

One run of one workload (what the driver calls)::

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The run itself happens in a supervised child
(``--worker``), so that when this command returns no process the run
started is still alive.

The whole suite, with medians, quartiles and sample counts::

    python3 benchmarks/suite/run.py [--workload W] [--seed 2009] [--repeats 3]
        [--traced] [--quick] --output results.json

runs each selected workload ``--repeats`` times untraced (and once traced
with ``--traced``), every run in a process of its own with fresh
directories, checks that same-seed runs — traced or not — reach the same
state digest, and writes one result file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import harness
import vocabulary

MODULES = {
    "sim-array-1m": "wl_sim_array",
    "sim-default-2k": "wl_sim_default",
    "report-fast": "wl_report_fast",
    "live-udp-100": "wl_live_udp",
}
QUICK_SECONDS = 2.0
#: A run is its timed section plus set-up, verification and (traced) sibling
#: probes, ~10-25 s here; past this allowance it is hung, and is killed.
RUN_ALLOWANCE_S = 120.0
RESULT_SCHEMA = 1


def default_seconds() -> float:
    try:
        contract = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
        return float(contract["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 15.0


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run's timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single run: 1 records spans and reports per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: n=2e4 / n=300 / three specs / n=20, 2 s")
    parser.add_argument("--detail", type=Path, default=None,
                        help="single run: also write everything measured to this JSON file")
    parser.add_argument("--output", type=Path, default=None,
                        help="suite mode: run every selected workload, write results here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=3, help="suite mode: untraced runs")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: add one traced run per workload")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else default_seconds()
    if args.output is None and args.workload is None:
        parser.error("give --workload for a single run or --output for the suite")
    return args


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def supervised_run(args: argparse.Namespace, argv: List[str]) -> int:
    """The run in a child of its own, outlived by none of its processes.

    A traced ``sim-array-1m`` run starts shard workers and, through their
    shared-memory blocks, multiprocessing's resource tracker, which ends
    only after its parent has; ``report-fast`` starts a CLI child with a
    worker pool.  :func:`harness.supervise` waits for every one of them.
    """
    command = [sys.executable, str(Path(__file__).resolve()), *argv, "--worker"]
    return harness.supervise(command, timeout=args.seconds + RUN_ALLOWANCE_S)


def single_run(args: argparse.Namespace) -> int:
    harness.pin_blas_threads()
    if not (harness.SRC_DIR / "repro").is_dir():
        print(f"no program to measure: {harness.SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC_DIR))
    dirs = harness.RunDirs()
    tracer = harness.Tracer() if args.trace else None
    try:
        module = importlib.import_module(MODULES[args.workload])
        ctx = harness.RunContext(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            quick=args.quick, dirs=dirs, tracer=tracer,
        )
        result = module.run(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        dirs.cleanup()

    checks = result.checks
    if tracer is not None:
        problems = tracer.nesting_violations()
        checks.check("spans-nest", not problems, "; ".join(problems))
        names = [(m.name, m.unit) for m in vocabulary.PER_LAYER]
    else:
        result.metrics["peak_rss_mb"] = harness.peak_rss_mb()
        names = [(m.name, m.unit) for m in vocabulary.END_TO_END]
    # A layer the workload never enters reports 0: no time was spent there.
    metrics = {
        name: {"value": result.metrics.get(name, 0.0), "unit": unit}
        for name, unit in names
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  quick' if args.quick else ''}")
    for name, entry in metrics.items():
        if name in result.metrics:
            print(f"  {name:<46} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in result.info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  info {key:<41} {shown!s:>16}")
    print(f"  digest {result.digest}")
    for entry in checks.log:
        if not entry["ok"]:
            print(f"  FAILED {entry['check']}: {entry['detail']}")
    print(f"  checks {len(checks.log)}  attempted {checks.attempted}  failed {checks.failed}")

    if args.detail is not None:
        detail: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick,
            "metrics": metrics, "info": result.info, "digest": result.digest,
            "correct": checks.correct, "attempted": checks.attempted,
            "failed": checks.failed, "checks": checks.log,
            "host": harness.host_fingerprint(),
        }
        if tracer is not None:
            detail["spans"] = {
                "recorded": len(tracer),
                "by_name": {
                    name: {"count": t.count, "total_s": t.total_s, "self_s": t.self_s}
                    for name, t in tracer.totals().items()
                },
                "first": tracer.export(),
            }
        args.detail.write_text(json.dumps(detail, indent=1, default=str))

    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------


def _child_run(args, workload: str, trace: int, scratch: Path) -> Optional[Dict[str, Any]]:
    detail = scratch / f"{workload}-{trace}-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0 or not detail.exists():
        print(f"  run failed (exit {done.returncode})", file=sys.stderr)
        return None
    return json.loads(detail.read_text())


def _summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = harness.quartiles(values)
        summary[name] = {
            "unit": first["unit"], "median": harness.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values,
        }
    return summary


def _print_summary(title: str, summary: Dict[str, Dict[str, Any]], skip_zero: bool) -> None:
    print(f"  {title}")
    for name, row in summary.items():
        if skip_zero and not any(row["values"]):
            continue
        print(f"    {name:<46} {row['median']:>14.6g} {row['unit']:<6}"
              f" q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} n={row['n']}")


def suite(args: argparse.Namespace) -> int:
    harness.pin_blas_threads()
    sys.path.insert(0, str(harness.SRC_DIR))
    workloads = [args.workload] if args.workload else list(MODULES)
    harness.WORK_DIR.mkdir(exist_ok=True)
    results: Dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "quick": args.quick, "host": harness.host_fingerprint(),
        "end_to_end": [m._asdict() for m in vocabulary.END_TO_END],
        "workloads": {},
    }
    healthy = True
    with tempfile.TemporaryDirectory(prefix="suite-", dir=harness.WORK_DIR) as scratch:
        for workload in workloads:
            print(f"== {workload} ==", flush=True)
            runs = [
                run for run in (
                    _child_run(args, workload, 0, Path(scratch))
                    for _ in range(args.repeats)
                ) if run is not None
            ]
            traced = _child_run(args, workload, 1, Path(scratch)) if args.traced else None
            if len(runs) < args.repeats or (args.traced and traced is None):
                healthy = False
            if not runs:
                continue
            everything = runs + ([traced] if traced else [])
            digests = sorted({str(run["digest"]) for run in everything})
            attempted = sum(run["attempted"] for run in everything)
            failed = sum(run["failed"] for run in everything)
            entry: Dict[str, Any] = {
                "end_to_end": _summarise(runs),
                "info": [run["info"] for run in runs],
                "digests": digests,
                "digests_agree": len(digests) == 1,
                "fail_ratio": failed / max(attempted, 1),
                "failed_checks": [
                    check for run in everything for check in run["checks"] if not check["ok"]
                ],
            }
            _print_summary("end to end (untraced)", entry["end_to_end"], skip_zero=False)
            for key in runs[0]["info"]:
                values = [run["info"][key] for run in runs]
                if all(isinstance(v, float) for v in values):
                    print(f"    info {key:<41} {harness.median(values):>14.6g}")
            if traced:
                entry["per_layer"] = _summarise([traced])
                entry["traced_info"] = traced["info"]
                entry["spans"] = traced["spans"]["by_name"]
                _print_summary("per layer (traced)", entry["per_layer"], skip_zero=True)
            print(f"  fail_ratio {entry['fail_ratio']:g}  "
                  f"digests {'agree' if entry['digests_agree'] else 'DIFFER'}"
                  f" ({digests[0][:16]})")
            for check in entry["failed_checks"]:
                print(f"  FAILED {check['check']}: {check['detail']}")
            healthy = healthy and failed == 0 and entry["digests_agree"]
            results["workloads"][workload] = entry
    with contextlib.suppress(OSError):
        harness.WORK_DIR.rmdir()
    args.output.write_text(json.dumps(results, indent=1))
    print(f"results written to {args.output}")
    return 0 if healthy else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.output is not None:
        return suite(args)
    if args.worker:
        return single_run(args)
    return supervised_run(args, sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
