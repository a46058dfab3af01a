#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py                       # all five workloads
    python3 benchmarks/ledger/run.py --workload map_short  # one of them

One workload (``--workload``) builds its inputs from ``--seed``, sets the
program up, measures for ``--seconds``, checks every operation against
the ``python``-backend reference, prints every metric by name with its
unit, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from the traced pass) with ``--trace 1``.  It exits 1
if any operation failed.

Without ``--workload`` each workload runs in a fresh child process, with
tracing off and then on, and the results — with machine, versions, git
commit and dirty-tree flag — are written as one JSON file that
``compare.py`` reads.

Metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the repository; a metric computed here but not declared there is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def declared_metrics(spec: dict, section: str, values: dict) -> dict:
    """``values`` as the contract's ``{name: {"value", "unit"}}`` over
    every metric ``section`` declares.  A per-layer metric whose layer did
    not run on this workload reads 0."""
    declared = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if section == "end_to_end":
        missing = sorted(set(declared) - set(values))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }


def provenance(seed: int, seconds: float, toy: bool) -> dict:
    """Where and from what these numbers came."""
    import numpy

    def git(*args: str):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git("rev-parse", "HEAD"),
        #: None when this is not a git checkout.
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "seconds": seconds,
        "toy": toy,
    }


def run_one(args: argparse.Namespace) -> int:
    from megis_ledger.measure import measure

    spec = load_spec()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), toy=args.toy)
    section = "per_layer" if args.trace else "end_to_end"
    values = result.per_layer if args.trace else result.end_to_end
    metrics = declared_metrics(spec, section, values)

    print(f"# {result.workload}  seed={result.seed}  trace={int(result.trace)}"
          f"  rounds={result.rounds} x {result.ops_per_round} ops"
          f" ({result.samples_per_round} samples)"
          f"  attempted={result.attempted}  failed={result.failed}")
    for name, metric in metrics.items():
        if name not in values:
            continue  # a layer that does not run on this workload
        note = ""
        if name in result.raw:
            note = f"  (raw {result.raw[name]:.4f})"
        if name in ("op_ms_p50", "op_ms_p90"):
            note += f"  (n={result.op_samples} ops)"
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}{note}")
    if result.raw:
        print(f"# times are in nominal-host units: CPU time ÷ host slowdown "
              f"(median {result.raw['host_slowdown']:.3f} over the "
              f"segments), stolen time out, idle time as it was")
    if len(values) < len(metrics):
        print(f"# {len(metrics) - len(values)} per-layer metrics belong to "
              f"layers that do not run here; they read 0 in the JSON line")
    if result.trace_path:
        print(f"# spans written to {result.trace_path}")

    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    if args.out:
        report = dict(summary)
        report.update(
            workload=result.workload, trace=int(result.trace),
            rounds=result.rounds, ops_per_round=result.ops_per_round,
            samples_per_round=result.samples_per_round,
            op_samples=result.op_samples,
            first_failure=result.first_failure,
            raw=result.raw, segment_log=result.segment_log,
            setup_log=result.setup_log,
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print(json.dumps(summary))
    return 0 if result.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    from megis_ledger.measure import WORK_ROOT

    spec = load_spec()
    os.makedirs(WORK_ROOT, exist_ok=True)
    out = args.out or os.path.join(WORK_ROOT, "result.json")
    traces = [args.trace] if args.trace is not None else [0, 1]
    report = {
        "provenance": provenance(args.seed, args.seconds, args.toy),
        "workloads": {},
    }
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry = report["workloads"][workload] = {}
        for trace in traces:
            part = os.path.join(WORK_ROOT, f"part-{workload}-{trace}.json")
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", part,
            ] + (["--toy"] if args.toy else [])
            # The child prints its own table; a workload that cannot
            # even report is a failure of the whole command.
            done = subprocess.run(command, check=False)
            status = status or done.returncode
            if os.path.exists(part):
                with open(part, encoding="utf-8") as handle:
                    entry["per_layer" if trace else "end_to_end"] = (
                        json.load(handle)
                    )
                os.remove(part)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"# ledger written to {out}")
    return status


def main(argv=None) -> int:
    from megis_ledger.inputs import DEFAULT_SEED
    from megis_ledger.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed section per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off (default "
                             "with --workload); 1: the traced pass and "
                             "per-layer metrics; all workloads run both")
    parser.add_argument("--toy", action="store_true",
                        help="tiny worlds and samples (the smoke test)")
    parser.add_argument("--out", help="also write the result as JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 f"is missing")
    sys.exit(main())
