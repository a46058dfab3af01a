#!/usr/bin/env python3
"""Paired verdicts of two revisions on the ledger's workloads.

    python3 benchmarks/pairs.py BASE [--change REV] [--workload W ...]
        [--pairs N] [--seconds T] [--toy] [--out FILE]

``BASE`` (and ``--change REV``; by default the change is the working
tree) is checked out with ``git worktree add --detach`` under ``.pairs/``
and removed again afterwards.  The two sides must carry the same
``benchmarks/ledger/`` and ``BENCHMARK.json``, else the tool refuses: two
ledgers do not measure the same thing.  Per workload, the sides then run
in pairs, each run in a fresh interpreter: pair ``i`` runs both sides back
to back, a seeded side first and the other first in the next pair (A B,
B A, A B, ...), so whatever favours the first or second run of a pair
falls on both sides alike.  Every run is that side's own
``benchmarks/ledger/run.py --workload W --trace 0`` (with its own default
seed and run length unless ``--seconds`` is given) with ``PYTHONPATH`` set
to its ``src``.

For each end-to-end metric of ``BENCHMARK.json`` the tool reports the
median of the per-pair ratios change / base, a seeded bootstrap 95%
interval of that median, the change's wins, each side's median, the base
runs' interquartile spread, and a verdict (:func:`reading`):

- ``better``: the change wins at least nine tenths of the pairs (ties
  count for neither) and its median lies beyond the base median by more
  than the base runs' interquartile spread;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound, or every change run is worse than every base run
  and the medians differ by more than that spread;
- ``unresolved`` otherwise, and always below five pairs.

The JSON file (``--out``) holds every run.  Exit 0 when every run
completed with no failed operation, 1 otherwise, 2 on a refusal; a
verdict is reported, never gated on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: What both sides must share for their numbers to be comparable.
LEDGER_PATHS = ("benchmarks/ledger", "BENCHMARK.json")
#: The share of pairs the change must win for ``better``.
WIN_SHARE = 0.9
#: Fewer pairs than this resolve nothing: one side wins all of them by
#: chance more than 5% of the time.
MIN_PAIRS = 5
RESAMPLES = 2000
#: Seeds the side that runs first and the bootstrap (not the ledger's
#: inputs: those are ``run.py``'s own default).
SEED = 11

Run = Dict[str, Any]


def ratio(change: float, base: float) -> float:
    """``change / base``; two zeros are equal, a zero base is infinitely beaten."""
    if base == 0:
        return 1.0 if change == 0 else math.inf
    return change / base


def bootstrap_interval(ratios: Sequence[float], seed: int = SEED,
                       resamples: int = RESAMPLES) -> Tuple[float, float]:
    """Seeded percentile bootstrap 95% interval of the median of ``ratios``."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(resamples)
    )
    return medians[round(0.025 * (resamples - 1))], medians[round(0.975 * (resamples - 1))]


def quartile_spread(values: Sequence[float]) -> float:
    """The distance between the quartiles of ``values`` (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def reading(metric: Mapping[str, Any], pairs: Sequence[Tuple[float, float]]) -> Dict[str, Any]:
    """One end-to-end metric over ``(base, change)`` value pairs.

    ``metric`` is its ``BENCHMARK.json`` entry (``better``: ``"higher"``
    or ``"lower"``, ``bound``: the tolerated relative loss).
    """
    sign = 1 if metric["better"] == "higher" else -1
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    ratios = [ratio(c, b) for b, c in pairs]
    lo, hi = bootstrap_interval(ratios)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    base_median, change_median = statistics.median(base), statistics.median(change)
    # How far the change's median lies on the metric's good side.
    gain = sign * (change_median - base_median)
    spread = quartile_spread(base)
    medians_ratio = ratio(change_median, base_median)
    breach = (medians_ratio < 1 - metric["bound"] if sign > 0
              else medians_ratio > 1 + metric["bound"])
    separated = (max(change) < min(base)) if sign > 0 else (min(change) > max(base))
    if len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif breach or (separated and -gain > spread):
        verdict = "worse"
    elif wins >= WIN_SHARE * len(pairs) and gain > spread:
        verdict = "better"
    else:
        verdict = "unresolved"
    return {"median_ratio": statistics.median(ratios), "interval": [lo, hi], "wins": wins,
            "pairs": len(pairs), "base_median": base_median,
            "change_median": change_median, "base_spread": spread, "verdict": verdict}


def summarize(runs: Sequence[Run],
              end_to_end: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric's :func:`reading` over one workload's runs,
    each ``{"pair": i, "side": "base" | "change", "metrics": {name: value}}``
    and every pair complete."""
    by_pair: Dict[int, Dict[str, Mapping[str, float]]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [by_pair[i] for i in sorted(by_pair)]
    return {
        metric["name"]: reading(
            metric, [(p["base"][metric["name"]], p["change"][metric["name"]]) for p in pairs]
        )
        for metric in end_to_end
    }


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=False)


def ledger_mismatch(root: Path, base: str, change: Optional[str]) -> Optional[str]:
    """Why ``base`` and ``change`` (``None``: the working tree, untracked
    files included) cannot be compared, or ``None`` when their
    :data:`LEDGER_PATHS` are the same."""
    sides = [base] + ([change] if change else [])
    done = _git(root, "diff", "--quiet", *sides, "--", *LEDGER_PATHS)
    if done.returncode > 1:
        return f"git diff failed: {done.stderr.strip()}"
    differs = done.returncode == 1
    if change is None and not differs:
        status = _git(root, "status", "--porcelain", "--untracked-files=all",
                      "--", *LEDGER_PATHS)
        if status.returncode:
            return f"git status failed: {status.stderr.strip()}"
        differs = any(line.startswith("??") for line in status.stdout.splitlines())
    if differs:
        return (f"{' and '.join(LEDGER_PATHS)} differ between {base} and "
                f"{change or 'the working tree'}; a ledger change cannot be judged by pairs")
    return None


def _worktree(root: Path, rev: str, stack: ExitStack) -> Path:
    """``rev`` checked out, detached, in a fresh directory under ``.pairs/``
    and removed again when ``stack`` closes."""
    (root / ".pairs").mkdir(exist_ok=True)
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=root / ".pairs"))
    done = _git(root, "worktree", "add", "--detach", str(tree), rev)
    if done.returncode:
        raise SystemExit(f"pairs: cannot check out {rev}: {done.stderr.strip()}")
    stack.callback(_git, root, "worktree", "remove", "--force", str(tree))
    return tree


def _run(tree: Path, workload: str, args: argparse.Namespace, out: Path) -> Run:
    """One ledger run of ``workload`` on the side checked out at ``tree``."""
    argv = [sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
            "--workload", workload, "--trace", "0", "--out", str(out)]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    if args.toy:
        argv.append("--toy")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    if not out.exists():
        raise SystemExit(f"pairs: {' '.join(argv)} exited {done.returncode} "
                         f"without a result:\n{done.stderr[-2000:]}")
    # The per-segment timing logs are the ledger's own detail; a run keeps
    # its metrics, operation counts and raw host figures.
    report = {key: value for key, value in json.loads(out.read_text(encoding="utf-8")).items()
              if not key.endswith("_log")}
    out.unlink()
    return {"returncode": done.returncode,
            "metrics": {name: m["value"] for name, m in report.pop("metrics").items()},
            "report": report}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision the change is judged against")
    parser.add_argument("--change", help="the changed revision (default: the working tree)")
    parser.add_argument("--workload", action="extend", nargs="+",
                        help="BENCHMARK.json workloads (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="timed section per run (default: run.py's own)")
    parser.add_argument("--toy", action="store_true", help="the ledger's tiny worlds")
    parser.add_argument("--out", help="the JSON file of every run (default: .pairs/pairs.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    mismatch = ledger_mismatch(ROOT, args.base, args.change)
    if mismatch:
        print(f"pairs: {mismatch}", file=sys.stderr)
        return 2

    rng = random.Random(SEED)
    result: Dict[str, Any] = {
        "base": args.base, "change": args.change or "working tree",
        "seconds": args.seconds, "toy": args.toy, "pairs": args.pairs, "workloads": {},
    }
    status = 0
    with ExitStack() as stack:
        trees = {"base": _worktree(ROOT, args.base, stack),
                 "change": _worktree(ROOT, args.change, stack) if args.change else ROOT}
        scratch = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="pairs-")))
        for workload in workloads:
            runs: List[Run] = []
            order = rng.sample(["base", "change"], 2)
            for pair in range(args.pairs):
                for side in order[::-1] if pair % 2 else order:
                    run = _run(trees[side], workload, args, scratch / "run.json")
                    run.update(pair=pair, side=side)
                    runs.append(run)
                    if run["returncode"] or run["report"]["failed"]:
                        status = 1
            readings = summarize(runs, spec["end_to_end"])
            result["workloads"][workload] = {"first": order[0], "readings": readings,
                                             "runs": runs}
            for name, r in readings.items():
                lo, hi = r["interval"]
                print(f"{workload:18s} {name:18s} median {r['median_ratio']:.3f}  "
                      f"95% [{lo:.3f}, {hi:.3f}]  wins {r['wins']}/{r['pairs']}  "
                      f"{r['base_median']:.4g} -> {r['change_median']:.4g} "
                      f"(base IQR {r['base_spread']:.3g})  {r['verdict']}")
    out = Path(args.out) if args.out else ROOT / ".pairs" / "pairs.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"# every run written to {out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
