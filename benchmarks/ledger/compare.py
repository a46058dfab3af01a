#!/usr/bin/env python3
"""Compare two ledger result files, metric by metric, against the bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the candidate; both are
files ``run.py`` wrote without ``--workload``.  One row per (workload,
end-to-end metric): the relative change of ``B`` against ``A`` in the
metric's own direction, against the bound ``BENCHMARK.json`` fixes for it.
A metric that got worse by more than its bound is a breach; so is any rise
in failed operations, and — when both files carry a traced pass of the
same seed — any exact count (``names.EXACT_COUNTS``) that differs.  Exits
1 on any breach, 0 otherwise.

This is separate from ``benchmarks/bench_compare.py``, which diffs
pytest-benchmark ``BENCH_*.json`` files and is left as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from megis_ledger.names import EXACT_COUNTS  # noqa: E402


def worsening(baseline: float, candidate: float, better: str) -> Optional[float]:
    """How much worse ``candidate`` is, as a share of ``baseline``
    (negative when it is better); None when the baseline is 0."""
    if baseline == 0:
        return None
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


def compare(spec: dict, a: dict, b: dict) -> List[dict]:
    """One row per comparison; ``row["breach"]`` marks the failures."""
    rows: List[dict] = []
    same_seed = a["provenance"].get("seed") == b["provenance"].get("seed")
    for workload in (w["name"] for w in spec["workloads"]):
        in_a = a["workloads"].get(workload, {})
        in_b = b["workloads"].get(workload, {})
        e2e_a, e2e_b = in_a.get("end_to_end"), in_b.get("end_to_end")
        if e2e_a is None or e2e_b is None:
            rows.append({"workload": workload, "metric": "(end to end)",
                         "note": "missing from one file", "breach": True})
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = e2e_a["metrics"][name]["value"]
            cand = e2e_b["metrics"][name]["value"]
            worse = worsening(base, cand, metric["better"])
            rows.append({
                "workload": workload, "metric": name, "a": base, "b": cand,
                "unit": metric["unit"], "worse": worse,
                "bound": metric["bound"],
                "breach": worse is None or worse > metric["bound"],
            })
        rows.append({
            "workload": workload, "metric": "failed",
            "a": e2e_a["failed"], "b": e2e_b["failed"], "unit": "ops",
            "worse": None, "bound": 0,
            "breach": e2e_b["failed"] > e2e_a["failed"],
        })
        layers_a, layers_b = in_a.get("per_layer"), in_b.get("per_layer")
        if same_seed and layers_a and layers_b:
            for name in EXACT_COUNTS:
                base = layers_a["metrics"][name]["value"]
                cand = layers_b["metrics"][name]["value"]
                if base != cand:
                    rows.append({
                        "workload": workload, "metric": name, "a": base,
                        "b": cand, "unit": "exact", "worse": None,
                        "bound": 0, "breach": True,
                    })
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':34s} {'A':>12s} {'B':>12s} "
             f"{'worse by':>9s} {'bound':>6s}"]
    for row in rows:
        if "note" in row:
            lines.append(f"{row['workload']:18s} {row['metric']:34s} "
                         f"{row['note']}  BREACH")
            continue
        worse = "" if row["worse"] is None else f"{row['worse']:+9.1%}"
        lines.append(
            f"{row['workload']:18s} {row['metric']:34s} {row['a']:12.4f} "
            f"{row['b']:12.4f} {worse:>9s} {row['bound']:6.2f}"
            f"{'  BREACH' if row['breach'] else ''}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    a, b = files
    for key in ("nproc", "python", "numpy", "seed", "seconds"):
        if a["provenance"].get(key) != b["provenance"].get(key):
            print(f"# note: {key} differs: {a['provenance'].get(key)!r} vs "
                  f"{b['provenance'].get(key)!r}")
    for label, report in (("A", a), ("B", b)):
        if report["provenance"].get("git_dirty"):
            print(f"# note: {label} was recorded from a dirty tree")
    rows = compare(spec, a, b)
    print(render(rows))
    breaches = sum(row["breach"] for row in rows)
    print(f"# {breaches} breach(es) in {len(rows)} comparisons")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
