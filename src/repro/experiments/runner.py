"""Common experiment infrastructure: results, registry, pretty printing."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass
class ExperimentResult:
    """A table of rows reproducing one paper figure or table."""

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    paper_reference: str = ""
    notes: str = ""

    def add_row(self, **values: object) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns: {sorted(missing)}")
        self.rows.append(values)

    def format_table(self) -> str:
        """Render as a fixed-width text table."""
        header = [str(c) for c in self.columns]
        body = [
            [self._format_cell(row[c]) for c in self.columns] for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"# {self.experiment}: {self.title}",
            (f"  paper: {self.paper_reference}" if self.paper_reference else ""),
            "  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  " + "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(line for line in lines if line)

    @staticmethod
    def _format_cell(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 100:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.3f}"
        return str(value)


#: Experiment name -> module path (all under repro.experiments).
REGISTRY: Dict[str, str] = {
    "fig03": "repro.experiments.fig03_motivation",
    "fig12": "repro.experiments.fig12_speedup",
    "fig13": "repro.experiments.fig13_breakdown",
    "fig14": "repro.experiments.fig14_dbsize",
    "fig15": "repro.experiments.fig15_nssd",
    "fig16": "repro.experiments.fig16_dram",
    "fig17": "repro.experiments.fig17_channels",
    "fig18": "repro.experiments.fig18_cost",
    "fig19": "repro.experiments.fig19_pim",
    "fig20": "repro.experiments.fig20_abundance",
    "fig21": "repro.experiments.fig21_multisample",
    "table2": "repro.experiments.table2_area",
    "energy": "repro.experiments.energy",
    "accuracy": "repro.experiments.accuracy",
    "kss_size": "repro.experiments.kss_size",
    "ftl_metadata": "repro.experiments.ftl_metadata",
    "ablation_buckets": "repro.experiments.ablation_buckets",
    "ablation_sketch": "repro.experiments.ablation_sketch",
    "isp_management": "repro.experiments.isp_management",
    "overprovisioning": "repro.experiments.overprovisioning",
    "overlap_report": "repro.experiments.overlap_report",
    "random_read_latency": "repro.experiments.random_read_latency",
}


def get_experiment(name: str) -> Callable[[], ExperimentResult]:
    """Resolve an experiment's ``run`` callable by registry name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(REGISTRY)}")
    module = importlib.import_module(REGISTRY[name])
    return module.run


def run_all(names: Optional[Sequence[str]] = None) -> List[ExperimentResult]:
    """Run all (or the named) experiments, returning their results."""
    selected = list(names) if names else sorted(REGISTRY)
    return [get_experiment(name)() for name in selected]
