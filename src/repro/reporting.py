"""Analysis reports: Kraken-style hierarchical text and JSON output.

Downstream users consume classification results as rank-indented reports
(the format Kraken2 popularized) or machine-readable JSON; both renderers
work from an :class:`AbundanceProfile` plus the taxonomy.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.taxonomy.profiles import AbundanceProfile
from repro.taxonomy.tree import ROOT_TAXID, Rank, Taxonomy


def render_json(payload: object, *, indent: int = 2) -> str:
    """Canonical JSON for every ``--format json`` CLI surface.

    One emitter — sorted keys, fixed indent, no trailing newline — shared
    by :func:`json_report` and ``repro check`` so machine consumers parse
    one dialect no matter which tool produced the artifact.
    """
    return json.dumps(payload, indent=indent, sort_keys=True)


def _subtree_fraction(profile: AbundanceProfile, taxonomy: Taxonomy, taxid: int) -> float:
    """Abundance mass under (and including) a taxon."""
    return sum(
        fraction
        for species, fraction in profile.fractions.items()
        if taxonomy.is_ancestor(taxid, species)
    )


def text_report(profile: AbundanceProfile, taxonomy: Taxonomy,
                min_fraction: float = 0.0) -> str:
    """Render a rank-indented report (percent, rank, name), Kraken style."""
    lines: List[str] = []

    def walk(taxid: int, depth: int) -> None:
        mass = _subtree_fraction(profile, taxonomy, taxid)
        if mass <= min_fraction and taxid != ROOT_TAXID:
            return
        node = taxonomy.node(taxid)
        rank_letter = {Rank.ROOT: "R", Rank.GENUS: "G", Rank.SPECIES: "S"}[node.rank]
        lines.append(
            f"{mass * 100:6.2f}%  {rank_letter}  {'  ' * depth}{node.name}"
        )
        for child in taxonomy.children(taxid):
            walk(child, depth + 1)

    walk(ROOT_TAXID, 0)
    return "\n".join(lines)


def json_report(profile: AbundanceProfile, taxonomy: Taxonomy) -> str:
    """Machine-readable report: per-species and per-genus rollups."""
    species = {
        str(taxid): {
            "name": taxonomy.node(taxid).name,
            "fraction": fraction,
        }
        for taxid, fraction in sorted(profile.fractions.items())
    }
    genera: Dict[str, Dict[str, object]] = {}
    for taxid, fraction in profile.fractions.items():
        genus = taxonomy.parent(taxid)
        if genus is None:
            continue
        key = str(genus)
        entry = genera.setdefault(
            key, {"name": taxonomy.node(genus).name, "fraction": 0.0}
        )
        entry["fraction"] = float(entry["fraction"]) + fraction
    return render_json(
        {"species": species, "genera": genera, "total": profile.total()}
    )
