"""Taxonomy tree with lowest-common-ancestor (LCA) support.

A taxID is an integer attributed to a cluster of related species (paper
§2.1.1, footnote 3).  Kraken-style databases associate each k-mer with the
LCA of all genomes containing it, and classification walks root-to-leaf
paths, so the tree and LCA are load-bearing substrate for both baselines
and MegIS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

ROOT_TAXID = 1


class Rank(enum.Enum):
    """Taxonomic ranks used by the simulated taxonomy."""

    ROOT = "root"
    GENUS = "genus"
    SPECIES = "species"


@dataclass(frozen=True)
class TaxonomyNode:
    taxid: int
    parent: Optional[int]
    rank: Rank
    name: str


class Taxonomy:
    """An immutable-after-construction taxonomy tree keyed by taxID."""

    def __init__(self):
        self._nodes: Dict[int, TaxonomyNode] = {
            ROOT_TAXID: TaxonomyNode(ROOT_TAXID, None, Rank.ROOT, "root")
        }

    # -- construction -----------------------------------------------------

    def add_node(self, taxid: int, parent: int, rank: Rank, name: str = "") -> None:
        """Add a node under an existing parent."""
        if taxid in self._nodes:
            raise ValueError(f"taxid {taxid} already present")
        if parent not in self._nodes:
            raise KeyError(f"parent taxid {parent} not present")
        self._nodes[taxid] = TaxonomyNode(taxid, parent, rank, name or f"tax{taxid}")

    @classmethod
    def from_reference_collection(cls, references) -> "Taxonomy":
        """Build the two-level (genus -> species) tree of a generated collection."""
        tree = cls()
        seen_genera = set()
        for genome in references.genomes.values():
            if genome.genus_id not in seen_genera:
                tree.add_node(genome.genus_id, ROOT_TAXID, Rank.GENUS)
                seen_genera.add(genome.genus_id)
        for genome in references.genomes.values():
            tree.add_node(genome.taxid, genome.genus_id, Rank.SPECIES, genome.name)
        return tree

    # -- queries ----------------------------------------------------------

    def __contains__(self, taxid: int) -> bool:
        return taxid in self._nodes

    def node(self, taxid: int) -> TaxonomyNode:
        return self._nodes[taxid]

    def parent(self, taxid: int) -> Optional[int]:
        return self._nodes[taxid].parent

    def rank(self, taxid: int) -> Rank:
        return self._nodes[taxid].rank

    def children(self, taxid: int) -> List[int]:
        return sorted(n.taxid for n in self._nodes.values() if n.parent == taxid)

    def species(self) -> List[int]:
        return sorted(t for t, n in self._nodes.items() if n.rank == Rank.SPECIES)

    def path_to_root(self, taxid: int) -> List[int]:
        """Taxids from ``taxid`` up to and including the root."""
        if taxid not in self._nodes:
            raise KeyError(f"unknown taxid {taxid}")
        path = [taxid]
        while (parent := self._nodes[path[-1]].parent) is not None:
            path.append(parent)
        return path

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of two taxids."""
        ancestors_a = set(self.path_to_root(a))
        for taxid in self.path_to_root(b):
            if taxid in ancestors_a:
                return taxid
        return ROOT_TAXID  # unreachable in a rooted tree, kept for safety

    def lca_many(self, taxids: Iterable[int]) -> int:
        """LCA of an arbitrary non-empty collection of taxids."""
        iterator = iter(taxids)
        try:
            result = next(iterator)
        except StopIteration:
            raise ValueError("lca_many requires at least one taxid") from None
        for taxid in iterator:
            result = self.lca(result, taxid)
            if result == ROOT_TAXID:
                return ROOT_TAXID
        return result

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """True if ``ancestor`` lies on ``descendant``'s path to the root."""
        return ancestor in self.path_to_root(descendant)

    def species_under(self, taxid: int) -> List[int]:
        """All species-rank descendants of ``taxid`` (inclusive)."""
        return sorted(
            s for s in self.species() if self.is_ancestor(taxid, s)
        )

    def depth(self, taxid: int) -> int:
        """Edges between ``taxid`` and the root."""
        return len(self.path_to_root(taxid)) - 1
