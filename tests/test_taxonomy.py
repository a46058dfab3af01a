"""Tests for the taxonomy tree, profiles, and accuracy metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.taxonomy.metrics import (
    f1_score,
    l1_norm_error,
    precision_recall_f1,
    presence_absence_confusion,
)
from repro.taxonomy.profiles import AbundanceProfile
from repro.taxonomy.tree import ROOT_TAXID, Rank, Taxonomy


#: Every node of the :func:`tree` fixture.
TAXIDS = [ROOT_TAXID, 2, 3, 10, 11, 12]


@pytest.fixture()
def tree():
    t = Taxonomy()
    t.add_node(2, ROOT_TAXID, Rank.GENUS, "genusA")
    t.add_node(3, ROOT_TAXID, Rank.GENUS, "genusB")
    t.add_node(10, 2, Rank.SPECIES, "a1")
    t.add_node(11, 2, Rank.SPECIES, "a2")
    t.add_node(12, 3, Rank.SPECIES, "b1")
    return t


class TestTaxonomyTree:
    def test_root_always_present(self):
        assert ROOT_TAXID in Taxonomy()

    def test_add_duplicate_raises(self, tree):
        with pytest.raises(ValueError):
            tree.add_node(2, ROOT_TAXID, Rank.GENUS)

    def test_add_missing_parent_raises(self, tree):
        with pytest.raises(KeyError):
            tree.add_node(99, 98, Rank.SPECIES)

    def test_path_to_root(self, tree):
        assert tree.path_to_root(10) == [10, 2, ROOT_TAXID]

    def test_path_unknown_raises(self, tree):
        with pytest.raises(KeyError):
            tree.path_to_root(42)

    def test_lca_same_genus(self, tree):
        assert tree.lca(10, 11) == 2

    def test_lca_cross_genus(self, tree):
        assert tree.lca(10, 12) == ROOT_TAXID

    def test_lca_with_ancestor(self, tree):
        assert tree.lca(10, 2) == 2

    def test_lca_reflexive(self, tree):
        for t in TAXIDS:
            assert tree.lca(t, t) == t

    def test_lca_commutative(self, tree):
        for a in TAXIDS:
            for b in TAXIDS:
                assert tree.lca(a, b) == tree.lca(b, a)

    def test_lca_many(self, tree):
        assert tree.lca_many([10, 11]) == 2
        assert tree.lca_many([10, 11, 12]) == ROOT_TAXID
        assert tree.lca_many([10]) == 10

    def test_lca_many_empty_raises(self, tree):
        with pytest.raises(ValueError):
            tree.lca_many([])

    def test_children_and_species(self, tree):
        assert tree.children(2) == [10, 11]
        assert tree.species() == [10, 11, 12]

    def test_species_under(self, tree):
        assert tree.species_under(2) == [10, 11]
        assert tree.species_under(ROOT_TAXID) == [10, 11, 12]

    def test_is_ancestor(self, tree):
        assert tree.is_ancestor(2, 10)
        assert tree.is_ancestor(ROOT_TAXID, 12)
        assert not tree.is_ancestor(3, 10)

    def test_depth(self, tree):
        assert tree.depth(ROOT_TAXID) == 0
        assert tree.depth(2) == 1
        assert tree.depth(10) == 2

    def test_from_reference_collection(self, tree):
        from repro.sequences.generator import GenomeGenerator

        refs = GenomeGenerator(n_genera=2, species_per_genus=3, seed=0).generate()
        taxonomy = Taxonomy.from_reference_collection(refs)
        assert set(taxonomy.species()) == set(refs.species_taxids)
        for taxid in refs.species_taxids:
            assert taxonomy.parent(taxid) == refs.genus_of(taxid)


class TestAbundanceProfile:
    def test_from_counts_normalizes(self):
        profile = AbundanceProfile.from_counts({1: 3, 2: 1})
        assert profile.abundance(1) == pytest.approx(0.75)
        assert profile.total() == pytest.approx(1.0)

    def test_zero_counts_dropped(self):
        profile = AbundanceProfile.from_counts({1: 5, 2: 0})
        assert 2 not in profile.fractions

    def test_empty(self):
        assert len(AbundanceProfile.from_counts({})) == 0

    def test_present_threshold(self):
        profile = AbundanceProfile.from_counts({1: 99, 2: 1})
        assert profile.present() == {1, 2}
        assert profile.present(threshold=0.05) == {1}

    @given(st.dictionaries(st.integers(1, 50), st.floats(0.01, 100), min_size=1, max_size=10))
    def test_normalized_sums_to_one(self, counts):
        profile = AbundanceProfile.from_counts(counts)
        assert profile.total() == pytest.approx(1.0)


class TestMetrics:
    def test_confusion(self):
        out = presence_absence_confusion({1, 2, 3}, {2, 3, 4})
        assert out == {"tp": 2, "fp": 1, "fn": 1}

    def test_perfect_f1(self):
        assert f1_score({1, 2}, {1, 2}) == 1.0

    def test_disjoint_f1(self):
        assert f1_score({1}, {2}) == 0.0

    def test_empty_prediction(self):
        precision, recall, f1 = precision_recall_f1(set(), {1})
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_l1_identical_zero(self):
        assert l1_norm_error({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0

    def test_l1_disjoint_is_two(self):
        assert l1_norm_error({1: 1.0}, {2: 1.0}) == pytest.approx(2.0)

    @given(
        st.dictionaries(st.integers(1, 20), st.floats(0, 1), max_size=6),
        st.dictionaries(st.integers(1, 20), st.floats(0, 1), max_size=6),
    )
    def test_l1_symmetric_nonnegative(self, a, b):
        assert l1_norm_error(a, b) == pytest.approx(l1_norm_error(b, a))
        assert l1_norm_error(a, b) >= 0.0

    @given(st.sets(st.integers(1, 30), max_size=8), st.sets(st.integers(1, 30), max_size=8))
    def test_f1_bounds(self, predicted, truth):
        assert 0.0 <= f1_score(predicted, truth) <= 1.0
