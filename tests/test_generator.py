"""Tests for the synthetic genome generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sequences.generator import (
    GenomeGenerator,
    mutate_sequence,
    random_sequence,
)
from tests.oracles import gc_content


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestRandomSequence:
    def test_length(self):
        assert len(random_sequence(123, rng())) == 123

    def test_alphabet(self):
        assert set(random_sequence(500, rng())) <= set("ACGT")

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            random_sequence(-1, rng())

    def test_deterministic(self):
        assert random_sequence(50, rng(5)) == random_sequence(50, rng(5))


class TestMutateSequence:
    def test_zero_rate_identity(self):
        seq = random_sequence(200, rng())
        assert mutate_sequence(seq, 0.0, rng()) == seq

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            mutate_sequence("ACGT", 1.5, rng())
        with pytest.raises(ValueError):
            mutate_sequence("ACGT", -0.1, rng())

    def test_substitutions_always_change_base(self):
        seq = "A" * 2000
        mutated = mutate_sequence(seq, 0.5, rng(1))
        changed = sum(1 for a, b in zip(seq, mutated) if a != b)
        # Every mutation event must produce a different base.
        assert changed > 0
        assert len(mutated) == len(seq)

    def test_realized_divergence_near_rate(self):
        seq = random_sequence(20_000, rng(2))
        mutated = mutate_sequence(seq, 0.1, rng(3))
        divergence = sum(1 for a, b in zip(seq, mutated) if a != b) / len(seq)
        assert 0.07 < divergence < 0.13

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=20)
    def test_length_preserved(self, rate):
        seq = "GATTACA" * 10
        assert len(mutate_sequence(seq, rate, rng(4))) == len(seq)


class TestGenomeGenerator:
    def test_structure(self):
        collection = GenomeGenerator(
            n_genera=3, species_per_genus=4, genome_length=800, seed=1
        ).generate()
        assert len(collection.genomes) == 12
        genera = {g.genus_id for g in collection.genomes.values()}
        assert len(genera) == 3

    def test_taxids_unique_and_disjoint_from_genera(self):
        collection = GenomeGenerator(n_genera=3, species_per_genus=2, seed=1).generate()
        species = set(collection.species_taxids)
        genera = {g.genus_id for g in collection.genomes.values()}
        assert not species & genera
        assert 1 not in species | genera  # root reserved

    def test_within_genus_similarity(self):
        collection = GenomeGenerator(
            n_genera=2, species_per_genus=2, genome_length=2000,
            divergence=0.03, seed=2, length_jitter=0.0,
        ).generate()
        by_genus = {}
        for genome in collection.genomes.values():
            by_genus.setdefault(genome.genus_id, []).append(genome.sequence)
        for sequences in by_genus.values():
            a, b = sequences
            diff = sum(1 for x, y in zip(a, b) if x != y) / len(a)
            assert diff < 0.15  # two draws at 3% divergence each

    def test_cross_genus_dissimilarity(self):
        collection = GenomeGenerator(
            n_genera=2, species_per_genus=1, genome_length=2000,
            seed=3, length_jitter=0.0,
        ).generate()
        a, b = [g.sequence for g in collection.genomes.values()]
        diff = sum(1 for x, y in zip(a, b) if x != y) / min(len(a), len(b))
        assert diff > 0.5  # unrelated random sequences differ at ~75%

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GenomeGenerator(n_genera=0)
        with pytest.raises(ValueError):
            GenomeGenerator(genome_length=0)

    def test_deterministic(self):
        first = GenomeGenerator(seed=9).generate()
        second = GenomeGenerator(seed=9).generate()
        assert {t: g.sequence for t, g in first.genomes.items()} == {
            t: g.sequence for t, g in second.genomes.items()
        }


class TestGcContent:
    def test_empty(self):
        assert gc_content("") == 0.0

    def test_half(self):
        assert gc_content("ACGT") == 0.5

    def test_random_near_half(self):
        assert 0.4 < gc_content(random_sequence(10_000, rng(6))) < 0.6
