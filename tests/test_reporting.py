"""Tests for the report renderers."""

import json

import pytest

from repro.reporting import json_report, text_report
from repro.taxonomy.profiles import AbundanceProfile
from repro.taxonomy.tree import ROOT_TAXID, Rank, Taxonomy


@pytest.fixture()
def world():
    taxonomy = Taxonomy()
    taxonomy.add_node(2, ROOT_TAXID, Rank.GENUS, "Alphabacter")
    taxonomy.add_node(3, ROOT_TAXID, Rank.GENUS, "Betacoccus")
    taxonomy.add_node(10, 2, Rank.SPECIES, "A. one")
    taxonomy.add_node(11, 2, Rank.SPECIES, "A. two")
    taxonomy.add_node(12, 3, Rank.SPECIES, "B. one")
    profile = AbundanceProfile({10: 0.5, 11: 0.25, 12: 0.25})
    return taxonomy, profile


class TestTextReport:
    def test_root_is_100_percent(self, world):
        taxonomy, profile = world
        report = text_report(profile, taxonomy)
        assert report.splitlines()[0].startswith("100.00%")

    def test_genus_rollup(self, world):
        taxonomy, profile = world
        report = text_report(profile, taxonomy)
        alphabacter = next(ln for ln in report.splitlines() if "Alphabacter" in ln)
        assert alphabacter.strip().startswith("75.00%")

    def test_all_species_listed(self, world):
        taxonomy, profile = world
        report = text_report(profile, taxonomy)
        for name in ("A. one", "A. two", "B. one"):
            assert name in report

    def test_min_fraction_prunes(self, world):
        taxonomy, profile = world
        report = text_report(profile, taxonomy, min_fraction=0.3)
        assert "A. one" in report
        assert "B. one" not in report

    def test_indentation_by_rank(self, world):
        taxonomy, profile = world
        lines = text_report(profile, taxonomy).splitlines()
        species_line = next(ln for ln in lines if "A. one" in ln)
        genus_line = next(ln for ln in lines if "Alphabacter" in ln)
        assert species_line.index("A. one") > genus_line.index("Alphabacter")


class TestJsonReport:
    def test_structure(self, world):
        taxonomy, profile = world
        data = json.loads(json_report(profile, taxonomy))
        assert set(data) == {"species", "genera", "total"}
        assert data["species"]["10"]["fraction"] == pytest.approx(0.5)
        assert data["genera"]["2"]["fraction"] == pytest.approx(0.75)
        assert data["total"] == pytest.approx(1.0)

    def test_empty_profile(self, world):
        taxonomy, _ = world
        data = json.loads(json_report(AbundanceProfile(), taxonomy))
        assert data["species"] == {}
        assert data["total"] == 0.0
