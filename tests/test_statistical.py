"""Tests for the EM-based statistical abundance estimator (§4.4 option i)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.backends.retrieval import RetrievalResult
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.taxonomy.metrics import l1_norm_error
from repro.taxonomy.profiles import AbundanceProfile
from repro.tools.statistical import StatisticalAbundanceEstimator
from tests.columns import query_dicts
from tests.strategies import candidate_sets, property_settings, retrieval_results


@pytest.fixture(scope="module")
def estimator(sketch_db):
    return StatisticalAbundanceEstimator(sketch_db)


def retrieval(view, levels=(20, 12)):
    """A retrieval result over a fresh table from a per-query dict view."""
    queries = sorted(view)
    return RetrievalResult.from_sets(queries, {
        k: [view[q].get(k, ()) for q in queries] for k in levels
    })


def hit_groups_oracle(view, candidates):
    """The per-query dict fold ``hit_groups`` replaces: each query's most
    specific level with owners, restricted to the candidates."""
    allowed = frozenset(candidates)
    groups = {}
    for levels in view.values():
        if not levels:
            continue
        owners = tuple(sorted(set(levels[max(levels)]) & allowed))
        if owners:
            groups[owners] = groups.get(owners, 0) + 1
    return groups


def as_dict(columns):
    """:class:`HitGroups` columns as the oracle's ``{owners: count}``."""
    owners = [[] for _ in columns.count]
    for group, taxid in zip(columns.group.tolist(), columns.owner.tolist()):
        owners[group].append(taxid)
    return dict(zip(map(tuple, owners), columns.count.tolist()))


class TestHitGroups:
    def test_most_specific_level_wins(self, estimator):
        retrieved = retrieval({
            5: {20: frozenset({1}), 12: frozenset({1, 2})},
            9: {12: frozenset({2, 3})},
        })
        groups = StatisticalAbundanceEstimator.hit_groups(retrieved, {1, 2, 3})
        assert as_dict(groups) == {(1,): 1, (2, 3): 1}

    def test_restricted_to_candidates(self, estimator):
        retrieved = retrieval({5: {20: frozenset({1, 99})}})
        groups = StatisticalAbundanceEstimator.hit_groups(retrieved, {1})
        assert as_dict(groups) == {(1,): 1}

    def test_empty_levels_skipped(self, estimator):
        groups = StatisticalAbundanceEstimator.hit_groups(retrieval({5: {}}), {1})
        assert as_dict(groups) == {}

    def test_columnar_matches_reference_fold(self, estimator):
        """The signature grouping = the dict-view fold, keys and order."""
        view = {
            5: {20: frozenset({1}), 12: frozenset({1, 2})},
            9: {12: frozenset({2, 3})},
            11: {20: frozenset({99}), 12: frozenset({2, 3})},
            13: {12: frozenset({2, 3})},
            17: {20: frozenset({2, 3, 99})},
        }
        columnar = as_dict(
            StatisticalAbundanceEstimator.hit_groups(retrieval(view), {1, 2, 3})
        )
        reference = hit_groups_oracle(view, {1, 2, 3})
        # Query 11's most specific level (20) has owners, but none are
        # candidates: it must contribute nothing (the level still "wins").
        # Query 17's set differs from 9's and 13's but restricts to the
        # same group, which its count joins.
        assert columnar == {(1,): 1, (2, 3): 3}
        assert columnar == reference
        assert list(columnar) == list(reference)  # first-occurrence order

    @given(retrieved=retrieval_results(), data=st.data())
    @property_settings(150)
    def test_columnar_equals_reference_fold_on_generated_results(
        self, estimator, retrieved, data
    ):
        """Signature grouping = the dict-view fold on generated results:
        empty, disjoint, sparse and >64-wide candidate sets, distinct
        owner sets that restrict to one group.  The columns hold the
        oracle's groups pair for pair, in first-occurrence order, with its
        counts, so the EM on them gives the profile — float for float —
        that :meth:`estimate` gives on the oracle's dict."""
        candidates = data.draw(candidate_sets(retrieved))
        columnar = StatisticalAbundanceEstimator.hit_groups(retrieved, candidates)
        reference = hit_groups_oracle(query_dicts(retrieved), candidates)
        assert list(zip(columnar.group.tolist(), columnar.owner.tolist())) == [
            (group, taxid)
            for group, owners in enumerate(reference) for taxid in owners
        ]
        assert columnar.count.tolist() == list(reference.values())
        profile, diagnostics = estimator.estimate_from_retrieval(retrieved, candidates)
        expected, expected_diagnostics = estimator.estimate(reference)
        assert list(profile.fractions.items()) == list(expected.fractions.items())
        assert diagnostics == expected_diagnostics

    def test_owners_ascend_within_a_group(self, estimator):
        retrieved = retrieval({q: {20: frozenset({3, 1})} for q in range(10)})
        groups = StatisticalAbundanceEstimator.hit_groups(retrieved, {1, 3})
        assert groups.group.tolist() == [0, 0]
        assert groups.owner.tolist() == [1, 3]
        assert groups.count.tolist() == [10]


class TestEm:
    def test_unambiguous_hits_recover_ratio(self, sketch_db):
        taxids = sorted(sketch_db.sketch_sizes)[:2]
        a, b = taxids
        wa = max(1, sketch_db.sketch_sizes[a])
        wb = max(1, sketch_db.sketch_sizes[b])
        # Hits proportional to (abundance x sketch size) with 3:1 abundance.
        groups = {
            frozenset({a}): 3 * wa,
            frozenset({b}): 1 * wb,
        }
        profile, diag = StatisticalAbundanceEstimator(sketch_db).estimate(groups)
        assert diag.converged
        assert profile.abundance(a) == pytest.approx(0.75, abs=0.02)
        assert profile.abundance(b) == pytest.approx(0.25, abs=0.02)

    def test_ambiguous_hits_split(self, sketch_db):
        taxids = sorted(sketch_db.sketch_sizes)[:2]
        groups = {frozenset(taxids): 100}
        profile, _ = StatisticalAbundanceEstimator(sketch_db).estimate(groups)
        assert profile.total() == pytest.approx(1.0)
        assert all(profile.abundance(t) > 0 for t in taxids)

    def test_ambiguity_resolved_by_unique_evidence(self, sketch_db):
        a, b = sorted(sketch_db.sketch_sizes)[:2]
        wa = max(1, sketch_db.sketch_sizes[a])
        groups = {
            frozenset({a, b}): 50,
            frozenset({a}): 5 * wa,  # only a has unique support
        }
        profile, _ = StatisticalAbundanceEstimator(sketch_db).estimate(groups)
        assert profile.abundance(a) > profile.abundance(b)

    def test_empty_input(self, estimator):
        profile, diag = estimator.estimate({})
        assert len(profile) == 0
        assert diag.converged

    def test_invalid_params(self, sketch_db):
        with pytest.raises(ValueError):
            StatisticalAbundanceEstimator(sketch_db, max_iterations=0)
        with pytest.raises(ValueError):
            StatisticalAbundanceEstimator(sketch_db, tolerance=0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_refused(self, sketch_db, tolerance):
        """NaN would run every iteration and report no convergence; inf
        would stop after one and report convergence."""
        with pytest.raises(ValueError, match="tolerance"):
            StatisticalAbundanceEstimator(sketch_db, tolerance=tolerance)

    @pytest.mark.parametrize("groups", [
        {(1,): 0, (2,): 0}, {(1,): 3, (1, 2): -1}, {frozenset({4}): 0},
    ])
    def test_groups_without_hits_refused(self, estimator, groups):
        """A group count below 1 is no evidence: the EM would report its
        uniform starting point as a profile."""
        with pytest.raises(ValueError, match=r"group .* has count"):
            estimator.estimate(groups)


def sequential_em(sketch_sizes, groups, max_iterations, tolerance):
    """The per-group dict EM, every sum a left-to-right loop: the float
    sequence the array EM must reproduce (Python 3.12's ``sum()`` is
    compensated, so it cannot serve as the oracle)."""
    species = sorted({t for owners in groups for t in owners})
    weights = {t: max(1.0, float(sketch_sizes.get(t, 1))) for t in species}
    theta = {t: 1.0 / len(species) for t in species}
    delta = float("inf")
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        expected = {t: 0.0 for t in species}
        for owners, count in groups.items():
            mass = {t: theta[t] * weights[t] for t in owners}
            total = 0.0
            for value in mass.values():
                total += value
            if total <= 0:
                continue
            for t in owners:
                expected[t] += count * mass[t] / total
        raw = {t: expected[t] / weights[t] for t in species}
        norm = 0.0
        for value in raw.values():
            norm += value
        if norm <= 0:
            break
        new_theta = {t: v / norm for t, v in raw.items()}
        delta = max(abs(new_theta[t] - theta[t]) for t in species)
        theta = new_theta
        if delta < tolerance:
            break
    return AbundanceProfile.from_counts(theta), iteration, delta, delta < tolerance


@st.composite
def em_inputs(draw):
    """Up to 20 species, groups of up to 12 distinct owners (past 8 terms
    ``np.sum``'s unrolled order would differ), sketch sizes that leave
    some taxIDs out (weight 1.0), tuple or frozenset keys."""
    species = draw(st.lists(
        st.integers(min_value=1, max_value=10_000), min_size=1, max_size=20,
        unique=True,
    ))
    key = tuple if draw(st.booleans()) else frozenset
    owner_sets = st.lists(
        st.sampled_from(species), min_size=1, max_size=12, unique=True
    ).map(lambda owners: key(sorted(owners)))
    groups = draw(st.dictionaries(
        owner_sets, st.integers(min_value=1, max_value=10**6),
        min_size=1, max_size=30,
    ))
    sizes = draw(st.dictionaries(
        st.sampled_from(species), st.integers(min_value=0, max_value=50_000)
    ))
    return groups, sizes


class TestArrayEm:
    @given(
        em_inputs(),
        st.integers(min_value=1, max_value=200),
        st.sampled_from([1e-12, 1e-9, 1e-4]),
    )
    @property_settings(100)
    def test_equals_sequential_oracle_bit_for_bit(
        self, inputs, max_iterations, tolerance
    ):
        groups, sizes = inputs
        estimator = StatisticalAbundanceEstimator(
            SimpleNamespace(sketch_sizes=sizes),
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        profile, diagnostics = estimator.estimate(groups)
        expected, iterations, delta, converged = sequential_em(
            sizes, groups, max_iterations, tolerance
        )
        assert list(profile.fractions.items()) == list(expected.fractions.items())
        assert diagnostics.iterations == iterations
        assert diagnostics.final_delta == delta
        assert diagnostics.converged == converged


class TestPipelineIntegration:
    def test_statistical_mode_produces_reasonable_profile(
        self, sorted_db, sketch_db, sample
    ):
        config = MegisConfig(abundance_method="statistical")
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references), config=config
        )
        result = session.analyze(sample.reads)
        assert result.profile.total() == pytest.approx(1.0)
        # Lightweight statistics are less accurate than mapping but must
        # still be broadly correct (truth species dominate the profile).
        truth_mass = sum(
            result.profile.abundance(t) for t in sample.present_species()
        )
        assert truth_mass > 0.5

    def test_statistical_less_accurate_than_mapping(
        self, sorted_db, sketch_db, sample
    ):
        index = MegisIndex(sorted_db, sketch_db, sample.references)
        mapping = AnalysisSession(
            index, config=MegisConfig(abundance_method="mapping")
        ).analyze(sample.reads)
        statistical = AnalysisSession(
            index, config=MegisConfig(abundance_method="statistical")
        ).analyze(sample.reads)
        truth = sample.truth.fractions
        l1_map = l1_norm_error(mapping.profile.fractions, truth)
        l1_stat = l1_norm_error(statistical.profile.fractions, truth)
        assert l1_map <= l1_stat + 0.25  # mapping at least comparable

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            MegisConfig(abundance_method="magic")
