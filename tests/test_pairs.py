"""The paired-verdicts tool (``benchmarks/pairs.py``): its statistics over
synthetic run lists, with no ledger run and no subprocess, and its ledger
guard over a throwaway git repository."""

import importlib.util
import random
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

HIGHER = {"name": "samples_per_s", "better": "higher", "bound": 0.2}
LOWER = {"name": "op_ms_p50", "better": "lower", "bound": 0.2}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}


def runs_of(values, name):
    """Alternating runs over ``(base, change)`` value pairs of one metric."""
    return [
        {"pair": i, "side": side, "metrics": {name: value}}
        for i, (base, change) in enumerate(values)
        for side, value in (("base", base), ("change", change))
    ]


def noisy(scale, n=10, seed=3, spread=0.03):
    rng = random.Random(seed)
    return [(100 * (1 + rng.uniform(-spread, spread)),
             100 * scale * (1 + rng.uniform(-spread, spread))) for _ in range(n)]


def test_the_bootstrap_interval_is_seeded_and_holds_the_median():
    ratios = [0.9, 1.0, 1.05, 1.1, 1.2, 0.95, 1.01]
    lo, hi = pairs.bootstrap_interval(ratios, seed=5)
    assert (lo, hi) == pairs.bootstrap_interval(ratios, seed=5)
    assert lo <= 1.01 <= hi
    assert min(ratios) <= lo <= hi <= max(ratios)
    assert pairs.bootstrap_interval([1.3], seed=5) == (1.3, 1.3)


def test_a_ratio_over_a_zero_base():
    assert pairs.ratio(0.0, 0.0) == 1.0
    assert pairs.ratio(2.0, 0.0) == float("inf")
    assert pairs.ratio(3.0, 2.0) == 1.5


def test_the_quartile_spread():
    assert pairs.quartile_spread([5.0]) == 0.0
    assert pairs.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 4.0


def test_equal_sides_are_unresolved():
    for metric in (HIGHER, LOWER):
        reading = pairs.summarize(runs_of(noisy(1.0), metric["name"]), [metric])
        assert reading[metric["name"]]["verdict"] == "unresolved"
        assert reading[metric["name"]]["pairs"] == 10


@pytest.mark.parametrize("metric, scale, verdict", [
    (HIGHER, 1.13, "better"),
    (HIGHER, 0.9, "worse"),
    (LOWER, 0.85, "better"),
    (LOWER, 1.1, "worse"),
])
def test_a_clear_shift_reads_on_its_side(metric, scale, verdict):
    reading = pairs.summarize(runs_of(noisy(scale), metric["name"]), [metric])
    got = reading[metric["name"]]
    assert got["verdict"] == verdict
    lo, hi = got["interval"]
    assert lo <= got["median_ratio"] <= hi
    assert got["wins"] == (10 if verdict == "better" else 0)
    assert abs(got["change_median"] - got["base_median"]) > got["base_spread"]


def test_better_needs_nine_tenths_of_the_pairs():
    # Fifteen wins of twenty, even with the interval above 1.
    values = [(100, 110)] * 15 + [(100, 99)] * 5
    got = pairs.reading(HIGHER, values)
    assert got["wins"] == 15
    assert got["interval"][0] > 1
    assert got["verdict"] == "unresolved"
    assert pairs.reading(HIGHER, [(100, 110)] * 8 + [(100, 99)] * 2)["verdict"] == "unresolved"
    assert pairs.reading(HIGHER, [(100, 110)] * 9 + [(100, 99)])["verdict"] == "better"


def test_a_deterministic_offset_inside_the_base_spread_is_unresolved():
    # Two checkouts of one commit: the change's peak RSS sits a fixed 0.06 MB
    # under the base's in every pair, less than the base runs' own spread.
    base = [65.293, 65.309, 65.219, 65.219, 65.332, 65.242, 65.188, 65.199, 65.289, 65.254]
    got = pairs.reading(RSS, [(b, b - 0.06) for b in base])
    assert got["wins"] == 10
    assert got["interval"][1] < 1
    assert got["base_median"] - got["change_median"] < got["base_spread"]
    assert got["verdict"] == "unresolved"
    # The same offset as a loss, overlapping the base runs: inside the bound,
    # so not worse either.
    assert pairs.reading(RSS, [(b, b + 0.06) for b in base])["verdict"] == "unresolved"


def test_a_loss_inside_the_bound_is_worse_only_when_the_sides_separate():
    overlapping = list(zip([65.441, 65.129, 65.266, 65.383, 65.387],
                           [65.52, 65.336, 65.688, 65.508, 65.48]))
    assert pairs.reading(RSS, overlapping)["verdict"] == "unresolved"
    separated = [(b, b + 1.0) for b, _ in overlapping]
    got = pairs.reading(RSS, separated)
    assert got["change_median"] / got["base_median"] < 1 + RSS["bound"]
    assert got["verdict"] == "worse"


def test_a_median_past_the_bound_is_worse_whatever_the_wins():
    # Six pairs lose 30%, four win 1%: the change's median breaches 0.2.
    values = [(100, 70)] * 6 + [(100, 101)] * 4
    assert pairs.reading(HIGHER, values)["verdict"] == "worse"
    assert pairs.reading(LOWER, [(10, 13)] * 6 + [(10, 9.9)] * 4)["verdict"] == "worse"


def test_every_end_to_end_metric_is_read_from_the_pairs_in_order():
    runs = [
        {"pair": 1, "side": "change", "metrics": {"a": 2.0, "b": 1.0}},
        {"pair": 0, "side": "base", "metrics": {"a": 1.0, "b": 1.0}},
        {"pair": 0, "side": "change", "metrics": {"a": 2.0, "b": 0.5}},
        {"pair": 1, "side": "base", "metrics": {"a": 1.0, "b": 2.0}},
    ]
    spec = [{"name": "a", "better": "higher", "bound": 0.2},
            {"name": "b", "better": "lower", "bound": 0.2}]
    got = pairs.summarize(runs, spec)
    assert got["a"]["median_ratio"] == 2.0 and got["a"]["wins"] == 2
    assert got["b"]["median_ratio"] == 0.5 and got["b"]["wins"] == 2


def test_fewer_than_five_pairs_resolve_nothing():
    for n in (1, 4):
        got = pairs.reading(HIGHER, [(100, 150)] * n)
        assert got["wins"] == n and got["verdict"] == "unresolved"
    assert pairs.reading(HIGHER, [(100, 150)] * 5)["verdict"] == "better"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_ledger_guard_sees_untracked_files_and_git_errors(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "benchmarks" / "ledger").mkdir(parents=True)
    (tmp_path / "benchmarks" / "ledger" / "run.py").write_text("x = 1\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "other.py").write_text("y = 1\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    assert pairs.ledger_mismatch(tmp_path, "HEAD", None) is None
    assert pairs.ledger_mismatch(tmp_path, "HEAD", "HEAD") is None
    (tmp_path / "other.py").write_text("y = 2\n")
    assert pairs.ledger_mismatch(tmp_path, "HEAD", None) is None

    (tmp_path / "benchmarks" / "ledger" / "new_workload.py").write_text("z = 1\n")
    assert "differ" in pairs.ledger_mismatch(tmp_path, "HEAD", None)
    (tmp_path / "benchmarks" / "ledger" / "new_workload.py").unlink()
    (tmp_path / "BENCHMARK.json").write_text("{\"run_seconds\": 1}\n")
    assert "differ" in pairs.ledger_mismatch(tmp_path, "HEAD", None)

    got = pairs.ledger_mismatch(tmp_path, "no-such-rev", None)
    assert got.startswith("git diff failed") and "differ" not in got
