"""Smoke test of the perf ledger: every workload at toy scale.

Checks the shape of what the ledger emits — every declared metric, with
its unit, no failed operation, exact counts that repeat for a seed and
move with it — and that the oracle check has teeth.  It asserts nothing
about speed: the numbers a toy run prints mean nothing.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"ledger_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger_run = _load("run")  # also puts src/ and this directory on sys.path
ledger_compare = _load("compare")

from megis_ledger import hostspeed, oracle  # noqa: E402
from megis_ledger import measure as measure_module  # noqa: E402
from megis_ledger.measure import measure  # noqa: E402
from megis_ledger.names import EXACT_COUNTS  # noqa: E402
from megis_ledger.workloads import WORKLOADS  # noqa: E402
from repro.megis.index import IndexBuilder  # noqa: E402

SPEC = ledger_run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED, OTHER_SEED = 3, 4
#: Long enough for the minimum number of rounds and no more.
SECONDS = 0.05
MIN_ROUNDS = 2


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path, monkeypatch):
    """The ledger writes under ``./.ledger``; keep that out of the repo."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(autouse=True)
def _cheap_runs(monkeypatch):
    """In-process runs set up twice, do two rounds and read a nominal
    host: the time a toy run prints means nothing, so none is spent
    steadying it.  The command-line test runs the real thing."""
    monkeypatch.setattr(measure_module, "MIN_ROUNDS", MIN_ROUNDS)
    monkeypatch.setattr(measure_module, "SETUP_REPS", 2)
    monkeypatch.setattr(measure_module, "MIN_SETUP_REPS", 2)
    monkeypatch.setattr(
        hostspeed.HostSpeed, "_pass",
        lambda self: hostspeed.NOMINAL_S,
    )


@pytest.fixture(scope="module")
def toy_oracle(tmp_path_factory):
    """Reference answers per (workload, seed), computed in this process."""
    cache = {}

    def get(name: str, seed: int):
        if (name, seed) not in cache:
            workload = WORKLOADS[name](seed, toy=True)
            path = tmp_path_factory.mktemp("oracle") / "toy.megis"
            IndexBuilder(k=20).build(workload.references).save(str(path))
            cache[name, seed] = oracle.compute(
                str(path),
                {k: s.sequences for k, s in workload.distinct.items()},
                workload.abundance_method, workload.with_abundance,
            )
        return cache[name, seed]

    return get


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(NAMES) == set(WORKLOADS)
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(EXACT_COUNTS) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name, toy_oracle):
    allowed = os.sched_getaffinity(0)
    result = measure(name, SEED, SECONDS, trace=False, toy=True,
                     oracle=toy_oracle(name, SEED))
    assert os.sched_getaffinity(0) == allowed, "the CPU pin must be undone"
    assert result.failed == 0, result.first_failure
    assert result.attempted >= 1 and result.rounds >= MIN_ROUNDS
    metrics = ledger_run.declared_metrics(SPEC, "end_to_end",
                                          result.end_to_end)
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_and_exact_counts(name, toy_oracle):
    def traced(seed):
        result = measure(name, seed, SECONDS, trace=True, toy=True,
                         oracle=toy_oracle(name, seed))
        assert result.failed == 0, result.first_failure
        # Raises on a metric BENCHMARK.json does not declare.
        metrics = ledger_run.declared_metrics(SPEC, "per_layer",
                                              result.per_layer)
        return result, [metrics[n]["value"] for n in EXACT_COUNTS]

    first, counts = traced(SEED)
    _, again = traced(SEED)
    _, other = traced(OTHER_SEED)
    assert counts == again, "exact counts must repeat for one seed"
    assert counts != other, "exact counts must move with the seed"
    layers = first.per_layer
    assert layers["host.partition_ms"] > 0 and layers["step2.share"] > 0
    assert layers["trace.coverage"] > 0.9
    with open(first.trace_path, encoding="utf-8") as handle:
        spans = json.load(handle)["traced_pass"]["spans"]
    assert spans and set(spans[0]) == {"id", "name", "start", "end",
                                       "parent", "op_id"}
    # Layers that do not run on this workload stay out of its trace.
    mapping = WORKLOADS[name].abundance_method == "mapping"
    mapped = mapping and WORKLOADS[name].with_abundance
    assert ("step3.map.vote_ms" in layers) == mapped
    assert ("cluster.codec_ms" in layers) == (name == "cluster_long")
    assert ("wire.parse_request_ms" in layers) == WORKLOADS[name].served


def test_a_wrong_oracle_entry_is_a_failed_op(toy_oracle):
    reference = dict(toy_oracle("map_short", SEED))
    key = sorted(reference)[0]
    candidates, profile = reference[key]
    reference[key] = (candidates + [999_999], profile)
    result = measure("map_short", SEED, SECONDS, trace=False, toy=True,
                     oracle=reference)
    # That sample is one op of every round, the cold pass included.
    assert result.failed == result.rounds + 1
    assert result.first_failure.startswith(key)


def test_same_seed_same_frames():
    def frames(seed):
        return [op.payload for op in WORKLOADS["gateway_mixed"](seed, True).ops]

    assert frames(SEED) == frames(SEED)
    assert frames(SEED) != frames(OTHER_SEED)
    ids = [json.loads(frame)["id"] for frame in frames(SEED)]
    assert len(ids) == len(set(ids))


def test_command_line_contract():
    """The real entry point, child-process oracle included."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "stat_short_batch", "--toy", "--seed", str(SEED), "--seconds",
         str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == declared


def test_compare_is_direction_aware_and_bounded(tmp_path):
    def report(samples_per_s, op_ms_p50, failed=0):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["samples_per_s"]["value"] = samples_per_s
        metrics["op_ms_p50"]["value"] = op_ms_p50
        entry = {"end_to_end": {"metrics": metrics, "failed": failed}}
        return {"provenance": {"seed": SEED},
                "workloads": {name: entry for name in NAMES}}

    def verdict(a, b):
        paths = []
        for label, content in (("a", a), ("b", b)):
            paths.append(tmp_path / f"{label}.json")
            paths[-1].write_text(json.dumps(content))
        return ledger_compare.main([str(p) for p in paths])

    base = report(10.0, 100.0)
    assert verdict(base, base) == 0
    assert verdict(base, report(20.0, 50.0)) == 0      # both better
    assert verdict(base, report(7.0, 100.0)) == 1      # throughput -30%
    assert verdict(base, report(10.0, 130.0)) == 1     # latency +30%
    assert verdict(base, report(9.5, 104.0)) == 0      # inside the bounds
    assert verdict(base, report(10.0, 100.0, failed=1)) == 1
