"""SSD-internals studies (overprovisioning, random-read QoS)."""

from benchmarks.conftest import emit
from repro.experiments.overprovisioning import run as run_overprovisioning
from repro.experiments.random_read_latency import run as run_random_read


def test_overprovisioning():
    result = run_overprovisioning()
    emit(result)
    achieved = [r["achieved_gbps"] for r in result.rows]
    assert achieved == sorted(achieved, reverse=True)


def test_random_read_latency():
    result = run_random_read()
    emit(result)
    for ssd in ("SSD-C", "SSD-P"):
        p99 = [r["p99_us"] for r in result.rows if r["ssd"] == ssd]
        assert p99 == sorted(p99)
