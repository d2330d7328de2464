"""BENCH_serving.json plumbing: the chaos run writes its ``resilience`` section."""

import json

from repro.core import ResilienceBenchResult


def test_chaos_result_saves_under_resilience(tmp_path):
    path = str(tmp_path / "bench.json")
    ResilienceBenchResult(
        num_requests=4, unique_pages=4, workers=2, rounds=1,
        exception_rate=0.0, stall_rate=0.0, death_rate=0.0, chaos_seed=0,
        seconds=1.0, docs_per_second=4.0, fault_free_seconds=1.0,
        fault_free_docs_per_second=4.0, throughput_ratio=1.0,
        p50_ms=1.0, p99_ms=2.0, conserved=True, unresolved=0,
    ).save(path)

    with open(path) as handle:
        report = json.load(handle)
    assert set(report) == {"resilience"}
    assert report["resilience"]["throughput"]["docs_per_second"] == 4.0
    assert report["resilience"]["conservation"]["conserved"] is True
