"""BENCH_serving.json plumbing: every bench mode merges its own section."""

import json

from repro.core import save_section
from repro.core.bench import (
    CascadeBenchResult,
    QuantizedBenchResult,
    ResilienceBenchResult,
)


def test_merge_updates_only_its_own_keys(tmp_path):
    """A rerun replaces its whole section (stale keys go) and nothing else."""
    path = str(tmp_path / "bench.json")
    save_section(path, "quantized", {"speedup": 3.0, "stale": 1})
    save_section(path, "resilience", {"conserved": True})
    merged = save_section(path, "quantized", {"speedup": 4.0})
    assert merged == {"quantized": {"speedup": 4.0}, "resilience": {"conserved": True}}


def test_merge_starts_fresh_on_missing_or_corrupt_file(tmp_path):
    path = str(tmp_path / "bench.json")
    assert save_section(path, "a", {"x": 1}) == {"a": {"x": 1}}
    with open(path, "w") as handle:
        handle.write("{not json")
    assert save_section(path, "b", {"x": 2}) == {"b": {"x": 2}}
    with open(path, "w") as handle:
        json.dump(["a", "list"], handle)
    assert save_section(path, "c", {"x": 3}) == {"c": {"x": 3}}


def test_section_saves_preserve_siblings(tmp_path):
    """Running one bench mode must not erase what the other modes recorded."""
    path = str(tmp_path / "bench.json")
    save_section(path, "legacy", {"kept": True})

    ResilienceBenchResult(
        num_requests=4, unique_pages=4, workers=2, rounds=1,
        exception_rate=0.0, stall_rate=0.0, death_rate=0.0, chaos_seed=0,
        seconds=1.0, docs_per_second=4.0, fault_free_seconds=1.0,
        fault_free_docs_per_second=4.0, throughput_ratio=1.0,
        p50_ms=1.0, p99_ms=2.0, conserved=True, unresolved=0,
    ).save(path)
    CascadeBenchResult(
        num_pages=4, unique_pages=4, workers=2, max_batch=2, beam_size=2,
        transport="thread", threshold=0.5, calibrated=True, escalation_rate=0.25,
        expected_escalation_rate=0.25, escalation_band=(0.15, 0.35),
        within_band=True, student_share=0.75, speedup_vs_teacher=1.5,
        quality_drop=0.01,
    ).save(path)
    QuantizedBenchResult(
        num_pages=4, unique_pages=4, beam_size=2, max_depth=4, mode="int8",
        reference_seconds=1.0, quantized_seconds=0.5, speedup=2.0,
        reference_docs_per_second=4.0, quantized_docs_per_second=8.0,
        agreement_rate=1.0, quality={}, f1_drop=0.0, topic_em_drop_rel=0.0,
        f1_tolerance=0.005, em_tolerance_rel=0.01, within_tolerance=True,
        quantized_layers={"int8": 3}, snapshot_bytes={"float": 8, "quantized": 2},
    ).save(path)

    with open(path) as handle:
        report = json.load(handle)
    assert report["legacy"] == {"kept": True}
    assert report["resilience"]["throughput"]["docs_per_second"] == 4.0
    assert report["cascade"]["escalation_band"] == [0.15, 0.35]
    assert report["quantized"]["mode"] == "int8"


def test_save_section_nests_under_its_key_and_preserves_siblings(tmp_path):
    path = str(tmp_path / "bench.json")
    save_section(path, "quantized", {"speedup": 2.0})
    save_section(path, "cascade", {"ok": True})
    merged = save_section(path, "quantized", {"speedup": 2.5})
    assert merged == {"quantized": {"speedup": 2.5}, "cascade": {"ok": True}}
    with open(path) as handle:
        assert json.load(handle) == merged
