"""The benchmark's own tests: smoke runs of every workload plus unit checks.

    python3 -m pytest perfbench/tests -q

The first run trains and caches the fixture (about a minute of one CPU).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def result_of(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    completed = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    if not trace:
        for name in ("docs_per_s", "latency_p50_ms", "setup_s", "rss_mb", "topic_em"):
            assert result["metrics"][name]["value"] > 0


def test_untrained_fixture_trips_the_quality_floor():
    completed = run_bench("--workload", "crawl-batch", "--seed", "3", "--seconds", "1",
                          "--fixture", "untrained", "--smoke")
    assert completed.returncode == 1
    assert result_of(completed)["correct"] is False
    assert "quality below the floor" in completed.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    completed = run_bench("--workload", "crawl-batch", "--seed", "1", "--seconds", "1",
                          cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_spec_matches_the_runner():
    import run

    assert list(run.END_TO_END_UNITS) == [m["name"] for m in SPEC["end_to_end"]]
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert WORKLOADS == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_page_source_is_deterministic_and_unique():
    first = workloads.PageSource([0, 1, 8, 9], 5, 2, tag="t").take(40)
    again = workloads.PageSource([0, 1, 8, 9], 5, 2, tag="t").take(40)
    other = workloads.PageSource([0, 1, 8, 9], 5, 2, tag="u").take(40)
    assert [p.html for p in first] == [p.html for p in again]
    assert len({p.html for p in first}) == 40
    assert not {p.html for p in first} & {p.html for p in other}


def test_zipf_schedule_prefix_is_stable():
    pool = workloads.PageSource([0, 1, 8, 9], 5, 2, tag="t").take(16)
    short = workloads.zipf_schedule(pool, 100.0, 1.0, 1.1, seed=2)
    long = workloads.zipf_schedule(pool, 100.0, 3.0, 1.1, seed=2)
    assert len(short) == 100 and len(long) == 300
    assert [p.html for _, p in short] == [p.html for _, p in long[:100]]


def test_layer_clock_self_times_sum_to_the_outer_call():
    clock = layers.LayerClock()
    inner = clock.timed("inner", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        inner()

    start = time.perf_counter()
    threads = [threading.Thread(target=clock.timed("outer", outer)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert clock.calls == {"outer": 2, "inner": 2}
    total = clock.exclusive["outer"] + clock.exclusive["inner"]
    assert total == pytest.approx(clock.inclusive["outer"], rel=1e-9)
    assert clock.exclusive["inner"] == pytest.approx(clock.inclusive["inner"])
    assert clock.exclusive["outer"] < clock.inclusive["outer"] - 0.03
    assert time.perf_counter() - start < 1.0


def test_reconcile_reports_uncovered_time():
    clock = layers.LayerClock()
    clock.exclusive["core.batched.brief_many"] = 1.0
    assert layers.reconcile(clock, 1.0) == []
    assert layers.reconcile(clock, 2.0)
