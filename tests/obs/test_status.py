"""The status renderer: pure text over hand-built frames, crash-proof on gaps."""

from repro.obs import render_status


FULL_FRAME = {
    "transport": "process",
    "queue_depth": 3,
    "in_flight": 2,
    "requests": {
        "cache_hits": 5,
        "cache_misses": 15,
        "requests_shed": 1,
        "deadline_expirations": 0,
        "queue_rejections": 0,
        "worker_restarts": 2,
        "batches_requeued": 1,
        "poison_quarantined": 0,
    },
    "workers": [
        {"index": 0, "generation": 0, "alive": True, "heartbeat_age_s": 0.01, "batches": 7},
        {"index": 1, "generation": 2, "alive": False, "heartbeat_age_s": 9.5, "batches": 3},
    ],
    "slo": {
        "window_seconds": 60.0,
        "requests": 20,
        "objectives": {
            "latency_p99": {"value": 0.05, "target": 0.5, "burn_rate": 0.1},
            "error_rate": {"value": 0.15, "target": 0.05, "burn_rate": 3.0},
        },
    },
    "events": [
        {"time": 1.0, "kind": "worker_restart", "attributes": {"worker": 1, "reason": "died"}},
    ],
}


def test_full_frame_renders_every_section():
    text = render_status(FULL_FRAME)
    assert "serving [process]" in text
    assert "workers 1/2 alive" in text
    assert "queue 3" in text
    assert "cache hit 25.0%" in text
    assert "2 restarts" in text
    # Burn above 1.0 gets flagged; burn below does not.
    assert "error_rate burn 3.00!" in text
    assert "latency_p99 burn 0.10" in text and "0.10!" not in text
    assert "worker_restart" in text and "reason=died" in text
    # The dead worker renders NO in the liveness column.
    lines = [line for line in text.splitlines() if line.lstrip().startswith("1")]
    assert any("NO" in line for line in lines)


def test_empty_frame_does_not_crash():
    text = render_status({})
    assert "serving [?]" in text
    assert "workers 0/0 alive" in text
    assert "queue -" in text


def test_missing_values_render_as_gaps():
    text = render_status(
        {
            "transport": "thread",
            "workers": [{"index": 0, "alive": True}],
            "requests": {"cache_hits": 0, "cache_misses": 0},
        }
    )
    assert "cache hit -" in text  # zero lookups is a gap, not a div-by-zero
    assert "-s" in text  # missing heartbeat age
