"""CLI tests (argument parsing + cheap commands)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_brief_arguments():
    args = build_parser().parse_args(["brief", "page.html", "--epochs", "3"])
    assert args.command == "brief"
    assert args.html_file == "page.html"
    assert args.epochs == 3


def test_parser_tables_arguments():
    args = build_parser().parse_args(["tables", "--scale", "tiny", "--only", "table4"])
    assert args.scale == "tiny"
    assert args.only == ["table4"]


def test_parser_health_arguments():
    args = build_parser().parse_args(["health", "--failure-rate", "0.4", "--seed", "3"])
    assert args.command == "health"
    assert args.failure_rate == 0.4
    assert args.seed == 3


def test_parser_bench_arguments():
    args = build_parser().parse_args(
        ["bench", "--chaos", "--pages", "16", "--smoke", "--output", ""]
    )
    assert args.command == "bench"
    assert args.chaos and not args.cascade and not args.quantized
    assert args.pages == 16
    assert args.smoke
    assert args.output == ""
    assert build_parser().parse_args(["bench", "--cascade"]).pages is None


@pytest.mark.parametrize(
    "argv",
    [
        ["bench"],
        ["bench", "--chaos", "--cascade"],
        ["bench", "--chaos", "--compare", "prev.json"],
        ["bench", "--chaos", "--trace", "t.jsonl"],
    ],
)
def test_bench_requires_exactly_one_mode(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


def _chaos_smoke(tmp_path, capsys, *extra):
    import json

    report = tmp_path / "BENCH_serving.json"
    assert main(["bench", "--chaos", "--smoke", "--output", str(report), *extra]) == 0
    out = capsys.readouterr().out
    assert "smoke: ok" in out
    return json.loads(report.read_text())["resilience"]


def test_bench_smoke_command(tmp_path, capsys):
    """``--smoke`` alone runs the small default stream."""
    section = _chaos_smoke(tmp_path, capsys)
    assert section["num_requests"] == 12
    assert section["conservation"]["conserved"] is True


def test_bench_smoke_honours_explicit_pages(tmp_path, capsys):
    """An explicit ``--pages`` wins over the ``--smoke`` default."""
    section = _chaos_smoke(tmp_path, capsys, "--pages", "32")
    assert section["num_requests"] == 32
    assert section["unique_pages"] == 8


def test_health_command_masks_faults(capsys):
    assert main(["health", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "fetch_retries" in out
    assert "degradation: render -> empty_brief" in out
    assert "healthy" in out


def test_corpus_stats_command(capsys):
    assert main(["corpus-stats", "--topics", "2", "--pages", "3"]) == 0
    out = capsys.readouterr().out
    assert "num_documents" in out
    assert "mean_attributes" in out


def test_train_then_brief_roundtrip(tmp_path, capsys):
    checkpoint = tmp_path / "model.npz"
    assert main([
        "train", "--save", str(checkpoint),
        "--topics", "2", "--pages", "3", "--epochs", "1",
    ]) == 0
    assert checkpoint.exists()

    page = tmp_path / "page.html"
    page.write_text(
        "<html><body><p>welcome to our books pages about online shopping "
        "for books</p><p>the price is 42 for this books listing</p></body></html>"
    )
    assert main([
        "brief", str(page), "--model", str(checkpoint),
        "--topics", "2", "--pages", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "Topic:" in out


def test_parser_obs_arguments_on_observable_commands():
    for argv in (
        ["brief", "page.html", "--trace", "t.jsonl", "--metrics", "m.prom"],
        ["train", "--save", "m.npz", "--trace", "t.jsonl", "--metrics", "m.prom"],
        ["health", "--trace", "t.jsonl", "--metrics", "m.prom"],
        ["serve-many", "--trace", "t.jsonl", "--metrics", "m.prom"],
        ["metrics", "--trace", "t.jsonl", "--metrics", "m.prom"],
    ):
        args = build_parser().parse_args(argv)
        assert args.trace == "t.jsonl"
        assert args.metrics == "m.prom"
    # Defaults keep the no-op observability path.
    args = build_parser().parse_args(["health"])
    assert args.trace is None and args.metrics is None


def test_metrics_command_output_shape(capsys):
    from repro.obs import parse_prometheus_text

    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    samples = parse_prometheus_text(out)  # must be well-formed exposition text
    assert samples['fetch_retries_total{host="metrics.example"}'] == 2
    transitions = 'breaker_transitions_total{from="closed",host="metrics.example",to="open"}'
    assert samples[transitions] == 1
    assert samples['serving_cache_requests_total{result="hit"}'] == 1
    assert samples['serving_cache_requests_total{result="miss"}'] == 2
    assert samples["runtime_breaker_trips"] == 1
    assert samples["runtime_fetch_retries"] == 2
    # HELP/TYPE headers present for every family.
    assert "# TYPE breaker_transitions_total counter" in out
    assert "# HELP fetch_retries_total" in out


def test_metrics_command_writes_trace_and_metrics_files(tmp_path, capsys):
    import json

    from repro.obs import parse_prometheus_text

    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    assert main([
        "metrics", "--trace", str(trace_path), "--metrics", str(metrics_path),
    ]) == 0
    capsys.readouterr()

    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert records, "trace file is empty"
    names = {record["name"] for record in records if record["kind"] == "span"}
    assert {"retry_demo", "breaker_demo", "cache_demo"} <= names
    samples = parse_prometheus_text(metrics_path.read_text())
    assert samples["runtime_fetch_attempts"] == 3


def test_health_command_with_observability(tmp_path, capsys):
    import json

    from repro.obs import parse_prometheus_text

    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    assert main([
        "health", "--seed", "7", "--pages", "4",
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    ]) == 0
    capsys.readouterr()

    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    names = {record["name"] for record in records if record["kind"] == "span"}
    assert {"crawl", "page", "fetch", "brief"} <= names
    # One snapshot carries the retry / chaos / cache / degradation story
    # (breaker families exist even when nothing tripped).
    samples = parse_prometheus_text(metrics_path.read_text())
    text = metrics_path.read_text()
    assert samples["runtime_fetch_retries"] > 0
    assert samples["runtime_faults_injected"] > 0
    assert samples["runtime_cache_hits"] >= 1
    assert samples["runtime_degradations"] >= 1
    assert "# TYPE runtime_breaker_trips counter" in text
    assert "# TYPE breaker_transitions_total counter" in text
