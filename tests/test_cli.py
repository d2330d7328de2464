"""CLI tests (argument parsing + cheap commands)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import parse_prometheus_text


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


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--quantized"],
        ["bench", "--compare", "prev.json"],
        ["bench", "--trace", "t.jsonl"],
        ["bench", "--cascade"],
        ["bench"],
        ["bench", "--smoke"],
    ],
)
def test_bench_rejects_retired_options(argv, capsys):
    """``bench`` is retired with all its options; the chaos soak is
    ``tests/serving/test_soak.py``."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


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
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    assert main([
        "brief", str(page), "--model", str(checkpoint),
        "--topics", "2", "--pages", "3",
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Topic:" in out
    # The observability outputs are written and parse back.
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert {"brief", "parse", "render"} <= {r["name"] for r in records if r["kind"] == "span"}
    samples = parse_prometheus_text(metrics_path.read_text())
    assert any(name.startswith("briefing_stage_seconds_count") for name in samples)


def test_parser_obs_arguments_on_observable_commands():
    for argv in (
        ["brief", "page.html", "--trace", "t.jsonl", "--metrics", "m.prom"],
        ["train", "--save", "m.npz", "--trace", "t.jsonl", "--metrics", "m.prom"],
        ["serve-many", "--trace", "t.jsonl", "--metrics", "m.prom"],
    ):
        args = build_parser().parse_args(argv)
        assert args.trace == "t.jsonl"
        assert args.metrics == "m.prom"
    # Defaults keep the no-op observability path.
    args = build_parser().parse_args(["brief", "page.html"])
    assert args.trace is None and args.metrics is None
