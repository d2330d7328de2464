"""run_quantized_bench end-to-end at unit-test scale.

One small thread-transport run pins the whole quantized bench contract:
the report section lands under ``"quantized"`` without clobbering siblings,
the tolerance verdict is computed from the measured quality deltas, the
layer census reflects the requested mode, and both sides of the decode
comparison run float32 weights.  (Speedup itself is NOT asserted here — at
toy scale it is noise; the committed BENCH_serving.json carries the
measured full-scale number and CI's quantized-smoke gates on tolerance
only.)
"""

import json

import numpy as np
import pytest

from repro import nn
from repro.core import run_quantized_bench, save_section
from repro.models import BertSumEncoder, TopicGenerator, make_joint_model


@pytest.fixture(scope="module")
def bench_result(small_corpus, small_vocab, tmp_path_factory):
    rng = np.random.default_rng(5)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=16, num_layers=1, num_heads=2,
        rng=rng, max_len=256,
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 8, rng
    )
    path = str(tmp_path_factory.mktemp("bench") / "bench.json")
    save_section(path, "decode", {"speedup": 3.0})  # pre-existing sibling
    # The timed decode passes are the generate_batch calls that pass
    # max_depth (predict_batch leaves it at its default).
    decode_calls = []
    generate_batch = TopicGenerator.generate_batch

    def spy(self, memories, *args, **kwargs):
        if "max_depth" in kwargs:
            decode_calls.append((self, self.output.weight.data.dtype, memories[0].data.dtype))
        return generate_batch(self, memories, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TopicGenerator, "generate_batch", spy)
        result = run_quantized_bench(
            num_pages=6,
            beam_size=2,
            max_depth=4,
            workers=1,
            max_batch=4,
            transports=("thread",),
            reps=1,
            output_path=path,
            model=model,
            corpus=small_corpus,
        )
    return result, path, model, decode_calls


def test_report_gains_quantized_section_and_keeps_siblings(bench_result):
    result, path, _, _ = bench_result
    with open(path) as handle:
        report = json.load(handle)
    assert report["decode"] == {"speedup": 3.0}
    quantized = report["quantized"]
    assert quantized["mode"] == "int8"
    assert quantized["decode"]["speedup"] == result.speedup
    assert "thread" in quantized["transports"]


def test_tolerance_verdict_reflects_measured_quality(bench_result):
    result, _, _, _ = bench_result
    assert result.f1_drop <= result.f1_tolerance
    assert result.topic_em_drop_rel <= result.em_tolerance_rel
    assert result.within_tolerance
    assert set(result.quality) == {"reference", "quantized"}


def test_layer_census_and_snapshot_shrink(bench_result):
    result, _, _, _ = bench_result
    assert result.quantized_layers.get("int8", 0) > 0
    assert result.snapshot_bytes["quantized"] < result.snapshot_bytes["float"]
    assert result.snapshot_bytes["ratio"] > 1.0


def test_both_decode_sides_run_float32_weights(bench_result):
    """The speedup compares quantized weights against float32 weights, not
    float64 arithmetic; the caller's float64 model is left untouched."""
    _, _, model, decode_calls = bench_result
    generators = {id(generator) for generator, _, _ in decode_calls}
    assert len(generators) == 2  # the float32 reference copy and the clone
    assert id(model.generator) not in generators
    for _, weight_dtype, memory_dtype in decode_calls:
        assert weight_dtype == np.float32
        assert memory_dtype == np.float32
    assert all(p.data.dtype == np.float64 for p in model.parameters())


def test_format_renders_the_headline_numbers(bench_result):
    result, _, _, _ = bench_result
    text = result.format()
    assert "speedup" in text
    assert "tolerance" in text.lower()


def test_bench_requires_a_corpus_with_an_explicit_model(small_vocab):
    rng = np.random.default_rng(1)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=16, num_layers=1, num_heads=2,
        rng=rng, max_len=256,
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 8, rng
    )
    with pytest.raises(ValueError):
        run_quantized_bench(model=model, corpus=None)
