"""Quantized inference: weight payloads, float32 clones, and dtype hygiene.

The contract under test: per-channel symmetric int8 (and float16) weight
payloads round-trip within their documented error bounds, quantized layers
pickle deterministically (and smaller), quantized clones infer in float32,
and nothing in calibration or quantization leaks a thread/process dtype
override — the same test-order-pollution class the distill checkpoint
suite already pins.
"""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.nn.quant import dequantize_array, quantize_array


@pytest.fixture(autouse=True)
def _preserve_dtype_override():
    prior = nn.get_dtype_override()
    yield
    nn.set_default_dtype(prior)


class TestQuantizeArray:
    def test_int8_round_trip_error_is_bounded_per_channel(self, rng):
        weight = rng.normal(size=(24, 16)) * np.linspace(0.01, 3.0, 16)
        payload = quantize_array(weight, "int8")
        restored = dequantize_array(payload)
        # Symmetric rounding error is at most half a quantization step per
        # output channel: scale = absmax / 127.
        scales = np.abs(weight).max(axis=0) / 127.0
        assert (np.abs(restored - weight) <= scales[None, :] * 0.5 + 1e-12).all()

    def test_int8_payload_is_int8(self, rng):
        payload = quantize_array(rng.normal(size=(8, 4)), "int8")
        assert payload["data"].dtype == np.int8

    def test_zero_channel_survives(self):
        weight = np.zeros((6, 3))
        weight[:, 0] = 1.0
        restored = dequantize_array(quantize_array(weight, "int8"))
        assert (restored[:, 1:] == 0.0).all()
        assert np.allclose(restored[:, 0], 1.0, atol=1 / 127)

    def test_float16_mode_is_a_downcast(self, rng):
        weight = rng.normal(size=(10, 5))
        restored = dequantize_array(quantize_array(weight, "float16"))
        assert np.array_equal(restored, weight.astype(np.float16).astype(np.float32))


class TestQuantizedModule:
    def _model(self, small_vocab, seed=3):
        from repro.models import BertSumEncoder, make_joint_model

        rng = np.random.default_rng(seed)
        bert = nn.MiniBert(
            vocab_size=len(small_vocab), dim=16, num_layers=1, num_heads=2,
            rng=rng, max_len=256,
        )
        return make_joint_model(
            "Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 8, rng
        )

    def test_quantize_leaves_the_original_untouched(self, small_vocab):
        model = self._model(small_vocab)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        model.quantize(mode="int8")
        for name, param in model.named_parameters():
            assert param.data.dtype == np.float64
            assert np.array_equal(param.data, before[name])

    def test_quantized_clone_is_armed_for_fast_decode(self, small_vocab):
        clone = self._model(small_vocab).quantize(mode="int8")
        assert clone._quantized_mode == "int8"
        assert clone._inference_dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in clone.parameters())

    def test_pickle_round_trip_is_deterministic_and_smaller(self, small_vocab):
        model = self._model(small_vocab)
        clone = model.quantize(mode="int8")
        blob = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(pickle.dumps(model.eval(), protocol=pickle.HIGHEST_PROTOCOL))
        restored = pickle.loads(blob)
        for (name, left), (_, right) in zip(
            clone.named_parameters(), restored.named_parameters()
        ):
            assert np.array_equal(left.data, right.data), name
        # A second round-trip is value-stable: payloads are canonical.
        twice = pickle.loads(pickle.dumps(restored, protocol=pickle.HIGHEST_PROTOCOL))
        for (name, left), (_, right) in zip(
            restored.named_parameters(), twice.named_parameters()
        ):
            assert np.array_equal(left.data, right.data), name

    def test_float16_mode_quantizes_every_swapped_layer(self, small_vocab):
        clone = self._model(small_vocab).quantize(mode="float16")
        modes = {
            getattr(sub, "quant_mode", None)
            for sub in clone.modules()
            if getattr(sub, "quant_mode", None) is not None
        }
        assert modes == {"float16"}

    def test_quantized_topics_match_float32_reference_on_most_docs(
        self, small_corpus, small_vocab
    ):
        model = self._model(small_vocab)
        clone = model.quantize(mode="int8")
        docs = small_corpus.documents[:6]
        with nn.default_dtype(np.float32):
            want = [model.predict_topic(d, beam_size=2) for d in docs]
            got = [clone.predict_topic(d, beam_size=2) for d in docs]
        agree = sum(a == b for a, b in zip(want, got))
        # int8 noise may flip near-ties on an untrained model; wholesale
        # divergence means the weight codec is broken.
        assert agree >= len(docs) - 2


class TestDtypeHygiene:
    """Satellite regression: quantization must not leak dtype state."""

    def _model(self, small_vocab):
        return TestQuantizedModule()._model(small_vocab)

    def test_quantize_restores_thread_dtype_override(self, small_vocab):
        model = self._model(small_vocab)
        with nn.default_dtype(np.float32):
            model.quantize(mode="int8")
            assert nn.get_default_dtype() == np.float32
        assert nn.get_default_dtype() == np.float64

    def test_quantize_respects_process_dtype_override(self, small_vocab):
        model = self._model(small_vocab)
        nn.set_default_dtype(np.float32)
        try:
            model.quantize(mode="int8")
            assert nn.get_default_dtype() == np.float32
            assert nn.get_dtype_override() == np.dtype(np.float32)
        finally:
            nn.set_default_dtype(None)

    def test_calibration_restores_dtype_state(self, small_corpus, small_vocab):
        model = self._model(small_vocab)
        docs = small_corpus.documents[:2]
        stats = nn.calibrate(model, lambda: model.predict_batch(docs, beam_size=2))
        assert stats  # ranges were recorded
        assert nn.get_dtype_override() is None
        assert nn.get_default_dtype() == np.float64

    def test_calibration_reports_per_layer_absmax(self, small_corpus, small_vocab):
        model = self._model(small_vocab)
        docs = small_corpus.documents[:2]
        stats = nn.calibrate(model, lambda: model.predict_batch(docs, beam_size=2))
        assert all("absmax" in ranges for ranges in stats.values())
        assert all(ranges["absmax"] >= 0.0 for ranges in stats.values())
