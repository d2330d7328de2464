"""Trainer tests: loss descent, batching, early stopping."""

import numpy as np
import pytest

from repro import nn
from repro.core import TrainConfig, Trainer
from repro.models import GloveEncoder, SingleTaskGenerator


@pytest.fixture()
def model(small_corpus, small_vocab, rng):
    encoder = GloveEncoder(small_vocab, dim=12, rng=rng, trainable=True)
    return SingleTaskGenerator(encoder, small_vocab, 6, rng)


def test_training_reduces_loss(model, small_corpus):
    docs = list(small_corpus)[:8]
    trainer = Trainer(model, TrainConfig(epochs=4, learning_rate=5e-3, batch_size=2))
    result = trainer.train(docs)
    assert result.epochs_run == 4
    assert result.train_losses[-1] < result.train_losses[0]


def test_early_stopping_on_dev_plateau(model, small_corpus):
    docs = list(small_corpus)[:6]
    # Learning rate zero: dev loss can never improve, so patience triggers.
    config = TrainConfig(epochs=10, learning_rate=1e-12, batch_size=2, patience=2)
    trainer = Trainer(model, config)
    result = trainer.train(docs, dev_documents=docs[:2])
    assert result.stopped_early
    assert result.epochs_run <= 4


def test_evaluate_loss_no_updates(model, small_corpus):
    trainer = Trainer(model, TrainConfig(epochs=1))
    before = model.state_dict()
    loss = trainer.evaluate_loss(list(small_corpus)[:3])
    assert np.isfinite(loss)
    after = model.state_dict()
    for key in before:
        assert np.allclose(before[key], after[key])


def test_model_left_in_eval_mode(model, small_corpus):
    trainer = Trainer(model, TrainConfig(epochs=1))
    trainer.train(list(small_corpus)[:2])
    assert not model.training


@pytest.mark.parametrize("patience", [None, 1])
def test_trained_model_holds_no_gradient(model, small_corpus, patience):
    """Gradients are scratch of the last step: none outlives train(), also
    when early stopping ends it."""
    docs = list(small_corpus)[:4]
    config = TrainConfig(epochs=3, learning_rate=1e-12, batch_size=2, patience=patience)
    Trainer(model, config).train(docs, dev_documents=docs[:2])
    assert all(param.grad is None for param in model.parameters())


def test_warmup_schedule_attached():
    p = nn.Parameter(np.array([1.0]))

    class Quad(nn.Module):
        def __init__(self):
            super().__init__()
            self.p = p

        def loss(self, document):
            return (self.p * self.p).sum()

    trainer = Trainer(Quad(), TrainConfig(epochs=1, warmup_steps=10, learning_rate=1.0))
    assert trainer.optimizer.schedule is not None
    assert trainer.optimizer.current_lr() < 1.0
