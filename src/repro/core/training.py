"""Generic training loop with the paper's optimisation recipe.

§IV-A5: Adam (β1=0.9, β2=0.999), warm-up then decay, gradient clipping,
dropout, early stopping "once convergence is determined on the development
dataset".  The :class:`Trainer` works with any model exposing
``loss(document) -> Tensor`` (single-task, joint, students).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..data.corpus import Document
from ..obs import NOOP_REGISTRY, NOOP_TRACER

__all__ = ["TrainConfig", "TrainResult", "Trainer"]


@dataclass
class TrainConfig:
    """Optimisation hyperparameters."""

    epochs: int = 5
    learning_rate: float = 5e-3
    batch_size: int = 4
    clip_norm: float = 1.0
    warmup_steps: int = 0
    decay_rate: float = 1.0
    decay_every: Optional[int] = None
    seed: int = 0
    #: Early stopping: stop when dev loss fails to improve this many epochs.
    patience: Optional[int] = None


@dataclass
class TrainResult:
    """Loss curves from one training run."""

    train_losses: List[float] = field(default_factory=list)
    dev_losses: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


class Trainer:
    """Mini-batch gradient training of any ``loss(document)`` model.

    ``tracer`` / ``registry`` (default: no-ops) wrap the run in a ``train``
    span with one ``epoch`` span per epoch and one ``step`` span per
    mini-batch, time each optimisation step into the
    ``train_step_seconds`` histogram, and publish the latest train/dev loss
    as the ``train_loss`` gauge (labelled ``split=train|dev``).
    """

    def __init__(
        self,
        model: nn.Module,
        config: Optional[TrainConfig] = None,
        tracer=None,
        registry=None,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.registry = registry if registry is not None else NOOP_REGISTRY
        self._observing = bool(self.tracer.enabled or self.registry.enabled)
        self._step_seconds = self.registry.histogram(
            "train_step_seconds", help="wall time per optimisation step"
        )
        self._loss_gauge = self.registry.gauge(
            "train_loss", help="most recent mean loss, by split"
        )
        self.optimizer = nn.Adam(model.parameters(), lr=self.config.learning_rate)
        if self.config.warmup_steps or self.config.decay_every:
            self.optimizer.set_schedule(
                nn.LinearWarmupSchedule(
                    self.config.learning_rate,
                    warmup_steps=self.config.warmup_steps,
                    decay_rate=self.config.decay_rate,
                    decay_every=self.config.decay_every,
                )
            )

    # ------------------------------------------------------------------
    def _step(self, batch: Sequence[Document]) -> float:
        self.optimizer.zero_grad()
        total = None
        for document in batch:
            loss = self.model.loss(document)
            total = loss if total is None else total + loss
        mean_loss = total * (1.0 / len(batch))
        mean_loss.backward()
        nn.clip_grad_norm(self.model.parameters(), self.config.clip_norm)
        self.optimizer.step()
        return mean_loss.item()

    def evaluate_loss(self, documents: Sequence[Document]) -> float:
        """Mean loss without gradient updates (dev-set monitoring)."""
        self.model.eval()
        with self.tracer.span("evaluate", documents=len(documents)), nn.no_grad():
            losses = [self.model.loss(document).item() for document in documents]
        self.model.train()
        return float(np.mean(losses)) if losses else 0.0

    def train(
        self,
        documents: Sequence[Document],
        dev_documents: Optional[Sequence[Document]] = None,
        progress: Optional[Callable[[int, float], None]] = None,
    ) -> TrainResult:
        """Run the configured number of epochs (early stop on dev loss)."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        result = TrainResult()
        best_dev = float("inf")
        bad_epochs = 0
        self.model.train()
        with self.tracer.span("train", epochs=config.epochs, documents=len(documents)):
            for epoch in range(config.epochs):
                order = rng.permutation(len(documents))
                epoch_losses: List[float] = []
                with self.tracer.span("epoch", epoch=epoch) as epoch_span:
                    for start in range(0, len(order), config.batch_size):
                        batch = [
                            documents[int(i)] for i in order[start : start + config.batch_size]
                        ]
                        step_start = time.perf_counter() if self._observing else 0.0
                        with self.tracer.span("step", epoch=epoch, size=len(batch)) as step_span:
                            loss = self._step(batch)
                            step_span.set_attribute("loss", loss)
                        if self._observing:
                            self._step_seconds.observe(time.perf_counter() - step_start)
                        epoch_losses.append(loss)
                    mean_train = float(np.mean(epoch_losses)) if epoch_losses else 0.0
                    epoch_span.set_attribute("train_loss", mean_train)
                result.train_losses.append(mean_train)
                self._loss_gauge.set(mean_train, split="train")
                if progress is not None:
                    progress(epoch, mean_train)
                if dev_documents is not None and config.patience is not None:
                    dev_loss = self.evaluate_loss(dev_documents)
                    result.dev_losses.append(dev_loss)
                    self._loss_gauge.set(dev_loss, split="dev")
                    if dev_loss < best_dev - 1e-6:
                        best_dev = dev_loss
                        bad_epochs = 0
                    else:
                        bad_epochs += 1
                        if bad_epochs >= config.patience:
                            result.stopped_early = True
                            break
        # Training is over: drop the last step's gradients, which would
        # otherwise double the model's memory for as long as it lives.
        self.optimizer.zero_grad()
        self.model.eval()
        return result
