"""Uniform teacher/student views for the distillation losses.

Distillation needs three things from any WB model, regardless of whether it
is a single-task baseline or a joint model:

* the **extraction view** — hidden token representations + BIO tag logits;
* the **generation view** — hidden sentence representations + per-step
  vocabulary logits under teacher forcing on the document's gold topic;
* the **shared encoder width** — Tri-Distill's shared identification
  distillation runs on ``model.encoder``'s contextual token states.

The adapters below dispatch on the model type so a Dual/Tri-Distiller can
pair any teacher with any student (§IV-A7-ii evaluates BERT-Single,
Naive-Join and Joint-WB teachers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence


from .. import nn
from ..data.corpus import Document
from ..models.joint_wb import JointWBModel
from ..models.single_task import SingleTaskExtractor, SingleTaskGenerator

__all__ = [
    "ExtractionView",
    "GenerationView",
    "extraction_view",
    "generation_view",
    "extraction_hidden_dim",
    "generation_hidden_dim",
    "encoder_dim",
    "with_topic",
]


@dataclass
class ExtractionView:
    hidden: nn.Tensor  # (L, d_hidden)
    logits: nn.Tensor  # (L, 3)


@dataclass
class GenerationView:
    memory: nn.Tensor       # (m, d_hidden)
    step_logits: nn.Tensor  # (n, V), teacher forced on the gold topic


def extraction_view(model: nn.Module, document: Document) -> ExtractionView:
    """Hidden token reps + tag logits for any supported model."""
    if isinstance(model, SingleTaskExtractor):
        enc = model.encoder.encode(document)
        extra = model._extra_features(document, enc.token_sentence_index)
        hidden = model.extractor.hidden(enc.token_states, extra=extra)
        return ExtractionView(hidden=hidden, logits=model.extractor.logits(hidden))
    if isinstance(model, JointWBModel):
        forward = model.forward(document)
        return ExtractionView(hidden=forward.extractor_hidden, logits=forward.extraction_logits)
    raise TypeError(f"no extraction view for {type(model).__name__}")


def generation_view(model: nn.Module, document: Document) -> GenerationView:
    """Hidden sentence reps + teacher-forced step logits."""
    if isinstance(model, SingleTaskGenerator):
        memory = model._memory(document)
        _, step_logits, _ = model.generator.teacher_forcing(memory, document.topic_tokens)
        return GenerationView(memory=memory, step_logits=step_logits)
    if isinstance(model, JointWBModel):
        forward = model.forward(document)
        return GenerationView(memory=forward.generator_hidden, step_logits=forward.generation_logits)
    raise TypeError(f"no generation view for {type(model).__name__}")


def extraction_hidden_dim(model: nn.Module) -> int:
    """Width of the model's extraction hidden representation ``C_E``."""
    if isinstance(model, SingleTaskExtractor):
        return 2 * model.extractor.hidden_dim
    if isinstance(model, JointWBModel):
        return 2 * model.hidden_dim
    raise TypeError(f"no extraction hidden dim for {type(model).__name__}")


def generation_hidden_dim(model: nn.Module) -> int:
    """Width of the model's generation hidden representation ``C_G``."""
    if isinstance(model, SingleTaskGenerator):
        return 2 * model.generator.hidden_dim
    if isinstance(model, JointWBModel):
        return 2 * model.hidden_dim
    raise TypeError(f"no generation hidden dim for {type(model).__name__}")


def encoder_dim(model: nn.Module) -> int:
    """Width of the model's shared document-encoder output."""
    encoder = getattr(model, "encoder", None)
    if encoder is None:
        raise TypeError(f"{type(model).__name__} has no document encoder")
    return encoder.dim


def with_topic(document: Document, topic_tokens: Sequence[str]) -> Document:
    """Copy of ``document`` with a substituted topic (Pip-Distill prior)."""
    return replace(document, topic_tokens=tuple(topic_tokens))
