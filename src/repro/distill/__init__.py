"""``repro.distill`` — Dual-Distill, Tri-Distill, Pip-Distill and ablations."""

from .dual import DistillConfig, DualDistiller
from .identification import IdentificationDistiller
from .interfaces import (
    ExtractionView,
    GenerationView,
    encoder_dim,
    extraction_hidden_dim,
    extraction_view,
    generation_hidden_dim,
    generation_view,
    with_topic,
)
from .pipeline import PipelineDistiller
from .topics import TopicPhraseBank
from .tri import TriDistiller
from .understanding import soften, understanding_loss
from .variants import VARIANT_NAMES, id_only_config, make_variant_distiller, ud_only_config

__all__ = [
    "DistillConfig",
    "DualDistiller",
    "TriDistiller",
    "PipelineDistiller",
    "IdentificationDistiller",
    "TopicPhraseBank",
    "understanding_loss",
    "soften",
    "ExtractionView",
    "GenerationView",
    "extraction_view",
    "generation_view",
    "extraction_hidden_dim",
    "generation_hidden_dim",
    "encoder_dim",
    "with_topic",
    "VARIANT_NAMES",
    "id_only_config",
    "ud_only_config",
    "make_variant_distiller",
]
