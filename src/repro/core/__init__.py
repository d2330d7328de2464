"""``repro.core`` — the WB task API: briefing, training, evaluation, stats."""

from .batched import BatchedBriefingPipeline, BriefCache, content_hash
from .briefing import Brief, Degradation, PartialBrief
from .evaluation import (
    ExtractionMetrics,
    GenerationMetrics,
    evaluate_extraction,
    evaluate_generation,
    exact_match,
    match_counts,
    relaxed_match,
)
from .hierarchy import HierarchicalBrief, HierarchicalBriefer, train_name_classifier
from .human_eval import PanelResult, human_evaluation, simulate_ratings, underlying_quality
from .pipeline import BriefingPipeline, document_from_raw_html
from .serving import (
    ConcurrentBriefingPipeline,
    RequestScheduler,
    WorkerPool,
    WorkerSupervisor,
)
from .significance import ModelComparison, compare_generation_models
from .transport import ModelSnapshot
from .sensitivity import MixtureResult, content_sensitivity, make_mixture, topic_affinity
from .stats import McNemarResult, cohen_kappa, mcnemar, pairwise_kappa_summary
from .training import TrainConfig, Trainer, TrainResult

__all__ = [
    "ModelComparison",
    "compare_generation_models",
    "HierarchicalBrief",
    "HierarchicalBriefer",
    "train_name_classifier",
    "Brief",
    "Degradation",
    "PartialBrief",
    "BriefingPipeline",
    "BatchedBriefingPipeline",
    "BriefCache",
    "RequestScheduler",
    "WorkerPool",
    "WorkerSupervisor",
    "ConcurrentBriefingPipeline",
    "ModelSnapshot",
    "content_hash",
    "document_from_raw_html",
    "ExtractionMetrics",
    "GenerationMetrics",
    "evaluate_extraction",
    "evaluate_generation",
    "exact_match",
    "relaxed_match",
    "match_counts",
    "McNemarResult",
    "mcnemar",
    "cohen_kappa",
    "pairwise_kappa_summary",
    "TrainConfig",
    "Trainer",
    "TrainResult",
    "MixtureResult",
    "content_sensitivity",
    "make_mixture",
    "topic_affinity",
    "PanelResult",
    "human_evaluation",
    "simulate_ratings",
    "underlying_quality",
]
