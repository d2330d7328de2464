"""``repro.experiments`` — one module per paper table/figure (DESIGN.md §4)."""

from .ablations import run_alpha_sweep, run_gamma_sweep
from .common import (
    World,
    build_world,
    clear_world_cache,
    compositional_topic_ids,
    extraction_metrics,
    generation_metrics,
    get_trained,
    get_world,
    make_encoder,
    make_joint,
    make_single_extractor,
    make_single_generator,
    make_topic_bank,
    train_model,
    trained_joint,
)
from .config import ExperimentScale, paper_shape, small, tiny
from .dataset_quality import run_dataset_quality
from .reporting import ResultTable
from .runner import EXPERIMENTS, run_all
from .sensitivity import run_sensitivity
from .table4 import run_table4
from .table5 import run_table5
from .table6 import run_table6
from .table7 import run_table7
from .table89 import run_joint_tables, run_table8, run_table9
from .table10 import run_table10

__all__ = [
    "ExperimentScale",
    "tiny",
    "small",
    "paper_shape",
    "World",
    "build_world",
    "get_world",
    "clear_world_cache",
    "compositional_topic_ids",
    "get_trained",
    "make_encoder",
    "make_joint",
    "make_single_extractor",
    "make_single_generator",
    "make_topic_bank",
    "train_model",
    "trained_joint",
    "generation_metrics",
    "extraction_metrics",
    "ResultTable",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "run_table9",
    "run_joint_tables",
    "run_table10",
    "run_sensitivity",
    "run_dataset_quality",
    "run_alpha_sweep",
    "run_gamma_sweep",
    "EXPERIMENTS",
    "run_all",
]
