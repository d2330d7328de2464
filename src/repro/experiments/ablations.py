"""Ablation sweeps over the distillation hyperparameters (DESIGN.md §5).

The paper fixes α=0.1 and γ=2 (§IV-A5).  These sweeps regenerate the design
choice: how the identification weight α and the softmax temperature γ move
unseen/seen EM of a Dual-Distill student around the paper's operating point.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..distill.dual import DualDistiller
from .common import (
    distill_config,
    generation_metrics,
    get_world,
    make_single_generator,
    make_topic_bank,
    trained_joint,
)
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_alpha_sweep", "run_gamma_sweep"]


def _teacher_and_bank(world):
    scale = world.scale
    teacher = trained_joint(world, "Joint-WB", 316)  # Table VIII/IX's Joint-WB
    bank = make_topic_bank(
        world,
        teacher.generator.embedding.weight.data,
        np.random.default_rng(scale.seed + 900),
    )
    return teacher, bank


def _distilled_student(world, teacher, bank, **config_overrides):
    scale = world.scale
    student = make_single_generator(
        world, "bertsum", np.random.default_rng(scale.seed + 203)
    )
    config = distill_config(scale, **config_overrides)
    DualDistiller(teacher, student, bank, "generation", config).train(world.mixture_train)
    return student


def run_alpha_sweep(
    scale: Optional[ExperimentScale] = None,
    alphas: Sequence[float] = (0.0, 0.1, 0.5, 2.0),
) -> ResultTable:
    """Sweep the identification-distillation weight α (paper default 0.1)."""
    scale = scale or small()
    world = get_world(scale)
    teacher, bank = _teacher_and_bank(world)
    table = ResultTable(
        title="Ablation — identification weight alpha (Dual-Distill, topic generation)",
        columns=["unseen EM", "seen EM"],
        notes=["paper operating point: alpha = 0.1"],
    )
    for alpha in alphas:
        student = _distilled_student(world, teacher, bank, alpha=alpha)
        unseen = generation_metrics(student, world.unseen_split.test, scale.beam_size)
        seen = generation_metrics(student, world.seen_split.test, scale.beam_size)
        table.add_row(
            f"alpha={alpha}",
            {"unseen EM": 100 * unseen.exact_match, "seen EM": 100 * seen.exact_match},
        )
    return table


def run_gamma_sweep(
    scale: Optional[ExperimentScale] = None,
    gammas: Sequence[float] = (1.0, 2.0, 4.0),
) -> ResultTable:
    """Sweep the understanding-distillation temperature γ (paper default 2)."""
    scale = scale or small()
    world = get_world(scale)
    teacher, bank = _teacher_and_bank(world)
    table = ResultTable(
        title="Ablation — softmax temperature gamma (Dual-Distill, topic generation)",
        columns=["unseen EM", "seen EM"],
        notes=["paper operating point: gamma = 2"],
    )
    for gamma in gammas:
        student = _distilled_student(world, teacher, bank, gamma=gamma)
        unseen = generation_metrics(student, world.unseen_split.test, scale.beam_size)
        seen = generation_metrics(student, world.seen_split.test, scale.beam_size)
        table.add_row(
            f"gamma={gamma}",
            {"unseen EM": 100 * unseen.exact_match, "seen EM": 100 * seen.exact_match},
        )
    return table


if __name__ == "__main__":
    print(run_alpha_sweep().format())
    print()
    print(run_gamma_sweep().format())
