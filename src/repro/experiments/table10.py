"""Table X — human evaluation of topic generation (simulated panel).

Ten raters score generated topics 0/1/2 on randomly selected seen-domain and
unseen-domain pages (§IV-E); the panel here is simulated (DESIGN.md §2) but
computes exactly the paper's quantities: per-model average score and
inter-annotator Cohen's κ (the paper reports κ > 0.83).

Rows (paper Table X): BERT→[Bi-LSTM,LSTM], BERTSUM→[Bi-LSTM,LSTM],
Naive joint, Att-Extractor+Att-Generator, Pip-Extractor+Pip-Generator,
ID only, UD only, Tri-Distill.

Expected shape: distilled models degrade least from seen to unseen;
Tri-Distill scores highest on unseen.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core.human_eval import human_evaluation
from ..distill.tri import TriDistiller
from ..distill.variants import make_variant_distiller
from .common import (
    distill_config,
    get_trained,
    get_world,
    make_joint,
    make_single_generator,
    make_topic_bank,
    train_model,
    trained_joint,
)
from .table89 import JOINT_ROWS
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_table10", "PAPER_TABLE10"]

PAPER_TABLE10: Dict[str, Dict[str, float]] = {
    "BERT->[Bi-LSTM,LSTM]": {"seen": 1.30, "unseen": 0.97},
    "BERTSUM->[Bi-LSTM,LSTM]": {"seen": 1.35, "unseen": 0.99},
    "Naive joint": {"seen": 1.49, "unseen": 1.08},
    "Att-Extractor+Att-Generator": {"seen": 1.60, "unseen": 1.20},
    "Pip-Extractor+Pip-Generator": {"seen": 1.64, "unseen": 1.23},
    "ID only": {"seen": 1.78, "unseen": 1.71},
    "UD only": {"seen": 1.75, "unseen": 1.74},
    "Tri-Distill": {"seen": 1.83, "unseen": 1.81},
}


def _models(world) -> Dict[str, Callable]:
    """Train (or fetch) every Table X model; returns name → predict_topic."""
    scale = world.scale

    def single(kind: str, offset: int):
        def build():
            model = make_single_generator(
                world, kind, np.random.default_rng(scale.seed + offset)
            )
            return train_model(model, world.seen_split.train, scale)

        return get_trained(scale, f"table10:{kind}-gen", build)

    def joint(name: str):
        return trained_joint(world, name, 310 + JOINT_ROWS.index(name))

    teacher = joint("Joint-WB")
    bank = make_topic_bank(
        world, teacher.generator.embedding.weight.data, np.random.default_rng(scale.seed + 600)
    )
    config = distill_config(scale)

    def distilled(variant: str, offset: int):
        def build():
            student = make_single_generator(
                world, "bertsum", np.random.default_rng(scale.seed + offset)
            )
            distiller = make_variant_distiller(
                variant, teacher, student, bank, task="generation", base=config
            )
            distiller.train(world.mixture_train)
            return student

        return get_trained(scale, f"table10:distill:{variant}", build)

    def tri_student():
        def build():
            student = make_joint(
                world, "Naive-Join", np.random.default_rng(scale.seed + 620)
            )
            TriDistiller(teacher, student, bank, config).train(world.mixture_train)
            return student

        return get_trained(scale, "table10:tri", build)

    return {
        "BERT->[Bi-LSTM,LSTM]": single("bert", 610),
        "BERTSUM->[Bi-LSTM,LSTM]": single("bertsum", 611),
        "Naive joint": joint("Naive-Join"),
        "Att-Extractor+Att-Generator": joint("Att-Extractor+Att-Generator"),
        "Pip-Extractor+Pip-Generator": joint("Pip-Extractor+Pip-Generator"),
        "ID only": distilled("ID only", 612),
        "UD only": distilled("UD only", 613),
        "Tri-Distill": tri_student(),
    }


def run_table10(
    scale: Optional[ExperimentScale] = None,
    num_raters: int = 10,
) -> ResultTable:
    """Regenerate Table X (simulated rater panel) at the given scale."""
    scale = scale or small()
    world = get_world(scale)
    models = _models(world)
    table = ResultTable(
        title="Table X — human evaluation of topic generation (simulated panel)",
        columns=["seen", "unseen", "kappa seen", "kappa unseen"],
        paper_reference=PAPER_TABLE10,
        notes=[
            "scores in [0, 2]; panel simulated (DESIGN.md §2); paper reports κ > 0.83",
        ],
    )
    predictors = {
        name: (lambda d, m=model: m.predict_topic(d, beam_size=world.scale.beam_size))
        for name, model in models.items()
    }
    seen_panel = human_evaluation(
        predictors, world.seen_split.test, num_raters=num_raters, seed=scale.seed
    )
    unseen_panel = human_evaluation(
        predictors, world.unseen_split.test, num_raters=num_raters, seed=scale.seed + 1
    )
    for seen_result, unseen_result in zip(seen_panel, unseen_panel):
        table.add_row(
            seen_result.model_name,
            {
                "seen": seen_result.average_score,
                "unseen": unseen_result.average_score,
                "kappa seen": seen_result.kappa_min,
                "kappa unseen": unseen_result.kappa_min,
            },
        )
    return table


if __name__ == "__main__":
    print(run_table10().format())
