"""§IV-D — model sensitivity on synthetic mixed-content webpages.

Concatenate pairs of real pages with different topics at 50–50, 70–30 and
30–70 length proportions; measure whether each model's topic prediction
follows the *first-position* content or the *larger-portion* content.

Paper finding: Joint-WB (no distillation) always predicts from the content
appearing first; Dual-Distill and Tri-Distill follow the larger portion.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.sensitivity import content_sensitivity
from ..data.corpus import Document
from ..distill.dual import DualDistiller
from ..distill.tri import TriDistiller
from .common import (
    distill_config,
    get_trained,
    get_world,
    make_joint,
    make_single_generator,
    make_topic_bank,
    trained_joint,
)
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_sensitivity", "make_document_pairs"]


def make_document_pairs(
    documents: List[Document], rng: np.random.Generator, num_pairs: int
) -> List[Tuple[Document, Document]]:
    """Sample pairs of documents with different topics."""
    pairs: List[Tuple[Document, Document]] = []
    attempts = 0
    while len(pairs) < num_pairs and attempts < 50 * num_pairs:
        attempts += 1
        i, j = rng.integers(0, len(documents), size=2)
        first, second = documents[int(i)], documents[int(j)]
        if first.topic_id != second.topic_id:
            pairs.append((first, second))
    return pairs


def run_sensitivity(
    scale: Optional[ExperimentScale] = None,
    num_pairs: int = 30,
) -> ResultTable:
    """Regenerate the §IV-D probe at the given scale."""
    scale = scale or small()
    world = get_world(scale)

    teacher = trained_joint(world, "Joint-WB", 316)  # Table VIII/IX's Joint-WB
    bank = make_topic_bank(
        world, teacher.generator.embedding.weight.data, np.random.default_rng(scale.seed + 700)
    )
    config = distill_config(scale)

    def build_dual():
        student = make_single_generator(
            world, "bertsum", np.random.default_rng(scale.seed + 701)
        )
        DualDistiller(teacher, student, bank, "generation", config).train(world.mixture_train)
        return student

    def build_tri():
        student = make_joint(world, "Naive-Join", np.random.default_rng(scale.seed + 702))
        TriDistiller(teacher, student, bank, config).train(world.mixture_train)
        return student

    dual_student = get_trained(scale, "sensitivity:dual", build_dual)
    tri_student = get_trained(scale, "sensitivity:tri", build_tri)

    rng = np.random.default_rng(scale.seed + 703)
    pairs = make_document_pairs(
        list(world.seen_split.test) + list(world.seen_split.develop), rng, num_pairs
    )
    table = ResultTable(
        title="Section IV-D — content sensitivity on synthetic mixed webpages",
        columns=[
            "first@50-50",
            "first@70-30",
            "larger@70-30",
            "first@30-70",
            "larger@30-70",
        ],
        notes=[
            "first@p: fraction of mixtures predicted from the first-position content; "
            "larger@p: fraction predicted from the larger-portion content",
            "paper: Joint-WB follows first-position content; distilled students "
            "follow the larger portion",
        ],
    )
    models = {
        "Joint-WB (no distill)": lambda d: teacher.predict_topic(d, beam_size=scale.beam_size),
        "Dual-Distill": lambda d: dual_student.predict_topic(d, beam_size=scale.beam_size),
        "Tri-Distill": lambda d: tri_student.predict_topic(d, beam_size=scale.beam_size),
    }
    for name, predict in models.items():
        results = content_sensitivity(predict, pairs, proportions=(0.5, 0.7, 0.3))
        by_fraction = {round(r.proportion[0], 2): r for r in results}
        table.add_row(
            name,
            {
                "first@50-50": by_fraction[0.5].follows_first,
                "first@70-30": by_fraction[0.7].follows_first,
                "larger@70-30": by_fraction[0.7].follows_larger,
                "first@30-70": by_fraction[0.3].follows_first,
                "larger@30-70": by_fraction[0.3].follows_larger,
            },
        )
    return table


if __name__ == "__main__":
    print(run_sensitivity().format())
