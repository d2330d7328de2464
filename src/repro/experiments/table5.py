"""Table V — applicability of distillation with different teacher models.

Teachers: BERT-Single (two single-task BERTSUM models), Naive-Join, Joint-WB.
Methods: No Distill, Dual-Distill, Pip-Distill, Tri-Distill.
Metrics on previously-unseen domains: EM (topic generation) and F1 (attribute
extraction).  Tri-Distill needs a joint teacher, so the BERT-Single column is
empty for it (as in the paper).

Expected shape: for F1, Tri-Distill > Pip-Distill > Dual-Distill > No Distill;
stronger teachers (Joint-WB > Naive-Join > BERT-Single) give stronger
students.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..distill.dual import DualDistiller
from ..distill.pipeline import PipelineDistiller
from ..distill.tri import TriDistiller
from .common import (
    World,
    distill_config,
    extraction_metrics,
    generation_metrics,
    get_trained,
    get_world,
    make_joint,
    make_single_extractor,
    make_single_generator,
    make_topic_bank,
    train_model,
    trained_joint,
)
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_table5", "PAPER_TABLE5", "TEACHER_NAMES", "METHOD_NAMES"]

TEACHER_NAMES = ("BERT-Single", "Naive-Join", "Joint-WB")
METHOD_NAMES = ("No Distill", "Dual-Distill", "Pip-Distill", "Tri-Distill")

#: Paper numbers where the scan is legible (Table V).
PAPER_TABLE5: Dict[str, Dict[str, float]] = {
    "No Distill": {"BERT-Single EM": 44.10, "BERT-Single F1": 77.23, "Naive-Join EM": 47.23},
    "Dual-Distill": {"BERT-Single EM": 50.79, "BERT-Single F1": 85.18, "Naive-Join EM": 53.10},
    "Pip-Distill": {"BERT-Single EM": 51.55},
    "Tri-Distill": {"Naive-Join EM": 54.26},
}


def _teacher_pair(world: World, name: str):
    """Build + train a teacher; returns (extraction_teacher, generation_teacher).

    For joint teachers both entries are the same model.
    """
    scale = world.scale

    if name == "BERT-Single":
        def build_ext():
            rng = np.random.default_rng(scale.seed + 300)
            model = make_single_extractor(world, "bertsum", rng)
            return train_model(model, world.seen_split.train, scale)

        def build_gen():
            rng = np.random.default_rng(scale.seed + 301)
            model = make_single_generator(world, "bertsum", rng)
            return train_model(model, world.seen_split.train, scale)

        return (
            get_trained(scale, "table5:bert-single-ext", build_ext),
            get_trained(scale, "table5:bert-single-gen", build_gen),
        )

    joint = trained_joint(world, name, 310 + TEACHER_NAMES.index(name))
    return joint, joint


def run_table5(scale: Optional[ExperimentScale] = None) -> ResultTable:
    """Regenerate Table V at the given scale."""
    scale = scale or small()
    world = get_world(scale)
    columns = [f"{t} {m}" for t in TEACHER_NAMES for m in ("EM", "F1")]
    table = ResultTable(
        title="Table V — distillation applicability across teachers (unseen domains)",
        columns=columns,
        paper_reference=PAPER_TABLE5,
        notes=["EM: topic generation; F1: attribute extraction; unseen-domain test set"],
    )
    unseen_test = world.unseen_split.test
    rows: Dict[str, Dict[str, float]] = {m: {} for m in METHOD_NAMES}

    for teacher_name in TEACHER_NAMES:
        ext_teacher, gen_teacher = _teacher_pair(world, teacher_name)
        embedding = (
            gen_teacher.generator.embedding.weight.data
        )
        bank_rng = np.random.default_rng(scale.seed + 400)
        bank = make_topic_bank(world, embedding, bank_rng)
        config = distill_config(scale)

        # --- No Distill: the teacher itself on unseen pages.
        rows["No Distill"][f"{teacher_name} EM"] = 100 * generation_metrics(
            gen_teacher, unseen_test, scale.beam_size
        ).exact_match
        rows["No Distill"][f"{teacher_name} F1"] = 100 * extraction_metrics(
            ext_teacher, unseen_test
        ).f1

        # --- Dual-Distill: two independent students.
        gen_student = make_single_generator(
            world, "bertsum", np.random.default_rng(scale.seed + 410)
        )
        DualDistiller(gen_teacher, gen_student, bank, "generation", config).train(
            world.mixture_train
        )
        ext_student = make_single_extractor(
            world, "bertsum", np.random.default_rng(scale.seed + 411)
        )
        DualDistiller(ext_teacher, ext_student, bank, "extraction", config).train(
            world.mixture_train
        )
        rows["Dual-Distill"][f"{teacher_name} EM"] = 100 * generation_metrics(
            gen_student, unseen_test, scale.beam_size
        ).exact_match
        rows["Dual-Distill"][f"{teacher_name} F1"] = 100 * extraction_metrics(
            ext_student, unseen_test
        ).f1

        # --- Pip-Distill: generation student primes the extraction student.
        pip_gen = make_single_generator(
            world, "bertsum", np.random.default_rng(scale.seed + 420)
        )
        pip_ext = make_single_extractor(
            world,
            "bertsum",
            np.random.default_rng(scale.seed + 421),
            prior_topic=True,
        )
        pipeline = PipelineDistiller(
            gen_teacher, pip_gen, pip_ext, bank, config, extraction_teacher=ext_teacher
        )
        pipeline.train(world.mixture_train)
        rows["Pip-Distill"][f"{teacher_name} EM"] = 100 * generation_metrics(
            pip_gen, unseen_test, scale.beam_size
        ).exact_match
        rows["Pip-Distill"][f"{teacher_name} F1"] = 100 * (
            extraction_metrics(pipeline, unseen_test).f1
        )

        # --- Tri-Distill: requires a joint teacher.
        if teacher_name != "BERT-Single":
            student = make_joint(
                world, "Naive-Join", np.random.default_rng(scale.seed + 430)
            )
            TriDistiller(gen_teacher, student, bank, config).train(world.mixture_train)
            rows["Tri-Distill"][f"{teacher_name} EM"] = 100 * generation_metrics(
                student, unseen_test, scale.beam_size
            ).exact_match
            rows["Tri-Distill"][f"{teacher_name} F1"] = 100 * extraction_metrics(
                student, unseen_test
            ).f1

    for method in METHOD_NAMES:
        table.add_row(method, rows[method])
    return table


if __name__ == "__main__":
    print(run_table5().format())
