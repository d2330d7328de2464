"""Tables VIII & IX — joint-learning baselines (seen domains).

One training run per joint model produces both tables: Table VIII reports
attribute extraction (P/R/F1) and Table IX topic generation (EM/RM) for
Naive-Join, Con-Extractor, Ave-Extractor, Att-Extractor,
Att-Extractor+Att-Generator, Pip-Extractor+Pip-Generator and Joint-WB.

Expected shape (paper §IV-C2): attention-based exchange > concat-based >
Naive-Join; Pip+Pip strong; Joint-WB best (by 0.12 F1 / 0.29 EM over the best
baseline in the paper).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..models.joint_baselines import JOINT_BASELINE_CONFIGS
from .common import extraction_metrics, generation_metrics, get_world, trained_joint
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_joint_tables", "run_table8", "run_table9", "JOINT_ROWS"]

JOINT_ROWS = tuple(JOINT_BASELINE_CONFIGS)  # insertion order: Naive-Join … Joint-WB


def run_joint_tables(
    scale: Optional[ExperimentScale] = None,
) -> Tuple[ResultTable, ResultTable]:
    """Train every joint model once; return ``(table8, table9)``."""
    scale = scale or small()
    world = get_world(scale)
    table8 = ResultTable(
        title="Table VIII — attribute extraction with joint baselines (seen domains)",
        columns=["P", "R", "F1"],
        paper_reference={"Joint-WB": {"F1": 97.30}},
        notes=["paper: attention-based exchange beats concat-based by up to 1.96 F1"],
    )
    table9 = ResultTable(
        title="Table IX — topic generation with joint baselines (seen domains)",
        columns=["EM", "RM"],
        paper_reference={"Joint-WB": {"EM": 95.02}},
        notes=["paper: attention-based exchange beats concat-based by up to 0.49 EM"],
    )
    test = world.seen_split.test
    for name in JOINT_ROWS:
        model = trained_joint(world, name, 310 + JOINT_ROWS.index(name))
        ext = extraction_metrics(model, test)
        gen = generation_metrics(model, test, scale.beam_size)
        table8.add_row(
            name, {"P": 100 * ext.precision, "R": 100 * ext.recall, "F1": 100 * ext.f1}
        )
        table9.add_row(
            name, {"EM": 100 * gen.exact_match, "RM": 100 * gen.relaxed_match}
        )
    return table8, table9


def run_table8(scale: Optional[ExperimentScale] = None) -> ResultTable:
    """Regenerate Table VIII."""
    return run_joint_tables(scale)[0]


def run_table9(scale: Optional[ExperimentScale] = None) -> ResultTable:
    """Regenerate Table IX."""
    return run_joint_tables(scale)[1]


if __name__ == "__main__":
    t8, t9 = run_joint_tables()
    print(t8.format())
    print()
    print(t9.format())
