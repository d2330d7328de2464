"""Table VII — topic generation vs. single-task baselines (seen domains).

Rows: GloVe→[Bi-LSTM, LSTM], BERT→[Bi-LSTM, LSTM], BERTSUM→[Bi-LSTM, LSTM],
BERTSUM→[Bi-LSTM, LSTM] + prior section, Joint-WB.  Columns: EM / RM on the
seen-domain test split.

Expected shape: BERTSUM > BERT > GloVe; +prior section helps; Joint-WB best
(the paper: Joint-WB 95.02 EM, beats single-task baselines by ≤9.65 EM;
+prior section beats plain BERTSUM by 0.57 EM).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .common import (
    generation_metrics,
    get_trained,
    get_world,
    make_single_generator,
    train_model,
    trained_joint,
)
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_table7", "GENERATOR_ROWS", "PAPER_TABLE7"]

GENERATOR_ROWS = (
    ("GloVe->[Bi-LSTM, LSTM]", "glove", {}),
    ("BERT->[Bi-LSTM, LSTM]", "bert", {}),
    ("BERTSUM->[Bi-LSTM, LSTM]", "bertsum", {}),
    ("BERTSUM->[Bi-LSTM, LSTM] +prior section", "bertsum", {"prior_section": True}),
)

PAPER_TABLE7: Dict[str, Dict[str, float]] = {
    "Joint-WB": {"EM": 95.02},
}


def run_table7(scale: Optional[ExperimentScale] = None) -> ResultTable:
    """Regenerate Table VII at the given scale."""
    scale = scale or small()
    world = get_world(scale)
    table = ResultTable(
        title="Table VII — topic generation vs single-task baselines (seen domains)",
        columns=["EM", "RM"],
        paper_reference=PAPER_TABLE7,
        notes=[
            "paper deltas: +prior section beats plain BERTSUM by 0.57 EM; "
            "Joint-WB beats single-task baselines by up to 9.65 EM"
        ],
    )
    test = world.seen_split.test

    for index, (name, encoder_kind, kwargs) in enumerate(GENERATOR_ROWS):
        def build(index=index, encoder_kind=encoder_kind, kwargs=kwargs):
            rng = np.random.default_rng(scale.seed + 550 + index)
            model = make_single_generator(world, encoder_kind, rng, **kwargs)
            return train_model(model, world.seen_split.train, scale)

        model = get_trained(scale, f"table7:{name}", build)
        metrics = generation_metrics(model, test, scale.beam_size)
        table.add_row(
            name, {"EM": 100 * metrics.exact_match, "RM": 100 * metrics.relaxed_match}
        )

    joint = trained_joint(world, "Joint-WB", 312)  # Table V's Joint-WB teacher
    metrics = generation_metrics(joint, test, scale.beam_size)
    table.add_row("Joint-WB", {"EM": 100 * metrics.exact_match, "RM": 100 * metrics.relaxed_match})
    return table


if __name__ == "__main__":
    print(run_table7().format())
