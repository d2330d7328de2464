"""Table VI — key attribute extraction vs. single-task baselines (seen domains).

Rows: GloVe→Bi-LSTM, BERT→Bi-LSTM, BERTSUM→Bi-LSTM, BERTSUM→Bi-LSTM + prior
section, BERTSUM→Bi-LSTM + prior topic, Joint-WB.  Columns: P / R / F1 on the
seen-domain 80/10/10 test split (§IV-C).

Expected shape: BERTSUM > BERT > GloVe; priors help; Joint-WB best
(the paper: Joint-WB 97.30 F1, beats single-task baselines by ≤7.73 F1).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .common import (
    extraction_metrics,
    get_trained,
    get_world,
    make_single_extractor,
    train_model,
    trained_joint,
)
from .config import ExperimentScale, small
from .reporting import ResultTable

__all__ = ["run_table6", "EXTRACTOR_ROWS", "PAPER_TABLE6"]

EXTRACTOR_ROWS = (
    ("GloVe->Bi-LSTM", "glove", {}),
    ("BERT->Bi-LSTM", "bert", {}),
    ("BERTSUM->Bi-LSTM", "bertsum", {}),
    ("BERTSUM->Bi-LSTM +prior section", "bertsum", {"prior_section": True}),
    ("BERTSUM->Bi-LSTM +prior topic", "bertsum", {"prior_topic": True}),
)

#: Paper numbers that are legible in the text (§IV-C / §V).
PAPER_TABLE6: Dict[str, Dict[str, float]] = {
    "Joint-WB": {"F1": 97.30},
}


def run_table6(scale: Optional[ExperimentScale] = None) -> ResultTable:
    """Regenerate Table VI at the given scale."""
    scale = scale or small()
    world = get_world(scale)
    table = ResultTable(
        title="Table VI — attribute extraction vs single-task baselines (seen domains)",
        columns=["P", "R", "F1"],
        paper_reference=PAPER_TABLE6,
        notes=[
            "paper deltas: BERTSUM +prior section beats BERTSUM by 0.74 F1; "
            "Joint-WB beats single-task baselines by up to 7.73 F1"
        ],
    )
    test = world.seen_split.test

    for index, (name, encoder_kind, kwargs) in enumerate(EXTRACTOR_ROWS):
        def build(index=index, encoder_kind=encoder_kind, kwargs=kwargs):
            rng = np.random.default_rng(scale.seed + 500 + index)
            model = make_single_extractor(world, encoder_kind, rng, **kwargs)
            return train_model(model, world.seen_split.train, scale)

        model = get_trained(scale, f"table6:{name}", build)
        metrics = extraction_metrics(model, test)
        table.add_row(
            name,
            {"P": 100 * metrics.precision, "R": 100 * metrics.recall, "F1": 100 * metrics.f1},
        )

    joint = trained_joint(world, "Joint-WB", 312)  # Table V's Joint-WB teacher
    metrics = extraction_metrics(joint, test)
    table.add_row(
        "Joint-WB",
        {"P": 100 * metrics.precision, "R": 100 * metrics.recall, "F1": 100 * metrics.f1},
    )
    return table


if __name__ == "__main__":
    print(run_table6().format())
