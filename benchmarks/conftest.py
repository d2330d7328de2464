"""Benchmark configuration.

Each benchmark regenerates one paper table/figure at the calibrated
``small()`` scale and asserts the paper's qualitative *shape* (who wins, with
slack) rather than absolute numbers — our substrate is a scaled-down CPU
simulator of the paper's GPU/BERT_base testbed (DESIGN.md §2).

Trained models are cached across benchmarks within the session, keyed by
the rng they were built from (Tables V–VII share one Joint-WB teacher, the
other tables another), so run the whole directory in one pytest invocation
for the intended runtime.
"""

import pytest

from repro.experiments.config import ExperimentScale, small


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The shared benchmark scale (calibrated in DESIGN.md §5)."""
    return small()


def print_table(table) -> None:
    print()
    print(table.format())
