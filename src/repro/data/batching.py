"""Minibatching utilities.

The paper trains with batch size 16 (512-token BERT sub-documents) and batch
size 4 (2,048-token documents) — §IV-A5.  Our models process one document
graph at a time (numpy autograd), so a *batch* here is a list of documents
whose losses are averaged before one optimiser step, which is numerically the
same thing.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

__all__ = ["iterate_batches"]

T = TypeVar("T")


def iterate_batches(
    items: Sequence[T],
    batch_size: int,
    *,
    bucket_by: Optional[Callable[[T], int]] = None,
) -> Iterator[List[T]]:
    """Yield consecutive batches; the final batch may be smaller.

    ``bucket_by`` enables length-bucketing for the padded inference engine: a
    key function (e.g. ``lambda doc: doc.num_tokens``) by which items are
    stable-sorted before batching, so each padded batch wastes minimal compute
    on pad positions.  The default (``None``) keeps the original order — the
    behaviour training reproducibility depends on.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if bucket_by is not None:
        items = sorted(items, key=bucket_by)
    for start in range(0, len(items), batch_size):
        yield list(items[start : start + batch_size])
