"""Lazy exact ``(bound, row)`` ordering on top of an ascending index stream.

The k-NN search (the Seidl–Kriegel optimal multi-step algorithm; every
k-NN path takes its scan from :func:`repro.search.ordering.ascending_bounds`)
consumes database rows in ascending ``(filter bound, row)`` order.  The reference path materializes every bound and
sorts; a candidate index instead yields rows in ascending *BDist* order,
and for filters whose bound dominates the count bound —

    ``flt.bound(q, row) ≥ ⌈BDist(q, row) / factor⌉``

(:attr:`~repro.filters.base.LowerBoundFilter.bdist_dominant`) — that
stream can be reordered lazily into the **exact** reference order:

score rows off the stream into a pending min-heap keyed ``(bound, row)``;
the heap head ``(f, row)`` is safe to emit once the stream head's count
bound ``⌈L1/factor⌉`` strictly exceeds ``f``, because every unscored row
then has ``bound ≥ ⌈L1/factor⌉ > f``.  Emission order — including
tie-breaks on the row id — matches ``sorted(rows, key=(bound, row))``
bit for bit, so funnel counts and answers are identical to the reference
path; only the number of rows *scored* shrinks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterator, List, Optional, Tuple

from repro.features.packed import PackedVector
from repro.index.base import CandidateIndex

__all__ = ["OrderedBoundStream"]


class OrderedBoundStream:
    """Iterate ``(bound, row)`` in exact ascending order, scoring lazily.

    Parameters
    ----------
    index:
        A synced candidate index (supplies the ascending BDist stream).
    score:
        ``row → filter bound``; must dominate the count bound (the caller
        checks :attr:`~repro.filters.base.LowerBoundFilter.bdist_dominant`
        before constructing one of these).
    vector:
        The query's packed vector at the index's q level.

    Attributes
    ----------
    scored:
        Rows pulled off the stream and scored so far — the funnel
        ``survivors`` figure for the index stage, and the lazy-win
        measure (``scored < corpus`` once early stopping kicks in).
    """

    def __init__(
        self,
        index: CandidateIndex,
        score: Callable[[int], int],
        vector: PackedVector,
    ) -> None:
        self._stream = index.ascending(vector)
        self._score = score
        self._factor = index.factor
        self.scored = 0

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        stream = self._stream
        score = self._score
        factor = self._factor
        pending: List[Tuple[int, int]] = []
        head: Optional[Tuple[int, int]] = next(stream, None)
        while True:
            # pull while an unscored row could still sort at or before
            # the pending head: its bound is ≥ ⌈L1/factor⌉ of the stream
            # head, so strict excess makes the head safe to emit
            while head is not None and (
                not pending or -(-head[0] // factor) <= pending[0][0]
            ):
                row = head[1]
                heappush(pending, (score(row), row))
                self.scored += 1
                head = next(stream, None)
            if not pending:
                return
            yield heappop(pending)

