"""The one k-NN ordering pass: ascending ``(bound, row)`` scans (Alg. 2).

Algorithm 2 refines database trees in ascending ``(lower bound, row)``
order and stops once the next bound exceeds the current ``k``-th
distance.  Every k-NN path — :func:`~repro.search.knn.knn_query`, the
count-bound tier of :func:`~repro.search.tiered_knn.tiered_knn_query` and
the shard worker's frontier — takes that scan from
:func:`ascending_bounds`, which picks the cheapest exact source:

1. a candidate index's ascending BDist stream, reordered lazily by
   :class:`~repro.index.ordering.OrderedBoundStream` — sound only for a
   :attr:`~repro.filters.base.LowerBoundFilter.bdist_dominant` filter at
   the index's q level;
2. the filter's exact vectorized bounds over the matrix planes;
3. the per-row loop over ``flt.bound``.

All three yield the same pairs in the same order, so answers and
refined-candidate counts do not depend on the source; only the number of
rows bounded does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Tuple

from repro.features.matrix import FeatureMatrices, stable_order
from repro.filters.base import LowerBoundFilter
from repro.obs import tracing
from repro.obs.funnel import FunnelStage
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: repro.index builds on the search layer's deps
    from repro.index.base import CandidateIndex
    from repro.index.ordering import OrderedBoundStream

__all__ = ["BoundScan", "ascending_bounds"]


class BoundScan:
    """Ascending ``(bound, row)`` pairs plus the funnel stage they make.

    ``signature`` is the query's filter signature, computed once here so
    callers that bound again (the tiered tightening) reuse it.
    """

    def __init__(
        self,
        pairs: Iterable[Tuple[float, int]],
        name: str,
        corpus: int,
        signature: Any,
        stream: Optional["OrderedBoundStream"] = None,
    ) -> None:
        self._pairs = pairs
        self.name = name
        self.corpus = corpus
        self.signature = signature
        self._stream = stream

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return iter(self._pairs)

    @property
    def scored(self) -> int:
        """Rows bounded so far: the corpus, or what the lazy stream pulled."""
        return self.corpus if self._stream is None else self._stream.scored

    def stage(self, seconds: float) -> FunnelStage:
        """The ordering pass as a funnel stage (it bounds rows, prunes none)."""
        return FunnelStage(self.name, self.corpus, self.scored, seconds)


def ascending_bounds(
    flt: LowerBoundFilter,
    query: TreeNode,
    size: int,
    matrices: Optional[FeatureMatrices] = None,
    index: Optional["CandidateIndex"] = None,
) -> BoundScan:
    """The ascending ``(flt bound, row)`` scan over rows ``0..size-1``.

    The stage is ``index:<kind>`` when the index stream is used (its
    survivors are the rows actually scored) and ``order:<flt.name>``
    otherwise.
    """
    signature = flt.signature(query)
    if (
        index is not None
        and flt.bdist_dominant
        and getattr(flt, "q", None) == index.q
    ):
        from repro.index.ordering import OrderedBoundStream

        with tracing.span(f"index.{index.kind}"):
            index.sync()
            stream = OrderedBoundStream(
                index,
                lambda row: flt.bound(signature, flt.data_signature(row)),
                index.pack(query),
            )
        return BoundScan(stream, f"index:{index.kind}", size, signature, stream)
    with tracing.span(f"filter.{flt.name}"):
        bounds = flt.lower_bounds_matrix(signature, matrices)
        if bounds is None:
            bounds = [
                flt.bound(signature, flt.data_signature(row)) for row in range(size)
            ]
        order = stable_order(bounds)
    return BoundScan(
        ((bounds[row], row) for row in order), f"order:{flt.name}", size, signature
    )
