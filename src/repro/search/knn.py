"""k-nearest-neighbor queries via optimal multi-step retrieval (Alg. 2).

The Seidl–Kriegel multi-step strategy the paper adopts:

1. compute the optimistic (lower-bound) distance between the query and every
   database object;
2. process objects in ascending order of that bound, refining each with the
   exact edit distance and maintaining a max-heap of the ``k`` best;
3. stop as soon as the next object's lower bound exceeds the current ``k``-th
   distance — no unseen object can beat it, because its true distance is at
   least its bound.

The number of refined objects is provably minimal for the given bound
(Seidl & Kriegel, SIGMOD 1998), which makes the accessed-data percentage a
pure measure of the filter's tightness — exactly how the paper compares
BiBranch against histogram filtration.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.features.matrix import FeatureMatrices
from repro.filters.base import LowerBoundFilter
from repro.obs import tracing
from repro.obs.funnel import FilterFunnel, active_sink
from repro.search.ordering import ascending_bounds
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: repro.index builds on the search layer's deps
    from repro.index.base import CandidateIndex

__all__ = ["knn_query"]


def knn_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    k: int,
    flt: LowerBoundFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
    index: Optional["CandidateIndex"] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """The ``k`` database trees closest to ``query`` in edit distance.

    Returns ``(neighbors, stats)`` where ``neighbors`` is a list of
    ``(index, distance)`` sorted by ascending distance (ties broken by
    index).  Distance ties at the ``k``-th position are resolved by keeping
    the first-processed object, like the paper's Algorithm 2 (heap
    replacement only on strictly better keys at capacity).

    The ascending ``(bound, row)`` scan comes from
    :func:`~repro.search.ordering.ascending_bounds` — lazily off
    ``index`` when sound, else over ``matrices``, else row by row — in
    the exact reference order for every source, so answers and refined
    counts are bit-identical across sources.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if flt.size != len(trees):
        raise QueryError(
            f"filter indexed {flt.size} trees but the database has {len(trees)}"
        )
    if k > len(trees):
        raise QueryError(f"k={k} exceeds the dataset size {len(trees)}")
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees))

    with tracing.span(
        "search.knn", dataset_size=len(trees), k=k, filter=flt.name
    ) as root:
        start = time.perf_counter()
        scan = ascending_bounds(flt, query, len(trees), matrices, index)
        stats.filter_seconds = time.perf_counter() - start

        # max-heap of (−distance, −index) so the worst current neighbor is on top
        heap: List[Tuple[float, int]] = []
        start = time.perf_counter()
        refined = 0
        with tracing.span("search.refine") as refine_span:
            for bound_value, row in scan:
                if len(heap) == k and bound_value > -heap[0][0]:
                    break  # optimal stopping: no unseen object can improve the result
                distance = counter.distance(query, trees[row])
                refined += 1
                if len(heap) < k:
                    heapq.heappush(heap, (-distance, -row))
                elif distance < -heap[0][0]:
                    heapq.heapreplace(heap, (-distance, -row))
            refine_span.set(refined=refined, results=len(heap))
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = refined
        stats.results = len(heap)
        root.set(candidates=refined, results=len(heap))

    sink = active_sink()
    if sink is not None or tracing.enabled():
        # the ordering pass bounds rows but prunes none; pruning happens
        # implicitly through the optimal-stopping refinement
        stats.funnel = FilterFunnel(
            kind="knn",
            corpus_size=len(trees),
            stages=[scan.stage(stats.filter_seconds)],
            refined=refined,
            results=len(heap),
            refine_seconds=stats.refine_seconds,
            parameter=float(k),
        )
        if sink is not None:
            sink.add(stats.funnel)

    neighbors = sorted(
        ((-neg_index, -neg_distance) for neg_distance, neg_index in heap),
        key=lambda pair: (pair[1], pair[0]),
    )
    return neighbors, stats
