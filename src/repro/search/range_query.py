"""Range queries via filter-and-refine (§4.3).

A range query returns every database tree within edit distance ``τ`` of the
query.  Filtering discards objects whose lower bound already exceeds ``τ``
(safe: the true distance can only be larger); the survivors are refined with
the exact Zhang–Shasha distance.  Completeness is guaranteed by the
lower-bound property — there are no false negatives by construction, which
the integration tests verify against a sequential scan.

Filtering is one cascade of ``rows → rows`` stages — an optional index
probe, then the filter's ``matrix_funnel_components`` — and every stage is
timed into a span and a :class:`~repro.obs.funnel.FunnelStage` the same
way, whichever candidate source runs it.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.features.matrix import FeatureMatrices, as_indices
from repro.filters.base import LowerBoundFilter
from repro.obs import tracing
from repro.obs.funnel import FilterFunnel, FunnelStage, active_sink
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: repro.index builds on the search layer's deps
    from repro.index.base import CandidateIndex

__all__ = ["check_threshold", "range_query"]


def check_threshold(threshold: float) -> None:
    """Reject a range ``τ`` that is negative, infinite or NaN."""
    if not math.isfinite(threshold) or threshold < 0:
        raise QueryError(
            f"range threshold must be finite and >= 0, got {threshold}"
        )


def _run_stage(
    stages: List[FunnelStage],
    name: str,
    span_name: str,
    rows: Sequence[int],
    stage: Callable[[Sequence[int]], Sequence[int]],
) -> Sequence[int]:
    """One cascade stage over ``rows``: its span and its funnel stage."""
    with tracing.span(span_name) as stage_span:
        start = time.perf_counter()
        survivors = stage(rows)
        seconds = time.perf_counter() - start
        stages.append(FunnelStage(name, len(rows), len(survivors), seconds))
        stage_span.set(
            entered=len(rows),
            survivors=len(survivors),
            refuted=len(rows) - len(survivors),
        )
    return survivors


def range_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    threshold: float,
    flt: LowerBoundFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
    index: Optional["CandidateIndex"] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """All trees with ``EDist(query, tree) ≤ threshold``.

    Parameters
    ----------
    trees:
        The database; must be the collection ``flt`` was fitted on.
    query:
        The query tree ``Tq``.
    threshold:
        The range ``τ`` (≥ 0).
    flt:
        A fitted lower-bound filter.
    counter:
        Optional shared :class:`EditDistanceCounter` (reuses prepared trees
        across queries and accumulates the distance-computation count).
    matrices:
        Optional corpus-level matrix planes over the same trees.  The
        cascade is the same either way — ``rows = refute_rows(signature,
        τ, rows, matrices)`` for each ``flt.matrix_funnel_components()``
        stage — but with planes each stage prescreens with matrix
        kernels, while ``matrices=None`` (the loop run) has every stage
        test row by row: the kernels refuse ``None`` and each filter
        falls back to its per-row loop.  Survivors, stage names and
        funnel counts are identical.
    index:
        Optional :class:`~repro.index.base.CandidateIndex` over the same
        corpus.  Its probe is the cascade's leading stage (reported as
        ``index:<kind>``): the exact BDist ball ``{row : BDist ≤
        factor·τ / c_min}``, with ``c_min`` the counter's
        ``min_operation_cost``.  Answers are unchanged for *any* filter
        and cost model: ``EDist ≤ τ`` implies at most ``τ / c_min`` edit
        operations, so a row outside the ball has ``EDist > τ`` by
        Theorem 3.2 and restricting the cascade to the ball removes only
        rows refinement would reject — pinned by the
        ``search:index-completeness`` oracle.

    Returns
    -------
    (matches, stats):
        ``matches`` — ``(index, distance)`` pairs in index order;
        ``stats`` — filtering/refinement metrics for this query.
    """
    check_threshold(threshold)
    if flt.size != len(trees):
        raise QueryError(
            f"filter indexed {flt.size} trees but the database has {len(trees)}"
        )
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees))

    stages: List[FunnelStage] = []
    with tracing.span(
        "search.range", dataset_size=len(trees), threshold=threshold,
        filter=flt.name,
    ) as root:
        start = time.perf_counter()
        with tracing.span("search.filter"):
            rows: Sequence[int] = range(len(trees))
            if index is not None:
                index.sync()
                radius = index.factor * threshold / counter.costs.min_operation_cost
                rows = _run_stage(
                    stages, f"index:{index.kind}", f"index.{index.kind}", rows,
                    lambda _: index.range_rows(index.pack(query), radius),
                )
                root.set(examined=index.last_examined)
            query_signature = flt.signature(query)
            for name, refute_rows in flt.matrix_funnel_components():
                rows = _run_stage(
                    stages, name, f"filter.{name}", rows,
                    lambda active: refute_rows(
                        query_signature, threshold, active, matrices
                    ),
                )
            survivors = as_indices(rows)
        stats.filter_seconds = time.perf_counter() - start

        matches: List[Tuple[int, float]] = []
        start = time.perf_counter()
        with tracing.span("search.refine", candidates=len(survivors)) as refine_span:
            for row in survivors:
                distance = counter.distance(query, trees[row])
                if distance <= threshold:
                    matches.append((row, distance))
            refine_span.set(results=len(matches))
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = len(survivors)
        stats.results = len(matches)
        root.set(candidates=len(survivors), results=len(matches))

    sink = active_sink()
    if sink is not None or tracing.enabled():
        stats.funnel = FilterFunnel(
            kind="range",
            corpus_size=len(trees),
            stages=stages,
            refined=len(survivors),
            results=len(matches),
            refine_seconds=stats.refine_seconds,
            parameter=threshold,
        )
        if sink is not None:
            sink.add(stats.funnel)
    return matches, stats
