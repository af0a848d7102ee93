"""Per-layer spans for the traced run, recorded from outside the program.

The benchmark never edits the library.  For a traced run it interposes
timing wrappers on the public functions each layer exposes (a module
attribute or an instance attribute), records one span per call, and puts
every original back afterwards.  Spans nest: a span's *self* time is its
duration minus the time covered by the spans opened inside it, so the
self times of one read add up to the read's traced wall time and the
remainder is the orchestration residual.

Counts ride along with the spans (rows entered into a filter stage, DP
cells of a Zhang–Shasha pair), so ratios are measured where the work
happens.  Everything is kept in memory and summarised at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.editdist import zhang_shasha
from repro.service import engine

perf_counter = time.perf_counter


def keyroot_cells(prepared: Any) -> int:
    """``S(t) = Σ_{kr ∈ keyroots} (kr − lml[kr] + 1)`` of a prepared tree.

    The forest-distance DP of one Zhang–Shasha pair fills exactly
    ``S(a) · S(b)`` cells (one per keyroot-pair sub-forest cell), which
    makes the kernel's work an exact count independent of timing.
    """
    lml = prepared.lml
    return sum(kr - lml[kr] + 1 for kr in prepared.keyroots)


class SpanRecorder:
    """Nested spans aggregated per ``(phase, name)``: count, total, self."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.count: Dict[Tuple[str, str], int] = defaultdict(int)
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.work: Dict[Tuple[str, str], int] = defaultdict(int)
        self._children: List[float] = []
        self._restore: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self._children.append(0.0)

    def end(self, name: str, duration: float, work: int = 0) -> None:
        child = self._children.pop()
        if self._children:
            self._children[-1] += duration
        key = (self.phase, name)
        self.count[key] += 1
        self.total[key] += duration
        self.self_time[key] += duration - child
        self.work[key] += work

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        work: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with one span per call while the recorder is enabled."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            self.begin()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.end(name, duration, work(*args) if work else 0)

        return traced

    # ------------------------------------------------------------------
    # Interposition
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        had_own = attribute in vars(owner)
        self._restore.append((owner, attribute, getattr(owner, attribute), had_own))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every interposed attribute back (idempotent)."""
        while self._restore:
            owner, attribute, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def instrument_process(self) -> None:
        """Layers reached through module globals: editdist and the cache key."""
        self.patch(
            zhang_shasha,
            "tree_edit_distance",
            self.wrap(
                "editdist.pair",
                zhang_shasha.tree_edit_distance,
                work=lambda a, b, *rest: keyroot_cells(a) * keyroot_cells(b),
            ),
        )
        self.patch(
            zhang_shasha,
            "prepare_tree",
            self.wrap("editdist.prepare", zhang_shasha.prepare_tree),
        )
        self.patch(engine, "to_bracket", self.wrap("trees.key", engine.to_bracket))

    def instrument_filter(self, flt: Any) -> None:
        """Query signatures and every vectorized cascade stage of ``flt``."""
        self.patch(flt, "signature", self.wrap("filters.signature", flt.signature))
        components = flt.matrix_funnel_components

        def traced_components() -> List[Tuple[str, Callable[..., Any]]]:
            return [
                (
                    name,
                    self.wrap(
                        "filters.cascade",
                        refute_rows,
                        work=lambda query, threshold, rows, matrices: len(rows),
                    ),
                )
                for name, refute_rows in components()
            ]

        self.patch(flt, "matrix_funnel_components", traced_components)

    def instrument_planes(self, matrices: Any, database: Any) -> None:
        """Matrix-plane lookups; a lookup after a write is the catch-up sync."""
        branch_plane = matrices.branch_plane
        sync = self.wrap("features.sync", branch_plane)
        seen = [database.generation]

        def traced_branch_plane(*args: Any, **kwargs: Any) -> Any:
            stale = database.generation != seen[0]
            seen[0] = database.generation
            return (sync if stale else branch_plane)(*args, **kwargs)

        self.patch(matrices, "branch_plane", traced_branch_plane)

    # ------------------------------------------------------------------
    # Summaries of the spans recorded during reads
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.count[("read", name)]

    def seconds(self, name: str) -> float:
        return self.total[("read", name)]

    def cells(self, name: str) -> int:
        return self.work[("read", name)]

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.seconds(name) / calls * 1e6 if calls else 0.0

    def layer_self_seconds(self) -> float:
        """Σ self time of every layer span inside reads (not the read's own)."""
        return sum(
            seconds
            for (phase, name), seconds in self.self_time.items()
            if phase == "read" and name != "read"
        )
