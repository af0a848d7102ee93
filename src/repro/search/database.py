"""TreeDatabase — the user-facing entry point for similarity search.

Bundles a tree collection, a lower-bound filter (BiBranch by default), the
inverted file index, and a shared edit-distance counter so prepared trees
are reused across queries.

Examples
--------
>>> from repro.trees import parse_bracket
>>> db = TreeDatabase([parse_bracket("a(b,c)"), parse_bracket("a(b,d)"),
...                    parse_bracket("x(y)")])
>>> matches, _ = db.range_query(parse_bracket("a(b,c)"), 1)
>>> [index for index, _ in matches]
[0, 1]
>>> neighbors, _ = db.knn(parse_bracket("a(b,c)"), k=1)
>>> neighbors[0]
(0, 0.0)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.core.inverted_file import InvertedFileIndex
from repro.editdist.costs import UNIT_COSTS, CostModel
from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import InvalidParameterError
from repro.features.store import FeatureStore
from repro.filters.base import LowerBoundFilter
from repro.filters.binary_branch import BinaryBranchFilter
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.search.sequential import sequential_knn_query, sequential_range_query
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.matrix import FeatureMatrices
    from repro.index.base import CandidateIndex

__all__ = ["TreeDatabase"]


class TreeDatabase:
    """A searchable collection of rooted ordered labeled trees.

    Parameters
    ----------
    trees:
        The database content (kept by reference; do not mutate afterwards).
    flt:
        The lower-bound filter; default is the paper's positional
        :class:`~repro.filters.binary_branch.BinaryBranchFilter`.  It is
        fitted here if not already fitted — from the shared feature plane
        when the filter supports it, so all signatures come out of one
        extraction pass per tree.
    costs:
        Edit-operation cost model for the refinement distance.
    build_index:
        Also build the :class:`InvertedFileIndex` (Algorithm 1); needed by
        :meth:`inverted_index` and the join algorithm.
    feature_store:
        A prebuilt :class:`~repro.features.store.FeatureStore` covering
        exactly ``trees`` (e.g. restored from disk by
        :func:`repro.storage.load_database`).  When given, fitting the
        filter performs **no** tree traversals.
    """

    def __init__(
        self,
        trees: Iterable[TreeNode],
        flt: Optional[LowerBoundFilter] = None,
        costs: CostModel = UNIT_COSTS,
        build_index: bool = False,
        feature_store: Optional[FeatureStore] = None,
    ) -> None:
        self.trees: List[TreeNode] = list(trees)
        self.counter = EditDistanceCounter(costs)
        self.filter: LowerBoundFilter = flt if flt is not None else BinaryBranchFilter()
        self._features: Optional[FeatureStore] = None
        if feature_store is not None:
            if len(feature_store) != len(self.trees):
                raise InvalidParameterError(
                    f"feature store covers {len(feature_store)} trees, "
                    f"database has {len(self.trees)}"
                )
            self._features = feature_store
        if self.filter.size != len(self.trees):
            self._fit_filter()
        self._mutations = 0
        self._index: Optional[InvertedFileIndex] = None
        self._profiles = None
        self._candidate_indexes: dict = {}
        if build_index:
            self._build_index()

    def _store_q_levels(self) -> Tuple[int, ...]:
        return self.filter.required_q_levels() or (getattr(self.filter, "q", 2),)

    def _store_usable(self) -> bool:
        """Whether the filter can be served from the feature plane."""
        if not self.filter.supports_store:
            return False
        if self._features is None:
            return True  # a compatible store can still be built
        return all(q in self._features.q_levels for q in self._store_q_levels())

    def _fit_filter(self) -> None:
        if self._store_usable():
            if self._features is None:
                self._features = FeatureStore(self._store_q_levels()).fit(self.trees)
            self.filter.fit_from_store(self._features)
        else:
            self.filter.fit(self.trees)

    def _build_index(self) -> None:
        q = getattr(self.filter, "q", 2)
        index = InvertedFileIndex(q=q)
        index.add_trees(self.trees)
        self._index = index

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, tree: TreeNode) -> int:
        """Insert one tree; returns its index.

        One extraction pass updates the feature plane (O(|tree|)), the
        filter signature is derived from it (or computed directly for
        store-less filters), the inverted index — if already built — is
        extended in place, and cached positional profiles are invalidated.
        """
        index = len(self.trees)
        self.trees.append(tree)
        if self._features is not None and self._store_usable():
            self._features.add(tree)
            self.filter.add_from_store(self._features, index)
        else:
            if self._features is not None:
                self._features.add(tree)
            self.filter.add(tree)
        if self._index is not None:
            self._index.add_tree(index, tree)
        self._mutations += 1
        self._profiles = None
        return index

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.trees)

    def __getitem__(self, index: int) -> TreeNode:
        return self.trees[index]

    @property
    def features(self) -> Optional[FeatureStore]:
        """The shared feature plane, if one backs this database."""
        return self._features

    def matrices(self) -> Optional["FeatureMatrices"]:
        """Corpus-level matrix planes for vectorized candidate generation.

        ``None`` when no feature store backs this database (prefitted
        store-less filters) — callers then stay on the per-candidate
        reference path.  The bundle re-syncs itself against the store, so
        it remains valid across :meth:`add`.
        """
        if self._features is None:
            return None
        return self._features.matrices()

    @property
    def generation(self) -> int:
        """Mutation counter for cache-freshness decisions.

        Backed by the feature store's generation when one exists (so
        out-of-band ``store.add`` calls are visible too), otherwise by a
        local per-:meth:`add` counter.
        """
        if self._features is not None:
            return self._features.generation
        return self._mutations

    def candidate_index(self, kind: str) -> "CandidateIndex":
        """The sublinear candidate index of the given kind (built lazily).

        Requires a feature store (indexes read packed vectors from the
        plane); built once per kind and cached.  The index stays usable
        across :meth:`add` — the query paths re-sync it against the store
        before every probe.
        """
        index = self._candidate_indexes.get(kind)
        if index is None:
            if self._features is None:
                raise InvalidParameterError(
                    f"candidate index {kind!r} needs a feature store; this "
                    "database was built from a prefitted store-less filter"
                )
            from repro.index import build_candidate_index

            q = getattr(self.filter, "q", None)
            if q is not None and q not in self._features.q_levels:
                q = None  # index at the store's default level instead
            index = build_candidate_index(kind, self._features, q)
            self._candidate_indexes[kind] = index
        return index

    def resolve_candidate_source(
        self, source: str
    ) -> Tuple[Optional["FeatureMatrices"], Optional["CandidateIndex"]]:
        """The ``(matrices, index)`` a ``candidate_source`` searches with.

        ``"loop"`` → ``(None, None)``; ``"auto"`` → the matrix planes when
        a feature store backs the database (else none); ``"vectorized"``
        → the planes; ``"vptree"`` / ``"ifi"`` → the planes plus that
        :meth:`candidate_index`, built here so a first query does not pay
        for it.  Raises :class:`InvalidParameterError` for an unknown
        source, and for any source but ``auto``/``loop`` on a database
        without a feature store.
        """
        from repro.index import CANDIDATE_SOURCES, INDEX_KINDS

        if source not in CANDIDATE_SOURCES:
            raise InvalidParameterError(
                f"candidate_source must be one of {CANDIDATE_SOURCES}, "
                f"got {source!r}"
            )
        if source == "loop":
            return None, None
        matrices = self.matrices()
        if matrices is None and source != "auto":
            raise InvalidParameterError(
                f"candidate_source={source!r} requires a database backed by "
                "a feature store (store-less prefitted filters have no "
                "matrix planes)"
            )
        index = self.candidate_index(source) if source in INDEX_KINDS else None
        return matrices, index

    @property
    def inverted_index(self) -> InvertedFileIndex:
        """The inverted file index (built lazily on first access)."""
        if self._index is None:
            self._build_index()
        assert self._index is not None
        return self._index

    @property
    def distance_computations(self) -> int:
        """Exact edit-distance computations performed so far."""
        return self.counter.calls

    def edit_distance(self, t1: TreeNode, t2: TreeNode) -> float:
        """Exact edit distance under the database's cost model."""
        return self.counter.distance(t1, t2)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(
        self, query: TreeNode, threshold: float
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Filter-and-refine range query (see :func:`range_query`)."""
        return range_query(self.trees, query, threshold, self.filter, self.counter)

    def indexed_range_query(
        self, query: TreeNode, threshold: float
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Range query via inverted-file candidate generation.

        Uses the :class:`InvertedFileIndex` (built lazily) to read only the
        postings of the query's own branches; see
        :func:`repro.search.index_scan.indexed_range_query`.
        """
        from repro.search.index_scan import indexed_range_query

        index = self.inverted_index
        if self._profiles is None:
            self._profiles = index.profiles()
        return indexed_range_query(
            self.trees, index, query, threshold, self.counter,
            profiles=self._profiles,
        )

    def knn(
        self, query: TreeNode, k: int
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Filter-and-refine k-NN query (Algorithm 2)."""
        return knn_query(self.trees, query, k, self.filter, self.counter)

    def sequential_range_query(
        self, query: TreeNode, threshold: float
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Brute-force range query (baseline / ground truth)."""
        return sequential_range_query(self.trees, query, threshold, self.counter)

    def sequential_knn(
        self, query: TreeNode, k: int
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Brute-force k-NN (baseline / ground truth)."""
        return sequential_knn_query(self.trees, query, k, self.counter)

    def __repr__(self) -> str:
        return (
            f"TreeDatabase({len(self.trees)} trees, "
            f"filter={self.filter.name!r})"
        )
