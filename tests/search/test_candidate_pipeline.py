"""One candidate pipeline: every candidate source runs the same cascade.

The range filter is one cascade of ``rows → rows`` stages whichever way
candidates are generated — row by row (``matrices=None``), over matrix
planes, or behind a leading index-probe stage — so answers, refined
counts and funnel stages must agree across sources.  Also pinned here:
non-finite thresholds are rejected with a typed error on every path, and
the index ball stays complete under weighted edit costs.
"""

import math

import pytest

from repro.datasets import SyntheticSpec, generate_dataset, parse_spec
from repro.editdist import weighted_costs
from repro.exceptions import QueryError
from repro.filters import (
    BinaryBranchFilter,
    BranchCountFilter,
    CostScaledFilter,
    HistogramFilter,
    MaxCompositeFilter,
    SizeDifferenceFilter,
)
from repro.obs.funnel import collect_funnels
from repro.search import range_query
from repro.search.database import TreeDatabase
from repro.service.engine import TreeSearchService
from repro.sharding import ShardedTreeService
from repro.trees import parse_bracket

SPEC = SyntheticSpec(
    size_mean=10, size_stddev=3, fanout_mean=3, fanout_stddev=1,
    label_count=6, decay=0.1,
)
CORPUS = generate_dataset(SPEC, 80, seed=4)
QUERIES = generate_dataset(SPEC, 4, seed=5)

#: families whose cascade refutes every row outside the BDist ball, so an
#: index probe in front of it changes no count; the histogram cascade
#: keeps some of those rows and the probe only ever removes work
BALL_SUBSUMED = {"BiBranch", "BranchCount", "Composite"}

FAMILIES = {
    "BiBranch": BinaryBranchFilter,
    "BranchCount": BranchCountFilter,
    "Histogram": HistogramFilter,
    "Composite": lambda: MaxCompositeFilter(
        [BranchCountFilter(), SizeDifferenceFilter(), HistogramFilter()]
    ),
}


def _observed(database, query, threshold, matrices, index):
    with collect_funnels():
        matches, stats = range_query(
            database.trees, query, threshold, database.filter,
            database.counter, matrices=matrices, index=index,
        )
    stages = [(stage.name, stage.survivors) for stage in stats.funnel.stages]
    return matches, stats.candidates, stages


@pytest.mark.parametrize("source", ["loop", "matrices", "matrices+vptree"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_pipeline_identical_funnels(family, source):
    database = TreeDatabase(list(CORPUS), flt=FAMILIES[family]())
    matrices = None if source == "loop" else database.matrices()
    index = database.candidate_index("vptree") if "vptree" in source else None
    for query in QUERIES:
        for threshold in (1.0, 3.0, 6.0):
            reference = _observed(database, query, threshold, None, None)
            matches, candidates, stages = _observed(
                database, query, threshold, matrices, index
            )
            assert matches == reference[0]
            if index is not None:
                name, _ = stages.pop(0)
                assert name == "index:vptree"
            if index is None or family in BALL_SUBSUMED:
                assert candidates == reference[1]
                assert stages == reference[2]
            else:
                assert candidates <= reference[1]
                assert [name for name, _ in stages] == [
                    name for name, _ in reference[2]
                ]
                assert all(
                    mine <= theirs
                    for (_, mine), (_, theirs) in zip(stages, reference[2])
                )
            # the unobserved run takes the same cascade
            plain, stats = range_query(
                database.trees, query, threshold, database.filter,
                database.counter, matrices=matrices, index=index,
            )
            assert plain == matches
            assert stats.candidates == candidates
            assert stats.funnel is None


@pytest.mark.parametrize("threshold", [math.inf, math.nan, -1.0])
class TestNonFiniteThreshold:
    query = parse_bracket("a(b,c)")
    trees = [parse_bracket(text) for text in ("a(b,c)", "a(b,d)", "x(y)")]

    def test_loop(self, threshold):
        flt = BinaryBranchFilter().fit(self.trees)
        with pytest.raises(QueryError, match="finite"):
            range_query(self.trees, self.query, threshold, flt)

    def test_vectorized(self, threshold):
        database = TreeDatabase(self.trees)
        with pytest.raises(QueryError, match="finite"):
            range_query(
                database.trees, self.query, threshold, database.filter,
                matrices=database.matrices(),
            )

    def test_service(self, threshold):
        with TreeSearchService(TreeDatabase(self.trees)) as service:
            with pytest.raises(QueryError, match="finite"):
                service.range(self.query, threshold)

    def test_sharded(self, threshold):
        with ShardedTreeService(self.trees, shards=2, max_workers=1) as service:
            with pytest.raises(QueryError, match="finite"):
                service.range(self.query, threshold)


@pytest.mark.parametrize("kind", ["vptree", "ifi"])
def test_index_ball_is_complete_under_weighted_costs(kind):
    """The ball radius scales by ``1 / min_operation_cost``: with cheap
    operations a tree within τ can lie beyond ``factor·τ`` in BDist."""
    spec = parse_spec("N{3,0.5}N{14,2}L5D0.1")
    costs = weighted_costs(0.5, 0.5, 0.5)
    database = TreeDatabase(
        generate_dataset(spec, 150, seed=2),
        flt=CostScaledFilter(BinaryBranchFilter(), costs),
        costs=costs,
    )
    index = database.candidate_index(kind)
    found = 0
    for query in generate_dataset(spec, 10, seed=9):
        expected, _ = database.sequential_range_query(query, 3.0)
        matches, _ = range_query(
            database.trees, query, 3.0, database.filter, database.counter,
            matrices=database.matrices(), index=index,
        )
        assert matches == expected
        found += len(expected)
    assert found > 0  # the workload must exercise a weighted-only answer
