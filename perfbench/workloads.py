"""The workloads: inputs, set-up, the closed-loop stream, answer checks.

Every workload is driven by one closed-loop client (the next op starts
when the previous one returned), in one process at a time.  The program
only ever sees bracket text generated from ``repro.datasets.synthetic``
with the ROADMAP re-anchor spec; the inputs are a pure function of
``--seed``.

* ``filter-scan`` — 10,000 trees, ``TreeSearchService(cache_size=0)``,
  range τ=1.5 with 100 query trees of another realization of the spec,
  issued in rounds (each round every query once, in a seeded order).
  No corpus tree is within τ of them, so the filter cascade over the
  10k matrix rows, the query signature and the cache key are the whole
  read.  Each query's latency is the best of its repeats.  The traced
  run adds the refine probe (range τ=3 at 2,000 trees, ~97 % refine)
  and the sharded k-NN probe (``ShardedTreeService(shards=2)``, k=3).
* ``churn-cached`` — 10,000 trees behind a 128-entry result cache; a
  fixed segment of ops, reads range τ=1.5 (70 % fresh ``mutate_tree``
  queries, 30 % a 32-query hot set) with every 10th op an add of a
  fresh tree.  The cache is full before timing starts, so every timed
  add pays the steady-state re-signing of 128 cached queries.  The segment is replayed from that one state in forked
  children, in rounds, and each op's latency is the best of its repeats.

See ``perfbench/README.md`` for why each was chosen, which layer metric
should move which end-to-end metric, why repeats are reduced to their
best, and why range τ=3 and sharded k-NN are probes, not workloads.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy

from repro import TreeDatabase, TreeSearchService, parse_bracket, to_bracket
from repro.datasets.synthetic import generate_dataset, mutate_tree, parse_spec
from repro.editdist.zhang_shasha import tree_edit_distance
from repro.index import build_candidate_index
from repro.obs import tracing
from repro.search.knn import knn_query
from repro.search.sequential import sequential_range_query
from repro.sharding import ShardedTreeService

from fresh import halves, run_forked, run_fresh
from layers import SpanRecorder

perf_counter = time.perf_counter

SPEC = "N{4,0.5}N{50,2}L8D0.05"
#: the corpus is one fixed realization of SPEC, like a fixed dataset: the
#: per-pair refine cost depends on tree shape, which differs between
#: realizations by more than any bound could absorb.  ``--seed`` picks
#: the queries and the trees to add.
CORPUS_SEED = 0
#: range threshold of both 10k workloads
TAU = 1.5
SHARDS = 2
KNN_K = 3
#: churn mix: every ADD_EVERY-th op is an add; reads hit the hot set with
#: HOT_SHARE probability, otherwise they are fresh (never-seen) queries
ADD_EVERY = 10
HOT_SET = 32
HOT_SHARE = 0.3
#: an eighth of the service's default 1,024: every add re-signs each
#: cached query, so at 1,024 the adds were 80 % of a round and a run fit
#: only ~9 rounds, too few repeats to hold the host's slow spells
RESULT_CACHE = 128
#: filter-scan reads SCAN_QUERIES trees of their own realization of SPEC
#: in whole rounds, at least MIN_ROUNDS of them
SCAN_QUERIES = 100
MIN_ROUNDS = 3
#: filter-scan times SCAN_ADDS adds in a fork after every
#: SCAN_ADD_EVERY-th round
SCAN_ADDS = 100
SCAN_ADD_EVERY = 5
#: churn hits and misses each checked per run
CHURN_CHECK_SAMPLE = 40
#: ops in the churn segment that every timed round replays, and ops of
#: the stream a traced churn run drives once (the segment is their start)
CHURN_OPS = 100
CHURN_TRACED_OPS = 400
#: the refine probe of filter-scan's traced run: range RANGE_TAU over a
#: fixed set of RANGE_QUERIES trees of a RANGE_TREES-tree corpus
RANGE_TREES = 2000
RANGE_QUERIES = 100
RANGE_TAU = 3.0
#: its sharded k-NN probe takes every KNN_PROBE_EVERY-th traced query
KNN_PROBE_EVERY = 3

#: corpus trees of both workloads
TREES = 10000
WORKLOADS = ("filter-scan", "churn-cached")


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Inputs (generated once, in the parent, from the seed)
# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Bracket-text corpus and op stream; a pure function of the arguments."""
    spec = parse_spec(SPEC)
    trees = generate_dataset(spec, TREES, seed=CORPUS_SEED)
    rng = random.Random(seed)
    labels = spec.labels

    def fresh(rng: random.Random) -> str:
        return to_bracket(mutate_tree(trees[rng.randrange(TREES)], spec.decay, labels, rng))

    inputs: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "corpus": [to_bracket(tree) for tree in trees],
    }
    if workload == "churn-cached":
        # the timed segment's reads are one fixed set, like the corpus:
        # which fresh queries have a candidate, and how costly their pairs
        # are, differs between drawn sets by more than a bound could
        # absorb.  --seed orders them and draws the adds and the warm-up.
        fixed = random.Random(CORPUS_SEED)
        hot = fixed.sample(range(TREES), HOT_SET)
        inputs["hot"] = [inputs["corpus"][index] for index in hot]
        reads = CHURN_OPS - CHURN_OPS // ADD_EVERY
        hot_reads = round(reads * HOT_SHARE)
        segment = [("hot", fixed.randrange(HOT_SET)) for _ in range(hot_reads)]
        segment += [("miss", fresh(fixed)) for _ in range(reads - hot_reads)]
        rng.shuffle(segment)
        # misses that fill the cache to its bound before timing starts
        inputs["warm"] = [fresh(rng) for _ in range(RESULT_CACHE)]
        ops: List[Tuple[str, Any]] = []
        for position in range(CHURN_TRACED_OPS):
            if position % ADD_EVERY == ADD_EVERY - 1:
                ops.append(("add", fresh(rng)))
            elif segment:
                ops.append(segment.pop())
            elif rng.random() < HOT_SHARE:
                ops.append(("hot", rng.randrange(HOT_SET)))
            else:
                ops.append(("miss", fresh(rng)))
        inputs["ops"] = ops
    else:
        # trees of another realization: no corpus tree lies within TAU
        queries = generate_dataset(spec, SCAN_QUERIES, seed=rng.randrange(1, 2**31))
        inputs["queries"] = [to_bracket(tree) for tree in queries]
        inputs["adds"] = [fresh(rng) for _ in range(SCAN_ADDS)]
    return inputs


# ----------------------------------------------------------------------
# Set-up: bracket text -> a service ready to answer
# ----------------------------------------------------------------------
def setup(workload: str, corpus: Sequence[str]) -> Tuple[Any, Dict[str, float]]:
    """Build the workload's service; returns it and the timed breakdown.

    Only churn-cached keeps a result cache; every other read is a miss.
    """
    start = perf_counter()
    trees = [parse_bracket(text) for text in corpus]
    parsed = perf_counter()
    database = TreeDatabase(trees)
    built = perf_counter()
    database.matrices().branch_plane(database.filter.q)
    planes = perf_counter()
    cache_size = RESULT_CACHE if workload == "churn-cached" else 0
    service = TreeSearchService(database, cache_size=cache_size)
    ready = perf_counter()
    return service, {
        "setup_s": ready - start,
        "parse_s": parsed - start,
        "build_s": built - parsed,
        "matrix_s": planes - built,
    }


def setup_sample(workload: str, corpus: Sequence[str]) -> Dict[str, float]:
    """One set-up in this (fresh) process, torn down again."""
    gc.collect()
    service, timings = setup(workload, corpus)
    service.close()
    return timings


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Record:
    """One op of the stream as the client saw it."""

    __slots__ = (
        "kind", "payload", "text", "seconds", "answer", "error", "hit", "size",
        "traced",
    )

    def __init__(self, kind: str, payload: Any, text: str) -> None:
        self.kind = kind
        self.payload = payload
        self.text = text
        self.seconds = 0.0
        self.answer: Any = None
        self.error: Optional[str] = None
        self.hit = False
        self.size = 0
        self.traced = False


def drive(
    ops: Sequence[Tuple[str, str]],
    execute: Callable[[Record], Any],
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[List[Record], float]:
    """Run ``(kind, text)`` ops closed-loop, one after the other.

    Each op's payload is a tree freshly parsed from its text, as a client
    sends it, before its latency clock starts.

    With a ``recorder``, half the ops run with spans on, in the pattern
    untraced, traced, traced, untraced, ...: traced and untraced ops see
    the same machine state, and in each pair of ops either comes first
    as often as the other.  The difference is the tracing overhead.
    """
    records: List[Record] = []
    start = perf_counter()
    for position, (kind, text) in enumerate(ops):
        record = Record(kind, parse_bracket(text), text)
        record.traced = recorder is not None and (position + position // 2) % 2 == 1
        if record.traced:
            recorder.phase = kind
            recorder.enabled = True
            recorder.begin()
        began = perf_counter()
        try:
            record.answer = execute(record)
        except Exception as error:  # a failed op is counted, the stream goes on
            record.error = f"{type(error).__name__}: {error}"
        record.seconds = perf_counter() - began
        if record.traced:
            recorder.end(kind, record.seconds)
            recorder.enabled = False
        records.append(record)
    return records, perf_counter() - start


class Rounds:
    """Range reads over a query list: per query its best latency and
    first answer, plus the failed reads (raised, or an answer other than
    the query's first), the reads, rounds and wall time, and the records
    when the reads were traced."""

    def __init__(self, queries: int) -> None:
        self.best = [float("inf")] * queries
        self.first: List[Any] = [None] * queries
        self.failed = self.reads = self.rounds = 0
        self.wall = 0.0
        self.records: List[Record] = []

    def add(self, index: int, seconds: float, answer: Any) -> None:
        self.reads += 1
        if answer is None:
            self.failed += 1
        elif self.first[index] is None:
            self.first[index], self.best[index] = answer[0], seconds
        elif answer[0] != self.first[index]:
            self.failed += 1
        else:
            self.best[index] = min(self.best[index], seconds)


def best_of_rounds(
    texts: Sequence[str],
    execute: Callable[[Any], Any],
    seconds: float,
    rng: random.Random,
    after_round: Callable[[int], None],
) -> Rounds:
    """Whole rounds over ``texts`` until ``seconds`` have passed.

    A round issues every query once, in an order drawn from ``rng``, each
    as a freshly parsed tree (parsed before its latency clock starts), so
    the repeats of one query are the same work.  At least ``MIN_ROUNDS``
    rounds run and only whole rounds, so every query has the same number
    of repeats.  ``after_round(rounds done)`` runs after each round, off
    the read clocks.  Only per-query summaries are kept, so memory does
    not grow with the number of rounds.
    """
    rounds = Rounds(len(texts))
    start = perf_counter()
    deadline = start + seconds
    while rounds.rounds < MIN_ROUNDS or perf_counter() < deadline:
        for index in rng.sample(range(len(texts)), len(texts)):
            query = parse_bracket(texts[index])
            began = perf_counter()
            try:
                answer = execute(query)
            except Exception:  # counted as failed, the rounds go on
                answer = None
            rounds.add(index, perf_counter() - began, answer)
        rounds.rounds += 1
        after_round(rounds.rounds)
    rounds.wall = perf_counter() - start
    return rounds


def tail(latencies: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with ten samples beyond it: ``(value, pct)``."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def summarize(latencies: Sequence[float], qps: float, add_ms: float) -> Dict[str, Any]:
    """End-to-end figures from read latencies, throughput and add cost."""
    tail_value, tail_pct = tail(latencies)
    return {
        "qps": qps,
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_value * 1e3,
        "tail_pct": tail_pct,
        "add_ms": add_ms,
    }


# ----------------------------------------------------------------------
# Workload runs (executed in a fresh child process)
# ----------------------------------------------------------------------
def run(inputs: Dict[str, Any], seconds: int, trace: bool) -> Dict[str, Any]:
    """Set up, warm, drive, check; returns timings, checks and layer data."""
    workload = inputs["workload"]
    gc.collect()
    service, timings = setup(workload, inputs["corpus"])
    try:
        runner = {"filter-scan": _run_scan, "churn-cached": _run_churn}[workload]
        result = runner(service, inputs, seconds, trace)
    finally:
        service.close()
    result["setup"] = timings
    return result


def _settle() -> None:
    """Collect set-up garbage and keep it out of later collections."""
    gc.collect()
    gc.freeze()


def _failed(records: Sequence[Record]) -> int:
    return sum(1 for record in records if record.error is not None)


# -------------------------------- filter-scan -------------------------
def _run_scan(service, inputs, seconds, trace):
    """Rounds over the seed's query set; each query's latency is its best.

    Host speed swings only ever add time, and the best of a query's
    repeats carries the least of them.  So the read figures are taken
    over the per-query best latencies: ``p50_ms`` and ``tail_ms`` are
    their median and tail, and ``qps`` is the closed-loop rate they give,
    queries / Σ best.  The traced run issues each query twice in a row,
    once traced and once untraced, in one seeded round, so its counts
    repeat, and then runs the refine and sharded k-NN probes.
    """
    texts = inputs["queries"]
    for text in texts:
        service.range(parse_bracket(text), TAU)
    recorder = _instrument(service.database) if trace else None
    # the adds repeat in forks through the whole run, so each add's best
    # samples it (this pure-Python path ran at ~0.25 or ~0.42 ms, switching
    # every few seconds), and the reads always see the same corpus
    adds = AddPasses(service, [parse_bracket(text) for text in inputs["adds"]])

    def after_round(done: int) -> None:
        if done % SCAN_ADD_EVERY == 0:
            adds.run()

    _settle()
    reads = _read_rounds(
        service, texts, TAU, seconds, recorder, random.Random(inputs["seed"]), after_round
    )
    if adds.passes == 0:
        adds.run()
    best = [seconds for seconds in reads.best if seconds != float("inf")]
    # adds append trees of different sizes, so their mean, not the fastest
    result = summarize(best, len(best) / sum(best), statistics.mean(adds.best) * 1e3)
    result.update(
        adds=len(adds.best) * adds.passes,
        peak_rss_mb=peak_rss_mb(),
        reads=reads.reads,
        stream=f"{reads.rounds} round(s) of {len(texts)} queries"
        + (", each once untraced and once traced," if trace else "")
        + f" in {reads.wall:.1f} s ({reads.reads / reads.wall:.1f} reads per wall "
        f"second), {adds.passes} pass(es) of {len(adds.best)} adds in forks; "
        "read and add figures are per-query and per-add bests",
    )

    # checks, outside the timed region, in two fresh processes: each
    # query's first answer holds exactly the corpus rows within TAU
    # (every repeat had to equal it)
    answered = [(text, answer) for text, answer in zip(texts, reads.first) if answer is not None]
    parts = run_fresh(
        [(check_scan_part, (inputs["corpus"], share)) for share in halves(answered)]
    )
    result.update(
        attempted=reads.reads + len(adds.best) * adds.passes,
        failed=reads.failed + adds.failed + sum(parts),
        checks="every add at the next row index; "
        "every repeat equal to its query's first answer; the "
        f"{len(answered)} first answers equal to the rows within tau, found "
        "with tree_edit_distance on every row a size/label bound cannot exclude",
    )
    if trace:
        layers = _search_layers(recorder, reads.records)
        layers.update(
            _index_layers(service.database, [parse_bracket(t) for t in texts], TAU)
        )
        probe = _range_probe(inputs["seed"])
        layers.update(probe.pop("layers"))
        result["layers"] = layers
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["checks"] += "; " + probe["checks"]
    return result


class AddPasses:
    """Passes that add ``trees`` to ``service``, each in a fork of it.

    Every pass starts from the same state, so an add is the same work in
    every pass; ``best`` holds each add's fastest time.  An add that
    raises fails its pass and the run; one that returns another index
    than the next row counts in ``failed``.
    """

    def __init__(self, service: TreeSearchService, trees: Sequence[Any]) -> None:
        self.service = service
        self.trees = trees
        self.best = [float("inf")] * len(trees)
        self.passes = self.failed = 0

    def _add_all(self) -> List[Tuple[float, int]]:
        timed = []
        for tree in self.trees:
            began = perf_counter()
            index = self.service.add(tree)
            timed.append((perf_counter() - began, index))
        return timed

    def run(self) -> None:
        first = len(self.service.database)
        for position, (seconds, index) in enumerate(run_forked(self._add_all)):
            self.best[position] = min(self.best[position], seconds)
            self.failed += index != first + position
        self.passes += 1


def _read_rounds(service, texts, tau, seconds, recorder, rng, after_round) -> Rounds:
    """Range reads over ``texts``: best-of rounds, or one traced round."""
    if recorder is None:
        return best_of_rounds(
            texts, lambda query: service.range(query, tau), seconds, rng, after_round
        )
    order = rng.sample(range(len(texts)), len(texts))
    try:
        records, wall = drive(
            [("read", texts[index]) for index in order for _ in range(2)],
            lambda record: service.range(record.payload, tau), recorder,
        )
    finally:
        recorder.restore()
    reads = Rounds(len(texts))
    for index, record in zip((i for i in order for _ in range(2)), records):
        reads.add(index, record.seconds, None if record.error else record.answer)
    reads.rounds, reads.wall, reads.records = 1, wall, records
    return reads


def _label_counts(trees) -> "numpy.ndarray":
    """One row per tree: how often each label occurs in it."""
    columns: Dict[Any, int] = {}
    rows = []
    for tree in trees:
        counts = Counter(node.label for node in tree.iter_preorder())
        for label in counts:
            columns.setdefault(label, len(columns))
        rows.append(counts)
    matrix = numpy.zeros((len(rows), len(columns)))
    for row, counts in enumerate(rows):
        for label, count in counts.items():
            matrix[row, columns[label]] = count
    return matrix


def check_scan_part(corpus, queries):
    """One process's share of the filter-scan answer checks.

    ``queries`` holds ``(text, answer)``.  Under unit costs an
    edit changes the node count by at most 1 and the label multiset by at
    most 2 (L1), so TED ≥ max(|Δ size|, L1 / 2).  Every row that bound
    does not put beyond TAU gets ``tree_edit_distance``; the rows within
    TAU must be the answer.  Returns how many answers failed.
    """
    trees = [parse_bracket(text) for text in corpus]
    parsed = [parse_bracket(text) for text, _ in queries]
    counts = _label_counts(trees + parsed)
    sizes = counts.sum(axis=1)
    rows, sizes_of_rows = counts[: len(trees)], sizes[: len(trees)]
    failed = 0
    for offset, (query, (_, answer)) in enumerate(zip(parsed, queries)):
        column = len(trees) + offset
        bound = numpy.maximum(
            numpy.abs(sizes_of_rows - sizes[column]),
            numpy.abs(rows - counts[column]).sum(axis=1) / 2,
        )
        expected = []
        for row in numpy.flatnonzero(bound <= TAU).tolist():
            distance = tree_edit_distance(query, trees[row])
            if distance <= TAU:
                expected.append((row, distance))
        failed += expected != answer
    return failed


# -------------------------------- refine probe (range τ=3, 2k) --------
def _range_probe(seed):
    """The refine-bound split, in the traced run only.

    Range τ=3 over a fixed set of 100 trees of a 2,000-tree corpus,
    ``cache_size=0``: Zhang–Shasha refine is ~97 % of such a read, which
    makes the host's speed swings too large for a gated workload (see
    README), so it is measured here.  Fills ``editdist.*``,
    ``filters.candidates``, ``filters.precision`` and
    ``search.refine_share``; then the sharded k-NN probe fills
    ``filters.knn_bound_ms``, ``sharding.*`` and ``search.knn_inproc_ms``.
    Every match is re-verified and one query is checked against
    ``sequential_range_query``.
    """
    spec = parse_spec(SPEC)
    corpus = [
        to_bracket(tree) for tree in generate_dataset(spec, RANGE_TREES, seed=CORPUS_SEED)
    ]
    texts = [
        corpus[index]
        for index in random.Random(CORPUS_SEED).sample(range(RANGE_TREES), RANGE_QUERIES)
    ]
    service, _ = setup("range-probe", corpus)
    try:
        recorder = _instrument(service.database)
        reads = _read_rounds(
            service, texts, RANGE_TAU, None, recorder, random.Random(seed), None
        )
    finally:
        service.close()
    search = _search_layers(recorder, reads.records)
    layers = {
        name: search[name]
        for name in ("filters.candidates", "filters.precision", "search.refine_share")
    }
    layers.update(_editdist_layers(recorder))

    matches = [
        (index, texts[index], row, distance)
        for index, answer in enumerate(reads.first)
        if answer is not None
        for row, distance in answer
    ]
    parts = run_fresh(
        [
            (check_range_part, (corpus, texts[0], rows, share))
            for rows, share in zip(halves(range(len(corpus))), halves(matches))
        ]
    )
    bad = set().union(*(failed for _, failed in parts))
    if [match for found, _ in parts for match in found] != reads.first[0]:
        bad.add(0)
    probe = [r.text for r in reads.records if r.traced][::KNN_PROBE_EVERY]
    knn_failed = _knn_probe(corpus, probe, layers)
    return {
        "layers": layers,
        "attempted": reads.reads + len(probe),
        "failed": reads.failed + len(bad) + knn_failed,
        "checks": f"refine probe: all {len(matches)} matches of {len(texts)} range "
        "tau=3 queries re-verified with tree_edit_distance, 1 query against "
        f"sequential_range_query, {len(probe)} sharded k-NN answers and refined "
        "counts against in-process knn_query",
    }


def check_range_part(corpus, sample_text, rows, matches):
    """One process's share of the refine probe's answer checks.

    Scans ``rows`` of the corpus with ``sequential_range_query`` for the
    sampled read, and recomputes ``tree_edit_distance`` for each
    ``(query index, query text, row, distance)`` match.  Returns the
    sequential matches (global rows) and the query indexes that failed.
    """
    trees = [parse_bracket(text) for text in corpus]
    found, _ = sequential_range_query(
        [trees[row] for row in rows], parse_bracket(sample_text), RANGE_TAU
    )
    queries: Dict[str, Any] = {}
    failed = set()
    for index, text, row, distance in matches:
        query = queries.setdefault(text, parse_bracket(text))
        exact = tree_edit_distance(query, trees[row])
        if exact != distance or exact > RANGE_TAU:
            failed.add(index)
    return [(rows[local], distance) for local, distance in found], failed


def _instrument(database: TreeDatabase) -> SpanRecorder:
    """A recorder wrapped around every in-process layer of ``database``."""
    recorder = SpanRecorder()
    recorder.instrument_process()
    recorder.instrument_filter(database.filter)
    recorder.instrument_planes(database.matrices(), database)
    return recorder


# -------------------------------- sharded k-NN probe ------------------
def _knn_probe(corpus, queries, layers):
    """Sharded k-NN over ``queries``: the filters/sharding layer split.

    ``ShardedTreeService(shards=2)`` over the same corpus answers each
    query between two ``health()`` polls, whose deltas give exact RPC
    counts and per-shard busy time from the workers' own counters.  The
    answers and refined counts are checked against in-process
    ``knn_query`` in two fresh processes, which also time it.  Fills
    ``layers`` and returns the number of failed queries.
    """
    trees = [parse_bracket(text) for text in corpus]
    began = perf_counter()
    service = ShardedTreeService(trees, shards=SHARDS)
    layers["sharding.spawn_s"] = perf_counter() - began
    answers = []
    rpcs = refine_rpcs = 0
    bound = busy = coord = slowest = mean_busy = 0.0
    try:
        for text in queries:
            query = parse_bracket(text)
            before = _shard_totals(service.health())
            began = perf_counter()
            answers.append(service.knn(query, KNN_K))
            latency = perf_counter() - began
            after = _shard_totals(service.health())
            shard_busy = []
            for (old, f0, r0), (new, f1, r1) in zip(before, after):
                rpcs += sum(
                    count - old.get(op, 0) for op, count in new.items() if op != "health"
                )
                refine_rpcs += new.get("knn_refine", 0) - old.get("knn_refine", 0)
                bound += f1 - f0
                shard_busy.append((f1 - f0) + (r1 - r0))
            busy += sum(shard_busy)
            slowest += max(shard_busy)
            mean_busy += statistics.mean(shard_busy)
            coord += latency - max(shard_busy)
    finally:
        service.close()
    shard_queries = len(queries) * SHARDS
    reference = [
        answer
        for share in run_fresh(
            [(knn_reference, (corpus, share)) for share in halves(queries)]
        )
        for answer in share
    ]
    layers.update(
        {
            "sharding.rpcs_per_query": rpcs / len(queries),
            "sharding.refine_rpcs_per_query": refine_rpcs / len(queries),
            "sharding.worker_busy_ms": busy / shard_queries * 1e3,
            "sharding.coord_ms": coord / len(queries) * 1e3,
            "sharding.busy_skew": slowest / mean_busy,
            "filters.knn_bound_ms": bound / shard_queries * 1e3,
            "search.knn_inproc_ms": (
                statistics.mean(seconds for _, _, seconds in reference) * 1e3
            ),
        }
    )
    return sum(
        1
        for (matches, stats), (expected, candidates, _) in zip(answers, reference)
        if matches != expected or stats.candidates != candidates
    )


def knn_reference(corpus, queries):
    """In-process ``knn_query`` per query text: ``(matches, candidates, s)``."""
    database = TreeDatabase([parse_bracket(text) for text in corpus])
    matrices = database.matrices()
    answers = []
    for text in queries:
        query = parse_bracket(text)
        began = perf_counter()
        matches, stats = knn_query(
            database.trees, query, KNN_K, database.filter,
            database.counter, matrices=matrices,
        )
        answers.append((matches, stats.candidates, perf_counter() - began))
    return answers


def _shard_totals(health: Dict[str, Any]) -> List[Tuple[Dict[str, int], float, float]]:
    """Per shard: request counts, filter seconds, refine seconds."""
    return [
        (
            dict(shard["requests"]),
            shard["stage_seconds"]["filter"],
            shard["stage_seconds"]["refine"],
        )
        for shard in health["shards"]
    ]


# -------------------------------- churn-cached ------------------------
def _run_churn(service, inputs, seconds, trace):
    """The segment from one warm state: best-of rounds, or one traced pass.

    Every round replays the same ops on the same state, so an op's
    repeats are the same work and its latency is the best of them, as on
    filter-scan: ``p50_ms`` and ``tail_ms`` are taken over the reads'
    bests and ``qps`` is ops / Σ best.  Every add is the same work too,
    re-signing the full result cache, so ``add_ms`` is the fastest add of
    all rounds.  The traced run drives a longer stream, of which the
    segment is the start, once, in process.
    """
    database = service.database
    metrics = service.metrics
    for text in inputs["warm"] + inputs["hot"]:
        service.range(parse_bracket(text), TAU)

    stream = [
        ("read", inputs["hot"][payload]) if kind == "hot"
        else ("add" if kind == "add" else "read", payload)
        for kind, payload in inputs["ops"][: CHURN_TRACED_OPS if trace else CHURN_OPS]
    ]

    invalidation = [0.0]
    tracer = tracing.Tracer()

    def execute(record: Record) -> Any:
        record.size = len(database)
        if record.kind == "add":
            if not trace:
                return service.add(record.payload)
            # the library's own span times the add-time invalidation
            tracing.set_tracer(tracer)
            try:
                return service.add(record.payload)
            finally:
                tracing.set_tracer(None)
                invalidation[0] += sum(
                    span.duration
                    for span in tracer.finished_spans()
                    if span.name == "service.invalidate"
                )
                tracer.clear()
        hits = metrics.cache_hits
        answer = service.range(record.payload, TAU)
        record.hit = metrics.cache_hits != hits
        return answer

    recorder = _instrument(database) if trace else None
    before = metrics.snapshot()["cache"]
    _settle()
    if recorder is not None:
        try:
            records, wall = drive(stream, execute, recorder)
        finally:
            recorder.restore()
        rounds, repeat_failed = 1, 0
    else:
        records, rounds, repeat_failed, wall = replay_rounds(stream, execute, seconds)
        # the rounds ran in forks: bring this state to the segment's end,
        # untimed, for the answer checks below
        for record in records:
            if record.kind == "add":
                service.add(record.payload)
    after = metrics.snapshot()["cache"]
    adds = [record.seconds for record in records if record.kind == "add"]
    reads = [record for record in records if record.kind == "read"]
    result = summarize(
        [r.seconds for r in reads],
        len(records) / sum(r.seconds for r in records),
        min(adds) * 1e3,
    )
    result.update(
        adds=len(adds) * rounds,
        peak_rss_mb=peak_rss_mb(),
        reads=len(reads) * rounds,
        stream=f"{rounds} round(s) of {len(records)} ops in {wall:.1f} s"
        + ("; figures are per-op bests" if rounds > 1 else ""),
    )
    if recorder is not None:
        layers = _search_layers(recorder, records)
        traced_reads = [r for r in reads if r.traced]
        untraced_hits = [r.seconds for r in reads if r.hit and not r.traced]
        rechecked = sum(
            after[key] - before[key] for key in ("entries_retained", "entries_evicted")
        )
        evicted = after["entries_evicted"] - before["entries_evicted"]
        layers.update(
            {
                "service.hit_rate": sum(r.hit for r in traced_reads) / len(traced_reads),
                "service.hit_us": statistics.median(untraced_hits) * 1e6,
                "service.rechecked_per_add": rechecked / len(adds),
                "service.evicted_per_add": evicted / len(adds),
                "service.invalidate_ms": invalidation[0] / len(adds) * 1e3,
                "service.invalidate_share": invalidation[0] / sum(adds),
                "features.sync_ms": recorder.mean_us("features.sync") / 1e3,
            }
        )
        misses = [r.payload for r in traced_reads if not r.hit]
        layers.update(_index_layers(database, misses, TAU))
        result["layers"] = layers

    # check: sampled hits and misses equal a fresh uncached answer at the
    # generation the op saw (range answers only gain rows >= that size)
    fresh = TreeSearchService(database, cache_size=0)
    answered = [record for record in reads if record.error is None]
    sample = _spread([r for r in answered if r.hit], CHURN_CHECK_SAMPLE)
    sample += _spread([r for r in answered if not r.hit], CHURN_CHECK_SAMPLE)
    bad = 0
    for record in sample:
        expected, _ = fresh.range(record.payload, TAU)
        if [m for m in expected if m[0] < record.size] != record.answer[0]:
            bad += 1
    fresh.close()
    result.update(
        attempted=len(records) * rounds,
        failed=_failed(records) + repeat_failed + bad,
        checks=("every repeat equal to its op's first answer; " if rounds > 1 else "")
        + f"{len(sample)} sampled hits and misses against a cache_size=0 "
        "answer at the op's generation",
    )
    return result


def replay_rounds(
    stream: Sequence[Tuple[str, str]], execute: Callable[[Record], Any], seconds: float
) -> Tuple[List[Record], int, int, float]:
    """Whole rounds of ``stream``, each in a fork of this process's state.

    Rounds run one after the other until ``seconds`` have passed, at
    least ``MIN_ROUNDS`` of them, and each starts from the same state, so
    every repeat of an op is the same work.  Returns the first round's
    records with each op's best latency, the number of rounds, the ops
    of later rounds that failed (raised, or answered other than the
    first round did), and the wall time.
    """

    def one_round() -> List[Tuple[float, Optional[str], bool, int, Any]]:
        return [
            (r.seconds, r.error, r.hit, r.size, r.answer[0] if r.kind == "read" else r.answer)
            for r in drive(stream, execute)[0]
        ]

    records = [Record(kind, parse_bracket(text), text) for kind, text in stream]
    rounds = failed = 0
    start = perf_counter()
    deadline = start + seconds
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        replies = run_forked(one_round)
        for record, (latency, error, hit, size, answer) in zip(records, replies):
            if rounds == 0:
                record.seconds, record.error = latency, error
                record.hit, record.size = hit, size
                record.answer = None if error else (answer,)
                continue
            record.seconds = min(record.seconds, latency)
            if error is not None or (record.error is None and (answer,) != record.answer):
                failed += 1
        rounds += 1
    return records, rounds, failed, perf_counter() - start


def _spread(records: Sequence[Record], count: int) -> List[Record]:
    """Up to ``count`` records evenly spaced through ``records``."""
    if len(records) <= count:
        return list(records)
    step = len(records) / count
    return [records[int(i * step)] for i in range(count)]


# -------------------------------- shared layer summaries --------------
def _editdist_layers(recorder: SpanRecorder) -> Dict[str, float]:
    pairs = recorder.calls("editdist.pair")
    cells = recorder.cells("editdist.pair")
    seconds = recorder.seconds("editdist.pair")
    return {
        "editdist.pairs": pairs,
        "editdist.cells": cells,
        "editdist.pair_ms": seconds / pairs * 1e3 if pairs else 0.0,
        "editdist.ns_per_cell": seconds / cells * 1e9 if cells else 0.0,
        "editdist.prepare_us": recorder.mean_us("editdist.prepare"),
    }


def _search_layers(recorder: SpanRecorder, records: Sequence[Record]) -> Dict[str, float]:
    """Layers of an in-process stream whose odd ops were traced.

    Search statistics come from misses only (a hit returns a cached copy).
    """
    reads = [r for r in records if r.kind == "read" and r.error is None]
    traced = [r for r in reads if r.traced]
    untraced = [r for r in reads if not r.traced]
    stats = [r.answer[1] for r in traced if not r.hit]
    candidates = sum(s.candidates for s in stats)
    results = sum(s.results for s in stats)
    filter_seconds = sum(s.filter_seconds for s in stats)
    refine_seconds = sum(s.refine_seconds for s in stats)
    residual = statistics.mean(
        r.seconds - r.answer[1].filter_seconds - r.answer[1].refine_seconds
        for r in untraced
        if not r.hit
    )
    # traced against untraced reads of the same class, weighted by the
    # traced mix: a churn stream mixes ~0.1 ms hits with ~2-30 ms misses
    untraced_mean = {
        cls: statistics.mean(r.seconds for r in untraced if _read_class(r) == cls)
        for cls in {_read_class(r) for r in untraced}
    }
    matched = [(r.seconds, untraced_mean.get(_read_class(r))) for r in traced]
    traced_read = statistics.mean(t for t, u in matched if u is not None)
    untraced_read = statistics.mean(u for t, u in matched if u is not None)
    layer_self = recorder.layer_self_seconds() / len(traced)
    cascade = recorder.seconds("filters.cascade")
    layers = {
        "trees.key_us": recorder.mean_us("trees.key"),
        "filters.signature_us": recorder.mean_us("filters.signature"),
        "filters.cascade_ms": cascade / len(stats) * 1e3,
        "filters.rows_per_s": recorder.cells("filters.cascade") / cascade,
        "filters.candidates": candidates,
        "filters.precision": results / candidates if candidates else 0.0,
        "search.refine_share": refine_seconds / (filter_seconds + refine_seconds),
        "search.residual_ms": residual * 1e3,
        "trace.wall_ratio": traced_read / untraced_read,
        "trace.residual_ms": (untraced_read - layer_self) * 1e3,
    }
    layers.update(_editdist_layers(recorder))
    return layers


def _read_class(record: Record) -> Tuple[bool, int]:
    """Reads of one class cost alike: a hit, or a miss with n candidates."""
    if record.hit:
        return True, 0
    return False, record.answer[1].candidates


def _index_layers(database, queries, tau) -> Dict[str, float]:
    """The sublinear candidate sources, probed over the same reads.

    Not on the timed path (``auto`` routes to the vectorized scan); this
    records what each index would examine and cost for these reads.
    """
    layers: Dict[str, float] = {}
    for kind in ("vptree", "ifi"):
        index = build_candidate_index(kind, database.features, database.filter.q)
        examined = 0
        seconds = 0.0
        for query in queries:
            began = perf_counter()
            index.range_rows(index.pack(query), index.factor * tau)
            seconds += perf_counter() - began
            examined += index.last_examined
        layers[f"index.{kind}.examined"] = examined
        layers[f"index.{kind}.probe_ms"] = seconds / len(queries) * 1e3
    return layers
