"""End-to-end reproductions of the paper's evaluation figures.

Each ``figXX_*`` function runs the experiment at laptop scale and returns
:class:`~repro.bench.harness.Report` objects whose series mirror the
lines of the paper's plot. ``benchmarks/run_all.py`` prints them all;
README.md's benchmark section lists the recorded ``BENCH_*.json`` files.

Scales default to {1, 2, 4, 8} (the paper sweeps 1..64 on a C++ engine;
pure Python needs smaller absolute sizes, the *trends* are the point).
Chunk sizes default to {256, 1K, 4K, 16K} rows — the paper's 16K..1M
divided by 64, keeping the ratio between chunk size and dataset size
comparable.
"""

from __future__ import annotations

import os
import tempfile

from repro.baselines import prepare_system
from repro.bench import harness
from repro.bench.harness import Report, dataset, time_call, time_query
from repro.cohana import CohanaEngine
from repro.cohort import NEVER_BORN, birth_times
from repro.datagen import BIRTH_ACTIONS, GameConfig
from repro.schema import parse_timestamp
from repro.storage import collect_stats, compress, load, save
from repro.workloads import queries as W

DEFAULT_SCALES = (1, 2, 4, 8)
DEFAULT_CHUNK_ROWS = (256, 1024, 4096, 16384)
TABLE = "GameActions"
_START = GameConfig().start

_ENGINES: dict[tuple, CohanaEngine] = {}
_SYSTEMS: dict[tuple, object] = {}


def cohana_engine(scale: int, chunk_rows: int) -> CohanaEngine:
    """A COHANA engine with the scale-``scale`` dataset loaded (cached;
    keyed by the effective seed so ``set_default_seed`` is honoured)."""
    key = (scale, chunk_rows, harness.DEFAULT_SEED)
    if key not in _ENGINES:
        engine = CohanaEngine()
        engine.create_table(TABLE, dataset(scale),
                            target_chunk_rows=chunk_rows)
        _ENGINES[key] = engine
    return _ENGINES[key]


def prepared_system(label: str, scale: int, chunk_rows: int = 4096):
    """A ready-to-query evaluation system (cached per scale + seed)."""
    key = (label, scale, chunk_rows, harness.DEFAULT_SEED)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = prepare_system(
            label, dataset(scale), birth_actions=BIRTH_ACTIONS,
            table_name=TABLE, chunk_rows=chunk_rows)
    return _SYSTEMS[key]


def _main_query(name: str) -> str:
    return W.MAIN_QUERIES[name](TABLE)


# ---------------------------------------------------------------------------
# Figure 6: COHANA under varying chunk size
# ---------------------------------------------------------------------------


def fig06_chunk_size(scales=DEFAULT_SCALES, chunk_rows=DEFAULT_CHUNK_ROWS,
                     query_names=("Q1", "Q2", "Q3", "Q4"),
                     repeat: int = 3) -> list[Report]:
    """Query time vs scale, one line per chunk size, one report per
    query (Figure 6a-d)."""
    reports = []
    for qname in query_names:
        report = Report(title=f"Figure 6 ({qname}): COHANA time vs "
                              f"chunk size", x_label="scale",
                        y_label="seconds")
        for rows in chunk_rows:
            series = report.series_named(f"chunk={rows}")
            for scale in scales:
                engine = cohana_engine(scale, rows)
                text = _main_query(qname)
                series.add(scale,
                           time_call(lambda: engine.query(text),
                                     repeat=repeat))
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Figure 7: storage space vs chunk size
# ---------------------------------------------------------------------------


def fig07_storage(scales=DEFAULT_SCALES,
                  chunk_rows=DEFAULT_CHUNK_ROWS) -> Report:
    """Compressed size (KiB) vs scale, one line per chunk size."""
    report = Report(title="Figure 7: storage space vs chunk size",
                    x_label="scale", y_label="KiB compressed")
    for rows in chunk_rows:
        series = report.series_named(f"chunk={rows}")
        for scale in scales:
            stats = collect_stats(cohana_engine(scale, rows).table(TABLE))
            series.add(scale, round(stats.total_bytes / 1024, 2))
    return report


# ---------------------------------------------------------------------------
# Figure 8: effect of birth selection (Q5/Q6 vs birth CDF)
# ---------------------------------------------------------------------------


def fig08_birth_selection(days=(1, 3, 5, 8, 12, 17, 23, 30, 39),
                          chunk_rows: int = 4096,
                          repeat: int = 3) -> Report:
    """Q5/Q6 time (normalized by Q1/Q3) against the birth CDF."""
    engine = cohana_engine(1, chunk_rows)
    table = dataset(1)
    base_q1 = time_call(lambda: engine.query(_main_query("Q1")),
                        repeat=repeat)
    base_q3 = time_call(lambda: engine.query(_main_query("Q3")),
                        repeat=repeat)
    births = birth_times(table, "launch")
    start = parse_timestamp(_START)
    report = Report(title="Figure 8: effect of birth selection",
                    x_label="day", y_label="normalized time / CDF")
    cdf = report.series_named("birth CDF")
    sq5 = report.series_named("Q5 (norm. by Q1)")
    sq6 = report.series_named("Q6 (norm. by Q3)")
    total_users = len(births)
    for day in days:
        d2 = W.day_offset(_START, day)
        born = sum(1 for t in births.values()
                   if t != NEVER_BORN and t <= start + day * 86400)
        cdf.add(day, round(born / total_users, 3))
        t5 = time_call(lambda: engine.query(W.q5(_START, d2, TABLE)),
                       repeat=repeat)
        t6 = time_call(lambda: engine.query(W.q6(_START, d2, TABLE)),
                       repeat=repeat)
        sq5.add(day, round(t5 / base_q1, 3))
        sq6.add(day, round(t6 / base_q3, 3))
    return report


# ---------------------------------------------------------------------------
# Figure 9: effect of age selection (Q7/Q8)
# ---------------------------------------------------------------------------


def fig09_age_selection(ages=(1, 2, 4, 6, 8, 10, 12, 14),
                        chunk_rows: int = 4096,
                        repeat: int = 3) -> Report:
    """Q7/Q8 time normalized by Q1/Q3, varying the age cutoff."""
    engine = cohana_engine(1, chunk_rows)
    base_q1 = time_call(lambda: engine.query(_main_query("Q1")),
                        repeat=repeat)
    base_q3 = time_call(lambda: engine.query(_main_query("Q3")),
                        repeat=repeat)
    report = Report(title="Figure 9: effect of age selection",
                    x_label="age(day)", y_label="normalized time")
    sq7 = report.series_named("Q7 (norm. by Q1)")
    sq8 = report.series_named("Q8 (norm. by Q3)")
    for g in ages:
        t7 = time_call(lambda g=g: engine.query(W.q7(g, TABLE)),
                       repeat=repeat)
        t8 = time_call(lambda g=g: engine.query(W.q8(g, TABLE)),
                       repeat=repeat)
        sq7.add(g, round(t7 / base_q1, 3))
        sq8.add(g, round(t8 / base_q3, 3))
    return report


# ---------------------------------------------------------------------------
# Figure 10: materialized view generation time
# ---------------------------------------------------------------------------


def fig10_mv_generation(scales=DEFAULT_SCALES,
                        chunk_rows: int = 4096) -> Report:
    """MV build time (PG / MonetDB stand-ins) vs COHANA compression."""
    from repro.baselines import MvScheme
    from repro.relational import Database

    report = Report(title="Figure 10: time for generating the MV",
                    x_label="scale", y_label="seconds")
    for label, executor in (("PG", "rows"), ("MONET", "columnar")):
        series = report.series_named(label)
        for scale in scales:
            table = dataset(scale)

            def build(executor=executor, table=table):
                db = Database(executor=executor)
                db.register_activity_table(TABLE, table)
                MvScheme(db, TABLE, table.schema).prepare("launch")

            series.add(scale, time_call(build, repeat=1))
    series = report.series_named("COHANA")
    for scale in scales:
        table = dataset(scale)
        series.add(scale, time_call(
            lambda: compress(table, target_chunk_rows=chunk_rows),
            repeat=1))
    return report


# ---------------------------------------------------------------------------
# Figure 11: comparative study
# ---------------------------------------------------------------------------

FIG11_SYSTEMS = ("COHANA", "MONET-M", "MONET-S", "PG-M", "PG-S")

#: Largest scale each system runs at by default. The row engine becomes
#: impractical quickly — mirroring the paper, where Postgres could not
#: even build the scale-64 MV before running out of disk.
FIG11_MAX_SCALE = {"PG-S": 2, "PG-M": 4}


def fig11_comparison(scales=DEFAULT_SCALES, systems=FIG11_SYSTEMS,
                     query_names=("Q1", "Q2", "Q3", "Q4"),
                     chunk_rows: int = 4096,
                     repeat: int = 1,
                     max_scale: dict | None = None) -> list[Report]:
    """Query time per evaluation scheme (Figure 11a-d)."""
    caps = FIG11_MAX_SCALE if max_scale is None else max_scale
    reports = []
    for qname in query_names:
        report = Report(title=f"Figure 11 ({qname}): comparison of "
                              f"evaluation schemes", x_label="scale",
                        y_label="seconds")
        for label in systems:
            series = report.series_named(label)
            for scale in scales:
                if scale > caps.get(label, max(scales)):
                    continue
                system = prepared_system(label, scale, chunk_rows)
                query = W.bind(_main_query(qname),
                               dataset(scale).schema)
                series.add(scale, time_call(lambda: system.run(query),
                                            repeat=repeat))
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Parallel scan scaling (ours): serial vs threads vs processes backends
# ---------------------------------------------------------------------------

PARALLEL_SCALES = (1, 2, 4)
PARALLEL_JOBS = (1, 2, 4)
PARALLEL_BACKENDS = ("serial", "threads", "processes")

_DISK_ENGINES: dict[tuple, CohanaEngine] = {}
#: One temp dir for every bench .cohana file; its finalizer removes the
#: files at interpreter exit, so repeated runs do not litter /tmp.
_DISK_DIR: tempfile.TemporaryDirectory | None = None


def cohana_engine_on_disk(scale: int, chunk_rows: int) -> CohanaEngine:
    """Like :func:`cohana_engine`, but the table is saved to a ``.cohana``
    file (format v3) and loaded back memory-mapped — the setup the
    ``processes`` backend needs (workers reopen the file by path) and
    the one real deployments run in."""
    global _DISK_DIR
    key = (scale, chunk_rows, harness.DEFAULT_SEED)
    if key not in _DISK_ENGINES:
        if _DISK_DIR is None:
            _DISK_DIR = tempfile.TemporaryDirectory(
                prefix="cohana-bench-")
        compressed = compress(dataset(scale),
                              target_chunk_rows=chunk_rows)
        path = os.path.join(
            _DISK_DIR.name,
            f"s{scale}-c{chunk_rows}-{harness.DEFAULT_SEED}.cohana")
        save(compressed, path)
        engine = CohanaEngine()
        engine.register(TABLE, load(path))
        _DISK_ENGINES[key] = engine
    return _DISK_ENGINES[key]


def parallel_scaling(scales=PARALLEL_SCALES, jobs_counts=PARALLEL_JOBS,
                     chunk_rows: int = 1024,
                     query_names=("Q1", "Q4"),
                     executor: str = "vectorized",
                     repeat: int = 3,
                     backends=PARALLEL_BACKENDS) -> Report:
    """Query time vs scan-worker count: one series per
    (query, scale, backend).

    Sweeps every execution backend over memory-mapped on-disk tables:
    ``serial`` is the single-point baseline, ``threads`` is GIL-bound on
    the pure-Python kernels (flat by construction; the honest numbers
    are the point), and ``processes`` is the true multi-core path —
    workers reopen the ``.cohana`` file by path and deserialize only the
    chunks they scan, so only partial aggregates cross the process
    boundary. Scaling is bounded by the machine: on a single-core
    container every backend is flat and ``processes`` additionally pays
    the pool spawn, which is exactly what the recorded numbers should
    show there.
    """
    report = Report(title="Parallel scan scaling (chunk pipeline, "
                          f"{executor} kernel)",
                    x_label="jobs", y_label="seconds")
    for qname in query_names:
        text = _main_query(qname)
        for scale in scales:
            engine = cohana_engine_on_disk(scale, chunk_rows)
            for backend in backends:
                series = report.series_named(
                    f"{qname} scale={scale} {backend}")
                counts = (1,) if backend == "serial" else jobs_counts
                for jobs in counts:
                    series.add(jobs, time_query(
                        engine, text, repeat=repeat, executor=executor,
                        jobs=jobs, backend=backend))
    return report


def parallel_scaling_records(report: Report) -> list[dict]:
    """Flatten a :func:`parallel_scaling` report into JSON-able records
    with per-worker-count speedup relative to the series' jobs=1."""
    records = []
    for series in report.series:
        base = next((sec for jobs, sec in series.points if jobs == 1),
                    None)
        for jobs, seconds in series.points:
            records.append({
                "series": series.label,
                "jobs": jobs,
                "seconds": seconds,
                "speedup": round(base / seconds, 3) if base else None,
            })
    return records


def selective_scan_query(table: str = TABLE) -> str:
    """The selective-scan query: a birth condition (``role = "dwarf"``)
    that is selective at the *user* level but not chunk-prunable —
    every chunk dictionary contains every role — so all chunks survive
    pruning and the backends get identical per-chunk work to
    parallelize."""
    return (f'SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent '
            f'FROM {table} '
            f'BIRTH FROM action = "launch" AND role = "dwarf" '
            f'AGE ACTIVITIES IN action = "shop" COHORT BY country')


def selective_scan_records(scale: int = 4, chunk_rows: int = 1024,
                           jobs_counts=PARALLEL_JOBS,
                           repeat: int = 3) -> list[dict]:
    """The selective-scan experiment over an on-disk (mmap) table.

    Runs :func:`selective_scan_query` under every backend and worker
    count. Each record carries the result digest so cross-backend
    parity is checked by construction, not assumed.
    """
    import hashlib

    engine = cohana_engine_on_disk(scale, chunk_rows)
    text = selective_scan_query()
    records = []
    digests = set()
    for backend in PARALLEL_BACKENDS:
        counts = (1,) if backend == "serial" else jobs_counts
        # One digest per backend: the result does not depend on the
        # worker count (the per-jobs parity is the test suite's job),
        # so don't pay an extra untimed query per record.
        result = engine.query(text, jobs=counts[0], backend=backend)
        digest = hashlib.sha256(
            repr(result.rows).encode()).hexdigest()[:16]
        digests.add(digest)
        for jobs in counts:
            seconds = time_query(engine, text, repeat=repeat,
                                 jobs=jobs, backend=backend)
            records.append({
                "query": "selective_scan", "scale": scale,
                "backend": backend, "jobs": jobs, "seconds": seconds,
                "result_digest": digest,
            })
    if len(digests) != 1:
        raise RuntimeError(
            f"backend parity violated in selective-scan bench: "
            f"{sorted(digests)}")
    return records


# ---------------------------------------------------------------------------
# Selective workload (ours): birth bounds that zone maps can prune
# ---------------------------------------------------------------------------


def selective_queries(table: str = TABLE) -> dict[str, str]:
    """The selective workload: birth conditions whose coded-domain
    bounds give zone maps / chunk dictionaries something to prune.

    ``rare_country`` / ``rare_city`` hit the Zipf tail (values absent
    from most chunk dictionaries), ``country_range`` is a string range
    only persisted zone maps can prune, ``country_in`` mixes two rare
    members, and ``Q2_narrow`` is the paper's birth-time window (pruned
    by time MIN/MAX alone — the baseline case where zone maps add no
    pruning; Q4 sits in between).
    """
    d2 = W.day_offset(_START, 3)
    return {
        "Q2_narrow": W.q5(_START, d2, table),
        "Q4": W.q4(table),
        "rare_country": (
            f'SELECT role, COHORTSIZE, AGE, UserCount() FROM {table} '
            f'BIRTH FROM action = "launch" AND country = "Thailand" '
            f'COHORT BY role'),
        "rare_city": (
            f'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM {table} '
            f'BIRTH FROM action = "shop" AND city = "China City 2" '
            f'COHORT BY country'),
        "country_range": (
            f'SELECT country, COHORTSIZE, AGE, UserCount() FROM {table} '
            f'BIRTH FROM action = "launch" AND country >= "Vietnam" '
            f'COHORT BY country'),
        "country_in": (
            f'SELECT country, COHORTSIZE, AGE, Avg(gold) FROM {table} '
            f'BIRTH FROM action = "shop" AND '
            f'country IN ["Thailand", "Peru"] COHORT BY country'),
    }


#: Queries whose birth bounds only the coded-domain metadata can prune.
SELECTIVE_SET = ("rare_country", "rare_city", "country_range",
                 "country_in")


# ---------------------------------------------------------------------------
# Operator-tree execution (ours): lowered plans vs the flat kernel loop
# ---------------------------------------------------------------------------


def kernel_parity_records(scale: int = 8, chunk_rows: int = 1024) -> dict:
    """Vectorized-vs-iterator digest parity over the selective workload.

    The cheapest end-to-end witness that the two kernel families still
    agree after any pipeline change: every recorded bench experiment
    folds this sweep into its payload (``kernel_parity_ok``), so
    ``tools/bench_report.py --strict`` fails the whole bench run on a
    kernel divergence no matter which experiment was running.
    """
    import hashlib

    engine = cohana_engine(scale, chunk_rows)
    records = []
    for qname, text in selective_queries().items():
        digests = {}
        for executor in ("vectorized", "iterator"):
            result = engine.query(text, executor=executor)
            digests[executor] = hashlib.sha256(
                repr(result.rows).encode()).hexdigest()[:16]
        records.append({
            "query": qname,
            "digest_vectorized": digests["vectorized"],
            "digest_iterator": digests["iterator"],
            "parity": digests["vectorized"] == digests["iterator"],
        })
    return {"kernel_parity": records,
            "kernel_parity_ok": all(r["parity"] for r in records)}


def operator_tree_records(scale: int = 4, chunk_rows: int = 1024,
                          repeat: int = 5, jobs: int = 2) -> dict:
    """Operator-tree execution vs the pre-refactor flat kernel loop.

    Times the exact unit the refactor changed — the per-chunk scan,
    once as the old flat loop (``kernel.scan`` called directly per
    chunk) and once through the lowered physical tree
    (``PhysicalPlan.execute_chunk``) — over every selective query, so
    the tree's dispatch overhead is measured against nothing but
    itself. Also checks result-digest parity on all three scan
    backends over the on-disk (mmap) table, which is the setup the
    ``processes`` backend needs.
    """
    import hashlib

    from repro.cohana.operators import lower_plan
    from repro.cohana.pipeline import get_kernel
    from repro.cohana.planner import plan_query

    engine = cohana_engine_on_disk(scale, chunk_rows)
    table = engine.table(TABLE)
    kernel = get_kernel("vectorized")
    chunks = list(table.chunks)
    records = []
    for qname in SELECTIVE_SET:
        text = selective_queries()[qname]
        plan = plan_query(engine.parse(text), table)
        physical = lower_plan(plan, kernel)

        def flat_scan():
            for chunk in chunks:
                kernel.scan(table, chunk, plan)

        def tree_scan():
            for chunk in chunks:
                physical.execute_chunk(table, chunk)

        flat_seconds = time_call(flat_scan, repeat=repeat)
        tree_seconds = time_call(tree_scan, repeat=repeat)
        ratio = (tree_seconds / flat_seconds if flat_seconds else None)
        digests = {}
        for backend in ("serial", "threads", "processes"):
            result = engine.query(
                text, backend=backend,
                jobs=1 if backend == "serial" else jobs)
            digests[backend] = hashlib.sha256(
                repr(result.rows).encode()).hexdigest()[:16]
        records.append({
            "query": qname,
            "flat_seconds": flat_seconds,
            "tree_seconds": tree_seconds,
            "ratio": round(ratio, 3) if ratio is not None else None,
            "digest_serial": digests["serial"],
            "digest_threads": digests["threads"],
            "digest_processes": digests["processes"],
            "parity": len(set(digests.values())) == 1,
        })
    latency_ok = all(r["ratio"] is not None and r["ratio"] <= 1.10
                     for r in records)
    parity_ok = all(r["parity"] for r in records)
    return {"scale": scale, "chunk_rows": chunk_rows, "jobs": jobs,
            "records": records, "latency_ok": latency_ok,
            "parity_ok": parity_ok}


def operator_tree(scale: int = 4, chunk_rows: int = 1024,
                  repeat: int = 5) -> Report:
    """Figure-style report: flat-loop vs operator-tree seconds per
    selective query."""
    payload = operator_tree_records(scale=scale, chunk_rows=chunk_rows,
                                    repeat=repeat)
    report = Report(title="Operator-tree execution vs flat kernel loop "
                          f"(scale={scale}, chunk={chunk_rows})",
                    x_label="query", y_label="seconds")
    flat = report.series_named("flat kernel loop")
    tree = report.series_named("operator tree")
    for record in payload["records"]:
        flat.add(record["query"], round(record["flat_seconds"], 5))
        tree.add(record["query"], round(record["tree_seconds"], 5))
    return report


# ---------------------------------------------------------------------------
# Query-service result cache (ours): cold vs cached serving
# ---------------------------------------------------------------------------


def service_cache_records(scale: int = 8, chunk_rows: int = 1024,
                          repeat: int = 5) -> list[dict]:
    """Cold vs cached serving through :class:`repro.service.QueryService`.

    For each workload query: the *cold* time is a full admission with an
    empty cache (parse/fingerprint + plan + chunk scan + merge, i.e. a
    ``miss``), the *warm* time is the same call served from the result
    cache (a ``hit``). Each record carries both digests — the hit must
    be byte-identical to the direct engine execution, or the cache is
    returning fiction faster.
    """
    import hashlib

    from repro.service import QueryService

    engine = cohana_engine_on_disk(scale, chunk_rows)
    service = QueryService(engine)
    queries = {
        "Q1": _main_query("Q1"),
        "Q4": _main_query("Q4"),
        "selective_scan": selective_scan_query(),
    }
    records = []
    for qname, text in queries.items():
        bound = engine.parse(text)
        direct = engine.query(bound)
        direct_digest = hashlib.sha256(
            repr(direct.rows).encode()).hexdigest()[:16]

        def cold_run():
            service.clear()
            return service.query(bound)

        cold_seconds = time_call(cold_run, repeat=repeat)
        # The last cold run left the cache warm; every call below hits.
        warm_result, warm_stats = service.query_with_stats(bound)
        warm_seconds = time_call(lambda: service.query(bound),
                                 repeat=repeat)
        warm_digest = hashlib.sha256(
            repr(warm_result.rows).encode()).hexdigest()[:16]
        records.append({
            "query": qname,
            "scale": scale,
            "chunk_rows": chunk_rows,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": (round(cold_seconds / warm_seconds, 2)
                        if warm_seconds else None),
            "warm_disposition": warm_stats.cache_disposition,
            "result_digest_direct": direct_digest,
            "result_digest_cached": warm_digest,
            "digest_parity": warm_digest == direct_digest,
        })
    return records


def service_cache(scale: int = 8, chunk_rows: int = 1024,
                  repeat: int = 5) -> Report:
    """Figure-style report: cold vs cached seconds per query."""
    report = Report(title="Query-service result cache: cold vs cached "
                          f"(scale={scale}, chunk={chunk_rows})",
                    x_label="query", y_label="seconds")
    records = service_cache_records(scale=scale, chunk_rows=chunk_rows,
                                    repeat=repeat)
    cold = report.series_named("cold (miss)")
    warm = report.series_named("cached (hit)")
    speedup = report.series_named("speedup (x)")
    for record in records:
        cold.add(record["query"], round(record["cold_seconds"], 6))
        warm.add(record["query"], round(record["warm_seconds"], 6))
        speedup.add(record["query"], record["speedup"])
    return report


# ---------------------------------------------------------------------------
# Sharded tables (ours): append-only ingestion vs full rewrite
# ---------------------------------------------------------------------------


def _user_batches(table, n_batches: int) -> list:
    """Split a sorted activity table into ``n_batches`` contiguous,
    user-disjoint slices (the shard invariant: a user's tuples land in
    exactly one batch)."""
    blocks = list(table.user_blocks())
    per = max(1, -(-len(blocks) // n_batches))
    batches = []
    for i in range(0, len(blocks), per):
        group = blocks[i:i + per]
        batches.append(table.slice(group[0][1], group[-1][2]))
    return batches


def shard_append_records(scale: int = 4, n_batches: int = 4,
                         chunk_rows: int = 1024,
                         repeat: int = 3) -> dict:
    """The append-only ingestion experiment.

    Simulates a growing activity table arriving in ``n_batches``
    user-disjoint batches. For each batch it measures the **append**
    path (write one new shard + atomically update the manifest) against
    the **full rewrite** path (recompress and re-save everything seen
    so far as a single ``.cohana`` file) — the cost a single-file table
    pays for the same new data. After ingestion it checks scan parity
    (the 4-shard table must answer queries digest-identically to the
    single file holding the same data) and records per-shard pruning
    stats for a selective query.
    """
    import hashlib
    import time as _time

    from repro.storage import append_shard

    table = dataset(scale).sorted_by_primary_key()
    batches = _user_batches(table, n_batches)
    global _DISK_DIR
    if _DISK_DIR is None:
        _DISK_DIR = tempfile.TemporaryDirectory(prefix="cohana-bench-")
    root = tempfile.mkdtemp(prefix="shards-", dir=_DISK_DIR.name)
    shard_dir = os.path.join(root, "sharded")
    single_path = os.path.join(root, "single.cohana")

    steps = []
    seen = None
    for i, batch in enumerate(batches, start=1):
        t0 = _time.perf_counter()
        entry = append_shard(shard_dir, batch,
                             target_chunk_rows=chunk_rows)
        append_seconds = _time.perf_counter() - t0
        seen = batch if seen is None else seen.concat(batch)
        t0 = _time.perf_counter()
        rewrite_bytes = save(compress(seen, target_chunk_rows=chunk_rows,
                                      assume_sorted=True), single_path)
        rewrite_seconds = _time.perf_counter() - t0
        steps.append({
            "step": i,
            "rows_appended": len(batch),
            "rows_total": len(seen),
            "append_seconds": round(append_seconds, 6),
            "rewrite_seconds": round(rewrite_seconds, 6),
            "append_bytes": entry["n_bytes"],
            "rewrite_bytes": rewrite_bytes,
            "speedup": round(rewrite_seconds / append_seconds, 3)
            if append_seconds else None,
        })

    sharded_engine = CohanaEngine()
    sharded_engine.load_table(TABLE, shard_dir)
    single_engine = CohanaEngine()
    single_engine.load_table(TABLE, single_path)
    parity = []
    for qname, text in {
        "Q1": _main_query("Q1"),
        "rare_country": selective_queries()["rare_country"],
        "selective_scan": selective_scan_query(),
    }.items():
        digests = {}
        for label, engine in (("sharded", sharded_engine),
                              ("single", single_engine)):
            result = engine.query(text)
            digests[label] = hashlib.sha256(
                repr(result.rows).encode()).hexdigest()[:16]
        seconds_sharded = time_query(sharded_engine, text, repeat=repeat)
        seconds_single = time_query(single_engine, text, repeat=repeat)
        parity.append({
            "query": qname,
            "digest_sharded": digests["sharded"],
            "digest_single": digests["single"],
            "digest_parity": digests["sharded"] == digests["single"],
            "seconds_sharded": seconds_sharded,
            "seconds_single": seconds_single,
        })
    _, prune_stats = sharded_engine.query_with_stats(
        selective_queries()["rare_country"])
    pruning = {
        "query": "rare_country",
        "shards_total": prune_stats.shards_total,
        "shards_scanned": prune_stats.shards_scanned,
        "chunks_total": prune_stats.chunks_total,
        "chunks_scanned": prune_stats.chunks_scanned,
        "chunks_pruned": prune_stats.chunks_pruned,
        "chunks_pruned_zone": prune_stats.chunks_pruned_zone,
    }
    return {"scale": scale, "n_batches": n_batches,
            "chunk_rows": chunk_rows, "steps": steps,
            "parity": parity, "pruning": pruning}


def shard_append(scale: int = 4, n_batches: int = 4,
                 chunk_rows: int = 1024, repeat: int = 3) -> Report:
    """Figure-style report: append vs full-rewrite cost per batch."""
    payload = shard_append_records(scale=scale, n_batches=n_batches,
                                   chunk_rows=chunk_rows, repeat=repeat)
    report = Report(title="Sharded append vs full rewrite "
                          f"(scale={scale}, {n_batches} batches)",
                    x_label="batch", y_label="seconds / bytes")
    append_s = report.series_named("append seconds")
    rewrite_s = report.series_named("rewrite seconds")
    append_b = report.series_named("append KiB")
    rewrite_b = report.series_named("rewrite KiB")
    for step in payload["steps"]:
        append_s.add(step["step"], step["append_seconds"])
        rewrite_s.add(step["step"], step["rewrite_seconds"])
        append_b.add(step["step"], round(step["append_bytes"] / 1024, 1))
        rewrite_b.add(step["step"],
                      round(step["rewrite_bytes"] / 1024, 1))
    return report


# ---------------------------------------------------------------------------
# Shard compaction (ours): many-shard latency recovers, caches survive
# ---------------------------------------------------------------------------


def compaction_records(scale: int = 4, n_batches: int = 6,
                       chunk_rows: int = 1024,
                       repeat: int = 3) -> dict:
    """The shard-compaction experiment.

    Ingests the dataset as ``n_batches`` user-disjoint appends (each
    O(new data) — the per-batch bytes are recorded as the witness),
    measures query latency over the resulting many-shard table, then
    compacts it to one shard and measures again, against a single-file
    table of the same data as the floor. Three verdicts come out:

    * ``parity_ok`` — result digests identical pre-compaction,
      post-compaction, and on the single file (the workload includes
      ``COHORTSIZE`` and ``UserCount()``);
    * ``recovery_ok`` — post-compaction latency within 1.25x of the
      single-file table on every query (small absolute epsilon for
      timer noise on smoke-sized data);
    * ``token_ok`` — the engine's version token survives the
      compaction (logical digest unchanged) and a service result
      cached before the compaction is served as a **hit** after it;
    * ``append_ok`` — the last append wrote one batch's bytes, not
      the table's.
    """
    import hashlib
    import time as _time

    from repro.service import QueryService
    from repro.storage import (
        append_shard,
        compact,
        gc_shards,
        read_manifest,
    )

    table = dataset(scale).sorted_by_primary_key()
    batches = _user_batches(table, n_batches)
    global _DISK_DIR
    if _DISK_DIR is None:
        _DISK_DIR = tempfile.TemporaryDirectory(prefix="cohana-bench-")
    root = tempfile.mkdtemp(prefix="compaction-", dir=_DISK_DIR.name)
    shard_dir = os.path.join(root, "sharded")
    single_path = os.path.join(root, "single.cohana")

    steps = []
    for i, batch in enumerate(batches, start=1):
        t0 = _time.perf_counter()
        entry = append_shard(shard_dir, batch,
                             target_chunk_rows=chunk_rows)
        steps.append({
            "step": i,
            "rows_appended": len(batch),
            "append_seconds": round(_time.perf_counter() - t0, 6),
            "append_bytes": entry["n_bytes"],
        })
    single_bytes = save(compress(table, target_chunk_rows=chunk_rows,
                                 assume_sorted=True), single_path)

    queries = {
        "Q1": _main_query("Q1"),
        "rare_country": selective_queries()["rare_country"],
    }
    engine = CohanaEngine()
    engine.load_table(TABLE, shard_dir)
    service = QueryService(engine)
    pre = {}
    for qname, text in queries.items():
        result = engine.query(text)
        pre[qname] = {
            "digest": hashlib.sha256(
                repr(result.rows).encode()).hexdigest()[:16],
            "seconds": time_query(engine, text, repeat=repeat),
        }
    token_pre = engine.version_token(TABLE)
    generation_pre = read_manifest(shard_dir)["generation"]
    n_shards_pre = engine.table(TABLE).n_shards
    service.query(queries["Q1"])  # prime the result cache

    t0 = _time.perf_counter()
    # The engine still holds the pre-compaction snapshot open, so its
    # shard files are pinned: this GC pass collects nothing. Only
    # after refresh_table drops that snapshot does a second pass reap
    # the superseded files — the pin lifecycle, measured.
    compact_result = compact(shard_dir)
    compact_seconds = _time.perf_counter() - t0
    engine.refresh_table(TABLE)
    gc_after_refresh = gc_shards(shard_dir)
    token_post = engine.version_token(TABLE)
    _, warm_stats = service.query_with_stats(queries["Q1"])

    post_engine = CohanaEngine()
    post_engine.load_table(TABLE, shard_dir)
    single_engine = CohanaEngine()
    single_engine.load_table(TABLE, single_path)
    parity = []
    for qname, text in queries.items():
        digests = {}
        seconds = {}
        for label, eng in (("post", post_engine),
                           ("single", single_engine)):
            result = eng.query(text)
            digests[label] = hashlib.sha256(
                repr(result.rows).encode()).hexdigest()[:16]
            seconds[label] = time_query(eng, text, repeat=repeat)
        parity.append({
            "query": qname,
            "digest_pre": pre[qname]["digest"],
            "digest_post": digests["post"],
            "digest_single": digests["single"],
            "digest_parity": (pre[qname]["digest"] == digests["post"]
                              == digests["single"]),
            "seconds_pre": pre[qname]["seconds"],
            "seconds_post": seconds["post"],
            "seconds_single": seconds["single"],
            "recovery_ratio": round(
                seconds["post"] / seconds["single"], 3)
            if seconds["single"] else None,
        })

    last = steps[-1]
    return {
        "scale": scale, "n_batches": n_batches,
        "chunk_rows": chunk_rows, "steps": steps,
        "single_bytes": single_bytes,
        "compact_seconds": round(compact_seconds, 6),
        "generation_pre": generation_pre,
        "generation_post": compact_result.generation,
        "n_shards_pre": n_shards_pre,
        "n_shards_post": len(read_manifest(shard_dir)["shards"]),
        "gc_while_pinned": list(compact_result.gc_removed),
        "gc_after_refresh": gc_after_refresh,
        "token_pre": token_pre,
        "token_post": token_post,
        "warm_disposition": warm_stats.cache_disposition,
        "parity": parity,
        "parity_ok": all(p["digest_parity"] for p in parity),
        # 1.25x the single-file floor, plus 10 ms of absolute slack:
        # at smoke scale a query runs in hundreds of microseconds and
        # scheduler jitter alone exceeds a 25% band.
        "recovery_ok": all(
            p["seconds_post"] <= 1.25 * p["seconds_single"] + 0.01
            for p in parity),
        "token_ok": (token_pre == token_post
                     and warm_stats.cache_disposition == "hit"),
        "append_ok": last["append_bytes"] < single_bytes,
    }


def compaction(scale: int = 4, n_batches: int = 6,
               chunk_rows: int = 1024, repeat: int = 3) -> Report:
    """Figure-style report: query latency before/after compaction vs
    the single-file floor."""
    payload = compaction_records(scale=scale, n_batches=n_batches,
                                 chunk_rows=chunk_rows, repeat=repeat)
    report = Report(title=f"Shard compaction (scale={scale}, "
                          f"{payload['n_shards_pre']} shards -> "
                          f"{payload['n_shards_post']})",
                    x_label="query", y_label="seconds")
    pre = report.series_named(f"{payload['n_shards_pre']}-shard table")
    post = report.series_named("compacted table")
    single = report.series_named("single file")
    for p in payload["parity"]:
        pre.add(p["query"], p["seconds_pre"])
        post.add(p["query"], p["seconds_post"])
        single.add(p["query"], p["seconds_single"])
    return report


# ---------------------------------------------------------------------------
# Materialized views (ours): incremental per-shard refresh
# ---------------------------------------------------------------------------


def materialized_view_records(scale: int = 4, n_batches: int = 4,
                              chunk_rows: int = 1024,
                              repeat: int = 3) -> dict:
    """The materialized-view serving experiment.

    A sharded table grows by ``n_batches`` user-disjoint appends. A
    view over Q1 is registered after the first batch; after *every*
    append the view is refreshed (the stats must report exactly one
    newly scanned shard — incrementality is the claim under test) and
    then served repeatedly, timing the warm path: a re-merge of cached
    per-shard partials with no chunk scans. The same query is also
    executed directly each step. The target shape is a flat serve curve
    against a direct curve that grows with the table, with
    digest-identical results throughout — including direct runs on all
    three scan backends at the final size.
    """
    import hashlib

    from repro.storage import append_shard

    table = dataset(scale).sorted_by_primary_key()
    batches = _user_batches(table, n_batches)
    global _DISK_DIR
    if _DISK_DIR is None:
        _DISK_DIR = tempfile.TemporaryDirectory(prefix="cohana-bench-")
    root = tempfile.mkdtemp(prefix="views-", dir=_DISK_DIR.name)
    shard_dir = os.path.join(root, "sharded")

    text = _main_query("Q1")
    engine = CohanaEngine()
    steps = []
    rows_total = 0
    for i, batch in enumerate(batches, start=1):
        append_shard(shard_dir, batch, target_chunk_rows=chunk_rows)
        rows_total += len(batch)
        if i == 1:
            engine.load_table(TABLE, shard_dir)
            # refresh=False so the per-step refresh below observes the
            # first shard's scan like every later step observes its own.
            engine.create_view("bench_q1", text, refresh=False)
        else:
            engine.refresh_table(TABLE, refresh_views=False)
        refresh_stats = engine.refresh_view("bench_q1")
        serve_result, _ = engine.serve_view("bench_q1")
        serve_seconds = time_call(
            lambda: engine.query_view("bench_q1"), repeat=repeat)
        direct_result = engine.query(text)
        direct_seconds = time_query(engine, text, repeat=repeat)
        digest_view = hashlib.sha256(
            repr(serve_result.rows).encode()).hexdigest()[:16]
        digest_direct = hashlib.sha256(
            repr(direct_result.rows).encode()).hexdigest()[:16]
        steps.append({
            "step": i,
            "rows_total": rows_total,
            "shards_total": refresh_stats.shards_total,
            "shards_new": refresh_stats.shards_scanned,
            "serve_seconds": round(serve_seconds, 6),
            "direct_seconds": round(direct_seconds, 6),
            "digest_view": digest_view,
            "digest_direct": digest_direct,
            "digest_parity": digest_view == digest_direct,
        })

    backends = {}
    view_digest = steps[-1]["digest_view"]
    for backend in ("serial", "threads", "processes"):
        result = engine.query(text, jobs=2, backend=backend)
        digest = hashlib.sha256(
            repr(result.rows).encode()).hexdigest()[:16]
        backends[backend] = {"digest": digest,
                             "parity": digest == view_digest}

    parity_ok = (all(s["digest_parity"] for s in steps)
                 and all(b["parity"] for b in backends.values()))
    refresh_ok = all(s["shards_new"] == 1 and s["shards_total"] == s["step"]
                     for s in steps)
    first = steps[0]["serve_seconds"]
    last = steps[-1]["serve_seconds"]
    # The flat-latency witness: serving after the Nth append must stay
    # within 2x of serving after the first. The absolute slack absorbs
    # timer noise on smoke-sized datasets where both are sub-millisecond.
    flat_ok = last <= 2.0 * first + 0.05
    return {"scale": scale, "n_batches": n_batches,
            "chunk_rows": chunk_rows, "query": "Q1", "steps": steps,
            "backends": backends, "parity_ok": parity_ok,
            "refresh_ok": refresh_ok, "flat_ok": flat_ok,
            "first_serve_seconds": first, "last_serve_seconds": last}


def materialized_views(scale: int = 4, n_batches: int = 4,
                       chunk_rows: int = 1024, repeat: int = 3) -> Report:
    """Figure-style report: view serve vs direct seconds per append."""
    payload = materialized_view_records(scale=scale, n_batches=n_batches,
                                        chunk_rows=chunk_rows,
                                        repeat=repeat)
    report = Report(title="Materialized view: serve vs direct execution "
                          f"(scale={scale}, {n_batches} appends)",
                    x_label="append", y_label="seconds")
    serve = report.series_named("view serve (merge partials)")
    direct = report.series_named("direct execution")
    new = report.series_named("shards scanned on refresh")
    for step in payload["steps"]:
        serve.add(step["step"], step["serve_seconds"])
        direct.add(step["step"], step["direct_seconds"])
        new.add(step["step"], step["shards_new"])
    return report


# ---------------------------------------------------------------------------
# Ablations (ours): executor / push-down / pruning
# ---------------------------------------------------------------------------


def ablations(scale: int = 8, chunk_rows: int = 1024,
              repeat: int = 3) -> Report:
    """COHANA design-choice ablations on Q1 and Q4."""
    engine = cohana_engine(scale, chunk_rows)
    report = Report(title="Ablations: COHANA design choices",
                    x_label="query", y_label="seconds")
    variants = (
        ("vectorized", dict(executor="vectorized")),
        ("iterator (Algs 1-2)", dict(executor="iterator")),
        ("no push-down", dict(executor="vectorized", pushdown=False)),
        ("no chunk pruning", dict(executor="vectorized", prune=False)),
    )
    for label, kw in variants:
        series = report.series_named(label)
        for qname in ("Q1", "Q2", "Q4"):
            text = _main_query(qname)
            series.add(qname, time_call(
                lambda text=text, kw=kw: engine.query(text, **kw),
                repeat=repeat))
    return report


def serve_http(scale: int = 4, chunk_rows: int = 1024) -> Report:
    """HTTP serving latency under concurrency (lazy import: the load
    harness drives a live server and pulls in the whole service tier,
    which in turn imports this module)."""
    from repro.bench.http_load import serve_http_report
    return serve_http_report(scale=scale, chunk_rows=chunk_rows)


#: Registry used by run_all.py: name -> zero-arg callable returning
#: a Report or a list of Reports.
EXPERIMENTS = {
    "fig06": fig06_chunk_size,
    "fig07": fig07_storage,
    "fig08": fig08_birth_selection,
    "fig09": fig09_age_selection,
    "fig10": fig10_mv_generation,
    "fig11": fig11_comparison,
    "ablations": ablations,
    "parallel": parallel_scaling,
    "operators": operator_tree,
    "service": service_cache,
    "serve_http": serve_http,
    "shards": shard_append,
    "views": materialized_views,
    "compaction": compaction,
}
