"""End-to-end HTTP cohort benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc_scan --seed 1 \\
        --seconds 10 --trace 0

Builds the workload's table from ``--seed``, boots ``python -m repro
serve <table> --http 127.0.0.1:0`` as a subprocess, drives it over HTTP
in a closed loop with a fixed request sequence (fixed by the seed and
sized by ``--seconds`` to take about that long on a 2-vCPU VM) and
checks every answer against a direct in-process engine run. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload twice,
untraced and under the traced launcher (``perfbench/tracer.py``), and
prints the per-layer metrics. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: p95 needs ten samples above it, so the windows of a run carry at
#: least this many queries together, however short --seconds is.
MIN_QUERIES = 200
#: A --trace 0 run sets up this many fresh servers, each on a fresh
#: copy of the table, and measures one window on each. The metrics pool
#: the windows (percentiles over all their queries, rates over their
#: summed time), but setup_s is the median of the set-ups. On a shared
#: VM the host's speed changes in phases of a few seconds (in one
#: adhoc_scan run, the windows' p50 ranged from 18.6 to 27.7 ms), so
#: the figures of a run are only as steady as the time it measures is
#: long: the windows together take about --seconds.
WINDOWS = 5


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1). The benchmark keeps its
    own copy of this and of :class:`server.Client` rather than import
    the private ones of ``repro.bench.http_load``, so that it depends
    only on public names of ``repro``."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Answer:
    """What the checks and per-layer metrics need from one answer."""

    text: str
    digest: str
    version: int
    disposition: str
    chunks_total: int
    chunks_scanned: int
    chunks_pruned: int
    rows_scanned: int


@dataclass
class Window:
    """Everything measured in one closed-loop window."""

    query_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    ingests_attempted: int = 0
    ingest_rows: int = 0
    ingest_replies: list[dict] = field(default_factory=list)
    answers: list[Answer] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    marks: tuple[dict, dict] | None = None

    @property
    def completed(self) -> int:
        return len(self.query_s) + len(self.ingest_s)


class Requester:
    """The closed-loop client: one keep-alive connection that sends the
    next request only when the previous reply is in, and tallies it."""

    def __init__(self, address):
        from server import Client

        self.client = Client(address)
        self.tally = Window()

    def query(self, text: str) -> None:
        self.tally.attempted += 1
        status, body, seconds = self.client.call("POST", "/query",
                                                 {"query": text})
        if status != 200:
            self.tally.failed += 1
            return
        stats = body["stats"]
        self.tally.query_s.append(seconds)
        self.tally.answers.append(Answer(
            text=text, digest=body["digest"],
            version=stats["shards_total"],
            disposition=stats["cache_disposition"],
            chunks_total=stats["chunks_total"],
            chunks_scanned=stats["chunks_scanned"],
            chunks_pruned=stats["chunks_pruned"],
            rows_scanned=stats["rows_scanned"]))

    def ingest(self, csv_text: str, rows: int, table: str) -> None:
        self.tally.attempted += 1
        self.tally.ingests_attempted += 1
        status, body, seconds = self.client.call(
            "POST", "/ingest", {"csv": csv_text, "table": table})
        if status != 200 or body.get("appended") != rows:
            self.tally.failed += 1
            return
        self.tally.ingest_s.append(seconds)
        self.tally.ingest_rows += rows
        self.tally.ingest_replies.append(body)


def measure(server, drive) -> Window:
    """Run ``drive(requester)`` as the closed-loop client and measure the
    server around it: CPU time, peak memory, ``/stats`` and, under the
    traced launcher, span snapshots."""
    requester = Requester(server.address)
    try:
        window = requester.tally
        window.stats_before = requester.client.call("GET", "/stats")[1]
        mark0 = server.mark() if server.trace_out else None
        cpu0 = server.cpu_seconds()
        start = time.perf_counter()
        drive(requester)
        window.wall_s = time.perf_counter() - start
        window.cpu_s = server.cpu_seconds() - cpu0
        window.peak_rss_mb = server.peak_rss_mb()
        if mark0 is not None:
            window.marks = (mark0, server.mark())
        window.stats_after = requester.client.call("GET", "/stats")[1]
    finally:
        requester.client.close()
    return window


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A table, a warm-up and the closed-loop request sequence of one
    workload's window. The sequence is fixed by the seed and
    ``--seconds`` (each of the :data:`WINDOWS` windows is sized to take
    about a fifth of it), not by how fast the server answers, so every
    window does the same work. A window is made of whole units (a block
    of ad-hoc texts, an ingest cycle), :attr:`UNITS_PER_S` of them per
    second of the window and at least enough for :data:`MIN_QUERIES`
    over the run.
    Every workload runs one client: with two requests in flight the
    server's threads hand the interpreter lock to each other, and
    latency then depended on that hand-off timing more than on the
    layers under test (same-seed runs of a two-client dashboard spread
    by a third in p50 and by almost half in throughput)."""

    name = ""
    sharded = False
    #: Queries per unit, and units per second of a window on a 2-vCPU VM.
    QUERIES_PER_UNIT = 1
    UNITS_PER_S = 1.0

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.table_info: dict = {}
        self.units = max(
            math.ceil(MIN_QUERIES / (WINDOWS * self.QUERIES_PER_UNIT)),
            round(self.UNITS_PER_S * seconds / WINDOWS))

    def build(self, target: Path) -> None:
        import workloads as W

        write = W.write_sharded if self.sharded else W.write_single
        rows, chunks, n_bytes = write(self.seed, target)
        self.table_info = {"rows": rows, "chunks": chunks,
                           "bytes": n_bytes}

    def table_path(self, tag: str) -> Path:
        return self.work / (f"table-{tag}" if self.sharded
                            else f"table-{tag}.cohana")

    def warm(self, requester: Requester) -> None:
        raise NotImplementedError

    def drive(self, requester: Requester) -> None:
        raise NotImplementedError

    def self_checks(self, window: Window) -> dict[str, bool]:
        raise NotImplementedError


def _delta(window: Window, *path: str) -> int:
    def get(stats):
        for key in path:
            stats = stats[key]
        return stats
    return get(window.stats_after) - get(window.stats_before)


def cache_hit_ratio(window: Window) -> float:
    counts = [_delta(window, "service", "service", key)
              for key in ("hits", "misses", "bypasses", "invalidated")]
    return counts[0] / sum(counts) if sum(counts) else 0.0


class AdhocScan(Workload):
    """Never-repeated Q5-Q8 variants: every request misses the result
    cache and pays plan, prune, scan, merge and row build."""

    name = "adhoc_scan"
    #: A unit is a block of 32 texts (``workloads.BLOCK``); it takes
    #: 0.8 to 0.9 s.
    QUERIES_PER_UNIT = 32
    UNITS_PER_S = 1.15

    def __init__(self, *args):
        super().__init__(*args)
        import workloads as W

        self.texts = W.adhoc_texts(self.seed, self.units * W.BLOCK)
        self.warmup = W.adhoc_texts(self.seed, 3, stream="warmup")

    def warm(self, requester: Requester) -> None:
        for text in self.warmup:
            requester.query(text)

    def drive(self, requester: Requester) -> None:
        for text in self.texts:
            requester.query(text)

    def self_checks(self, window: Window) -> dict[str, bool]:
        sent = [a.text for a in window.answers]
        return {"texts_distinct": len(set(sent)) == len(sent),
                "cache_hit_ratio_near_0": cache_hit_ratio(window) <= 0.01}


class IngestMixed(Workload):
    """Appends of fresh-user batches, each followed by reads of a
    dashboard set (``workloads.dashboard_texts``): every append moves
    the version token, so the first read of each text
    re-plans, re-scans one more shard and re-fills the result cache.
    Then the first :attr:`HITS_PER_APPEND` texts, Q1 and Q2, are read
    again, as cache hits.

    The appends are interleaved with the reads on the one client rather
    than sent by a second, concurrent client. Concurrently, the reads
    that overlapped an append waited for the interpreter lock for
    however long the append held it, and those waits decided both
    percentiles: over ten seeds p95 spread by half its median. In
    sequence, each cycle is one append, five misses and two hits,
    whatever the machine's speed.

    Most reads are misses, so the query figures are mostly scan work.
    On a shared VM the interpreter's speed changes far more than the
    scan kernels' (in one two-minute probe, a fixed pure-Python loop
    took from 110 to 250 ms from one few-second phase to the next, a
    fixed numpy scan from 1.13 to 1.56 s). When five in six reads were
    hits, p50 was a hit, almost all interpreter work, and over ten seeds
    it spread by 0.29 to 0.34 of its median; when it fell among the
    light selective queries, by 0.28. Sorted by cost, a cycle's reads
    are the two hits, then Q4, Q3 and Q2_narrow (about 35, 65 and
    70 ms), Q2 and Q1 (about 110 and 360 ms), so p50 falls in the
    middle of the Q3 and Q2_narrow misses and p95 two thirds of the way
    into Q1's, not on a boundary between two texts.
    """

    name = "ingest_mixed"
    sharded = True
    #: Hits after each append's five misses.
    HITS_PER_APPEND = 2
    #: A unit is a cycle: one append and seven reads; it takes 0.9 to
    #: 1.1 s, a third of it Q1's miss (UserCount over every launch
    #: birth) and a third the append.
    QUERIES_PER_UNIT = 7
    UNITS_PER_S = 1.0

    def __init__(self, *args):
        super().__init__(*args)
        import workloads as W

        self.texts = W.dashboard_texts()
        self.batches = W.ingest_batches(self.seed, self.units, self.work)

    def warm(self, requester: Requester) -> None:
        for text in self.texts:
            requester.query(text)

    def drive(self, requester: Requester) -> None:
        import workloads as W

        for csv_text, rows in self.batches:
            requester.ingest(csv_text, rows, W.TABLE)
            for text in self.texts + self.texts[:self.HITS_PER_APPEND]:
                requester.query(text)

    def self_checks(self, window: Window) -> dict[str, bool]:
        appends = window.ingests_attempted
        final = window.ingest_replies[-1]["rows_total"] \
            if window.ingest_replies else None
        return {
            "every_ingest_200": appends > 0
                                and len(window.ingest_s) == appends,
            "invalidations_ge_appends":
                _delta(window, "service", "service", "invalidated")
                >= appends,
            "rows_total_matches":
                final == self.table_info["rows"] + window.ingest_rows,
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (AdhocScan, IngestMixed)}


# ---------------------------------------------------------------------------
# Correctness: every answer against a direct in-process engine
# ---------------------------------------------------------------------------


class Verifier:
    """Expected digests from a direct :class:`CohanaEngine` over the
    table bytes the server served. For a sharded table, the answer's
    ``shards_total`` names the version it was computed on, and the
    direct engine loads exactly that prefix of the shards.

    Every window's table is built from the same seed and appended the
    same batches, so a version's digests are computed once, from the
    table of the first window that asks, and every later window's
    answers must match them too."""

    def __init__(self, work: Path):
        self.work = work
        self._engines: dict[int, object] = {}
        self._digests: dict[tuple, str] = {}

    def _engine(self, table: Path, version: int):
        from repro.cohana.engine import CohanaEngine
        from repro.storage import read_manifest

        import workloads as W

        key = version
        if key not in self._engines:
            source = table
            if version:  # a prefix of the sharded directory
                source = self.work / f"verify-{len(self._engines)}"
                source.mkdir()
                manifest = read_manifest(table)
                manifest["shards"] = manifest["shards"][:version]
                for entry in manifest["shards"]:
                    shutil.copyfile(table / entry["path"],
                                    source / entry["path"])
                (source / "MANIFEST.json").write_text(json.dumps(manifest))
            engine = CohanaEngine()
            engine.load_table(W.TABLE, source)
            self._engines[key] = engine
        return self._engines[key]

    def expected(self, table: Path, version: int, text: str) -> str:
        from repro.service.protocol import result_digest

        key = (version, text)
        if key not in self._digests:
            result = self._engine(table, version).query(text)
            self._digests[key] = result_digest(result)
        return self._digests[key]

    def mismatches(self, table: Path, answers: list[Answer]) -> int:
        return sum(a.digest != self.expected(table, a.version, a.text)
                   for a in answers)


# ---------------------------------------------------------------------------
# Phases and metrics
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """One served table: its window, checks and closing state."""

    window: Window
    table: Path
    mismatches: int
    checks: dict[str, bool]
    final_mismatches: int = 0


def run_phase(workload: Workload, server, table: Path,
              verifier: Verifier) -> Phase:
    """Warm up, measure one window, then check every answer."""
    warm = Requester(server.address)
    try:
        workload.warm(warm)
    finally:
        warm.client.close()
    if warm.tally.failed:
        raise RuntimeError(f"{warm.tally.failed} warm-up requests failed")
    window = measure(server, workload.drive)
    mismatches = verifier.mismatches(table, window.answers)
    final_mismatches = 0
    if workload.sharded:
        # Once the writer is done, the dashboard set must answer as a
        # direct engine over the final directory does.
        final = Requester(server.address)
        try:
            for text in workload.texts:
                final.query(text)
        finally:
            final.client.close()
        from repro.storage import read_manifest

        shards = len(read_manifest(table)["shards"])
        final_mismatches = final.tally.failed + sum(
            a.digest != verifier.expected(table, shards, a.text)
            for a in final.tally.answers)
    return Phase(window=window, table=table, mismatches=mismatches,
                 checks=workload.self_checks(window),
                 final_mismatches=final_mismatches)


def setup(workload: Workload, table: Path, tag: str,
          trace_out: Path | None = None, build: bool = True):
    """Build and write the table, boot the server, wait for /healthz.
    Returns ``(server, seconds)``."""
    from server import ServerProcess

    start = time.perf_counter()
    if build:
        workload.build(table)
    server = ServerProcess(ROOT, table, workload.work / f"{tag}.log",
                           trace_out)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def end_to_end(windows: list[Window]) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)``, pooled over ``windows``."""
    q = [s for w in windows for s in w.query_s]
    ops = sum(w.completed for w in windows)
    return {
        "query_p50_ms": (statistics.median(q) * 1e3, "ms", len(q)),
        "query_p95_ms": (_percentile(q, 0.95) * 1e3, "ms", len(q)),
        "query_throughput_qps": (
            len(q) / sum(w.wall_s for w in windows), "1/s", len(q)),
        "server_cpu_ms_per_op": (
            sum(w.cpu_s for w in windows) * 1e3 / ops, "ms", ops),
        "server_peak_rss_mb": (
            statistics.mean(w.peak_rss_mb for w in windows), "MB",
            len(windows)),
    }


def ingest_metrics(windows: list[Window],
                   ) -> dict[str, tuple[float, str, int]]:
    ing = [s for w in windows for s in w.ingest_s]
    if not ing:
        return {}
    return {
        "ingest_p50_ms": (statistics.median(ing) * 1e3, "ms", len(ing)),
        "ingest_rows_per_s": (
            sum(w.ingest_rows for w in windows) / sum(ing), "rows/s",
            len(ing)),
    }


def per_layer(workload: Workload, untraced: Window, traced: Phase,
              ) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced window."""
    window = traced.window
    before, after = window.marks
    span = {name: {k: after["spans"][name][k] - before["spans"][name][k]
                   for k in ("count", "total_s")}
            for name in after["spans"]}

    def total_ms(*names: str) -> float:
        return sum(span[n]["total_s"] for n in names) * 1e3

    n_q = len(window.query_s)
    n_ing = len(window.ingest_s)
    executed = [a for a in window.answers if a.disposition != "hit"]
    chunks_total = sum(a.chunks_total for a in executed)
    scan_s = span["operators.execute_chunk"]["total_s"]
    plan_hits = (_delta(window, "service", "plans", "hits")
                 + after["shard_plan_cache"]["hits"]
                 - before["shard_plan_cache"]["hits"])
    plan_lookups = plan_hits + (
        _delta(window, "service", "plans", "misses")
        + after["shard_plan_cache"]["misses"]
        - before["shard_plan_cache"]["misses"])
    reads = span["http.read_request"]["count"]
    admits = span["http.admit"]["count"]
    shards = 1
    bytes_written = 0
    if workload.sharded:
        from repro.storage import read_manifest

        entries = read_manifest(traced.table)["shards"]
        shards = len(entries)
        bytes_written = sum(e["n_bytes"] for e in entries[1:])
    untraced_p50 = statistics.median(untraced.query_s)
    ingest = ingest_metrics([untraced])

    def per_query(ms: float) -> float:
        return ms / n_q

    def per_append(ms: float) -> float:
        return ms / n_ing if n_ing else 0.0

    return {
        "operators.scan_ms": (per_query(total_ms(
            "operators.execute_chunk")), "ms"),
        "operators.rows_per_s": (
            sum(a.rows_scanned for a in executed) / scan_s
            if scan_s else 0.0, "rows/s"),
        "pipeline.prune_ms": (per_query(total_ms("pipeline.tasks")), "ms"),
        "pipeline.prune_ratio": (
            sum(a.chunks_pruned for a in executed) / chunks_total
            if chunks_total else 0.0, "ratio"),
        "pipeline.chunks_scanned": (
            sum(a.chunks_scanned for a in executed) / n_q, "count"),
        "pipeline.merge_ms": (per_query(total_ms("pipeline.absorb")), "ms"),
        "pipeline.build_rows_ms": (per_query(total_ms(
            "pipeline.build_rows")), "ms"),
        "planner.plan_ms": (per_query(total_ms(
            "planner.plan_query", "planner.shard_plan")), "ms"),
        "planner.plan_cache_hit_ratio": (
            plan_hits / plan_lookups if plan_lookups else 0.0, "ratio"),
        "service.bind_ms": (per_query(total_ms(
            "service.parse", "http.bind")), "ms"),
        "service.cache_lookup_ms": (per_query(total_ms(
            "service.result_fingerprint", "service.cache_get")), "ms"),
        "service.cache_hit_ratio": (cache_hit_ratio(window), "ratio"),
        "service.invalidations": (float(_delta(
            window, "service", "service", "invalidated")), "count"),
        "service.singleflight_waits": (float(_delta(
            window, "service", "service", "singleflight_waits")), "count"),
        "http.read_ms": (total_ms("http.read_request") / reads
                         if reads else 0.0, "ms"),
        "http.admission_wait_ms": (total_ms("http.admit") / admits
                                   if admits else 0.0, "ms"),
        "http.encode_ms": (per_query(total_ms(
            "http.result_payload", "http.render_response")), "ms"),
        "http.shed": (float(_delta(window, "http", "shed")), "count"),
        "storage.csv_parse_ms": (per_append(total_ms("storage.read_csv")),
                                 "ms"),
        "storage.append_ms": (per_append(total_ms(
            "storage.append_shard")), "ms"),
        "storage.publish_ms": (per_append(total_ms(
            "storage.publish_manifest")), "ms"),
        "storage.refresh_ms": (per_append(total_ms(
            "storage.refresh_table")), "ms"),
        "storage.shards": (float(shards), "count"),
        "storage.bytes_written_per_row": (
            bytes_written / window.ingest_rows
            if window.ingest_rows else 0.0, "B/row"),
        "ingest.p50_ms": (ingest["ingest_p50_ms"][0]
                          if ingest else 0.0, "ms"),
        "ingest.rows_per_s": (ingest["ingest_rows_per_s"][0]
                              if ingest else 0.0, "rows/s"),
        "trace.overhead_ratio": (
            statistics.median(window.query_s) / untraced_p50, "ratio"),
    }


def span_table(window: Window) -> list[str]:
    """Per-span count, total and self time over the traced window."""
    before, after = window.marks
    lines = [f"{'span':32} {'calls':>8} {'total_ms':>11} {'self_ms':>11}"]
    for name, now in after["spans"].items():
        was = before["spans"][name]
        calls = now["count"] - was["count"]
        if calls:
            lines.append(
                f"{name:32} {calls:8d} "
                f"{(now['total_s'] - was['total_s']) * 1e3:11.1f} "
                f"{(now['self_s'] - was['self_s']) * 1e3:11.1f}")
    return lines


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: Workload, trace: bool) -> tuple[dict, dict, list[str]]:
    """Returns ``(result line, run record, report lines)``."""
    verifier = Verifier(workload.work)
    servers = []
    phases: list[Phase] = []
    setups: list[float] = []
    report: list[str] = []
    try:
        if not trace:
            for i in range(WINDOWS):
                table = workload.table_path(f"s{i}")
                server, seconds = setup(workload, table, f"s{i}")
                servers.append(server)
                setups.append(seconds)
                phases.append(run_phase(workload, server, table, verifier))
                server.stop()
        else:
            pristine = workload.table_path("pristine")
            workload.build(pristine)
            for tag, traced in (("untraced", False), ("traced", True)):
                table = pristine
                if workload.sharded:  # appends change it: serve a copy
                    table = workload.table_path(tag)
                    shutil.copytree(pristine, table)
                trace_out = workload.work / "trace.json" if traced else None
                server, _ = setup(workload, table, tag, trace_out,
                                  build=False)
                servers.append(server)
                phases.append(run_phase(workload, server, table, verifier))
                server.stop()
    finally:
        for server in servers:
            server.stop()

    attempted = sum(p.window.attempted for p in phases)
    failed = sum(p.window.failed + p.mismatches + p.final_mismatches
                 for p in phases)
    checks = {}
    for phase in phases:
        for name, ok in phase.checks.items():
            checks[name] = checks.get(name, True) and ok
    correct = failed == 0 and all(checks.values())

    if not trace:
        windows = [p.window for p in phases]
        pooled = {**end_to_end(windows), **ingest_metrics(windows)}
        each = [{**end_to_end([w]), **ingest_metrics([w])}
                for w in windows]
        metrics = {}
        for name, (value, unit, n) in pooled.items():
            metrics[name] = (value, unit)
            report.append(
                f"{name} = {value:.4f} {unit} (n={n} over "
                f"{len(windows)} windows; each: "
                f"{', '.join(f'{w[name][0]:.4g}' for w in each)})")
        for name in ingest_metrics(windows):
            del metrics[name]  # printed, but not end-to-end metrics
        metrics["setup_s"] = (statistics.median(setups), "s")
        report.append(
            f"setup_s = {metrics['setup_s'][0]:.4f} s (median of "
            f"{len(setups)} set-ups: "
            f"{', '.join(f'{v:.4g}' for v in setups)})")
    else:
        metrics = per_layer(workload, phases[0].window, phases[1])
        report += [f"{name} = {value:.6g} {unit}"
                   for name, (value, unit) in metrics.items()]
        report += span_table(phases[1].window)
    report.append(f"error_rate = {failed / attempted:.6f} "
                  f"({failed} of {attempted})")

    import numpy
    from server import BENCH_CPU

    record = {
        "workload": workload.name, "seed": workload.seed,
        "seconds": workload.seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "table": workload.table_info,
        "client_threads": 1,
        "cpu": BENCH_CPU,
        "phases": [{
            "attempted": p.window.attempted,
            "completed": p.window.completed,
            "failed": p.window.failed, "digest_mismatches": p.mismatches,
            "final_mismatches": p.final_mismatches,
            "queries": len(p.window.query_s),
            "ingests": len(p.window.ingest_s),
            "wall_s": round(p.window.wall_s, 3),
            "cache_hit_ratio": round(cache_hit_ratio(p.window), 4),
        } for p in phases],
        "self_checks": checks,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, record, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from server import pin

    pin()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, args.seconds,
                                                   work)
        result, record, report = run(workload, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in report:
        print(line)
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
