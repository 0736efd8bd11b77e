"""Regenerate every figure of the paper's evaluation as text reports.

Usage::

    python benchmarks/run_all.py                    # everything
    python benchmarks/run_all.py fig11 fig08        # selected experiments
    python benchmarks/run_all.py parallel --jobs 8  # parallel scaling only

The reports print the same rows/series the paper plots. Absolute numbers
differ from the paper (Python/numpy kernels + synthetic data at ~1/1000
size); orderings, slopes and crossovers are the reproduction target.

The ``parallel`` experiment sweeps the chunk pipeline's worker count
across all three backends (``serial`` / ``threads`` / ``processes``)
over memory-mapped on-disk tables, runs the selective-scan experiment
(a user-selective birth condition on the mmap table, all backends,
with result-digest parity), and
records the timings (with speedups, the seed, the jobs sweep, and the
machine's CPU count — scaling is bounded by the hardware, so a 1-core
container legitimately records flat curves) in ``BENCH_parallel.json``:
``--seed`` pins the dataset generator, ``--jobs`` sets the largest
worker count measured.

The ``serve_http`` experiment drives a live :class:`HttpCohortServer`
with ``http.client`` worker threads: p50/p99 latency and throughput at
client concurrency 1/16/64 with the result cache on and off (every
response digest checked against a direct engine run), a burst against
a one-slot admission config witnessing honest 429 + ``Retry-After``
shedding, and a graceful drain with requests in flight completing with
zero drops; ``BENCH_http.json`` records the sweep and the
parity / shed / drain verdicts.

The ``shards`` experiment ingests the dataset as user-disjoint batches
into a sharded table directory, measuring each append (one new shard +
manifest update) against the full single-file rewrite of the same
accumulated data, then checks sharded-vs-single scan parity and
records per-shard pruning counters in ``BENCH_shards.json``.

The ``views`` experiment registers a materialized view over a growing
sharded table and, after every append, refreshes it (exactly one new
shard may be scanned), times the warm serve (re-merge of cached
per-shard partials) against direct execution, and checks digest parity
on every scan backend; ``BENCH_views.json`` records the per-append
curve and the flat-latency / parity verdicts.

The ``compaction`` experiment appends the dataset as many small
shards, compacts them into one, and shows query latency recovering to
single-file levels while results stay digest-identical, the engine's
version token (and therefore the service result cache) survives the
rewrite, and per-batch append cost stays O(new data);
``BENCH_compaction.json`` records the parity / recovery / token /
append verdicts.

The ``operators`` experiment guards the operator-tree refactor: it
times the per-chunk scan once as the pre-refactor flat kernel loop
(``kernel.scan`` per chunk) and once through the lowered physical
tree (``PhysicalPlan.execute_chunk``) over the selective suite,
asserting the tree stays within 1.1x, plus result-digest parity on
all three scan backends; ``BENCH_operators.json`` records the
latency / parity verdicts.

Every recorded experiment additionally folds in the
vectorized-vs-iterator kernel digest-parity sweep
(``kernel_parity_ok``), so ``tools/bench_report.py --strict`` fails
on any kernel divergence regardless of which experiment surfaced it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import (
    compaction_records,
    kernel_parity_records,
    materialized_view_records,
    operator_tree_records,
    parallel_scaling,
    parallel_scaling_records,
    selective_scan_records,
    service_cache_records,
    set_default_seed,
    shard_append_records,
)
from repro.bench.report_runner import resolve_experiments, run_and_print


def kernel_parity(scale: int, chunk_rows: int = 1024) -> dict:
    """The vectorized-vs-iterator digest-parity sweep every recorded
    experiment folds into its payload (``kernel_parity_ok``), printed
    as one verdict line."""
    sweep = kernel_parity_records(scale=scale, chunk_rows=chunk_rows)
    ok = sweep["kernel_parity_ok"]
    print(f"  kernel parity (vectorized vs iterator, "
          f"{len(sweep['kernel_parity'])} queries): "
          f"{'OK' if ok else 'MISMATCH'}")
    return sweep


def jobs_sweep(max_jobs: int) -> tuple[int, ...]:
    """Worker counts to measure: doubling from 1 up to ``max_jobs``."""
    counts = [1]
    while counts[-1] * 2 <= max_jobs:
        counts.append(counts[-1] * 2)
    if counts[-1] != max_jobs:
        counts.append(max_jobs)
    return tuple(counts)


def run_parallel(max_jobs: int, seed: int, out: Path) -> None:
    """Run the parallel-scaling sweep (all backends, on-disk mmap
    tables) plus the selective-scan experiment and record
    BENCH_parallel.json."""
    import os
    sweep = jobs_sweep(max_jobs)
    report = parallel_scaling(jobs_counts=sweep)
    print()
    print(report.to_text())
    selective = selective_scan_records(jobs_counts=sweep)
    base = next(r["seconds"] for r in selective
                if r["backend"] == "processes" and r["jobs"] == 1)
    print("\nselective scan (on-disk mmap table):")
    for record in selective:
        print(f"  {record['backend']:<10} jobs={record['jobs']}  "
              f"{record['seconds']:.4f}s")
    best = min((r for r in selective if r["backend"] == "processes"),
               key=lambda r: r["seconds"])
    print(f"  processes best: jobs={best['jobs']} "
          f"x{base / best['seconds']:.2f} vs jobs=1 "
          f"({os.cpu_count()} cpus visible)")
    payload = {
        "experiment": "parallel_scaling",
        "seed": seed,
        "jobs": list(sweep),
        "cpus": os.cpu_count(),
        "records": parallel_scaling_records(report),
        "selective_scan": selective,
        **kernel_parity(scale=4),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[parallel results written to {out}]")


def run_service(seed: int, out: Path, scale: int = 8,
                chunk_rows: int = 1024, repeat: int = 5) -> None:
    """Run the query-service cache experiment (cold admission vs
    result-cache hit, digest parity against the direct engine) and
    record BENCH_service.json."""
    records = service_cache_records(scale=scale, chunk_rows=chunk_rows,
                                    repeat=repeat)
    parity_ok = all(r["digest_parity"] for r in records)
    speedup_ok = all(r["speedup"] is not None and r["speedup"] >= 10.0
                     for r in records)
    print("\nquery-service result cache (cold miss vs cached hit):")
    for record in records:
        print(f"  {record['query']:<16} cold {record['cold_seconds']:.5f}s"
              f"  cached {record['warm_seconds']:.6f}s"
              f"  x{record['speedup']:.0f}"
              f"  [{record['warm_disposition']}]")
    print(f"  digest parity: {'OK' if parity_ok else 'MISMATCH'}; "
          f"cached >= 10x cold: {'yes' if speedup_ok else 'NO'}")
    payload = {
        "experiment": "service_cache",
        "seed": seed,
        "scale": scale,
        "chunk_rows": chunk_rows,
        "records": records,
        "parity_ok": parity_ok,
        "speedup_ok": speedup_ok,
        **kernel_parity(scale, chunk_rows),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[service-cache results written to {out}]")


def run_serve_http(seed: int, out: Path, scale: int = 4,
                   chunk_rows: int = 1024,
                   concurrency: tuple[int, ...] = (1, 16, 64),
                   requests_per_worker: int = 4) -> None:
    """Run the HTTP serving-tier gauntlet (latency sweep at several
    client concurrencies with the result cache on/off, the
    load-shedding burst, the graceful-drain witness) and record
    BENCH_http.json."""
    from repro.bench.http_load import serve_http_records

    payload = serve_http_records(scale=scale, chunk_rows=chunk_rows,
                                 concurrency=concurrency,
                                 requests_per_worker=requests_per_worker)
    print("\nHTTP serving tier under load:")
    for r in payload["records"]:
        print(f"  clients={r['concurrency']:<3} cache={r['cache']:<4}"
              f" p50 {r['p50_seconds']:.5f}s  p99 {r['p99_seconds']:.5f}s"
              f"  {r['throughput_rps']:.0f} req/s"
              f"  {'OK' if r['digest_parity'] else 'MISMATCH'}")
    shed, drain = payload["shed"], payload["drain"]
    print(f"  shed burst: {shed['shed_429']}/{shed['burst']} got 429 "
          f"({', '.join(f'{k}={v}' for k, v in shed['reasons'].items())}"
          f"), Retry-After honest: "
          f"{'yes' if shed['retry_after_ok'] else 'NO'}")
    print(f"  drain: {drain['completed']}/{drain['inflight_target']} "
          f"in-flight completed, listener refused after: "
          f"{'yes' if drain['refused_after_drain'] else 'NO'}")
    print(f"  parity: {'OK' if payload['parity_ok'] else 'MISMATCH'}; "
          f"shedding honest: {'yes' if payload['shed_ok'] else 'NO'}; "
          f"drain clean: {'yes' if payload['drain_ok'] else 'NO'}")
    payload = {
        "experiment": "serve_http",
        "seed": seed,
        **payload,
        **kernel_parity(scale, chunk_rows),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[serve-http results written to {out}]")


def run_shards(seed: int, out: Path, scale: int = 4,
               n_batches: int = 4, chunk_rows: int = 1024) -> None:
    """Run the sharded append-vs-rewrite experiment and record
    BENCH_shards.json (per-batch ingestion cost, scan parity between
    the sharded table and a single file of the same data, and
    per-shard pruning counters)."""
    payload = shard_append_records(scale=scale, n_batches=n_batches,
                                   chunk_rows=chunk_rows)
    print("\nsharded append vs full rewrite:")
    for step in payload["steps"]:
        print(f"  batch {step['step']}: append "
              f"{step['append_seconds']:.4f}s "
              f"({step['append_bytes']:,}B new)  rewrite "
              f"{step['rewrite_seconds']:.4f}s "
              f"({step['rewrite_bytes']:,}B total)  "
              f"x{step['speedup']:.2f}")
    parity_ok = all(p["digest_parity"] for p in payload["parity"])
    last = payload["steps"][-1]
    # Bytes are the deterministic O(new data) witness: the last append
    # writes one batch's shard while the rewrite re-encodes the whole
    # table. Wall-clock speedup is recorded too but can be noisy on
    # tiny smoke datasets.
    append_ok = (last["append_bytes"] < last["rewrite_bytes"]
                 and last["speedup"] is not None)
    pruning = payload["pruning"]
    print(f"  parity: {'OK' if parity_ok else 'MISMATCH'}; last append "
          f"wrote {last['append_bytes']:,}B vs {last['rewrite_bytes']:,}B "
          f"rewrite; pruning [{pruning['query']}]: "
          f"{pruning['chunks_pruned']}/{pruning['chunks_total']} chunks "
          f"pruned over {pruning['shards_total']} shards")
    payload = {
        "experiment": "shard_append",
        "seed": seed,
        **payload,
        "parity_ok": parity_ok,
        "append_ok": append_ok,
        **kernel_parity(scale, chunk_rows),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[shard-append results written to {out}]")


def run_views(seed: int, out: Path, scale: int = 4,
              n_batches: int = 4, chunk_rows: int = 1024) -> None:
    """Run the materialized-view serving experiment and record
    BENCH_views.json (per-append refresh/serve stats, the flat-latency
    witness, and digest parity against direct execution on every scan
    backend)."""
    payload = materialized_view_records(scale=scale, n_batches=n_batches,
                                        chunk_rows=chunk_rows)
    print("\nmaterialized view serve vs direct execution:")
    for step in payload["steps"]:
        print(f"  append {step['step']}: refresh scanned "
              f"{step['shards_new']}/{step['shards_total']} shards  "
              f"serve {step['serve_seconds']:.5f}s  "
              f"direct {step['direct_seconds']:.5f}s  "
              f"({step['rows_total']} rows)")
    first, last = (payload["first_serve_seconds"],
                   payload["last_serve_seconds"])
    print(f"  backends: " + ", ".join(
        f"{name} {'OK' if rec['parity'] else 'MISMATCH'}"
        for name, rec in payload["backends"].items()))
    print(f"  parity: {'OK' if payload['parity_ok'] else 'MISMATCH'}; "
          f"refresh incremental: "
          f"{'yes' if payload['refresh_ok'] else 'NO'}; "
          f"serve flat (last {last:.5f}s vs first {first:.5f}s): "
          f"{'yes' if payload['flat_ok'] else 'NO'}")
    payload = {
        "experiment": "materialized_views",
        "seed": seed,
        **payload,
        **kernel_parity(scale, chunk_rows),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[materialized-view results written to {out}]")


def run_compaction(seed: int, out: Path, scale: int = 4,
                   n_batches: int = 6, chunk_rows: int = 1024) -> None:
    """Run the shard-compaction experiment and record
    BENCH_compaction.json (pre/post/single-file latency per query,
    digest parity, version-token survival, and the O(new data) append
    witness)."""
    payload = compaction_records(scale=scale, n_batches=n_batches,
                                 chunk_rows=chunk_rows)
    print("\nshard compaction: many small shards -> one file:")
    last = payload["steps"][-1]
    print(f"  {payload['n_shards_pre']} shards appended (last append "
          f"{last['append_bytes']:,}B vs {payload['single_bytes']:,}B "
          f"single file); compacted to {payload['n_shards_post']} in "
          f"{payload['compact_seconds']:.4f}s (generation "
          f"{payload['generation_pre']} -> "
          f"{payload['generation_post']}; GC with the old snapshot "
          f"pinned: {len(payload['gc_while_pinned'])} file(s), after "
          f"release: {len(payload['gc_after_refresh'])})")
    for p in payload["parity"]:
        print(f"  {p['query']}: pre {p['seconds_pre']:.5f}s  post "
              f"{p['seconds_post']:.5f}s  single "
              f"{p['seconds_single']:.5f}s  "
              f"(x{p['recovery_ratio']:.2f} of single)  "
              f"{'OK' if p['digest_parity'] else 'MISMATCH'}")
    print(f"  token survives compaction: "
          f"{'yes' if payload['token_ok'] else 'NO'} (warm service "
          f"call: {payload['warm_disposition']}); parity: "
          f"{'OK' if payload['parity_ok'] else 'MISMATCH'}; latency "
          f"recovered: {'yes' if payload['recovery_ok'] else 'NO'}")
    payload = {
        "experiment": "compaction",
        "seed": seed,
        **payload,
        **kernel_parity(scale, chunk_rows),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[compaction results written to {out}]")


def run_operators(seed: int, out: Path, scale: int = 4,
                  chunk_rows: int = 1024, repeat: int = 5) -> None:
    """Run the operator-tree regression experiment and record
    BENCH_operators.json (lowered-tree vs flat-kernel-loop latency on
    the selective suite, three-backend digest parity, and the kernel
    parity sweep)."""
    payload = operator_tree_records(scale=scale, chunk_rows=chunk_rows,
                                    repeat=repeat)
    print("\noperator-tree execution vs flat kernel loop:")
    for record in payload["records"]:
        print(f"  {record['query']:<14} flat "
              f"{record['flat_seconds']:.5f}s  tree "
              f"{record['tree_seconds']:.5f}s  "
              f"x{record['ratio']:.3f}  "
              f"{'OK' if record['parity'] else 'MISMATCH'}")
    print(f"  tree within 1.1x of flat loop: "
          f"{'yes' if payload['latency_ok'] else 'NO'}; "
          f"backend parity: "
          f"{'OK' if payload['parity_ok'] else 'MISMATCH'}")
    payload = {
        "experiment": "operator_tree",
        "seed": seed,
        **payload,
        **kernel_parity(scale, chunk_rows),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[operator-tree results written to {out}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the paper's figure experiments")
    parser.add_argument("names", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="largest worker count in the parallel "
                             "scaling sweep (default 4)")
    parser.add_argument("--seed", type=int, default=7,
                        help="dataset generator seed (default 7)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_parallel.json",
                        help="where the parallel experiment records its "
                             "timings")
    parser.add_argument("--service-out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_service.json",
                        help="where the service-cache experiment "
                             "records its timings")
    parser.add_argument("--http-out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_http.json",
                        help="where the HTTP serving-tier experiment "
                             "records its timings")
    parser.add_argument("--shards-out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_shards.json",
                        help="where the shard-append experiment "
                             "records its timings")
    parser.add_argument("--views-out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_views.json",
                        help="where the materialized-view experiment "
                             "records its timings")
    parser.add_argument("--compaction-out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_compaction.json",
                        help="where the shard-compaction experiment "
                             "records its timings")
    parser.add_argument("--operators-out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_operators.json",
                        help="where the operator-tree experiment "
                             "records its timings")
    parser.add_argument("--scale", type=int, default=None,
                        help="override the dataset scale of the "
                             "recorded experiments (smoke "
                             "runs use a small value)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    set_default_seed(args.seed)

    selected, unknown = resolve_experiments(args.names)
    if unknown:
        from repro.bench.experiments import EXPERIMENTS
        print(f"unknown experiments: {unknown}; "
              f"available: {list(EXPERIMENTS)}")
        return 2
    recorded = ("parallel", "service", "serve_http",
                "shards", "views", "compaction", "operators")
    figures = [n for n in selected if n not in recorded]
    if figures:
        code = run_and_print(figures)
        if code:
            return code
    if "parallel" in selected:
        run_parallel(args.jobs, args.seed, args.out)
    if "service" in selected:
        run_service(args.seed, args.service_out,
                    **({"scale": args.scale} if args.scale else {}))
    if "serve_http" in selected:
        run_serve_http(args.seed, args.http_out,
                       **({"scale": args.scale} if args.scale else {}))
    if "shards" in selected:
        run_shards(args.seed, args.shards_out,
                   **({"scale": args.scale} if args.scale else {}))
    if "views" in selected:
        run_views(args.seed, args.views_out,
                  **({"scale": args.scale} if args.scale else {}))
    if "compaction" in selected:
        run_compaction(args.seed, args.compaction_out,
                       **({"scale": args.scale} if args.scale else {}))
    if "operators" in selected:
        run_operators(args.seed, args.operators_out,
                      **({"scale": args.scale} if args.scale else {}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
