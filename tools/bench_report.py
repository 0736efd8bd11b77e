#!/usr/bin/env python3
"""Aggregate ``BENCH_*.json`` records into one Markdown report.

Every recorded experiment (``benchmarks/run_all.py``) writes a JSON
payload — parallel scaling, the service cache, the HTTP serving
tier, shard appends, materialized views, compaction. This
tool renders them as a
single Markdown document: a summary table (one row per experiment with
its pass/fail verdicts) followed by a per-experiment trajectory table,
so a CI run's bench-smoke artifacts read as one page instead of five
JSON blobs. Stdlib only.

Usage::

    python tools/bench_report.py                   # ./BENCH_*.json
    python tools/bench_report.py BENCH_views.json  # specific files
    python tools/bench_report.py --out BENCH_REPORT.md
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Top-level list-of-dict keys rendered as tables, in display order.
_TABLE_KEYS = ("steps", "summary", "records", "selective_scan", "parity")

#: Keys carrying per-experiment context worth a one-line mention.
_CONTEXT_KEYS = ("seed", "scale", "n_batches", "chunk_rows", "jobs",
                 "cpus", "query", "concurrency", "requests_per_worker")


def _fmt(value) -> str:
    """One Markdown table cell."""
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.5f}".rstrip("0").rstrip(".") or "0"
    if value is None:
        return "-"
    return str(value).replace("|", "\\|")


def _table(rows: list[dict]) -> list[str]:
    """Render dict rows as a Markdown table (first row fixes the
    column order; later-only keys are appended)."""
    columns = list(rows[0])
    for row in rows[1:]:
        columns.extend(k for k in row if k not in columns)
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(k))
                                       for k in columns) + " |")
    return lines


def _verdicts(payload: dict) -> dict[str, bool]:
    """The experiment's pass/fail flags (``*_ok`` by convention)."""
    return {k: v for k, v in payload.items()
            if k.endswith("_ok") and isinstance(v, bool)}


def _section(path: Path, payload: dict) -> list[str]:
    name = payload.get("experiment", path.stem)
    lines = [f"## {name} (`{path.name}`)", ""]
    context = ", ".join(f"{k}={payload[k]}" for k in _CONTEXT_KEYS
                        if k in payload)
    if context:
        lines += [context, ""]
    for key in _TABLE_KEYS:
        rows = payload.get(key)
        if (isinstance(rows, list) and rows
                and all(isinstance(r, dict) for r in rows)):
            if key != "steps":
                lines += [f"### {key}", ""]
            lines += _table(rows) + [""]
    backends = payload.get("backends")
    if isinstance(backends, dict) and backends:
        lines += ["### backends", ""]
        lines += _table([{"backend": name, **record}
                         for name, record in backends.items()]) + [""]
    verdicts = _verdicts(payload)
    if verdicts:
        lines += ["Checks: " + ", ".join(
            f"{k}={_fmt(v)}" for k, v in verdicts.items()), ""]
    return lines


def render(paths: list[Path]) -> tuple[str, bool]:
    """The full report and whether every verdict in it passed."""
    loaded = []
    for path in paths:
        try:
            loaded.append((path, json.loads(
                path.read_text(encoding="utf-8"))))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    lines = ["# Benchmark report", ""]
    summary = []
    all_ok = True
    for path, payload in loaded:
        verdicts = _verdicts(payload)
        all_ok = all_ok and all(verdicts.values())
        summary.append({
            "experiment": payload.get("experiment", path.stem),
            "file": path.name,
            "checks": ", ".join(f"{k}={_fmt(v)}"
                                for k, v in verdicts.items()) or "-",
        })
    if summary:
        lines += _table(summary) + [""]
    for path, payload in loaded:
        lines += _section(path, payload)
    return "\n".join(lines).rstrip() + "\n", all_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="render BENCH_*.json records as one Markdown report")
    parser.add_argument("files", nargs="*", type=Path,
                        help="benchmark JSON files "
                             "(default: ./BENCH_*.json)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any *_ok verdict is false")
    args = parser.parse_args(argv)
    paths = args.files or sorted(Path.cwd().glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 2
    report, all_ok = render(list(paths))
    if args.out:
        args.out.write_text(report, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(report, end="")
    return 0 if (all_ok or not args.strict) else 1


if __name__ == "__main__":
    raise SystemExit(main())
