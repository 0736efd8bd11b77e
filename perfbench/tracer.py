"""Traced server launcher: time calls into each layer of ``repro``.

Run as ``python perfbench/tracer.py --out <json> serve <table> --http
127.0.0.1:0``. It wraps the public functions listed in :data:`SPANS`
with timers, patching each one in the module that calls it, and then
enters ``repro.cli.main`` with the remaining arguments, so the server is
the ordinary one with timers around its layer boundaries. ``src/`` is
not modified.

For every span it keeps the call count, the total time and the self
time (total minus the time of traced calls made inside it, on the same
thread). ``SIGUSR1`` writes a snapshot to ``<out>.mark<n>.json``, so a
client can take the difference over a measured window; the final
totals go to ``<out>`` when the server has drained.

Coroutines (``read_request``, ``AdmissionController.admit``) run
interleaved on the event loop, so they are timed as wholes and take no
part in the self-time accounting. ``read_request`` is timed from the
arrival of the first request byte: on a keep-alive connection the
call starts while the client is still busy with the previous reply.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import importlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

#: (span name, module whose attribute is replaced, attribute path).
#: The module is the one that *calls* the function: names bound by
#: ``from x import f`` are replaced where they were imported to.
SPANS = (
    ("http.read_request", "repro.service.http", "read_request"),
    ("http.admit", "repro.service.http", "AdmissionController.admit"),
    ("http.result_payload", "repro.service.http", "result_payload"),
    ("http.render_response", "repro.service.http", "render_response"),
    # In CLI mode the HTTP tier parses each text once more, to bind
    # the served table under its FROM name.
    ("http.bind", "repro.service.http", "HttpCohortServer._bind"),
    ("service.query_with_stats", "repro.service.service",
     "QueryService.query_with_stats"),
    ("service.parse", "repro.cohana.engine", "CohanaEngine.parse"),
    ("service.result_fingerprint", "repro.service.service",
     "result_fingerprint"),
    ("service.cache_get", "repro.service.cache", "LRUCache.get"),
    ("service.execute", "repro.service.service", "execute"),
    ("planner.plan_query", "repro.service.service", "plan_query"),
    ("planner.shard_plan", "repro.cohana.pipeline", "shard_plan"),
    ("pipeline.tasks", "repro.cohana.pipeline", "ChunkScheduler.tasks"),
    ("operators.execute_chunk", "repro.cohana.operators",
     "PhysicalPlan.execute_chunk"),
    ("pipeline.absorb", "repro.cohana.pipeline", "MergeState.absorb"),
    ("pipeline.build_rows", "repro.cohana.pipeline", "build_rows"),
    # /ingest imports these inside the request, from the packages.
    ("storage.read_csv", "repro.table", "read_csv"),
    ("storage.append_shard", "repro.storage", "append_shard"),
    ("storage.publish_manifest", "repro.storage.sharded",
     "publish_manifest"),
    ("storage.refresh_table", "repro.cohana.engine",
     "CohanaEngine.refresh_table"),
)


class Tracer:
    """Per-span call counts, total and self seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, total: float, own: float) -> None:
        with self._lock:
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += total
            entry[2] += own

    def wrap(self, name: str, fn):
        if asyncio.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.record(name, elapsed, elapsed - children[0])

        return timed

    def _wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.record(name, elapsed, elapsed)

        return timed

    def wrap_read_request(self, name: str, fn):
        """Like :meth:`wrap`, but the timer starts at the first byte."""
        timed = self._wrap_async(name, fn)

        @functools.wraps(fn)
        async def from_first_byte(reader, *args, **kwargs):
            await _first_byte(reader)
            return await timed(reader, *args, **kwargs)

        return from_first_byte

    def snapshot(self) -> dict:
        from repro.cohana.pipeline import SHARD_PLAN_CACHE_STATS

        with self._lock:
            spans = {name: {"count": n, "total_s": total, "self_s": own}
                     for name, (n, total, own) in self.totals.items()}
        return {"spans": spans,
                "shard_plan_cache": dict(SHARD_PLAN_CACHE_STATS)}


async def _first_byte(reader) -> None:
    """Wait until the stream has a byte (or EOF) without consuming it.

    ``asyncio.StreamReader`` has no public peek, so this uses its
    private ``_buffer`` and ``_wait_for_data``; CPython's asyncio has had
    both since 3.4. Without them the span is timed from the call
    instead, and then includes the wait for the client."""
    try:
        if reader._buffer or reader.at_eof():
            return
        await reader._wait_for_data("read_request")
    except AttributeError:
        pass  # no private peek on this Python
    except (ConnectionError, RuntimeError):
        pass  # read_request itself raises what the server expects


def install(tracer: Tracer) -> None:
    """Replace every function in :data:`SPANS` by its timed wrapper."""
    for name, module_name, attr in SPANS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        wrap = tracer.wrap_read_request if name == "http.read_request" \
            else tracer.wrap
        setattr(owner, leaf, wrap(name, getattr(owner, leaf)))


def _write(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args, rest = parser.parse_known_args(argv)
    tracer = Tracer()
    install(tracer)

    # The signal handler only wakes a writer thread: the handler runs on
    # the event-loop thread, which may hold the tracer's lock.
    requested = threading.Semaphore(0)

    def write_marks() -> None:
        mark = 0
        while True:
            requested.acquire()
            _write(Path(f"{args.out}.mark{mark}.json"), tracer.snapshot())
            mark += 1

    threading.Thread(target=write_marks, name="trace-marks",
                     daemon=True).start()
    signal.signal(signal.SIGUSR1, lambda *_: requested.release())

    from repro.cli import main as repro_main

    code = repro_main(rest)
    _write(args.out, tracer.snapshot())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
