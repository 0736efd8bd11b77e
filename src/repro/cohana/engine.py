"""The COHANA engine facade (Figure 4: parser, catalog, storage manager,
query executor).

Typical use::

    engine = CohanaEngine()
    engine.create_table("GameActions", activity_table)
    result = engine.query('''
        SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
        FROM GameActions
        BIRTH FROM action = "launch" AND role = "dwarf"
        AGE ACTIVITIES IN action = "shop"
        COHORT BY country
    ''')
    print(result.to_text())

Execution goes through the chunk pipeline
(:mod:`repro.cohana.pipeline`): the plan becomes per-chunk scan tasks run
by the selected kernel (``executor='vectorized'`` or ``'iterator'``)
under an :class:`~repro.cohana.pipeline.ExecutionConfig`. The config can
be given explicitly, or via the loose ``jobs`` / ``backend`` options::

    result = engine.query(text, jobs=4)              # auto backend
    result = engine.query(text, jobs=4, backend="processes")
    result, stats = engine.query_with_stats(
        text, config=ExecutionConfig(backend="threads", jobs=2))

``ExecutionConfig(backend, jobs, collect_stats)`` selects the scan
backend (``'serial'``, ``'threads'`` or ``'processes'`` — with
``jobs > 1`` and no explicit backend, tables loaded from a ``.cohana``
file get ``processes``, whose workers reopen the file by path and scan
chunks on real cores; in-memory tables get ``threads``), the worker
count, and whether per-row/user counters are accumulated into
``ExecStats``. Predicates are always evaluated in the compressed domain,
with zone-map pruning wherever chunks carry persisted zone maps. Chunk
independence (no user spans two chunks) makes the parallel merge exact.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import CatalogError, ExecutionError
from repro.cohana.binder import bind_cohort_query
from repro.cohana.parser import (
    ParsedCreateView,
    ParsedDropView,
    parse_cohort_query,
    parse_statement,
)
from repro.cohana.pipeline import (
    ChunkScheduler,
    ExecStats,
    ExecutionConfig,
    get_kernel,
)
from repro.cohana.operators import lower_plan
from repro.cohana.planner import CohortPlan, plan_query
# Importing the executor modules registers their kernels with the
# pipeline registry; nothing else is needed from them here.
from repro.cohana import iterator_executor, vectorized  # noqa: F401
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.storage import compress, load, save
from repro.storage.reader import CompressedActivityTable
from repro.storage.writer import DEFAULT_CHUNK_ROWS
from repro.table import ActivityTable


class CohanaEngine:
    """A catalog of compressed activity tables plus the query pipeline.

    Every registration also stamps a per-table **version token** — the
    file's content digest for tables loaded from ``.cohana`` files, a
    monotonically increasing counter for tables compressed in memory.
    Re-registering a name (``create_table``/``register`` with
    ``replace=True``, or loading a rewritten file) changes the token,
    which is what lets the query service (:mod:`repro.service`) key its
    result cache on ``(bound query, token)`` and never serve a result
    computed against old data.
    """

    def __init__(self):
        self._catalog: dict[str, CompressedActivityTable] = {}
        self._versions: dict[str, str] = {}
        self._mem_version_counter = 0
        #: Guards the catalog / version map / counter as one unit: the
        #: query service registers and replaces tables from concurrent
        #: admission threads, and an unguarded counter bump is a lost
        #: update waiting to happen (two registrations sharing one
        #: ``mem:`` token would let stale cached results survive).
        self._catalog_lock = threading.RLock()
        # Imported here, not at module top: the view catalog pulls in
        # the service-layer fingerprint module, whose package imports
        # this module back.
        from repro.views.catalog import ViewCatalog
        self._view_catalog = ViewCatalog(self)

    # -- storage manager ------------------------------------------------------

    def _stamp_version(self, name: str,
                       table: CompressedActivityTable) -> None:
        """Record the version token of a (re-)registered table.
        Caller holds ``self._catalog_lock``.

        Sharded tables prefer their *logical* digest (the multiset row
        hash that survives compaction) over the physical composed
        digest, so a compaction — new shard files, same rows — keeps
        the token and the service result caches keyed on it warm,
        while an append or retention prune still rolls it. Tables
        without any digest fall back to a per-process counter.
        """
        digest = (getattr(table, "logical_digest", None)
                  or getattr(table, "content_digest", None))
        if digest:
            self._versions[name] = f"sha256:{digest}"
        else:
            self._mem_version_counter += 1
            self._versions[name] = f"mem:{self._mem_version_counter}"

    def version_token(self, name: str) -> str:
        """The current version token of table ``name``.

        Changes whenever the registration changes (``replace=True`` or
        a reloaded file whose bytes differ), so equality of tokens
        implies cached results for the table are still valid.
        """
        with self._catalog_lock:
            self.table(name)  # raises CatalogError on unknown names
            return self._versions[name]

    def create_table(self, name: str, table: ActivityTable,
                     target_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                     replace: bool = False,
                     ) -> CompressedActivityTable:
        """Compress ``table`` and register it under ``name``.

        With ``replace=True`` an existing registration is overwritten
        instead of raising :class:`~repro.errors.CatalogError`.
        """
        with self._catalog_lock:
            # Fail before the O(rows) compression; register()'s own
            # locked check stays authoritative against races.
            if name in self._catalog and not replace:
                raise CatalogError(f"table {name!r} already exists")
        compressed = compress(table, target_chunk_rows=target_chunk_rows)
        self.register(name, compressed, replace=replace)
        return compressed

    def register(self, name: str, compressed: CompressedActivityTable,
                 replace: bool = False) -> None:
        """Register an already-compressed table (``replace`` as above)."""
        with self._catalog_lock:
            if name in self._catalog and not replace:
                raise CatalogError(f"table {name!r} already exists")
            self._catalog[name] = compressed
            self._stamp_version(name, compressed)

    def drop_table(self, name: str) -> None:
        """Remove ``name`` from the catalog, along with every
        materialized view registered over it (their definitions and
        partial files included — no orphaned view state survives)."""
        with self._catalog_lock:
            self.table(name)
            # While the table is still registered, its view store is
            # still reachable (the disk store location derives from the
            # table's source path).
            self._view_catalog.drop_table_views(name)
            del self._catalog[name]
            del self._versions[name]

    def table(self, name: str) -> CompressedActivityTable:
        """Look up a registered table."""
        try:
            return self._catalog[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; have {sorted(self._catalog)}"
            ) from None

    def tables(self) -> list[str]:
        """All registered table names."""
        return sorted(self._catalog)

    def save_table(self, name: str, path: str | Path) -> int:
        """Persist a table to a ``.cohana`` file; returns bytes written."""
        return save(self.table(name), path)

    def load_table(self, name: str, path: str | Path,
                   replace: bool = False) -> CompressedActivityTable:
        """Load a ``.cohana`` file (or sharded table directory) and
        register it under ``name`` (``replace`` as above).

        Views persisted next to a sharded table's manifest are
        re-attached automatically, with their cached per-shard partials
        intact — a view survives a process restart warm.
        """
        compressed = load(path)
        with self._catalog_lock:
            self.register(name, compressed, replace=replace)
            self._view_catalog.attach(name)
        return compressed

    def refresh_table(self, name: str,
                      refresh_views: bool = True,
                      ) -> CompressedActivityTable:
        """Re-load a disk-backed table from its ``source_path``.

        The canonical way to pick up appended shards (or a rewritten
        file): the reloaded registration gets a fresh version token, so
        the query service invalidates exactly when the bytes changed —
        a byte-identical refresh keeps the same ``sha256:`` token and
        every cached result stays warm.

        Materialized views over the table are refreshed incrementally
        afterwards (``refresh_views=False`` defers that to the next
        serve): partials are keyed by *shard content digest*, so only
        shards new since the last refresh are scanned — zero shards
        for a byte-identical reload.
        """
        source = getattr(self.table(name), "source_path", None)
        if not source:
            raise CatalogError(
                f"table {name!r} was not loaded from disk; re-register "
                f"it instead of refreshing")
        table = self.load_table(name, source, replace=True)
        if refresh_views:
            for view in self._view_catalog.views_of(name):
                self._view_catalog.refresh(view.name)
        return table

    # -- parser / binder -------------------------------------------------------

    def parse(self, text: str, age_unit: str = "day",
              time_bin_origin: int = 0) -> CohortQuery:
        """Parse + bind a cohort query statement against its FROM table."""
        parsed = parse_cohort_query(text)
        schema = self.table(parsed.table).schema
        return bind_cohort_query(parsed, schema, age_unit=age_unit,
                                 time_bin_origin=time_bin_origin)

    # -- materialized views ----------------------------------------------------

    def create_view(self, name: str, query: "CohortQuery | str",
                    replace: bool = False, refresh: bool = True,
                    text: str | None = None,
                    age_unit: str = "day", time_bin_origin: int = 0):
        """Register a materialized view ``name`` over a cohort query.

        ``query`` may be statement text (parsed and bound here; the
        text is persisted next to a sharded table's manifest so the
        view survives restarts) or an already-bound
        :class:`~repro.cohort.query.CohortQuery` (pass ``text`` to make
        it persistable). With ``refresh=True`` (default) the view's
        per-shard partials are computed immediately; cached partials
        from an earlier life of the same definition are reused, so
        recreating a known view over unchanged shards scans nothing.

        Returns the registered
        :class:`~repro.views.catalog.MaterializedView`.
        """
        with self._catalog_lock:
            if isinstance(query, str):
                text = query
                query = self.parse(query, age_unit=age_unit,
                                   time_bin_origin=time_bin_origin)
            view = self._view_catalog.create(name, query, text=text,
                                             replace_existing=replace)
        if refresh:
            self.refresh_view(name)
        return view

    def drop_view(self, name: str, missing_ok: bool = False) -> bool:
        """Unregister a view and delete its persisted definition and
        partial files. Returns True when a view was dropped."""
        with self._catalog_lock:
            return self._view_catalog.drop(name, missing_ok=missing_ok)

    def views(self) -> list[str]:
        """All registered view names."""
        return self._view_catalog.names()

    def view(self, name: str):
        """Look up a registered view."""
        return self._view_catalog.get(name)

    def view_status(self, name: str) -> dict:
        """A JSON-able freshness summary: how many of the table's
        current shards have cached partials for this view."""
        return self._view_catalog.status(name)

    def refresh_view(self, name: str, executor: str = "vectorized",
                     config: ExecutionConfig | None = None) -> ExecStats:
        """Bring a view's partial cache up to date incrementally.

        Scans only shards whose content digest has no cached partial:
        ``stats.shards_scanned`` equals the number of *new* shards (0
        after a byte-identical reload), ``stats.shards_total`` the
        table's current shard count.
        """
        return self._view_catalog.refresh(name, executor=executor,
                                          config=config)

    def serve_view(self, name: str, executor: str = "vectorized",
                   config: ExecutionConfig | None = None,
                   ) -> tuple[CohortResult, ExecStats]:
        """Serve a view: incremental refresh + re-merge of cached
        per-shard partials. Result-identical to executing the view's
        query directly; only the work done differs."""
        return self._view_catalog.serve(name, executor=executor,
                                        config=config)

    def query_view(self, name: str, **kw) -> CohortResult:
        """:meth:`serve_view` without the stats."""
        result, _ = self.serve_view(name, **kw)
        return result

    def execute_statement(self, text: str, age_unit: str = "day",
                          time_bin_origin: int = 0, **exec_kw):
        """Run one statement of the extended language.

        A plain cohort query executes and returns its
        :class:`~repro.cohort.result.CohortResult`; ``CREATE [OR
        REPLACE] MATERIALIZED VIEW`` registers (and refreshes) the view
        and returns the :class:`~repro.views.catalog.MaterializedView`;
        ``DROP MATERIALIZED VIEW [IF EXISTS]`` drops it and returns
        whether a view existed.
        """
        parsed = parse_statement(text)
        if isinstance(parsed, ParsedCreateView):
            schema = self.table(parsed.query.table).schema
            bound = bind_cohort_query(parsed.query, schema,
                                      age_unit=age_unit,
                                      time_bin_origin=time_bin_origin)
            return self.create_view(parsed.name, bound,
                                    replace=parsed.or_replace,
                                    text=parsed.query_text)
        if isinstance(parsed, ParsedDropView):
            return self.drop_view(parsed.name,
                                  missing_ok=parsed.if_exists)
        return self.query(text, age_unit=age_unit,
                          time_bin_origin=time_bin_origin, **exec_kw)

    # -- query executor --------------------------------------------------------

    def plan(self, query: CohortQuery | str, pushdown: bool = True,
             prune: bool = True, **parse_kw) -> CohortPlan:
        """Build the physical plan (push-down + pruning decisions)."""
        if isinstance(query, str):
            query = self.parse(query, **parse_kw)
        return plan_query(query, self.table(query.table),
                          pushdown=pushdown, prune=prune)

    def query_with_stats(self, query: CohortQuery | str,
                         executor: str = "vectorized",
                         pushdown: bool = True, prune: bool = True,
                         jobs: int = 1, backend: str | None = None,
                         collect_stats: bool = True,
                         config: ExecutionConfig | None = None,
                         **parse_kw) -> tuple[CohortResult, ExecStats]:
        """Execute and also return execution statistics.

        ``executor`` picks the per-chunk kernel family; ``jobs`` /
        ``backend`` (or a full ``config``) pick how the scheduler runs
        the chunk scans.
        """
        if isinstance(query, str):
            query = self.parse(query, **parse_kw)
        kernel = get_kernel(executor)
        table = self.table(query.table)
        if config is None:
            config = ExecutionConfig.resolve(jobs=jobs, backend=backend,
                                             collect_stats=collect_stats,
                                             table=table)
        elif jobs != 1 or backend is not None or not collect_stats:
            raise ExecutionError(
                "pass either config= or the loose jobs=/backend=/"
                "collect_stats= options, not both")
        plan = plan_query(query, table, pushdown=pushdown, prune=prune)
        return ChunkScheduler(table, plan, kernel, config).run()

    def query(self, query: CohortQuery | str,
              executor: str = "vectorized", **kw) -> CohortResult:
        """Execute a cohort query and return its result relation."""
        result, _ = self.query_with_stats(query, executor=executor, **kw)
        return result

    def explain(self, query: CohortQuery | str, pushdown: bool = True,
                prune: bool = True,
                jobs: int = 1, backend: str | None = None,
                config: ExecutionConfig | None = None,
                executor: str = "vectorized", analyze: bool = False,
                **parse_kw) -> str:
        """The physical operator tree, one line per operator (EXPLAIN).

        Includes the resolved :class:`ExecutionConfig` line, so the
        ``jobs`` / ``backend`` a query would run with are visible
        without executing it. With ``analyze=True`` the
        query is actually executed and each operator line carries its
        rows-in/rows-out and prune counters.
        """
        if isinstance(query, str):
            query = self.parse(query, **parse_kw)
        if config is None:
            config = ExecutionConfig.resolve(
                jobs=jobs, backend=backend, table=self.table(query.table))
        elif jobs != 1 or backend is not None:
            raise ExecutionError(
                "pass either config= or the loose jobs=/backend= "
                "options, not both")
        plan = self.plan(query, pushdown=pushdown, prune=prune)
        physical = lower_plan(plan, get_kernel(executor))
        if analyze:
            result, stats = self.query_with_stats(
                query, executor=executor, pushdown=pushdown, prune=prune,
                config=config)
            tree = physical.describe(stats=stats, result=result)
        else:
            tree = physical.describe()
        return f"{tree}\n{config.describe()}"
