"""SESSIONIZE semantics: randomized parity against a per-user oracle.

The derived session column must behave exactly like a *stored* column
holding the per-user gap-based session ordinal. The oracle here is the
obvious pure-Python per-user loop; parity is checked two ways:

* unit level — :func:`~repro.cohana.operators.session_values` on every
  chunk of a compressed table vs the oracle over each user run
  (gap-boundary ties, single-event sessions, empty gaps);
* end to end — a table with the oracle's ordinals materialized as a
  stored measure column must produce row-identical results to the same
  query using ``SESSIONIZE`` over the column-free table, across every
  executor, pruning setting and backend, on single-file and sharded
  tables.
"""

import random

import numpy as np
import pytest

from repro.cohana import CohanaEngine, render_query
from repro.cohana.operators import session_values
from repro.errors import BindError, ParseError, QueryError
from repro.cohort import SessionizeSpec
from repro.schema import ActivitySchema, LogicalType
from repro.storage import append_shard, compress
from repro.table import ActivityTable

from helpers import make_game_schema

GAP = 600


def oracle_sessions(times: list[int], gap: float) -> list[int]:
    """The reference semantics, one user at a time: the first tuple
    opens session 1; a tuple opens a new session exactly when its gap
    to the previous tuple *exceeds* ``gap`` (a tie stays inside)."""
    sessions: list[int] = []
    for i, t in enumerate(times):
        if not sessions:
            sessions.append(1)
        elif t - times[i - 1] > gap:
            sessions.append(sessions[-1] + 1)
        else:
            sessions.append(sessions[-1])
    return sessions


def random_rows(seed: int, n_users: int = 40) -> list[tuple]:
    """Random activity rows engineered to hit the edge cases: exact
    gap-boundary ties, single-event users, and long multi-session
    histories."""
    rng = random.Random(seed)
    rows = []
    for u in range(n_users):
        user = f"u{u:03d}"
        country = rng.choice(["Australia", "China", "Peru"])
        t = rng.randrange(0, 5_000)
        for i in range(rng.choice([1, 1, 2, 3, 5, 9])):
            action = "launch" if i == 0 else rng.choice(["shop", "fight"])
            rows.append((user, t, action, "dwarf", country,
                         rng.randrange(100)))
            t += rng.choice([1, GAP // 2, GAP, GAP, GAP + 1, 3 * GAP])
    return rows


def sessionized_schema() -> ActivitySchema:
    """The game schema plus the oracle's ordinals as a stored measure."""
    return ActivitySchema.build(
        user="player", time="time", action="action",
        dimensions={"role": LogicalType.STRING,
                    "country": LogicalType.STRING},
        measures={"gold": LogicalType.INT, "s": LogicalType.INT},
    )


def with_oracle_column(rows: list[tuple]) -> list[tuple]:
    """The same rows with the oracle's session ordinal appended."""
    by_user: dict[str, list[tuple]] = {}
    for row in sorted(rows, key=lambda r: (r[0], r[1])):
        by_user.setdefault(row[0], []).append(row)
    out = []
    for user_rows in by_user.values():
        ordinals = oracle_sessions([r[1] for r in user_rows], GAP)
        out.extend(row + (ordinal,)
                   for row, ordinal in zip(user_rows, ordinals))
    return out


#: Every sessionized query shape under test, paired with its stored-
#: column equivalent (same text minus the SESSIONIZE clause).
QUERIES = {
    "grouping_dimension": (
        'SELECT s, COHORTSIZE, AGE, UserCount() FROM {t} '
        'BIRTH FROM action = "launch" '
        '{sessionize}COHORT BY s'),
    "age_predicate": (
        'SELECT country, COHORTSIZE, AGE, Max(s) FROM {t} '
        'BIRTH FROM action = "launch" '
        'AGE ACTIVITIES IN s > 1 '
        '{sessionize}COHORT BY country'),
    "aggregate_input": (
        'SELECT country, COHORTSIZE, AGE, Sum(s) FROM {t} '
        'BIRTH FROM action = "launch" '
        '{sessionize}COHORT BY country'),
}
SESSIONIZE_CLAUSE = "SESSIONIZE (GAP = 600 seconds) AS s "


def _texts(name: str, table: str = "T") -> tuple[str, str]:
    """(sessionized text, stored-column text) for one query shape."""
    template = QUERIES[name]
    return (template.format(t=table, sessionize=SESSIONIZE_CLAUSE),
            template.format(t=table, sessionize=""))


@pytest.fixture(scope="module", params=[11, 29])
def rows(request):
    return random_rows(seed=request.param)


@pytest.fixture(scope="module")
def engines(rows):
    """(derived, stored): one engine sees the raw table, the other the
    same rows with the oracle's ordinals materialized."""
    derived = CohanaEngine()
    derived.create_table(
        "T", ActivityTable.from_rows(make_game_schema(),
                                     [r for r in rows]),
        target_chunk_rows=16)
    stored = CohanaEngine()
    stored.create_table(
        "T", ActivityTable.from_rows(sessionized_schema(),
                                     with_oracle_column(rows)),
        target_chunk_rows=16)
    return derived, stored


class TestSessionValuesUnit:
    def test_gap_boundary_tie_stays_inside(self):
        schema = make_game_schema()
        rows = [("u1", t, "launch", "dwarf", "Peru", 0)
                for t in (0, GAP, GAP + GAP, 2 * GAP + GAP + 1)]
        table = compress(ActivityTable.from_rows(schema, rows),
                         target_chunk_rows=64)
        values = session_values(table.chunks[0], "time", GAP)
        # diffs: 600 (tie, stays), 600 (tie, stays), 601 (new session)
        assert values.tolist() == [1, 1, 1, 2]

    def test_single_event_users_open_session_one(self):
        schema = make_game_schema()
        rows = [(f"u{i}", 10_000 * i, "launch", "dwarf", "Peru", 0)
                for i in range(5)]
        table = compress(ActivityTable.from_rows(schema, rows),
                         target_chunk_rows=2)
        for chunk in table.chunks:
            assert session_values(chunk, "time", GAP).tolist() == \
                [1] * chunk.n_rows

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_chunks_match_oracle(self, seed):
        schema = make_game_schema()
        table = compress(
            ActivityTable.from_rows(schema, random_rows(seed)),
            target_chunk_rows=16)
        checked_runs = 0
        for chunk in table.chunks:
            times = chunk.decode_codes("time")
            values = session_values(chunk, "time", GAP)
            _, starts, counts = chunk.users.arrays()
            for start, count in zip(starts, counts):
                run = slice(int(start), int(start) + int(count))
                assert values[run].tolist() == oracle_sessions(
                    [int(t) for t in times[run]], GAP)
                checked_runs += 1
        assert checked_runs >= 30  # many users across many chunks

    def test_empty_chunk_yields_empty(self):
        class _Empty:
            def decode_codes(self, name):
                return np.zeros(0, dtype=np.int64)

        values = session_values(_Empty(), "time", GAP)
        assert values.dtype == np.int64 and len(values) == 0


class TestDerivedVsStoredParity:
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("executor", ["vectorized", "iterator"])
    @pytest.mark.parametrize("prune", [True, False])
    def test_kernels_and_pruning(self, engines, query_name, executor,
                                 prune):
        derived, stored = engines
        text, stored_text = _texts(query_name)
        got = derived.query(text, executor=executor, prune=prune)
        want = stored.query(stored_text, executor=executor, prune=prune)
        assert got.rows == want.rows
        assert got.rows  # the workload is never vacuous

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("backend,jobs",
                             [("serial", 1), ("threads", 3)])
    def test_backends(self, engines, query_name, backend, jobs):
        derived, stored = engines
        text, stored_text = _texts(query_name)
        got = derived.query(text, backend=backend, jobs=jobs)
        assert got.rows == stored.query(stored_text).rows


class TestProcessesAndShards:
    @pytest.fixture(scope="class")
    def rows40(self):
        return random_rows(seed=47)

    @pytest.fixture(scope="class")
    def on_disk(self, tmp_path_factory, rows40):
        """The raw table saved once as a single file and once as a
        four-shard directory (user-disjoint batches)."""
        base = tmp_path_factory.mktemp("sessionize")
        table = ActivityTable.from_rows(
            make_game_schema(), rows40).sorted_by_primary_key()
        single = base / "T.cohana"
        from repro.storage import save
        save(compress(table, target_chunk_rows=16), single)
        sharded = base / "T"
        blocks = list(table.user_blocks())
        quarter = -(-len(blocks) // 4)
        for i in range(0, len(blocks), quarter):
            last = blocks[min(i + quarter, len(blocks)) - 1]
            append_shard(sharded, table.slice(blocks[i][1], last[2]),
                         target_chunk_rows=16)
        return single, sharded

    @pytest.fixture(scope="class")
    def stored_rows(self, rows40):
        eng = CohanaEngine()
        eng.create_table(
            "T", ActivityTable.from_rows(sessionized_schema(),
                                         with_oracle_column(rows40)),
            target_chunk_rows=16)
        return eng

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("backend,jobs",
                             [("serial", 1), ("threads", 2),
                              ("processes", 2)])
    def test_on_disk_backends(self, on_disk, stored_rows, query_name,
                              backend, jobs):
        single, _ = on_disk
        engine = CohanaEngine()
        engine.load_table("T", single)
        text, stored_text = _texts(query_name)
        got = engine.query(text, backend=backend, jobs=jobs)
        assert got.rows == stored_rows.query(stored_text).rows

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("backend,jobs",
                             [("serial", 1), ("processes", 2)])
    def test_sharded_matches_single_and_oracle(self, on_disk,
                                               stored_rows, query_name,
                                               backend, jobs):
        single, sharded = on_disk
        one, many = CohanaEngine(), CohanaEngine()
        one.load_table("T", single)
        many.load_table("T", sharded)
        text, stored_text = _texts(query_name)
        got = many.query(text, backend=backend, jobs=jobs)
        assert got.rows == one.query(text).rows
        assert got.rows == stored_rows.query(stored_text).rows


class TestSyntaxAndBinding:
    def test_render_round_trip(self, engines):
        derived, _ = engines
        for name in QUERIES:
            query = derived.parse(_texts(name)[0])
            assert derived.parse(render_query(query)) == query

    def test_default_column_name_is_session(self, engines):
        derived, _ = engines
        query = derived.parse(
            'SELECT country, COHORTSIZE, AGE, Max(session) FROM T '
            'BIRTH FROM action = "launch" '
            'SESSIONIZE (GAP = 10 minutes) COHORT BY country')
        assert query.sessionize == SessionizeSpec(column="session",
                                                  gap=600.0)

    @pytest.mark.parametrize("unit,seconds", [
        ("seconds", 45.0), ("minutes", 45 * 60.0), ("hours", 45 * 3600.0),
        ("day", 45 * 86400.0), ("", 45.0)])
    def test_gap_units(self, engines, unit, seconds):
        derived, _ = engines
        query = derived.parse(
            f'SELECT country, COHORTSIZE, AGE, UserCount() FROM T '
            f'BIRTH FROM action = "launch" '
            f'SESSIONIZE (GAP = 45 {unit}) COHORT BY country')
        assert query.sessionize.gap == seconds

    @pytest.mark.parametrize("text,match", [
        ('SESSIONIZE (GAP = 0 seconds)', "positive"),
        ('SESSIONIZE (GAP = -5 seconds)', "positive|number"),
        ('SESSIONIZE (GAP = 10 fortnights)', "unit"),
        ('SESSIONIZE (10 seconds)', "GAP"),
        ('SESSIONIZE (GAP = 10) SESSIONIZE (GAP = 20)', "duplicate"),
    ])
    def test_parse_errors(self, engines, text, match):
        derived, _ = engines
        with pytest.raises(ParseError, match=match):
            derived.parse(
                f'SELECT country, COHORTSIZE, AGE, UserCount() FROM T '
                f'BIRTH FROM action = "launch" {text} COHORT BY country')

    def test_stored_column_collision(self, engines):
        derived, _ = engines
        with pytest.raises(BindError, match="collides"):
            derived.parse(
                'SELECT country, COHORTSIZE, AGE, UserCount() FROM T '
                'BIRTH FROM action = "launch" '
                'SESSIONIZE (GAP = 10 minutes) AS country '
                'COHORT BY country')

    def test_spec_validates_eagerly(self):
        with pytest.raises(QueryError, match="positive"):
            SessionizeSpec(gap=0)
        with pytest.raises(QueryError, match="column"):
            SessionizeSpec(column="")
