"""Seed-determined inputs of the three workloads: tables, query
sequences and ingest batches.

Everything here is a pure function of ``--seed`` (plus the workload's
fixed sizes), so the same seed gives byte-identical tables, the same
query texts in the same order and the same ingest CSV bodies.
"""

from __future__ import annotations

import random
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.bench.experiments import selective_queries
from repro.datagen import GameConfig, generate, scale_dataset
from repro.storage import append_shard, compress, save
from repro.table import ActivityTable, write_csv
from repro.workloads import MAIN_QUERIES

TABLE = "GameActions"
#: Users of the generated base table; the scale factor replicates them
#: (the paper's Section 5.1 construction).
BASE_USERS = 57
#: Rows per chunk of the tables the benchmark writes. Small enough that
#: a birth window prunes chunks, so the prune layer has work to do.
CHUNK_ROWS = 4096
#: adhoc_scan / dashboard_hits: about 250k rows in one .cohana file.
READ_SCALE = 128
#: ingest_mixed: about 1.3·10^5 rows as the first shard of a directory,
#: from eight times the base users at an eighth of the scale. Its
#: dashboard set scans the whole table, so what a seed's few users do
#: would decide the work: with 57 base users, the result of one text
#: ranged from 38 to 86 rows over six seeds, and the cost of its
#: misses and hits with it; with 456, from 272 to 288.
INGEST_USERS = 456
INGEST_SCALE = 8
#: ingest_mixed: each batch holds about 8k rows of users that exist in
#: no shard yet.
INGEST_BATCH_SCALE = 4

def base_table(seed: int, scale: int,
               users: int = BASE_USERS) -> ActivityTable:
    """The scale-``scale`` game activity table of ``users`` base users
    generated from ``seed``."""
    return scale_dataset(generate(GameConfig(n_users=users, seed=seed)),
                         scale)


def write_single(seed: int, path: Path) -> tuple[int, int, int]:
    """Build the read workloads' table and save it as one ``.cohana``
    file. Returns ``(rows, chunks, bytes)``."""
    table = base_table(seed, READ_SCALE)
    compressed = compress(table, target_chunk_rows=CHUNK_ROWS)
    n_bytes = save(compressed, path)
    return len(table), compressed.n_chunks, n_bytes


def write_sharded(seed: int, directory: Path) -> tuple[int, int, int]:
    """Build ingest_mixed's starting table as the first shard of a
    sharded directory. Returns ``(rows, chunks, bytes)``."""
    table = base_table(seed, INGEST_SCALE, INGEST_USERS)
    entry = append_shard(directory, table, target_chunk_rows=CHUNK_ROWS)
    return len(table), entry["n_chunks"], entry["n_bytes"]


#: Most base users whose births one ad-hoc window holds; scan cost grows
#: with the users born in the window.
MAX_USERS = 8
#: User-count strata per query shape in one block of :func:`adhoc_texts`.
_STRATA = 8
_SHAPES = 4
#: Texts per block of :func:`adhoc_texts`.
BLOCK = _STRATA * _SHAPES
_BIRTH_ACTIONS = ("launch", "shop")  # of shapes 0/2 and 1/3
_MINUTE = 60


def _minute(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc) \
        .strftime("%Y-%m-%d %H:%M")


def adhoc_text(shape: int, start: int, end: int, age: int) -> str:
    """One variant of the paper's Q5-Q8 with the birth window
    ``[start, end]`` (epoch seconds, whole minutes).

    Q5/Q6 (shapes 0/1) put a birth window on Q1/Q3; Q7/Q8 (shapes 2/3)
    put an age limit on Q1/Q3. Every variant carries a minute-granular
    birth window, which is what makes the texts distinct (there are
    only a few dozen age limits).
    """
    window = f'time BETWEEN "{_minute(start)}" AND "{_minute(end)}"'
    if shape in (0, 2):  # over Q1: launch cohorts, UserCount
        head = (f'SELECT country, COHORTSIZE, AGE, UserCount() '
                f'FROM {TABLE} BIRTH FROM action = "launch" AND {window}')
        tail = "" if shape == 0 else f" AGE ACTIVITIES IN AGE < {age}"
    else:  # over Q3: shop cohorts, Avg(gold) of shop activities
        head = (f'SELECT country, COHORTSIZE, AGE, Avg(gold) '
                f'FROM {TABLE} BIRTH FROM action = "shop" AND {window}')
        tail = ' AGE ACTIVITIES IN action = "shop"'
        if shape == 3:
            tail += f" AND AGE < {age}"
    return f"{head}{tail} COHORT BY country"


def birth_times(seed: int) -> dict[str, list[int]]:
    """Each birth action's distinct birth times in the seed's table,
    sorted. Scaling copies users with their times, so the base table
    has them all."""
    base = generate(GameConfig(n_users=BASE_USERS, seed=seed))
    births: dict[str, dict[str, int]] = {a: {} for a in _BIRTH_ACTIONS}
    for user, when, action in zip(base.users, base.times,
                                  base.actions):
        first = births.get(action)
        if first is not None and (user not in first
                                  or when < first[user]):
            first[user] = int(when)
    return {a: sorted(set(f.values())) for a, f in births.items()}


def _window(rng: random.Random, births: list[int],
            users: int) -> tuple[int, int]:
    """A minute-granular window that holds exactly ``users`` consecutive
    distinct birth times: its edges fall at random minutes in the gaps
    next to the first and last of them."""
    j = rng.randrange(len(births) - users + 1)
    first, last = births[j], births[j + users - 1]
    before = births[j - 1] if j else first - 86400
    after = births[j + users] if j + users < len(births) else last + 86400
    first_min, last_min = first // _MINUTE, -(-last // _MINUTE)
    lo = -(-(before + 1) // _MINUTE)  # first whole minute after before
    hi = (after - 1) // _MINUTE       # last whole minute before after
    start = rng.randint(min(lo, first_min), first_min)
    end = rng.randint(last_min, max(hi, last_min))
    return start * _MINUTE, end * _MINUTE


def adhoc_texts(seed: int, count: int, stream: str = "run") -> list[str]:
    """``count`` distinct ad-hoc texts, in a fixed seed-given order.

    A window is sized by the births it holds, not by time: the births
    of the generated users bunch up, so equal time windows differ
    widely in work. The texts come in blocks of :data:`BLOCK` that hold
    every (shape, user-count stratum) pair once, in shuffled order, with
    the count drawn log-uniformly from one to :data:`MAX_USERS` within
    its stratum and the window placed at random. A run of whole blocks
    then sends nearly the same mix of costs whatever its seed: seeds
    change which users are asked about, not how much work a run does.
    ``stream`` names independent sequences (the warm-up uses its own,
    so it never fills the cache with a text the run sends).
    """
    births = birth_times(seed)
    rng = random.Random(f"adhoc-{stream}-{seed}")
    pairs = [(shape, stratum) for shape in range(_SHAPES)
             for stratum in range(_STRATA)]
    texts: list[str] = []
    seen: set[str] = set()
    while len(texts) < count:
        rng.shuffle(pairs)
        for shape, stratum in pairs:
            times = births[_BIRTH_ACTIONS[shape % 2]]
            users = min(len(times), round(MAX_USERS ** (
                (stratum + rng.random()) / _STRATA)))
            while True:
                text = adhoc_text(shape, *_window(rng, times, users),
                                  rng.randrange(1, 15))
                if text not in seen:
                    break
            seen.add(text)
            texts.append(text)
    return texts[:count]


def dashboard_texts() -> list[str]:
    """The dashboard set: the paper's Q1-Q4 and ``Q2_narrow`` of
    :func:`selective_queries` (Q2 over a three-day birth window), in
    that order. The other selective queries, which look for rare
    countries and cities, are left out: over the sharded table each took
    4 to 20 ms, almost all of it interpreter work, and their latency
    followed the shared host's phases (by up to 60% between the windows
    of one run, against 12% for Q1)."""
    texts = [make(TABLE) for make in MAIN_QUERIES.values()]
    return texts + [selective_queries(TABLE)["Q2_narrow"]]


def ingest_batches(seed: int, count: int,
                   scratch: Path) -> list[tuple[str, int]]:
    """``count`` ``(csv_text, rows)`` batches: freshly generated users,
    renamed so that no user is in an existing shard."""
    batches = []
    for i in range(count):
        table = scale_dataset(generate(GameConfig(
            n_users=BASE_USERS, seed=seed * 1000 + i + 1)),
            INGEST_BATCH_SCALE)
        user = table.schema.user.name
        columns = {name: table.column(name)
                   for name in table.schema.names()}
        columns[user] = np.array([f"ingest{i}-{u}"
                                  for u in columns[user]], dtype=object)
        renamed = ActivityTable(table.schema, columns)
        path = scratch / f"batch{i}.csv"
        write_csv(renamed, path)
        batches.append((path.read_text(), len(renamed)))
        path.unlink()
    return batches
