"""Mask-level oracle for the compressed-domain evaluator.

:func:`~repro.cohana.compressed.compressed_mask` promises that
``compressed_mask(cond, ctx, access, positions)`` equals
``compile_mask(cond, ctx)`` bit for bit. The property below checks that
promise on random ``And``/``Or``/``Not`` trees of ``Compare`` /
``Between`` / ``InList`` leaves over a dictionary column, a
delta-encoded integer column and a raw float column, with literals
inside, outside and straddling each segment's MIN/MAX — on chunks of a
current-format table and of its version-1 re-serialization (no zone
maps).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohana.compile import EvalContext, compile_mask
from repro.cohana.compressed import compressed_mask
from repro.cohort.conditions import (
    And,
    AttrRef,
    Between,
    Compare,
    InList,
    Literal,
    Not,
    Or,
)
from repro.schema import ActivitySchema, LogicalType
from repro.storage import compress, deserialize, serialize
from repro.storage.delta import DeltaEncodedColumn
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.raw import RawFloatColumn
from repro.table import ActivityTable

COUNTRIES = ("Brazil", "China", "Norway", "Peru", "Thailand", "Vietnam")


def _build_table():
    schema = ActivitySchema.build(
        user="player", time="time", action="action",
        dimensions={"country": LogicalType.STRING},
        measures={"gold": LogicalType.INT, "score": LogicalType.FLOAT})
    rng = np.random.default_rng(11)
    rows = []
    for user in range(40):
        # Per-user offsets give chunks distinct MIN/MAX ranges.
        base_gold = int(rng.integers(0, 60))
        base_score = float(rng.integers(-10, 10))
        for event in range(int(rng.integers(2, 7))):
            rows.append((
                f"u{user:02d}", 1_000_000 + user * 1000 + event * 60,
                "launch" if event == 0 else "shop",
                COUNTRIES[int(rng.integers(0, len(COUNTRIES)))],
                base_gold + int(rng.integers(0, 8)),
                base_score + float(rng.integers(0, 8)) / 2))
    return compress(ActivityTable.from_rows(schema, rows),
                    target_chunk_rows=24)


V4_TABLE = _build_table()
V1_TABLE = deserialize(serialize(V4_TABLE, version=1))
TABLES = (V4_TABLE, V1_TABLE)


class _PositionsContext(EvalContext):
    """The decoded evaluator's view of ``positions`` of one chunk."""

    def __init__(self, table, chunk, positions):
        self._table = table
        self._chunk = chunk
        self._positions = positions

    def rows(self) -> int:
        return len(self._positions)

    def plain(self, name):
        return self._chunk.decode_codes(name)[self._positions]

    def dictionary_for(self, name):
        if self._table.schema.column(name).ltype is LogicalType.STRING:
            return self._table.dictionary(name)
        return None


class _ChunkAccess:
    """The chunk accessor ``compressed_mask`` reads encoded segments
    through (the vectorized kernel's executor plays this role)."""

    def __init__(self, table, chunk):
        self.schema = table.schema
        self._table = table
        self._chunk = chunk

    def chunk_column(self, name):
        return self._chunk.columns.get(name)

    def chunk_gids(self, name):
        return self._chunk.columns[name].global_ids()

    def local_ids(self, name):
        return self._chunk.columns[name].chunk_ids.unpack()

    def global_dictionary(self, name):
        return self._table.dictionary(name)


def _numeric_literals(col, integral):
    """Literals at, just inside and just outside the segment's MIN/MAX,
    the integers either side of each edge (integer literals over the
    float column), midpoints, and values far outside the segment."""
    step = 1 if integral else 0.5
    values = {col.min_value - 100, col.max_value + 100}
    for edge in (col.min_value, col.max_value):
        values.update((edge - step, edge, edge + step,
                       math.floor(edge), math.ceil(edge),
                       math.floor(edge) - 1, math.ceil(edge) + 1))
    values.add((col.min_value + col.max_value) / 2)
    if integral:
        values.add((col.min_value + col.max_value) // 2)
    return sorted(values, key=float)


def _string_literals(table, chunk):
    """The chunk's own values, their dictionary neighbours, strings
    between neighbours, and strings below and above the dictionary."""
    present = [table.dictionary("country").values[int(g)]
               for g in chunk.columns["country"].global_ids()]
    between = [value + "a" for value in present]
    return ["Aardvark", "Zz", *COUNTRIES, *between]


def chunk_literals(table, chunk):
    return {
        "country": _string_literals(table, chunk),
        "gold": _numeric_literals(chunk.columns["gold"], integral=True),
        "score": _numeric_literals(chunk.columns["score"],
                                   integral=False),
    }


OPS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def leaves(draw, literals):
    name = draw(st.sampled_from(sorted(literals)))
    literal = st.sampled_from(literals[name])
    attr = AttrRef(name)
    kind = draw(st.sampled_from(("compare", "flipped", "between", "in")))
    if kind == "compare":
        return Compare(attr, draw(st.sampled_from(OPS)),
                       Literal(draw(literal)))
    if kind == "flipped":
        return Compare(Literal(draw(literal)), draw(st.sampled_from(OPS)),
                       attr)
    if kind == "between":
        return Between(attr, Literal(draw(literal)),
                       Literal(draw(literal)))
    return InList(attr, tuple(draw(st.lists(literal, min_size=1,
                                            max_size=3))))


def conditions(literals):
    return st.recursive(
        leaves(literals),
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(And),
            st.lists(children, min_size=2, max_size=3).map(Or),
            children.map(Not)),
        max_leaves=6)


def test_fixture_covers_every_encoding():
    for table in TABLES:
        assert len(table.chunks) >= 4
        for chunk in table.chunks:
            assert isinstance(chunk.columns["country"], DictEncodedColumn)
            assert isinstance(chunk.columns["gold"], DeltaEncodedColumn)
            assert isinstance(chunk.columns["score"], RawFloatColumn)
    assert V4_TABLE.has_zone_maps and not V1_TABLE.has_zone_maps


def _all_leaves(literals):
    """Every leaf shape over every column and literal (pairs for
    BETWEEN and IN)."""
    for name, values in literals.items():
        attr = AttrRef(name)
        for value in values:
            for op in OPS:
                yield Compare(attr, op, Literal(value))
                yield Compare(Literal(value), op, attr)
            for other in values:
                yield Between(attr, Literal(value), Literal(other))
                yield InList(attr, (value, other))


@pytest.mark.parametrize("table", TABLES, ids=("v4", "v1"))
def test_every_leaf_matches_compile_mask(table):
    # Exhaustive over single leaves, so each MIN/MAX short-circuit is
    # hit on every chunk edge; the property below covers composition.
    for chunk in table.chunks:
        positions = np.arange(chunk.n_rows, dtype=np.int64)
        ctx = _PositionsContext(table, chunk, positions)
        access = _ChunkAccess(table, chunk)
        for leaf in _all_leaves(chunk_literals(table, chunk)):
            assert np.array_equal(
                compressed_mask(leaf, ctx, access, positions),
                compile_mask(leaf, ctx)), str(leaf)


@settings(max_examples=200, deadline=None)
@given(table_index=st.sampled_from((0, 1)), data=st.data())
def test_compressed_mask_equals_compile_mask(table_index, data):
    table = TABLES[table_index]
    chunk = data.draw(st.sampled_from(table.chunks))
    cond = data.draw(conditions(chunk_literals(table, chunk)))
    # Every row, or a subset that may repeat and come in any order (the
    # kernel passes birth positions, where runs without a birth tuple
    # alias row 0).
    positions = np.asarray(data.draw(st.one_of(
        st.just(list(range(chunk.n_rows))),
        st.lists(st.integers(0, chunk.n_rows - 1),
                 max_size=2 * chunk.n_rows))), dtype=np.int64)
    ctx = _PositionsContext(table, chunk, positions)
    got = compressed_mask(cond, ctx, _ChunkAccess(table, chunk),
                          positions)
    want = compile_mask(cond, ctx)
    assert got.dtype == bool and got.shape == (len(positions),)
    assert np.array_equal(got, want), str(cond)
