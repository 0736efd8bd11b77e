"""Zone maps and compressed-domain scans: persistence round-trips,
version-1 compatibility, pruning exactness, and parity of the scan
against the unpruned row-at-a-time reference (``executor="iterator",
prune=False``) across the workload queries."""

import numpy as np
import pytest

from repro.bench.experiments import (
    SELECTIVE_SET,
    cohana_engine,
    selective_queries,
)
from repro.bench.harness import dataset
from repro.errors import ExecutionError, StorageError
from repro.cohana import CohanaEngine, ExecutionConfig
from repro.service.protocol import result_digest
from repro.cohana.compressed import leaf_value_range, single_attr_name
from repro.datagen import GameConfig, generate
from repro.storage import (
    ZoneMap,
    build_zone_map,
    compress,
    deserialize,
    encode_chunk_integers,
    encode_chunk_strings,
    serialize,
)
from repro.storage.format import SUPPORTED_VERSIONS, VERSION, load, save
from repro.storage.raw import RawFloatColumn
from repro.workloads import MAIN_QUERIES, queries as W


TABLE = "GameActions"

#: The reference every scan is checked against: the tuple-at-a-time
#: kernel evaluates conditions row by row, and ``prune=False`` applies
#: no metadata-derived bound, so a wrong zone-map or coded-domain bound
#: on the default path shows up as a row mismatch.
REFERENCE = {"executor": "iterator", "prune": False}

#: Birth selections that exercise every coded-domain rewrite family:
#: time ranges (delta), equality + IN (dict membership), string ranges
#: (dict gid ranges) and plain Q1-Q4.
PARITY_QUERIES = {
    **{name: fn(TABLE) for name, fn in MAIN_QUERIES.items()},
    "Q5_narrow": W.q5("2013-05-19", "2013-05-22", TABLE),
    "Q7": W.q7(4, TABLE),
    "rare_country": (
        f'SELECT role, COHORTSIZE, AGE, UserCount() FROM {TABLE} '
        f'BIRTH FROM action = "launch" AND country = "Norway" '
        f'COHORT BY role'),
    "country_range": (
        f'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM {TABLE} '
        f'BIRTH FROM action = "launch" AND country >= "United" '
        f'COHORT BY country'),
    "country_in": (
        f'SELECT country, COHORTSIZE, AGE, Avg(gold) FROM {TABLE} '
        f'BIRTH FROM action = "shop" AND '
        f'country IN ["China", "Norway"] COHORT BY country'),
}


@pytest.fixture(scope="module")
def game_engine():
    eng = CohanaEngine()
    eng.create_table(TABLE, generate(GameConfig(n_users=57, seed=7)),
                     target_chunk_rows=256)
    return eng


class TestZoneMapBuild:
    def test_dict_column_gid_range(self):
        col = encode_chunk_strings(np.array([7, 3, 7, 5], dtype=np.int64))
        zm = build_zone_map(col)
        assert (zm.min_value, zm.max_value) == (3, 7)
        assert zm.distinct_count == 3
        assert zm.null_count == 0

    def test_delta_column_range(self):
        col = encode_chunk_integers(np.array([10, 25, 10], dtype=np.int64))
        zm = build_zone_map(col)
        assert (zm.min_value, zm.max_value) == (10, 25)
        assert zm.distinct_count == 2

    def test_raw_column_is_float(self):
        zm = build_zone_map(RawFloatColumn.encode([1.5, -2.5]))
        assert zm.is_float
        assert (zm.min_value, zm.max_value) == (-2.5, 1.5)

    def test_empty_segment(self):
        zm = build_zone_map(encode_chunk_integers(np.array([], np.int64)))
        assert zm.is_empty
        assert not zm.overlaps(None, None)
        assert not zm.within(None, None)

    def test_overlaps_and_within(self):
        zm = ZoneMap(10, 20, 5)
        assert zm.overlaps(15, None) and zm.overlaps(None, 10)
        assert not zm.overlaps(21, None) and not zm.overlaps(None, 9)
        assert zm.within(10, 20) and zm.within(None, None)
        assert not zm.within(11, 20) and not zm.within(10, 19)

    def test_invalid_counts_rejected(self):
        with pytest.raises(StorageError):
            ZoneMap(0, 1, -1)
        with pytest.raises(StorageError):
            ZoneMap(5, 1, 3)


class TestPersistence:
    def test_writer_populates_zone_maps(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        assert compressed.has_zone_maps
        for chunk in compressed.chunks:
            assert set(chunk.zone_maps) == set(chunk.columns)

    def test_roundtrip_preserves_zone_maps(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        restored = deserialize(serialize(compressed))
        assert restored.has_zone_maps
        for orig, back in zip(compressed.chunks, restored.chunks):
            assert back.zone_maps == orig.zone_maps
        assert restored.decompress() == table1

    def test_zone_maps_match_recomputation(self, table1):
        restored = deserialize(serialize(compress(table1,
                                                  target_chunk_rows=4)))
        for chunk in restored.chunks:
            for name, col in chunk.columns.items():
                assert chunk.zone_map(name) == build_zone_map(col)

    def test_v1_file_still_opens_without_zone_maps(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        legacy = deserialize(serialize(compressed, version=1))
        assert not legacy.has_zone_maps
        assert all(not c.has_zone_maps for c in legacy.chunks)
        assert legacy.decompress() == table1

    def test_unsupported_write_version(self, table1):
        with pytest.raises(StorageError, match="version"):
            serialize(compress(table1), version=99)
        assert VERSION in SUPPORTED_VERSIONS

    def test_v1_falls_back_to_unpruned_scans(self, table1):
        # A string range bound can only prune via persisted zone maps:
        # the v4 table prunes the chunk whose country ids are all below
        # the bound, the v1 load scans it — results identical, and
        # equal to the unpruned reference.
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" AND country >= "China" '
                'AND country <= "China" COHORT BY country')
        compressed = compress(table1, target_chunk_rows=4)
        v4, v1 = CohanaEngine(), CohanaEngine()
        v4.register("D", deserialize(serialize(compressed)))
        v1.register("D", deserialize(serialize(compressed, version=1)))
        res4, stats4 = v4.query_with_stats(text)
        res1, stats1 = v1.query_with_stats(text)
        assert res4.rows == res1.rows
        assert res4.rows == v4.query(text, **REFERENCE).rows
        assert stats4.chunks_pruned_zone > 0
        assert stats1.chunks_pruned_zone == 0
        assert stats1.chunks_scanned > stats4.chunks_scanned


class TestPruning:
    def test_membership_pruning_on_equality(self, table1):
        eng = CohanaEngine()
        eng.create_table("D", table1, target_chunk_rows=4)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" AND role = "dwarf" '
                'COHORT BY country')
        result, stats = eng.query_with_stats(text)
        assert stats.chunks_pruned_zone > 0
        # The unpruned reference scans those chunks and reaches the
        # same rows.
        assert result.rows == eng.query(text, **REFERENCE).rows

    def test_unsatisfiable_birth_condition_prunes_everything(self, table1):
        eng = CohanaEngine()
        eng.create_table("D", table1, target_chunk_rows=4)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" AND role = "paladin" '
                'COHORT BY country')
        result, stats = eng.query_with_stats(text)
        assert result.rows == []
        assert stats.chunks_scanned == 0
        assert stats.chunks_pruned == stats.chunks_total
        assert eng.query(text, **REFERENCE).rows == []

    def test_prune_counters_add_up(self, game_engine):
        for text in PARITY_QUERIES.values():
            _, stats = game_engine.query_with_stats(text)
            assert stats.chunks_pruned + stats.chunks_scanned \
                == stats.chunks_total
            assert stats.chunks_pruned_zone <= stats.chunks_pruned

    def test_explain_shows_prune_and_bounds(self, game_engine):
        text = game_engine.explain(PARITY_QUERIES["rare_country"])
        assert "prune=on" in text
        assert "bounds=" in text
        assert "Execution(backend=serial, jobs=1)" in text


class TestScanModeParity:
    """The compressed-domain scan must equal the decoded row-at-a-time
    reference: pruning and coded-domain evaluation change only the
    work done, never the result."""

    @pytest.mark.parametrize("qname", sorted(PARITY_QUERIES))
    def test_compressed_equals_decoded(self, game_engine, qname):
        text = PARITY_QUERIES[qname]
        reference = game_engine.query(text, **REFERENCE)
        compressed = game_engine.query(text)
        assert compressed.rows == reference.rows
        assert compressed.columns == reference.columns

    @pytest.mark.parametrize("qname", ("Q4", "rare_country"))
    def test_parity_across_kernels_and_jobs(self, game_engine, qname):
        text = PARITY_QUERIES[qname]
        base = game_engine.query(text, **REFERENCE)
        for executor in ("vectorized", "iterator"):
            for jobs in (1, 4):
                got = game_engine.query(text, executor=executor,
                                        jobs=jobs)
                assert got.rows == base.rows

    def test_v1_table_matches_v4(self, game_engine):
        # A zone-map-less (v1) table runs the same evaluation, minus
        # the zone-map comparisons: a string range bound prunes nothing
        # there.
        legacy = deserialize(serialize(game_engine.table(TABLE),
                                       version=1))
        eng = CohanaEngine()
        eng.register(TABLE, legacy)
        for qname in ("Q2", "rare_country", "country_range"):
            text = PARITY_QUERIES[qname]
            rows = eng.query(text).rows
            assert rows == game_engine.query(text).rows
            assert rows == game_engine.query(text, **REFERENCE).rows
        _, stats = eng.query_with_stats(PARITY_QUERIES["country_range"])
        assert stats.chunks_pruned_zone == 0


class TestSelectiveWorkloadPruning:
    """Zone maps prune the selective workload at benchmark scale
    (scale 8, 1024-row chunks) without changing a result."""

    @pytest.mark.parametrize("qname", SELECTIVE_SET)
    def test_zone_maps_prune_selective_queries(self, qname):
        engine = cohana_engine(8, 1024)
        text = selective_queries()[qname]
        result, stats = engine.query_with_stats(text)
        assert stats.chunks_pruned_zone > 0
        reference = engine.query(text, **REFERENCE)
        assert result_digest(result) == result_digest(reference)


@pytest.fixture(scope="module")
def on_disk_pair(tmp_path_factory):
    """The same small benchmark table saved as v4 and as v1, loaded back
    from disk so the processes backend can reopen it by path."""
    root = tmp_path_factory.mktemp("formats")
    compressed = compress(dataset(2), target_chunk_rows=256)
    engines = {}
    for version in (VERSION, 1):
        path = root / f"v{version}.cohana"
        save(compressed, path, version=version)
        engine = CohanaEngine()
        engine.register(TABLE, load(path))
        engines[version] = engine
    return engines


class TestReferenceParityMatrix:
    """Default path vs the reference for Q1-Q4 and every selective
    query, on a v4 table and its v1 re-serialization, on every
    backend."""

    QUERIES = {**{name: fn(TABLE) for name, fn in MAIN_QUERIES.items()},
               **selective_queries(TABLE)}

    @pytest.mark.parametrize("version", (VERSION, 1))
    @pytest.mark.parametrize("backend,jobs", (("serial", 1),
                                              ("threads", 2),
                                              ("processes", 2)))
    def test_digest_parity(self, on_disk_pair, version, backend, jobs):
        engine = on_disk_pair[version]
        reference = on_disk_pair[VERSION]
        for text in self.QUERIES.values():
            want = result_digest(reference.query(text, **REFERENCE))
            got = engine.query(text, backend=backend, jobs=jobs)
            assert result_digest(got) == want, text


class TestConfigAndCli:
    def test_config_and_loose_options_conflict(self, game_engine):
        with pytest.raises(ExecutionError, match="not both"):
            game_engine.query(PARITY_QUERIES["Q1"],
                              config=ExecutionConfig(), jobs=2)


class TestCompressedHelpers:
    def test_single_attr_name_shapes(self):
        from repro.cohort.conditions import (AttrRef, Between, Compare,
                                             InList, Literal)
        attr = AttrRef("gold")
        assert single_attr_name(Compare(attr, "<", Literal(5))) == "gold"
        assert single_attr_name(Compare(Literal(5), "<", attr)) == "gold"
        assert single_attr_name(Between(attr, Literal(1),
                                        Literal(2))) == "gold"
        assert single_attr_name(InList(attr, (1, 2))) == "gold"
        assert single_attr_name(Compare(attr, "=", attr)) is None

    def test_leaf_value_range_integral(self):
        from repro.cohort.conditions import (AttrRef, Between, Compare,
                                             InList, Literal)
        attr = AttrRef("gold")
        rng = lambda c: leaf_value_range(c, integral=True)  # noqa: E731
        assert rng(Compare(attr, "=", Literal(5))) == (5, 5, True)
        assert rng(Compare(attr, "<", Literal(5))) == (None, 4, True)
        assert rng(Compare(Literal(5), "<", attr)) == (6, None, True)
        assert rng(Between(attr, Literal(1), Literal(9))) == (1, 9, True)
        assert rng(InList(attr, (3, 7))) == (3, 7, False)
        assert rng(Compare(attr, "!=", Literal(5))) is None

    def test_leaf_value_range_float_column(self):
        # Over a float column the integer ±1 rewrite would be wrong:
        # 4.5 satisfies "< 5" but not "<= 4". Strict bounds stay at the
        # literal, inclusive and inexact.
        from repro.cohort.conditions import AttrRef, Compare, Literal
        attr = AttrRef("score")
        assert leaf_value_range(Compare(attr, "<", Literal(5)),
                                integral=False) == (None, 5, False)
        assert leaf_value_range(Compare(attr, ">", Literal(5)),
                                integral=False) == (5, None, False)
        assert leaf_value_range(Compare(attr, "<=", Literal(5)),
                                integral=False) == (None, 5, True)


class TestFloatColumnBounds:
    """Regression: int literals over FLOAT columns must not be
    tightened as if the column were integer-valued."""

    @pytest.fixture
    def float_engine(self):
        from repro.schema import ActivitySchema, LogicalType
        from repro.table import ActivityTable
        schema = ActivitySchema.build(
            user="player", time="time", action="action",
            dimensions={"country": LogicalType.STRING},
            measures={"score": LogicalType.FLOAT})
        rows = [("a", "2013-05-19", "launch", "US", 4.5),
                ("a", "2013-05-20", "shop", "US", 4.5),
                ("b", "2013-05-19", "launch", "CN", 9.5),
                ("b", "2013-05-20", "shop", "CN", 9.5)]
        eng = CohanaEngine()
        eng.create_table("D", ActivityTable.from_rows(schema, rows),
                         target_chunk_rows=2)
        return eng

    def test_strict_less_than_int_literal(self, float_engine):
        # score < 5 must keep the 4.5-score birth tuple: the coded
        # bound may not collapse to high=4.
        from repro.cohort.aggregates import AggregateSpec
        from repro.cohort.conditions import AttrRef, Compare, Literal
        from repro.cohort.query import CohortQuery
        query = CohortQuery(
            birth_action="launch",
            cohort_by=("country",),
            aggregates=(AggregateSpec("COUNT", None, "events"),),
            birth_condition=Compare(AttrRef("score"), "<", Literal(5)),
            table="D",
        )
        reference = float_engine.query(query, **REFERENCE)
        compressed = float_engine.query(query)
        assert reference.rows == compressed.rows
        assert len(reference.rows) == 1  # the US user qualifies
