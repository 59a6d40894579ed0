"""The shared write path: the statement cache and point UPDATE/DELETE.

``optimize=False`` always scans and is the oracle: every seeded run of
point DML with ``optimize=True`` must leave the same rows, under the
same row ids, return the same counts and raise the same errors, on
both table layouts.
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.db import Database
from repro.db.sql import ast
from repro.db.sql.parser import (
    STATEMENT_CACHE_SIZE,
    Parser,
    is_cached,
    parse,
)
from repro.errors import DatabaseError, SqlSyntaxError, TypeCheckError

SCHEMA = (
    "CREATE TABLE w (id INTEGER PRIMARY KEY, code TEXT UNIQUE, h INTEGER,"
    " b REAL, plain INTEGER, flag BOOLEAN)",
    "CREATE INDEX w_h ON w (h) USING hash",
    "CREATE INDEX w_b ON w (b) USING btree",
)

#: Column -> values a row may hold (NULL included where allowed).
DOMAINS = {
    "id": list(range(12)),
    "code": [f"c{n}" for n in range(6)] + [None],
    "h": [0, 1, 2, None],
    "b": [0.5, 1.0, 2.0, None],
    "plain": [0, 1, 2, None],
    "flag": [True, False, None],
}

#: Keys of the wrong type for each column (compare() raises on them).
MISMATCHED = {
    "id": ["1", True],
    "code": [1, b"c1"],
    "h": ["0", False],
    "b": ["1.0"],
    "plain": [True],
    "flag": [1, "True"],
}

#: A non-NULL key no row holds (``flag`` has none: both booleans occur).
ABSENT = {"id": 99, "code": "zz", "h": 9, "b": 7.5, "plain": 9}

LAYOUTS = ("row", "column")


def _database(optimize, layout):
    database = Database(optimize=optimize, layout=layout, page_rows=4)
    for sql in SCHEMA:
        database.execute(sql)
    return database


def _outcome(database, sql, parameters):
    try:
        return ("ok", database.execute(sql, parameters))
    except DatabaseError as exc:
        return ("error", type(exc), str(exc))


def _state(database):
    return [(row_id, list(row))
            for row_id, row in database.catalog.table("w").rows()]


def _random_row(rng):
    return [rng.choice(DOMAINS[column]) for column in DOMAINS]


def _random_key(rng, column):
    roll = rng.random()
    if roll < 0.1:
        return None
    if roll < 0.2:
        return rng.choice(MISMATCHED[column])
    if roll < 0.3 and column in ABSENT:
        return ABSENT[column]
    if roll < 0.4 and column in ("id", "h", "b"):
        return rng.choice([1, 1.0, 2, 0.5])       # int/float mixing
    return rng.choice([value for value in DOMAINS[column]
                       if value is not None])


def _random_statement(rng):
    """A DML statement with a point (or near-point) WHERE."""
    kind = rng.random()
    if kind < 0.3:
        return ("INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)",
                _random_row(rng))
    column = rng.choice(list(DOMAINS))
    key = _random_key(rng, column)
    form = rng.random()
    if form < 0.6:
        where, parameters = f"{column} = ?", [key]
    elif form < 0.8:
        where, parameters = f"? = w.{column}", [key]
    elif isinstance(key, bytes):          # no literal syntax for BLOBs
        where, parameters = f"w.{column} = ?", [key]
    else:
        where, parameters = f"{column} = {ast.Literal(key)}", []
    if kind < 0.6:
        return f"DELETE FROM w WHERE {where}", parameters
    target = rng.choice(list(DOMAINS))            # may be the key column
    value = rng.choice(DOMAINS[target])
    return (f"UPDATE w SET {target} = ? WHERE {where}",
            [value] + parameters)


def _run_against_oracle(seed, steps, layout, between=None):
    rng = random.Random(seed)
    oracle = _database(False, "row")
    fast = _database(True, layout)
    for step in range(steps):
        sql, parameters = _random_statement(rng)
        assert _outcome(fast, sql, parameters) == _outcome(
            oracle, sql, parameters), (step, sql, parameters)
        assert _state(fast) == _state(oracle), (step, sql, parameters)
        if between is not None:
            between(step, fast, oracle)
    return fast, oracle


class TestPointDmlMatchesTheScan:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_runs(self, seed, layout):
        _run_against_oracle(seed, 150, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_inside_rolled_back_and_committed_transactions(self, layout):
        def transactions(step, fast, oracle):
            if step % 25 in (0, 13):
                for database in (fast, oracle):
                    database.begin()
            elif step % 25 == 12:
                for database in (fast, oracle):
                    database.rollback()
                assert _state(fast) == _state(oracle)
            elif step % 25 == 24:
                for database in (fast, oracle):
                    database.commit()

        _run_against_oracle(99, 200, layout, between=transactions)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_updates_that_move_the_key(self, layout):
        for optimize in (True, False):
            database = _database(optimize, layout)
            for n in range(6):
                database.execute("INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)",
                                 [n, f"c{n}", n % 2, float(n), n, True])
            assert database.execute(
                "UPDATE w SET id = ? WHERE id = ?", [40, 3]) == 1
            assert database.execute(
                "UPDATE w SET h = ? WHERE h = ?", [7, 1]) == 3
            assert database.execute(
                "UPDATE w SET code = ? WHERE code = ?", ["z", "c2"]) == 1
            assert database.execute(
                "DELETE FROM w WHERE id = ?", [3]) == 0
            assert database.execute("DELETE FROM w WHERE id = ?", [40]) == 1
            assert database.execute("DELETE FROM w WHERE h = ?", [7]) == 2
            assert database.execute(
                "SELECT code FROM w ORDER BY id").column("code") == [
                    "c0", "z", "c4"]


    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("column,moved", [("h", 5), ("b", 5.0)])
    def test_rows_change_in_row_id_order(self, layout, column, moved):
        # Moving row 1 onto the key puts it *after* row 3 in the index's
        # posting list; the UPDATE must still visit row 1 first, as the
        # scan does, so row 1 takes the UNIQUE value and row 3 fails.
        states = []
        for optimize in (True, False):
            database = _database(optimize, layout)
            for n, key in ((1, moved), (2, 1), (3, 0)):
                database.execute(
                    "INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)",
                    [n, f"c{n}", int(key), float(key), n, True])
            database.execute(f"UPDATE w SET {column} = 0 WHERE id = 1")
            outcome = _outcome(
                database, f"UPDATE w SET code = 'dup' WHERE {column} = 0",
                [])
            assert outcome[0] == "error"
            states.append(_state(database))
        assert states[0] == states[1]
        assert [row[1] for __, row in states[0]] == ["dup", "c2", "c3"]


class TestKeyCases:
    @pytest.fixture(params=LAYOUTS)
    def pair(self, request):
        databases = [_database(optimize, request.param)
                     for optimize in (True, False)]
        for database in databases:
            for n in range(5):
                database.execute("INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)",
                                 [n, f"c{n}", n % 2, n / 2, n, n % 2 == 0])
        return databases

    @pytest.mark.parametrize("column", list(DOMAINS))
    def test_absent_and_null_keys_match_nothing(self, pair, column):
        for key in (None, ABSENT.get(column)):
            for database in pair:
                assert database.execute(
                    f"DELETE FROM w WHERE {column} = ?", [key]) == 0
                assert database.execute(
                    f"UPDATE w SET plain = 9 WHERE {column} = ?", [key]) == 0

    @pytest.mark.parametrize("column,key", [
        (column, key) for column, keys in MISMATCHED.items()
        for key in keys])
    def test_mismatched_key_type_raises_like_the_scan(self, pair, column,
                                                     key):
        fast, oracle = pair
        sql = f"DELETE FROM w WHERE {column} = ?"
        with pytest.raises(TypeCheckError) as raised:
            oracle.execute(sql, [key])
        with pytest.raises(TypeCheckError) as also:
            fast.execute(sql, [key])
        assert str(also.value) == str(raised.value)
        assert _state(fast) == _state(oracle)

    @pytest.mark.parametrize("column,key", [
        (column, key) for column, keys in MISMATCHED.items()
        for key in keys])
    def test_mismatched_key_type_on_an_empty_table_matches_nothing(
            self, column, key):
        for optimize in (True, False):
            database = _database(optimize, "row")
            assert database.execute(
                f"DELETE FROM w WHERE {column} = ?", [key]) == 0

    def test_a_missing_parameter_fails_like_the_scan(self, pair):
        outcomes = [_outcome(database, "DELETE FROM w WHERE id = ?", [])
                    for database in pair]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "error"
        empty = _database(True, "row")
        assert empty.execute("DELETE FROM w WHERE id = ?", []) == 0


def _execute_spans(database, sql, parameters=()):
    sink = obs.InMemorySink()
    obs.enable(sink=sink)
    try:
        with obs.span("test"):
            database.execute(sql, parameters)
    finally:
        obs.disable()
    return {span["name"]: span.get("attrs", {}) for span in sink.spans()}


class TestAccessAnnotations:
    @pytest.fixture
    def database(self):
        database = _database(True, "row")
        for n in range(8):
            database.execute("INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)",
                             [n, f"c{n}", n % 4, n / 2, n, True])
        return database

    @pytest.mark.parametrize("where,examined,rows", [
        ("id = 3", 1, 1),             # primary key
        ("code = 'c5'", 1, 1),        # UNIQUE
        ("h = 1", 2, 2),              # hash index
        ("b = 1.5", 1, 1),            # btree index
        ("id = 77", 0, 0),            # absent key
    ])
    def test_point_access(self, database, where, examined, rows):
        spans = _execute_spans(database, f"DELETE FROM w WHERE {where}")
        assert spans["sql.execute"] == {
            "access": "point", "rows_examined": examined, "rows": rows}

    @pytest.mark.parametrize("sql,parameters", [
        ("UPDATE w SET h = 0 WHERE plain = ?", [3]),   # no index
        ("DELETE FROM w WHERE id = ?", [None]),         # NULL key
        ("DELETE FROM w WHERE id > ?", [3]),           # not an equality
        ("DELETE FROM w WHERE id = ? AND h = 1", [3]),  # not a lone one
    ])
    def test_scan_access(self, database, sql, parameters):
        spans = _execute_spans(database, sql, parameters)
        assert spans["sql.execute"]["access"] == "scan"
        assert spans["sql.execute"]["rows_examined"] == 8

    def test_unoptimized_database_always_scans(self):
        database = _database(False, "row")
        database.execute("INSERT INTO w VALUES (1, 'a', 1, 1.0, 1, TRUE)")
        spans = _execute_spans(database, "DELETE FROM w WHERE id = 1")
        assert spans["sql.execute"]["access"] == "scan"

    def test_parse_span_reports_cache_hits(self, database):
        sql = "UPDATE w SET plain = ? WHERE id = ? -- cache-hit probe"
        assert not is_cached(sql)
        first = _execute_spans(database, sql, [1, 2])
        second = _execute_spans(database, sql, [1, 2])
        assert first["sql.parse"] == {"cache_hit": False}
        assert second["sql.parse"] == {"cache_hit": True}


class TestStatementCache:
    def test_one_text_serves_different_parameters(self):
        database = _database(True, "row")
        insert = "INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)"
        for n in range(4):
            database.execute(insert, [n, f"c{n}", n, float(n), n, False])
        assert parse(insert) is parse(insert)
        delete = "DELETE FROM w WHERE code = ?"
        assert database.execute(delete, ["c1"]) == 1
        assert database.execute(delete, ["c1"]) == 0
        assert database.execute(delete, ["c3"]) == 1
        assert database.execute("SELECT id FROM w ORDER BY id").column(
            "id") == [0, 2]

    def test_inside_and_outside_a_transaction(self):
        database = _database(True, "row")
        logged = []
        database.attach_wal(lambda sql, parameters: logged.append(
            (sql, parameters)))
        sql = "INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)"
        database.execute(sql, [1, "a", 1, 1.0, 1, True])
        database.begin()
        database.execute(sql, [2, "b", 2, 2.0, 2, True])
        database.rollback()
        database.begin()
        database.execute(sql, [3, "c", 3, 3.0, 3, True])
        database.commit()
        database.execute(sql, [4, "d", 4, 4.0, 4, True])
        assert database.execute("SELECT id FROM w ORDER BY id").column(
            "id") == [1, 3, 4]
        assert [parameters[0] for __, parameters in logged] == [1, 3, 4]

    def test_a_cached_text_follows_drop_and_create_of_its_table(self):
        database = _database(True, "row")
        sql = "UPDATE w SET plain = ? WHERE code = ?"
        database.execute("INSERT INTO w VALUES (1, 'k', 0, 0.0, 0, TRUE)")
        assert database.execute(sql, [5, "k"]) == 1
        database.execute("DROP TABLE w")
        with pytest.raises(DatabaseError):
            database.execute(sql, [5, "k"])
        database.execute("CREATE TABLE w (code INTEGER, plain TEXT)")
        database.execute("INSERT INTO w VALUES (1, 'x')")
        database.execute("INSERT INTO w VALUES (1, 'y')")
        assert is_cached(sql)
        assert database.execute(sql, ["z", 1]) == 2
        with pytest.raises(TypeCheckError):
            database.execute(sql, ["z", "k"])
        database.execute("CREATE INDEX w_code ON w (code) USING btree")
        assert database.execute(sql, ["q", 1]) == 2
        assert database.execute("SELECT plain FROM w").column("plain") == [
            "q", "q"]

    def test_parse_errors_are_raised_on_every_call(self):
        bad = "DELETE FROM w WHERE"
        for __ in range(3):
            with pytest.raises(SqlSyntaxError):
                parse(bad)
        assert not is_cached(bad)

    def test_cached_statements_equal_a_fresh_parse(self):
        for sql in (*SCHEMA, "INSERT INTO w (id, code) VALUES (?, ?), (1, 'x')",
                    "UPDATE w SET h = h + 1, b = ? WHERE id = ?",
                    "SELECT DISTINCT h, count(*) AS n FROM w JOIN w AS v "
                    "ON w.id = v.id WHERE h > 0 GROUP BY h HAVING n > 1 "
                    "ORDER BY h DESC LIMIT 3",
                    "CREATE INDEX k ON w (code) USING kmer WITH (k = 4)"):
            assert parse(sql) == Parser(sql).parse_statement()

    def test_cached_statements_cannot_be_changed(self):
        update = parse("UPDATE w SET h = ? WHERE id = ?")
        with pytest.raises(dataclasses.FrozenInstanceError):
            update.where = None
        assert isinstance(update.assignments, tuple)
        index = parse("CREATE INDEX k ON w (code) USING kmer WITH (k = 4)")
        with pytest.raises(TypeError):
            index.parameters["k"] = 8
        assert index.parameters == {"k": 4}
        table = parse(SCHEMA[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.columns[0].primary_key = False
        select = parse("SELECT id FROM w ORDER BY id")
        assert isinstance(select.items, tuple)
        assert isinstance(select.order_by, tuple)

    def test_the_cache_is_bounded_and_keeps_recent_texts(self):
        kept = "DELETE FROM w WHERE id = ? -- kept while others churn"
        parse(kept)
        texts = [f"DELETE FROM w WHERE id = {n} -- churn"
                 for n in range(STATEMENT_CACHE_SIZE + 20)]
        for position, sql in enumerate(texts):
            parse(sql)
            if position % 50 == 0:
                parse(kept)
        assert is_cached(kept)
        assert not is_cached(texts[0])
        assert is_cached(texts[-1])
        assert sum(is_cached(sql) for sql in texts) < STATEMENT_CACHE_SIZE
