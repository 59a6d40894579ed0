"""Differential testing: our engine vs sqlite3 as a semantics oracle.

Random data and random queries from a dialect subset both engines share
(comparisons, boolean connectives, LIKE, BETWEEN, IS NULL, aggregates,
GROUP BY/HAVING, ORDER BY, LIMIT, inner joins) are executed on both; the
result multisets must agree.  Division is excluded (integer-division
semantics differ by design) and ordering is only compared when the query
makes it total.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database

# -- data generators ---------------------------------------------------------

cell = st.one_of(st.none(), st.integers(-9, 9))
text_cell = st.one_of(st.none(), st.sampled_from(
    ["alpha", "beta", "gamma", "ab", "a%b", "x_y", ""]
))
row = st.tuples(cell, cell, text_cell)
rows_strategy = st.lists(row, max_size=25)

# -- condition generator (strings valid in both dialects) ---------------------

comparison = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])


@st.composite
def conditions(draw, depth=2, prefix=""):
    if depth <= 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(
            ["cmp", "between", "null", "like", "in"]
        ))
        column = prefix + draw(st.sampled_from(["a", "b"]))
        if kind == "cmp":
            operator = draw(comparison)
            value = draw(st.integers(-9, 9))
            return f"{column} {operator} {value}"
        if kind == "between":
            low = draw(st.integers(-9, 5))
            high = low + draw(st.integers(0, 6))
            return f"{column} BETWEEN {low} AND {high}"
        if kind == "null":
            negated = draw(st.booleans())
            return f"{column} IS {'NOT ' if negated else ''}NULL"
        if kind == "like":
            pattern = draw(st.sampled_from(
                ["a%", "%a%", "_b%", "alpha", "%"]
            ))
            return f"{prefix}s LIKE '{pattern}'"
        values = draw(st.lists(st.integers(-9, 9), min_size=1,
                               max_size=4))
        return f"{column} IN ({', '.join(map(str, values))})"
    left = draw(conditions(depth=depth - 1, prefix=prefix))
    right = draw(conditions(depth=depth - 1, prefix=prefix))
    connective = draw(st.sampled_from(["AND", "OR"]))
    if draw(st.booleans()):
        return f"NOT ({left})"
    return f"({left}) {connective} ({right})"


def build_engines(rows, second_rows=None):
    ours = Database()
    ours.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    theirs = sqlite3.connect(":memory:")
    theirs.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    for a, b, s in rows:
        ours.execute("INSERT INTO t VALUES (?, ?, ?)", [a, b, s])
        theirs.execute("INSERT INTO t VALUES (?, ?, ?)", (a, b, s))
    if second_rows is not None:
        ours.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        theirs.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        for a, c in second_rows:
            ours.execute("INSERT INTO u VALUES (?, ?)", [a, c])
            theirs.execute("INSERT INTO u VALUES (?, ?)", (a, c))
    return ours, theirs


def both(ours, theirs, sql):
    mine = [tuple(r) for r in ours.query(sql).rows]
    other = [tuple(r) for r in theirs.execute(sql).fetchall()]
    return mine, other


def as_multiset(rows):
    return sorted(rows, key=repr)


class TestSelectDifferential:
    @settings(max_examples=80, deadline=None)
    @given(rows_strategy, conditions())
    def test_where_matches_sqlite(self, rows, condition):
        ours, theirs = build_engines(rows)
        sql = f"SELECT a, b, s FROM t WHERE {condition}"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_aggregates_match_sqlite(self, rows):
        ours, theirs = build_engines(rows)
        sql = ("SELECT a, count(*), count(b), sum(b), min(b), max(b) "
               "FROM t GROUP BY a")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, st.integers(-3, 3))
    def test_having_matches_sqlite(self, rows, threshold):
        ours, theirs = build_engines(rows)
        sql = (f"SELECT a, sum(b) FROM t GROUP BY a "
               f"HAVING count(*) > {threshold}")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, st.integers(0, 8), st.integers(0, 8))
    def test_order_limit_matches_sqlite(self, rows, limit, offset):
        ours, theirs = build_engines(rows)
        # Total order over all columns makes LIMIT windows comparable
        # ... except among duplicate full rows, which are interchangeable.
        sql = (f"SELECT a, b, s FROM t ORDER BY a, b, s "
               f"LIMIT {limit} OFFSET {offset}")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_distinct_matches_sqlite(self, rows):
        ours, theirs = build_engines(rows)
        sql = "SELECT DISTINCT a, s FROM t"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_expressions_match_sqlite(self, rows):
        ours, theirs = build_engines(rows)
        sql = "SELECT a + b, a - b, a * 2 FROM t WHERE a IS NOT NULL"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy,
           st.lists(st.tuples(cell, cell), max_size=12),
           conditions(prefix="t."))
    def test_inner_join_matches_sqlite(self, rows, second, condition):
        ours, theirs = build_engines(rows, second)
        sql = (f"SELECT t.s, u.c FROM t JOIN u ON t.a = u.a "
               f"WHERE {condition}")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.lists(st.tuples(cell, cell), max_size=12))
    def test_left_join_matches_sqlite(self, rows, second):
        ours, theirs = build_engines(rows, second)
        sql = "SELECT t.a, t.b, u.c FROM t LEFT JOIN u ON t.a = u.a"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, conditions())
    def test_in_subquery_matches_sqlite(self, rows, condition):
        ours, theirs = build_engines(rows)
        sql = (f"SELECT a FROM t WHERE b IN "
               f"(SELECT a FROM t WHERE {condition})")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)


class TestDmlDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, conditions())
    def test_delete_matches_sqlite(self, rows, condition):
        ours, theirs = build_engines(rows)
        ours.execute(f"DELETE FROM t WHERE {condition}")
        theirs.execute(f"DELETE FROM t WHERE {condition}")
        mine, other = both(ours, theirs, "SELECT a, b, s FROM t")
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, conditions(), st.integers(-5, 5))
    def test_update_matches_sqlite(self, rows, condition, value):
        ours, theirs = build_engines(rows)
        sql = f"UPDATE t SET b = {value} WHERE {condition}"
        ours.execute(sql)
        theirs.execute(sql)
        mine, other = both(ours, theirs, "SELECT a, b, s FROM t")
        assert as_multiset(mine) == as_multiset(other)


point_key = st.one_of(st.none(), st.integers(-9, 9))


class TestPointDmlDifferential:
    """``col = ?`` DML through an index (or the scan, for ``b``)."""

    @staticmethod
    def _indexed(rows, using):
        ours, theirs = build_engines(rows)
        ours.execute(f"CREATE INDEX t_a ON t (a) USING {using}")
        theirs.execute("CREATE INDEX t_a ON t (a)")
        return ours, theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.sampled_from(["hash", "btree"]),
           st.sampled_from(["a = ?", "? = a", "b = ?"]), point_key)
    def test_point_delete_matches_sqlite(self, rows, using, where, key):
        ours, theirs = self._indexed(rows, using)
        sql = f"DELETE FROM t WHERE {where}"
        assert ours.execute(sql, [key]) == theirs.execute(
            sql, (key,)).rowcount
        mine, other = both(ours, theirs, "SELECT a, b, s FROM t")
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.sampled_from(["hash", "btree"]),
           st.sampled_from(["a", "b"]), st.sampled_from(["a = ?", "b = ?"]),
           point_key, st.integers(-5, 5))
    def test_point_update_matches_sqlite(self, rows, using, target, where,
                                         key, value):
        ours, theirs = self._indexed(rows, using)
        sql = f"UPDATE t SET {target} = ? WHERE {where}"
        assert ours.execute(sql, [value, key]) == theirs.execute(
            sql, (value, key)).rowcount
        mine, other = both(ours, theirs, "SELECT a, b, s FROM t")
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), cell), max_size=15,
                    unique_by=lambda pair: pair[0]),
           point_key, st.integers(-9, 9))
    def test_primary_key_point_dml_matches_sqlite(self, pairs, key, value):
        ours = Database()
        theirs = sqlite3.connect(":memory:")
        for engine in (ours, theirs):
            engine.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER)")
        for pair in pairs:
            ours.execute("INSERT INTO k VALUES (?, ?)", list(pair))
            theirs.execute("INSERT INTO k VALUES (?, ?)", pair)
        for sql, parameters in (("UPDATE k SET v = ? WHERE id = ?",
                                 (value, key)),
                                ("DELETE FROM k WHERE id = ?", (value,))):
            assert ours.execute(sql, list(parameters)) == theirs.execute(
                sql, parameters).rowcount
        mine, other = both(ours, theirs, "SELECT id, v FROM k")
        assert as_multiset(mine) == as_multiset(other)
