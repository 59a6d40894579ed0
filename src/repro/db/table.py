"""Heap tables: row storage with constraint enforcement and index upkeep."""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.db.index.base import Index
from repro.db.schema import TableSchema
from repro.db.values import NULL
from repro.errors import ConstraintError, DatabaseError


def _unique_key(value: Any) -> Any:
    """A hashable stand-in for uniqueness checks on any value."""
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class RowHeap:
    """The legacy heap: a dict of row id → row list, insertion-ordered."""

    def __init__(self) -> None:
        self._rows: dict[int, list[Any]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row_id: int, row: list[Any]) -> None:
        self._rows[row_id] = row

    def has(self, row_id: int) -> bool:
        return row_id in self._rows

    def get(self, row_id: int) -> "list[Any] | None":
        return self._rows.get(row_id)

    def replace(self, row_id: int, row: list[Any]) -> None:
        self._rows[row_id] = row

    def remove(self, row_id: int) -> None:
        del self._rows[row_id]

    def clear(self) -> None:
        self._rows.clear()

    def items(self) -> Iterator[tuple[int, list[Any]]]:
        yield from self._rows.items()


class Table:
    """A heap of rows with stable integer row ids.

    The table owns constraint enforcement (primary key / unique) and keeps
    every attached :class:`~repro.db.index.base.Index` synchronized on
    each mutation.  Row storage is pluggable: ``layout="row"`` keeps the
    classic in-memory row-list heap; ``layout="column"`` stores rows as
    sealed column pages (:class:`~repro.db.columnar.store.ColumnStore`)
    behind the same protocol — stable ids, insertion-order iteration,
    in-place updates — so the executor sees identical rows either way.
    """

    def __init__(self, schema: TableSchema, layout: str = "row",
                 runtime=None) -> None:
        self.schema = schema
        self.layout = layout
        if layout == "column":
            if runtime is None:
                raise DatabaseError(
                    "columnar tables need a ColumnarRuntime"
                )
            self._heap = runtime.column_store(schema)
        elif layout == "row":
            self._heap = RowHeap()
        else:
            raise DatabaseError(f"unknown table layout {layout!r}")
        self._next_row_id = 1
        self._indexes: dict[str, Index] = {}
        self._statistics: "dict[str, int] | None" = None
        # Uniqueness bookkeeping: column -> {unique key -> row id}.
        self._unique_columns: dict[str, dict[Any, int]] = {}
        if schema.primary_key:
            self._unique_columns[schema.primary_key] = {}
        for column in schema.unique:
            self._unique_columns.setdefault(column, {})

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"

    @property
    def column_store(self):
        """The backing :class:`ColumnStore` (``None`` for row layout)."""
        return self._heap if self.layout == "column" else None

    # -- reading -----------------------------------------------------------------

    def rows(self) -> Iterator[tuple[int, list[Any]]]:
        """Iterate ``(row_id, row)`` pairs in insertion order."""
        yield from self._heap.items()

    def row(self, row_id: int) -> list[Any]:
        row = self._heap.get(row_id)
        if row is None:
            raise DatabaseError(
                f"table {self.name!r} has no row id {row_id}"
            )
        return row

    def has_row(self, row_id: int) -> bool:
        return self._heap.has(row_id)

    def equal_row_ids(self, column: str, key: Any) -> "list[int] | None":
        """Ascending ids of the rows whose *column* may equal the non-NULL
        *key*: from the column's uniqueness map when it is PRIMARY KEY or
        UNIQUE, else from an attached equality index.  ``None`` when the
        column has neither (the caller scans).  Callers re-check rows."""
        column = column.lower()
        claimed = self._unique_columns.get(column)
        if claimed is not None:
            owner = claimed.get(_unique_key(key))
            return [] if owner is None else [owner]
        for index in self._indexes.values():
            if index.column == column and index.supports_equality:
                return sorted(index.search_equal(key))
        return None

    # -- uniqueness ---------------------------------------------------------------

    def _check_unique(self, row: list[Any],
                      ignore_row_id: int | None = None) -> None:
        for column, claimed in self._unique_columns.items():
            value = row[self.schema.position(column)]
            if value is NULL:
                continue
            owner = claimed.get(_unique_key(value))
            if owner is not None and owner != ignore_row_id:
                raise ConstraintError(
                    f"duplicate value {value!r} for unique column "
                    f"{self.name}.{column}"
                )

    def _claim_unique(self, row: list[Any], row_id: int) -> None:
        for column, claimed in self._unique_columns.items():
            value = row[self.schema.position(column)]
            if value is not NULL:
                claimed[_unique_key(value)] = row_id

    def _release_unique(self, row: list[Any], row_id: int) -> None:
        for column, claimed in self._unique_columns.items():
            value = row[self.schema.position(column)]
            if value is not NULL and claimed.get(_unique_key(value)) == row_id:
                del claimed[_unique_key(value)]

    # -- mutation --------------------------------------------------------------------

    def insert(self, row: Iterable[Any]) -> int:
        """Validate and insert one full row; returns its row id."""
        validated = self.schema.validate_row(row)
        self._check_unique(validated)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._heap.append(row_id, validated)
        self._claim_unique(validated, row_id)
        for index in self._indexes.values():
            index.insert(validated[self.schema.position(index.column)], row_id)
        return row_id

    def insert_named(self, **named_values: Any) -> int:
        """Insert from column-name keywords, applying schema defaults."""
        return self.insert(self.schema.complete_row(named_values))

    def delete(self, row_id: int) -> list[Any]:
        """Remove one row; returns the removed row."""
        row = self.row(row_id)
        self._heap.remove(row_id)
        self._release_unique(row, row_id)
        for index in self._indexes.values():
            index.delete(row[self.schema.position(index.column)], row_id)
        return row

    def update(self, row_id: int, new_row: Iterable[Any]) -> None:
        """Replace one row in place (same row id)."""
        old_row = self.row(row_id)
        validated = self.schema.validate_row(new_row)
        self._check_unique(validated, ignore_row_id=row_id)
        self._release_unique(old_row, row_id)
        self._claim_unique(validated, row_id)
        for index in self._indexes.values():
            position = self.schema.position(index.column)
            if old_row[position] != validated[position]:
                index.delete(old_row[position], row_id)
                index.insert(validated[position], row_id)
        self._heap.replace(row_id, validated)

    def truncate(self) -> None:
        """Remove all rows (keeps schema and indexes)."""
        self._heap.clear()
        for claimed in self._unique_columns.values():
            claimed.clear()
        for index in self._indexes.values():
            index.clear()

    # -- indexes -----------------------------------------------------------------------

    def attach_index(self, index: Index) -> None:
        """Register an index and backfill it from current rows."""
        if index.name in self._indexes:
            raise DatabaseError(f"index {index.name!r} already attached")
        self.schema.require_column(index.column)
        position = self.schema.position(index.column)
        for row_id, row in self._heap.items():
            index.insert(row[position], row_id)
        self._indexes[index.name] = index

    def detach_index(self, name: str) -> Index:
        try:
            return self._indexes.pop(name.lower())
        except KeyError:
            raise DatabaseError(f"no index named {name!r}") from None

    @property
    def indexes(self) -> tuple[Index, ...]:
        return tuple(self._indexes.values())

    def indexes_on(self, column: str) -> tuple[Index, ...]:
        column = column.lower()
        return tuple(
            index for index in self._indexes.values()
            if index.column == column
        )

    # -- statistics (ANALYZE) ---------------------------------------------------------

    @property
    def statistics(self) -> "dict[str, int] | None":
        """Per-column distinct counts, or ``None`` before ANALYZE."""
        return self._statistics

    def collect_statistics(self) -> dict[str, int]:
        """Compute distinct-value counts per column (the ANALYZE pass).

        NULLs are excluded (they never match equality predicates).  The
        optimizer uses ``1 / ndistinct`` as the equality selectivity of
        analyzed columns instead of the fixed default.
        """
        distinct: list[set] = [set() for _ in self.schema.columns]
        for _, row in self._heap.items():
            for position, value in enumerate(row):
                if value is not NULL:
                    distinct[position].add(_unique_key(value))
        counts = {
            column.name: len(distinct[position])
            for position, column in enumerate(self.schema.columns)
        }
        self._statistics = counts
        return counts

    # -- snapshots (transaction support) ---------------------------------------------

    def snapshot(self) -> dict:
        """A restorable copy of the row data (indexes are rebuilt on restore)."""
        return {
            "rows": {row_id: list(row) for row_id, row in self._heap.items()},
            "next_row_id": self._next_row_id,
        }

    def restore(self, snapshot: dict) -> None:
        self._heap.clear()
        for row_id, row in snapshot["rows"].items():
            self._heap.append(row_id, list(row))
        self._next_row_id = snapshot["next_row_id"]
        for claimed in self._unique_columns.values():
            claimed.clear()
        for row_id, row in self._heap.items():
            self._claim_unique(row, row_id)
        for index in self._indexes.values():
            index.clear()
            position = self.schema.position(index.column)
            for row_id, row in self._heap.items():
                index.insert(row[position], row_id)
