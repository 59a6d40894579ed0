"""Abstract syntax trees for the engine's SQL subset.

Every node is a frozen dataclass whose sequences are tuples: the parser
caches one statement per SQL text (:func:`repro.db.sql.parser.parse`),
so a statement handed to one caller must be impossible to change under
the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression:
    """Base class of all expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` placeholder (0-based index)."""

    index: int

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Unary(Expression):
    operator: str  # '-' or 'NOT'
    operand: Expression

    def __str__(self) -> str:
        if self.operator == "NOT":
            return f"NOT ({self.operand})"
        return f"{self.operator}({self.operand})"


@dataclass(frozen=True)
class Binary(Expression):
    operator: str  # + - * / % = != <> < <= > >= AND OR LIKE
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def __str__(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {tail})"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} {maybe_not}BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {maybe_not}IN ({inner}))"


@dataclass(frozen=True)
class InSelect(Expression):
    operand: Expression
    select: "Select"
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} {maybe_not}IN (<subquery>))"


@dataclass(frozen=True)
class Exists(Expression):
    select: "Select"
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({maybe_not}EXISTS (<subquery>))"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar UDF or aggregate call; ``star`` marks ``count(*)``."""

    name: str
    args: tuple[Expression, ...]
    star: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class of all statement nodes."""


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Literal | None = None


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    column: str
    using: str = "btree"
    #: ``WITH (k = 8)`` options; stored as a read-only mapping.
    parameters: Mapping[str, int] = field(default_factory=dict)
    if_not_exists: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters",
                           MappingProxyType(dict(self.parameters)))


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropIndex(Statement):
    name: str
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class Analyze(Statement):
    """``ANALYZE t`` — collect per-column distinct counts for planning."""

    table: str


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Expression | None = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Expression | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name rows of this table are visible under."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    table: TableRef
    condition: Expression
    kind: str = "inner"  # 'inner' or 'left'


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional alias, or ``*``."""

    expression: Expression | None  # None means '*'
    alias: str | None = None

    @property
    def is_star(self) -> bool:
        return self.expression is None


@dataclass(frozen=True)
class Select(Statement):
    items: tuple[SelectItem, ...]
    source: TableRef | None = None
    joins: tuple[Join, ...] = ()
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


def walk_expression(expression: Expression):
    """Yield every node of an expression tree, pre-order."""
    yield expression
    if isinstance(expression, Unary):
        yield from walk_expression(expression.operand)
    elif isinstance(expression, Binary):
        yield from walk_expression(expression.left)
        yield from walk_expression(expression.right)
    elif isinstance(expression, IsNull):
        yield from walk_expression(expression.operand)
    elif isinstance(expression, Between):
        yield from walk_expression(expression.operand)
        yield from walk_expression(expression.low)
        yield from walk_expression(expression.high)
    elif isinstance(expression, InList):
        yield from walk_expression(expression.operand)
        for item in expression.items:
            yield from walk_expression(item)
    elif isinstance(expression, InSelect):
        yield from walk_expression(expression.operand)
    elif isinstance(expression, FunctionCall):
        for argument in expression.args:
            yield from walk_expression(argument)
