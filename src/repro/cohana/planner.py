"""Query planning for COHANA (Section 4.2).

The logical plan of a cohort query is the fixed operator chain
``TableScan → σ^b → σ^g → γ^c`` (Figure 5). Planning decides:

* **push-down** — birth selections are always evaluated below age
  selections (Equation 1 makes this safe), letting the scan skip every
  tuple of unqualified users;
* **chunk pruning** — the birth action's global id is looked up once; any
  chunk whose action chunk-dictionary lacks it is skipped, and any chunk
  whose time range misses the birth condition's time bounds is skipped
  (a user's tuples live in one chunk, so its birth tuple does too);
* **coded-domain rewrite** — every sargable birth-condition conjunct is
  translated into the *coded* domain once, at plan time
  (:func:`extract_birth_bounds`): equality and IN on dictionary-encoded
  columns become global-id sets, string ranges become global-id ranges
  (sorted dictionaries make id order lexicographic order), and integer
  ranges stay as-is. The resulting :class:`ColumnBound` list drives
  zone-map pruning in the scheduler and predicate short-circuits in the
  compressed-domain scan, with no per-chunk dictionary lookups;
* **column pruning** — only columns referenced by the query are decoded.

One deliberate deviation from Section 4.1's prose: the paper also prunes
chunks via *age*-selection ranges. We restrict range pruning to the
*birth* condition, because a chunk with no in-range age tuples still
contributes its users to cohort sizes (birth tuples are always retained
by σ^g, and cohort sizes span chunks), so skipping it would under-count
``COHORTSIZE``. Birth-condition pruning is always safe: a user's birth
tuple lives in the same chunk as the user.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.cohana.binder import split_conjuncts
from repro.cohort.conditions import (
    And,
    AttrRef,
    Between,
    Compare,
    Condition,
    InList,
    Literal,
)
from repro.cohort.query import CohortQuery
from repro.schema import ActivitySchema, ColumnRole
from repro.storage.chunk import encoded_column_kind
from repro.storage.reader import CompressedActivityTable


@dataclass(frozen=True)
class ColumnBound:
    """Coded-domain constraints one birth-condition column must satisfy.

    ``low``/``high`` are an inclusive necessary range in the *coded*
    domain — global-dictionary ids for string columns (sorted
    dictionaries make id order value order), plain values for integer
    and float columns. ``gids`` is an exact membership set for
    dictionary columns constrained by ``=`` / ``IN``: the chunk must
    contain at least one of these global ids to host a qualifying birth
    tuple.

    Attributes:
        column: the constrained column.
        kind: its encoder family (``'dict'``, ``'delta'`` or ``'raw'``).
        low, high: inclusive coded-domain bounds (None = unbounded).
        gids: exact global-id membership set, or None when the
            constraint is range-only.
    """

    column: str
    kind: str
    low: int | float | None = None
    high: int | float | None = None
    gids: tuple[int, ...] | None = None

    def describe(self) -> str:
        """Compact rendering for EXPLAIN output."""
        if self.gids is not None:
            return f"{self.column} IN ids{list(self.gids)}"
        return f"{self.column} in [{self.low}, {self.high}]"


@dataclass(frozen=True)
class LogicalOp:
    """One node of the logical operator tree.

    The logical plan is a single-child chain (cohort queries have no
    joins yet): ``Aggregate → CohortProject → AgeSelect → BirthSelect
    [→ Sessionize] → TableScan``, root first. ``detail`` is the node's
    parameter rendering; ``annotation`` an optional trailing note
    (e.g. the push-down marker).
    """

    name: str
    detail: str
    annotation: str | None = None
    child: "LogicalOp | None" = None

    def chain(self) -> list["LogicalOp"]:
        """The operator chain from this node down to the leaf."""
        nodes, node = [], self
        while node is not None:
            nodes.append(node)
            node = node.child
        return nodes

    def label(self) -> str:
        """`Name(detail) [annotation]` — one EXPLAIN line, unindented."""
        text = f"{self.name}({self.detail})"
        if self.annotation:
            text += f" [{self.annotation}]"
        return text


@dataclass(frozen=True)
class CohortPlan:
    """A planned cohort query, ready for execution.

    Attributes:
        query: the validated cohort query.
        birth_action_gid: global id of the birth action, or None when the
            action appears nowhere in the table (empty result).
        time_low, time_high: birth-time bounds extracted from the birth
            condition for chunk pruning (None = unbounded).
        columns: every non-user column the executors must decode.
        pushdown: evaluate σ^b before σ^g (the paper's optimization).
        prune: skip chunks via action dictionaries / time ranges / zone
            maps.
        birth_bounds: coded-domain bounds per birth-condition column
            (:class:`ColumnBound`), used for zone-map pruning.
        birth_satisfiable: False when some birth conjunct can match no
            value anywhere in the table (e.g. equality with a string
            absent from the global dictionary) — the result is provably
            empty and every chunk is prunable.
    """

    query: CohortQuery
    birth_action_gid: int | None
    time_low: int | None
    time_high: int | None
    columns: tuple[str, ...]
    pushdown: bool = True
    prune: bool = True
    birth_bounds: tuple[ColumnBound, ...] = ()
    birth_satisfiable: bool = True

    def logical(self) -> LogicalOp:
        """The logical operator tree for this plan, root first.

        ``Aggregate → CohortProject → AgeSelect → BirthSelect
        [→ Sessionize] → TableScan``. The planner lowers this chain to a
        physical operator tree (:func:`repro.cohana.operators.lower_plan`)
        that the chunk scheduler drives.
        """
        q = self.query
        bounds = ", ".join(b.describe() for b in self.birth_bounds)
        if not self.birth_satisfiable:
            bounds = "unsatisfiable"
        node = LogicalOp(
            "TableScan",
            f"columns={list(self.columns)}, "
            f"prune={'on' if self.prune else 'off'}, "
            f"birth_gid={self.birth_action_gid}, "
            f"time_range=[{self.time_low}, {self.time_high}], "
            f"bounds=[{bounds}]")
        if q.sessionize is not None:
            gap = q.sessionize.gap
            if float(gap).is_integer():
                gap = int(gap)
            node = LogicalOp(
                "Sessionize",
                f"gap={gap}s, column={q.sessionize.column!r}",
                child=node)
        node = LogicalOp(
            "BirthSelect", str(q.birth_condition),
            ("pushed below age selection" if self.pushdown
             else "not pushed"), node)
        node = LogicalOp("AgeSelect", str(q.age_condition), None, node)
        node = LogicalOp(
            "CohortProject",
            f"L={list(q.cohort_by)}, time_bin={q.cohort_time_bin}",
            None, node)
        return LogicalOp(
            "CohortAggregate",
            f"L={list(q.cohort_by)}, e={q.birth_action!r}, "
            f"f={[str(a) for a in q.aggregates]}",
            None, node)

    def describe(self) -> str:
        """A human-readable plan, in the spirit of EXPLAIN."""
        root, *rest = self.logical().chain()
        return "\n".join([root.label()]
                         + [f"  {node.label()}" for node in rest])


def plan_query(query: CohortQuery, table: CompressedActivityTable,
               pushdown: bool = True, prune: bool = True) -> CohortPlan:
    """Build the physical plan for ``query`` over ``table``."""
    schema = table.schema
    query.validate(schema)
    # Derived columns (sessionize) are visible to column pruning but
    # carry no storage statistics, so bound extraction keeps the stored
    # schema: a derived name simply is not sargable.
    effective = query.effective_schema(schema)
    gid = table.global_id(schema.action.name, query.birth_action)
    low, high = extract_time_bounds(query.birth_condition,
                                    schema.time.name)
    bounds, satisfiable = extract_birth_bounds(query.birth_condition,
                                               schema, table)
    return CohortPlan(
        query=query,
        birth_action_gid=gid,
        time_low=low,
        time_high=high,
        columns=tuple(required_columns(query, effective)),
        pushdown=pushdown,
        prune=prune,
        birth_bounds=bounds,
        birth_satisfiable=satisfiable,
    )


def required_columns(query: CohortQuery,
                     schema: ActivitySchema) -> list[str]:
    """The non-user columns a cohort query touches, in schema order."""
    needed = {schema.time.name, schema.action.name}
    needed.update(query.cohort_by)
    for cond in (query.birth_condition, query.age_condition):
        needed.update(cond.plain_attributes())
        needed.update(cond.birth_attributes())
    for agg in query.aggregates:
        if agg.column:
            needed.add(agg.column)
    needed.discard(schema.user.name)
    return [c.name for c in schema
            if c.name in needed and c.role is not ColumnRole.USER]


def extract_time_bounds(condition: Condition,
                        time_column: str) -> tuple[int | None, int | None]:
    """Derive conservative [low, high] birth-time bounds from a birth
    condition's top-level conjuncts.

    Only conjunctive constraints are used (a disjunction could admit
    births outside any single bound). The bounds are *necessary*
    conditions, so pruning with them never drops qualifying chunks.
    """
    conjuncts = condition.parts if isinstance(condition, And) else (
        condition,)
    low: int | None = None
    high: int | None = None

    def tighten(new_low, new_high):
        nonlocal low, high
        if new_low is not None:
            low = new_low if low is None else max(low, new_low)
        if new_high is not None:
            high = new_high if high is None else min(high, new_high)

    for part in conjuncts:
        if isinstance(part, Between) and _is_time_attr(part.operand,
                                                       time_column):
            if isinstance(part.low, Literal) and isinstance(part.high,
                                                            Literal):
                tighten(int(part.low.raw), int(part.high.raw))
        elif isinstance(part, Compare):
            bounds = _compare_bounds(part, time_column)
            if bounds is not None:
                tighten(*bounds)
        elif (isinstance(part, InList)
              and _is_time_attr(part.operand, time_column)
              and part.values):
            tighten(int(min(part.values)), int(max(part.values)))
    return low, high


# ---------------------------------------------------------------------------
# Coded-domain birth bounds (zone-map pruning / compressed scans)
# ---------------------------------------------------------------------------


class _Accumulator:
    """Per-column intersection of conjunct constraints (coded domain)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.low = None
        self.high = None
        self.gids: set[int] | None = None
        self.satisfiable = True

    def tighten(self, low, high) -> None:
        if low is not None:
            self.low = low if self.low is None else max(self.low, low)
        if high is not None:
            self.high = high if self.high is None else min(self.high, high)
        if (self.low is not None and self.high is not None
                and self.low > self.high):
            self.satisfiable = False

    def restrict_gids(self, gids: set[int]) -> None:
        self.gids = gids if self.gids is None else (self.gids & gids)
        if not self.gids:
            self.satisfiable = False
            return
        self.tighten(min(self.gids), max(self.gids))


def extract_birth_bounds(condition: Condition, schema: ActivitySchema,
                         table: CompressedActivityTable,
                         ) -> tuple[tuple[ColumnBound, ...], bool]:
    """Rewrite the birth condition's sargable conjuncts into the coded
    domain.

    Returns ``(bounds, satisfiable)``. Each :class:`ColumnBound` is a
    *necessary* constraint on one column: string literals are translated
    to global-dictionary ids once, here (equality/IN become id sets,
    ordered comparisons become id ranges via the sorted dictionary), and
    integer/float literals stay as values. ``satisfiable=False`` means
    some conjunct provably matches nothing in this table (the result is
    empty without scanning).

    Only top-level conjuncts over a single plain attribute and literals
    are used; anything else (disjunctions, ``Birth()`` refs, ``!=``,
    cross-column comparisons) is simply not rewritten — the bounds stay
    conservative, so pruning with them never drops qualifying chunks.
    """
    accs: dict[str, _Accumulator] = {}

    def acc_for(name: str) -> _Accumulator | None:
        if name not in schema or name == schema.user.name:
            return None
        spec = schema.column(name)
        if spec.role is ColumnRole.USER:
            return None
        if name not in accs:
            accs[name] = _Accumulator(encoded_column_kind(schema, name))
        return accs[name]

    for part in split_conjuncts(condition):
        _fold_conjunct(part, schema, table, acc_for)

    satisfiable = all(a.satisfiable for a in accs.values())
    bounds = tuple(
        ColumnBound(column=name, kind=acc.kind, low=acc.low, high=acc.high,
                    gids=(tuple(sorted(acc.gids))
                          if acc.gids is not None else None))
        for name, acc in sorted(accs.items())
        if acc.low is not None or acc.high is not None
        or acc.gids is not None)
    return bounds, satisfiable


def _fold_conjunct(part: Condition, schema, table, acc_for) -> None:
    """Fold one conjunct into the per-column accumulators (no-op when
    the conjunct is not sargable)."""
    if isinstance(part, Compare):
        attr, op, literal = _attr_op_literal(part)
        if attr is None:
            return
        acc = acc_for(attr)
        if acc is None:
            return
        if acc.kind == "dict":
            _fold_string_compare(acc, op, literal, table, attr)
        else:
            _fold_numeric_compare(acc, op, literal)
    elif isinstance(part, Between):
        if not (isinstance(part.operand, AttrRef)
                and isinstance(part.low, Literal)
                and isinstance(part.high, Literal)):
            return
        acc = acc_for(part.operand.name)
        if acc is None:
            return
        if acc.kind == "dict":
            _fold_string_compare(acc, ">=", part.low.raw, table,
                                 part.operand.name)
            _fold_string_compare(acc, "<=", part.high.raw, table,
                                 part.operand.name)
        else:
            _fold_numeric_compare(acc, ">=", part.low.raw)
            _fold_numeric_compare(acc, "<=", part.high.raw)
    elif isinstance(part, InList):
        if not isinstance(part.operand, AttrRef) or not part.values:
            return
        acc = acc_for(part.operand.name)
        if acc is None:
            return
        if acc.kind == "dict":
            gids = {table.global_id(part.operand.name, v)
                    for v in part.values if isinstance(v, str)}
            gids.discard(None)
            acc.restrict_gids({int(g) for g in gids})
        else:
            values = [v for v in part.values
                      if isinstance(v, (int, float))]
            if values:
                acc.tighten(min(values), max(values))


def _attr_op_literal(part: Compare):
    """Normalize a comparison to (attr_name, op, literal), attr left."""
    if isinstance(part.left, AttrRef) and isinstance(part.right, Literal):
        return part.left.name, part.op, part.right.raw
    if isinstance(part.right, AttrRef) and isinstance(part.left, Literal):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
                   "!=": "!="}[part.op]
        return part.right.name, flipped, part.left.raw
    return None, None, None


def _fold_string_compare(acc: _Accumulator, op: str, literal, table,
                         column: str) -> None:
    """Translate one string comparison into global-id space."""
    if not isinstance(literal, str):
        return
    values = table.dictionary(column).values
    if op == "=":
        gid = table.global_id(column, literal)
        if gid is None:
            acc.satisfiable = False
            return
        acc.restrict_gids({int(gid)})
    elif op == "<":
        acc.tighten(None, bisect.bisect_left(values, literal) - 1)
    elif op == "<=":
        acc.tighten(None, bisect.bisect_right(values, literal) - 1)
    elif op == ">":
        acc.tighten(bisect.bisect_right(values, literal), None)
    elif op == ">=":
        acc.tighten(bisect.bisect_left(values, literal), None)
    # '!=' carries no range information.
    if acc.high is not None and acc.high < 0:
        acc.satisfiable = False
    if acc.low is not None and acc.low >= len(values):
        acc.satisfiable = False


def _fold_numeric_compare(acc: _Accumulator, op: str, literal) -> None:
    """Fold one integer/float comparison into value-domain bounds.

    Strict bounds are tightened by one only when both the column domain
    (``'delta'`` = integers) and the literal are integral; a raw
    (float) column keeps the literal itself as a conservative inclusive
    bound, since values may fall strictly between ``literal - 1`` and
    ``literal``.
    """
    if not isinstance(literal, (int, float)):
        return
    integral = acc.kind == "delta" and isinstance(literal, int)
    if op == "=":
        acc.tighten(literal, literal)
    elif op == "<":
        acc.tighten(None, literal - 1 if integral else literal)
    elif op == "<=":
        acc.tighten(None, literal)
    elif op == ">":
        acc.tighten(literal + 1 if integral else literal, None)
    elif op == ">=":
        acc.tighten(literal, None)


def _is_time_attr(operand, time_column: str) -> bool:
    return isinstance(operand, AttrRef) and operand.name == time_column


def _compare_bounds(part: Compare, time_column: str):
    if _is_time_attr(part.left, time_column) and isinstance(part.right,
                                                            Literal):
        value = int(part.right.raw)
        op = part.op
    elif _is_time_attr(part.right, time_column) and isinstance(part.left,
                                                               Literal):
        value = int(part.left.raw)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
              "!=": "!="}[part.op]
    else:
        return None
    if op == "=":
        return (value, value)
    if op in ("<", "<="):
        return (None, value)
    if op in (">", ">="):
        return (value, None)
    return None
