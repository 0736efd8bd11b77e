"""Compressed-domain predicate evaluation for the vectorized kernel.

:func:`~repro.cohana.compile.compile_mask` evaluates conditions over
per-row code arrays decoded from every referenced column. This module
evaluates the same conditions *against the compressed structures*
instead, tuple semantics unchanged; it is the vectorized kernel's only
way of evaluating birth and age conditions:

* **dictionary columns** — a leaf predicate over one dictionary-encoded
  column and literals is evaluated once per *distinct* chunk value (the
  chunk dictionary, ``cardinality`` entries) and then mapped through the
  bit-packed per-row chunk ids. Cost drops from ``O(rows)`` comparisons
  plus a global-id gather to ``O(cardinality)`` comparisons plus a table
  lookup;
* **integer / float columns** — a leaf range predicate is first checked
  against the segment's MIN/MAX: a segment entirely inside the range is
  all-true and one entirely outside is all-false, with no decode at all.
  Only straddling segments fall back to the decoded comparison;
* **everything else** — ``Birth()`` references, ``AGE``, cross-column
  comparisons and disjunction arms that mix columns fall back to the
  decoded evaluator leaf by leaf, so any query shape still runs and the
  mask equals the decoded one bit for bit.

The boolean connectives (AND/OR/NOT) recurse here so that *each leaf*
independently picks the cheapest domain it can be evaluated in.
"""

from __future__ import annotations

import numpy as np

from repro.cohana.compile import EvalContext, compile_mask
from repro.cohort.conditions import (
    And,
    AttrRef,
    Between,
    Compare,
    Condition,
    InList,
    Literal,
    Not,
    Or,
    TrueCondition,
)
from repro.storage.delta import DeltaEncodedColumn
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.raw import RawFloatColumn


class _DictDomainContext(EvalContext):
    """Evaluation context over a chunk dictionary's distinct global ids.

    One "row" per distinct value present in the chunk; only reached for
    leaf conditions over a single plain attribute, so ``birth_value`` /
    ``age`` are never called.
    """

    def __init__(self, gids: np.ndarray, dictionary):
        self._gids = gids
        self._dictionary = dictionary

    def rows(self) -> int:
        return len(self._gids)

    def plain(self, name: str) -> np.ndarray:
        return self._gids

    def dictionary_for(self, name: str):
        return self._dictionary


def single_attr_name(cond: Condition) -> str | None:
    """The one plain attribute a leaf constrains against literals, or
    None when the leaf is not of that shape (and must be evaluated on
    decoded rows)."""
    if isinstance(cond, Compare):
        if (isinstance(cond.left, AttrRef)
                and isinstance(cond.right, Literal)):
            return cond.left.name
        if (isinstance(cond.right, AttrRef)
                and isinstance(cond.left, Literal)):
            return cond.right.name
        return None
    if isinstance(cond, Between):
        if (isinstance(cond.operand, AttrRef)
                and isinstance(cond.low, Literal)
                and isinstance(cond.high, Literal)):
            return cond.operand.name
        return None
    if isinstance(cond, InList) and isinstance(cond.operand, AttrRef):
        return cond.operand.name
    return None


def leaf_value_range(cond: Condition, integral: bool = False):
    """``(low, high, exact)`` for a numeric leaf, or None.

    ``[low, high]`` is an inclusive necessary range for the leaf to
    hold; ``exact`` means the leaf is *equivalent* to membership in the
    range (so a segment entirely inside it satisfies every row). IN
    lists are necessary-only (gaps), hence ``exact=False``.

    ``integral`` declares the *column* domain integer-valued: only then
    are strict bounds tightened by one (and equivalent to inclusive
    membership). Over a float column, ``x < 5`` keeps the conservative
    inclusive bound ``high=5`` with ``exact=False`` — values like 4.5
    sit strictly between 4 and 5, so the integer rewrite would be
    wrong.
    """
    if isinstance(cond, Compare):
        if isinstance(cond.left, AttrRef) and isinstance(cond.right,
                                                         Literal):
            op, raw = cond.op, cond.right.raw
        elif isinstance(cond.right, AttrRef) and isinstance(cond.left,
                                                            Literal):
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
                  "!=": "!="}[cond.op]
            raw = cond.left.raw
        else:
            return None
        if not isinstance(raw, (int, float)):
            return None
        strict_int = integral and isinstance(raw, int)
        if op == "=":
            return (raw, raw, True)
        if op == "<":
            return (None, raw - 1 if strict_int else raw, strict_int)
        if op == "<=":
            return (None, raw, True)
        if op == ">":
            return (raw + 1 if strict_int else raw, None, strict_int)
        if op == ">=":
            return (raw, None, True)
        return None
    if isinstance(cond, Between):
        if not (isinstance(cond.operand, AttrRef)
                and isinstance(cond.low, Literal)
                and isinstance(cond.high, Literal)):
            return None
        lo, hi = cond.low.raw, cond.high.raw
        if not (isinstance(lo, (int, float))
                and isinstance(hi, (int, float))):
            return None
        return (lo, hi, True)
    if isinstance(cond, InList):
        values = [v for v in cond.values if isinstance(v, (int, float))]
        if not values or len(values) != len(cond.values):
            return None
        return (min(values), max(values), False)
    return None


def compressed_mask(cond: Condition, ctx: EvalContext, access,
                    positions: np.ndarray) -> np.ndarray:
    """Evaluate ``cond`` at ``positions`` of a chunk, compressed-domain
    where possible.

    ``ctx`` is the decoded fallback context over the same positions
    (the kernel's run/row context); ``access`` is the kernel's chunk
    accessor exposing ``schema``, ``chunk_column``, ``chunk_gids``,
    ``local_ids`` and ``global_dictionary``. The returned mask equals
    ``compile_mask(cond, ctx)`` exactly.
    """
    n = len(positions)
    if isinstance(cond, TrueCondition):
        return np.ones(n, dtype=bool)
    if isinstance(cond, And):
        mask = np.ones(n, dtype=bool)
        for part in cond.parts:
            mask &= compressed_mask(part, ctx, access, positions)
        return mask
    if isinstance(cond, Or):
        mask = np.zeros(n, dtype=bool)
        for part in cond.parts:
            mask |= compressed_mask(part, ctx, access, positions)
        return mask
    if isinstance(cond, Not):
        return ~compressed_mask(cond.inner, ctx, access, positions)
    return _leaf_mask(cond, ctx, access, positions)


def _leaf_mask(cond: Condition, ctx: EvalContext, access,
               positions: np.ndarray) -> np.ndarray:
    name = single_attr_name(cond)
    if name is not None and name in access.schema:
        col = access.chunk_column(name)
        if isinstance(col, DictEncodedColumn):
            small = compile_mask(
                cond, _DictDomainContext(access.chunk_gids(name),
                                         access.global_dictionary(name)))
            return small[access.local_ids(name)[positions]]
        if isinstance(col, (DeltaEncodedColumn, RawFloatColumn)):
            rng = leaf_value_range(
                cond, integral=isinstance(col, DeltaEncodedColumn))
            if rng is not None and len(col):
                low, high, exact = rng
                if not col.overlaps(low, high):
                    return np.zeros(len(positions), dtype=bool)
                if exact and _segment_within(col, low, high):
                    return np.ones(len(positions), dtype=bool)
    return compile_mask(cond, ctx)


def _segment_within(col, low, high) -> bool:
    """Does the whole segment fall inside ``[low, high]``?"""
    if low is not None and col.min_value < low:
        return False
    if high is not None and col.max_value > high:
        return False
    return True
