"""Cyclic joins: triangle and n-way cycle queries (§6.1–6.2).

The vertex-centric cycle algorithm propagates the start attribute's values
in both directions around the cycle until they meet at the
``X_{⌈n/2⌉+1}`` attribute vertices, which intersect what arrived from the
two sides; survivors drive the collection phase back along marked edges.

To stay within the AGM bound the start values are split into **heavy** and
**light** by the NPRR threshold ``θ`` (default ``√IN``):

- heavy ``X₁`` values (``> θ`` occurrences in R₁) are propagated themselves:
  ``(R₁ᴴ ⋈ R₂ ⋈ … ⋈ R_mid)`` meets ``(R_n ⋈ … ⋈ R_{mid+1})``;
- light ``X₁`` values wake their ``X₂`` neighbours, and the ``X₂`` values
  propagate instead: ``(R₂ ⋈ … ⋈ R_mid)`` meets ``(R₁ᴸ ⋈ R_n ⋈ … ⋈ R_{mid+1})``.

Each dataflow join below is one propagation superstep; with ``stats`` on,
its row count is recorded as the messages forwarded in that superstep. Total
communication is then ``|R₁|/θ·∏|Rᵢ|``-shaped for the heavy side and
``θ·∏|Rᵢ|``-shaped for the light side, i.e. O(IN^{n/2}) at θ=√IN, matching
the AGM bound (equations 2–4).

For cycles where every join is PK-FK, §6.1.1 shows the vanilla algorithm is
already optimal; ``split=False`` runs that variant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce as _reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .reduction import RunStats, StepTrace
from .tag import TAGGraph

#: (alias, left_col, right_col): relation R_i(X_i, X_{i+1}); the last
#: relation's right column is X_1, closing the cycle.
CycleRel = tuple[str, str, str]


@dataclass
class CyclePlan:
    n: int
    mid: int  # paths meet at attribute X_{mid+1}
    theta: float  # NaN for the vanilla variant (split=False)
    heavy_values: int  # -1 for the vanilla variant, like light_values
    light_values: int


def _frames(graph: TAGGraph, rels: list[CycleRel]) -> list[DataFrame]:
    """Each R_i as a two-column frame (x{i}, x{i+1}); R_n as (x{n}, x1)."""
    n = len(rels)
    out = []
    for i, (alias, lcol, rcol) in enumerate(rels):
        left, right = f"x{i + 1}", f"x{(i + 1) % n + 1}"
        out.append(
            graph.tuples[alias].select(
                F.col(lcol).alias(left), F.col(rcol).alias(right)
            )
        )
    return out


def _chain(frames: list[DataFrame], stats: RunStats | None, phase: str) -> DataFrame:
    """Join a path of cycle relations; every join = one propagation superstep."""

    def step(acc: DataFrame, nxt: DataFrame) -> DataFrame:
        on = [c for c in acc.columns if c in nxt.columns]
        joined = acc.join(nxt, on=on)
        if stats is not None:
            stats.traces.append(
                StepTrace(
                    phase=phase,
                    superstep=len(stats.traces) + 1,
                    label="+".join(sorted(set(acc.columns) | set(nxt.columns))),
                    kind="join",
                    messages=joined.count(),
                )
            )
        return joined

    return _reduce(step, frames)


def cycle_join(
    graph: TAGGraph,
    rels: list[CycleRel],
    theta: float | None = None,
    split: bool = True,
    stats: RunStats | None = None,
) -> tuple[DataFrame, CyclePlan]:
    """Evaluate the n-way cycle query R₁(X₁,X₂) ⋈ … ⋈ R_n(X_n,X₁).

    Returns the result (columns ``x1..xn``) and the heavy/light plan used.
    """
    n = len(rels)
    assert n >= 3, "a cycle needs at least 3 relations"
    frames = _frames(graph, rels)
    mid = math.ceil(n / 2)
    out_cols = [f"x{i}" for i in range(1, n + 1)]
    meet = [f"x{1}", f"x{mid + 1}"]

    if not split:
        # Vanilla algorithm (§6.1.1): propagate all X₁ values both ways, so
        # no threshold applies and nothing is counted.
        left = _chain(frames[:mid], stats, "vanilla-left")
        right = _chain(list(reversed(frames[mid:])), stats, "vanilla-right")
        result = left.join(right, on=meet).select(out_cols)
        plan = CyclePlan(n, mid, math.nan, -1, -1)
        return result, plan

    if theta is None:
        theta = math.sqrt(max(f.count() for f in frames))
    theta = float(theta)
    r1 = frames[0]
    deg = r1.groupBy("x1").agg(F.count("*").alias("__deg"))
    heavy_vals = deg.where(F.col("__deg") > theta).select("x1")
    r1_heavy = r1.join(heavy_vals, on="x1")
    r1_light = r1.join(heavy_vals, on="x1", how="left_anti")

    # Heavy stage: X₁ values travel; meet on (x1, x_{mid+1}).
    h_left = _chain([r1_heavy] + frames[1:mid], stats, "heavy-left")
    h_right = _chain(list(reversed(frames[mid:])), stats, "heavy-right")
    heavy = h_left.join(h_right, on=meet)

    # Light stage: X₂ values travel; the light R₁ tuples ride the right
    # path so x1 is still recovered; meet on (x2, x_{mid+1}).
    l_left = _chain(frames[1:mid], stats, "light-left") if mid > 1 else None
    l_right = _chain([r1_light] + list(reversed(frames[mid:])), stats, "light-right")
    if l_left is not None:
        light_meet = sorted(set(l_left.columns) & set(l_right.columns))
        light = l_left.join(l_right, on=light_meet)
    else:
        light = l_right
    result = heavy.select(out_cols).unionByName(light.select(out_cols))

    counts = deg.agg(
        F.count(F.when(F.col("__deg") > theta, 1)).alias("heavy"),
        F.count(F.when(F.col("__deg") <= theta, 1)).alias("light"),
    ).first()
    plan = CyclePlan(n, mid, theta, counts["heavy"], counts["light"])
    return result, plan


def triangle(
    graph: TAGGraph,
    rels: list[CycleRel] | None = None,
    **kw,
) -> tuple[DataFrame, CyclePlan]:
    """The triangle query R(A,B) ⋈ S(B,C) ⋈ T(C,A) (§6.1)."""
    rels = rels or [("R", "a", "b"), ("S", "b", "c"), ("T", "c", "a")]
    assert len(rels) == 3
    return cycle_join(graph, rels, **kw)
