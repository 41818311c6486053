"""TAG traversal plans (§5.1): join tree → TAG plan → GenSteps label list.

The TAG plan inserts an *attribute node* between a relation node and the
children that join with it on a given column (merging children that share
the parent's join column, per §5.1 step 2: "create a node labeled A if it
does not exist already"). Edges carry labels ``(alias, column)`` — the
``R.A`` labels of the paper.

:func:`gensteps` is Algorithm 1: a connected bottom-up traversal emitted as
the pop-order list of edge labels. Driving a vertex program with this list
performs, per Lemma 5.1, an alternating sequence of duplicate-eliminating
projections (tuple→attribute steps) and semijoins (attribute→tuple steps)
that fully reduces the root after the UP pass and all relations after the
UP+DOWN passes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .spec import Node

EdgeLabel = tuple[str, str]  # (relation alias, column name)


@dataclass
class PlanNode:
    """A node of the TAG plan tree: either a relation node (``rel`` set) or
    an attribute node (``attr`` set to the parent's join column)."""

    kind: str  # 'rel' | 'attr'
    rel: Optional[Node] = None  # spec node, for kind='rel'
    attr: Optional[str] = None  # parent-side column name, for kind='attr'
    in_label: Optional[EdgeLabel] = None  # label of edge from parent
    children: list["PlanNode"] = field(default_factory=list)


def build_plan(root: Node) -> PlanNode:
    """Join tree → TAG plan (§5.1)."""

    def rel_node(spec_node: Node, in_label: Optional[EdgeLabel]) -> PlanNode:
        pn = PlanNode(kind="rel", rel=spec_node, in_label=in_label)
        # Group children by the parent-side join column: children joining on
        # the same parent column share one attribute node.
        groups: dict[str, list[Node]] = {}
        order: list[str] = []
        for c in spec_node.children:
            pcol = c.parent_join[0]
            if pcol not in groups:
                groups[pcol] = []
                order.append(pcol)
            groups[pcol].append(c)
        for pcol in order:
            attr = PlanNode(
                kind="attr", attr=pcol, in_label=(spec_node.name, pcol)
            )
            for c in groups[pcol]:
                attr.children.append(rel_node(c, (c.name, c.parent_join[1])))
            pn.children.append(attr)
        return pn

    return rel_node(root, None)


def gensteps(plan: PlanNode) -> list[EdgeLabel]:
    """Algorithm 1 (GenSteps): connected bottom-up traversal as a label list.

    Returns labels in *pop* order: ``labels[0]`` is the in-edge of the
    rightmost leaf (the traversal's starting relation) and the successive
    labels climb the plan in connected bottom-up discipline. Reversing the
    list gives the top-down (preorder) traversal used by the DOWN pass.
    """
    # Rightmost root-leaf path: root, then last child, recursively.
    rightmost: set[int] = set()
    n = plan
    while True:
        rightmost.add(id(n))
        if not n.children:
            break
        n = n.children[-1]

    pushes: list[EdgeLabel] = []

    def dfs(node: PlanNode) -> None:
        if node.in_label is not None:
            pushes.append(node.in_label)
        for c in node.children:
            dfs(c)
        if node.in_label is not None and id(node) not in rightmost:
            pushes.append(node.in_label)

    dfs(plan)
    return list(reversed(pushes))


def start_alias(steps: list[EdgeLabel]) -> str:
    """The relation whose tuple vertices are activated first (the rightmost
    leaf of the TAG plan — the target of the first traversal step)."""
    return steps[0][0]
