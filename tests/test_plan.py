"""TAG plan / GenSteps tests (§5.1, Algorithm 1, Figure 4)."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import build_plan, gensteps, start_alias
from repro.core.spec import Node, _needed_columns


def figure4_spec() -> Node:
    """The paper's Figure 4 join tree: R—A—S—B—{T, V}."""
    return Node(
        relation="R",
        children=[
            Node(
                relation="S",
                parent_join=("A", "A"),
                children=[
                    Node(relation="T", parent_join=("B", "B")),
                    Node(relation="V", parent_join=("B", "B")),
                ],
            )
        ],
    )


class TestBuildPlan:
    def test_figure4_plan_shape(self):
        plan = build_plan(figure4_spec())
        assert plan.kind == "rel" and plan.rel.name == "R"
        (attr_a,) = plan.children
        assert attr_a.kind == "attr" and attr_a.attr == "A"
        (s_node,) = attr_a.children
        assert s_node.rel.name == "S"
        (attr_b,) = s_node.children
        assert attr_b.kind == "attr"
        assert [c.rel.name for c in attr_b.children] == ["T", "V"]

    def test_children_sharing_parent_column_share_attr_node(self):
        plan = build_plan(figure4_spec())
        s_node = plan.children[0].children[0]
        # T and V both join S on B → a single B attribute node (§5.1 step 2)
        assert len(s_node.children) == 1

    def test_distinct_parent_columns_get_distinct_attr_nodes(self):
        star = Node(
            relation="F",
            children=[
                Node(relation="D1", parent_join=("a1", "k1")),
                Node(relation="D2", parent_join=("a2", "k2")),
            ],
        )
        plan = build_plan(star)
        assert len(plan.children) == 2
        assert {c.attr for c in plan.children} == {"a1", "a2"}

    def test_edge_labels(self):
        plan = build_plan(figure4_spec())
        attr_a = plan.children[0]
        assert attr_a.in_label == ("R", "A")
        s_node = attr_a.children[0]
        assert s_node.in_label == ("S", "A")


class TestGenSteps:
    def test_figure4_label_list(self):
        """Exact reproduction of Figure 4(c)'s list."""
        steps = gensteps(build_plan(figure4_spec()))
        assert steps == [
            ("V", "B"),
            ("T", "B"),
            ("T", "B"),
            ("S", "B"),
            ("S", "A"),
            ("R", "A"),
        ]

    def test_start_is_rightmost_leaf(self):
        steps = gensteps(build_plan(figure4_spec()))
        assert start_alias(steps) == "V"

    def test_single_node_plan_has_no_steps(self):
        assert gensteps(build_plan(Node(relation="R"))) == []

    def test_chain_plan(self):
        chain = Node(
            relation="A",
            children=[
                Node(
                    relation="B",
                    parent_join=("x", "x"),
                    children=[Node(relation="C", parent_join=("y", "y"))],
                )
            ],
        )
        steps = gensteps(build_plan(chain))
        # Pure chain: no backtracking, one step per plan edge.
        assert steps == [("C", "y"), ("B", "y"), ("B", "x"), ("A", "x")]

    def test_star_plan_backtracks_through_root(self):
        star = Node(
            relation="F",
            children=[
                Node(relation="D1", parent_join=("a1", "k1")),
                Node(relation="D2", parent_join=("a2", "k2")),
            ],
        )
        steps = gensteps(build_plan(star))
        assert steps == [
            ("D2", "k2"),
            ("F", "a2"),
            ("F", "a1"),
            ("D1", "k1"),
            ("D1", "k1"),
            ("F", "a1"),
        ]

    def test_connected_traversal_alternates_projection_semijoin(self):
        """The label list drives an alternating π / ⋉ sequence (Lemma 5.1):
        consecutive steps must connect via a shared attribute node, which in
        a bipartite plan means even positions are tuple→attribute steps."""
        for spec in (figure4_spec(),):
            steps = gensteps(build_plan(spec))
            assert len(steps) % 2 == 0
            # even index = projection from the relation the previous
            # semijoin landed on; the first is from the start relation.
            current = start_alias(steps)
            for i, (alias, _col) in enumerate(steps):
                if i % 2 == 0:
                    assert alias == current
                else:
                    current = alias

    def test_reverse_is_top_down(self):
        steps = gensteps(build_plan(figure4_spec()))
        rev = list(reversed(steps))
        # top-down starts from the root's out-edge
        assert rev[0] == ("R", "A")


def _random_tree(draw, depth=0) -> Node:
    n_children = draw(
        st.integers(min_value=0, max_value=0 if depth >= 3 else 3)
    )
    name = f"T{draw(st.integers(min_value=0, max_value=10 ** 6))}"
    return Node(
        relation=name,
        alias=name,
        children=[
            _with_join(_random_tree(draw, depth + 1), i)
            for i in range(n_children)
        ],
    )


def _with_join(node: Node, i: int) -> Node:
    node.parent_join = (f"j{i}", f"k{i}")
    return node


@st.composite
def trees(draw):
    return _random_tree(draw)


class TestGenStepsProperties:
    @settings(max_examples=50, deadline=None)
    @given(trees())
    def test_invariants(self, tree):
        # unique aliases for validity
        names = [n.name for n in tree.walk()]
        if len(set(names)) != len(names):
            return
        plan = build_plan(tree)
        steps = gensteps(plan)
        n_edges = 2 * (len(names) - 1)  # rel-attr + attr-rel per join
        # Every plan edge is traversed at least once, at most twice.
        assert len(steps) >= n_edges or len(names) == 1
        assert len(steps) <= 2 * n_edges
        if steps:
            assert len(steps) % 2 == 0
            # start label targets a leaf relation
            leaf_names = {n.name for n in tree.walk() if not n.children}
            assert start_alias(steps) in leaf_names

    @settings(max_examples=50, deadline=None)
    @given(trees())
    def test_connectedness(self, tree):
        """Each traversal step starts where the previous one ended."""
        names = [n.name for n in tree.walk()]
        if len(set(names)) != len(names) or len(names) == 1:
            return
        plan = build_plan(tree)
        steps = gensteps(plan)
        current = start_alias(steps)
        for i, (alias, _) in enumerate(steps):
            if i % 2 == 0:
                assert alias == current, "projection must leave current rel"
            else:
                current = alias

    @settings(max_examples=50, deadline=None)
    @given(trees())
    def test_labels_are_needed_columns_of_semijoin_targets(self, tree):
        """The reduction's state rests on two facts: every alias is the
        semijoin target of a pair in the UP or DOWN pass (so each alias ends
        at a barrier), and every label ``(alias, col)`` names one of the
        alias's ``_needed_columns`` (so the barrier keeps it)."""
        nodes = {n.name: n for n in tree.walk()}
        if len(nodes) != len(list(tree.walk())):
            return
        steps = gensteps(build_plan(tree))
        for alias, col in steps:
            assert col in _needed_columns(nodes[alias])
        targets = {a for labels in (steps, steps[::-1]) for a, _ in labels[1::2]}
        assert targets == (set(nodes) if steps else set())
