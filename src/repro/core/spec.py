"""Declarative query specs consumed by the TAG-join executor.

A :class:`QuerySpec` is the reproduction's stand-in for the SQL front end:
it carries the join tree (the paper assumes a GHD/join tree as input, §5.1),
pushed-down selections, the residual (multi-relation) predicate for GHD bags
that contain more than one join condition (e.g. cycle-closing predicates),
and the aggregation spec classified into the paper's three styles (§7):
local (LA), global (GA) and scalar.

:meth:`QuerySpec.from_sql` derives a spec from a query's own SQL text plus
a named root, using DuckDB's parser (``json_serialize_sql``) and printer
(``json_deserialize_sql``).
"""
from __future__ import annotations

import copy
import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

import duckdb

JoinCond = tuple[str, str]  # (parent column, child column) — equi-join


@dataclass
class Preagg:
    """Eager group-by (§7 'Aggregations'): aggregate a subtree before the
    join with its parent. ``keys`` must contain the subtree's join column
    with the parent; ``aggs`` are decomposable (SUM/COUNT/MIN/MAX) Spark SQL
    expressions producing the columns consumed higher up."""

    keys: list[str]
    aggs: list[tuple[str, str]]  # (expr, alias)


@dataclass
class Node:
    """A join-tree node: one relation occurrence (bag labelled by a single
    relation — the acyclic case of §5.1)."""

    relation: str
    alias: Optional[str] = None
    parent_join: Optional[JoinCond] = None  # None only at the root
    filter: Optional[str] = None  # single-relation predicate, pushed down
    children: list["Node"] = field(default_factory=list)
    preagg: Optional[Preagg] = None
    # Extra columns of this relation needed above the join (output/agg/
    # residual-predicate inputs). Join columns are added automatically.
    need: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.alias or self.relation

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def qualify(node: Node, col: str) -> str:
    """Output-side name of ``col`` for ``node`` (alias-prefixed if aliased)."""
    if node.alias and node.alias != node.relation:
        return f"{node.alias}_{col}"
    return col


def _needed_columns(node: Node) -> list[str]:
    """Columns of ``node``'s relation that the query reads: its ``need``
    and its join columns with its parent and children. ``node``'s reduced
    relation keeps exactly these next to ``__tid``."""
    cols = set(node.need)
    for c in node.children:
        cols.add(c.parent_join[0])
    if node.parent_join is not None:
        cols.add(node.parent_join[1])
    return sorted(cols)


@dataclass
class QuerySpec:
    """A full query: join tree + residual predicate + aggregation."""

    name: str
    root: Node
    select: list[tuple[str, str]] = field(default_factory=list)  # (expr, alias)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[tuple[str, str]] = field(default_factory=list)  # (expr, alias)
    post_filter: Optional[str] = None  # residual predicate after joins
    having: Optional[str] = None
    distinct: bool = False
    agg_class: str = "none"  # 'none' | 'LA' | 'GA' | 'scalar'
    # The answer is the fully reduced root alone (EXISTS / DISTINCT
    # semijoins): no collection phase.
    reduction_only: bool = False
    # Decorrelated subqueries: each spec's result is inner-joined to the
    # collection output on the (outer column, lookup column) pairs, before
    # ``post_filter`` compares against it.
    lookups: list[tuple["QuerySpec", list[JoinCond]]] = field(default_factory=list)

    @classmethod
    def from_sql(
        cls, sql: str, root: str, prefixes: Mapping[str, str], name: str = "sql"
    ) -> "QuerySpec":
        """Derive the spec of one SELECT block from its SQL, rooted at ``root``.

        ``root`` names a FROM item (its alias, if it has one). ``prefixes``
        maps each table to its column prefix: SQL leaves most columns
        unqualified, and the TPC schemas start every column of a table with
        that table's prefix (``l_`` for lineitem, ``ss_`` for store_sales).

        - **Join tree.** The equi-join conjuncts between two FROM items, in
          SQL order, form a spanning tree (Yannakakis needs *a* join tree
          plus a root). A conjunct that closes a cycle or repeats an edge
          goes to ``post_filter`` (q5's nation equality, q9's second
          partsupp key: §6.4's width-2 GHD bags). The tree is oriented from
          ``root``; children are ordered by conjunct index.
        - **Filters.** A conjunct on one FROM item becomes its
          ``Node.filter``. A multi-relation OR of ANDs stays in
          ``post_filter`` and also pushes, to every relation that each
          disjunct constrains, the OR of those constraints (q7's
          ``n_name = 'FRANCE' OR n_name = 'GERMANY'``).
        - **Column naming.** Outputs, ``post_filter`` and HAVING name
          columns as the collection phase does. A join keeps the parent's
          join column and drops the child's (equal values), so a child's
          join column reads as its parent's: q3's ``l_orderkey`` is
          ``o_orderkey``. An aliased FROM item's columns read
          ``<alias>_<col>`` (q7's ``n1_n_name``).
        - **Aggregation.** GROUP BY keys, aggregate calls and HAVING map to
          ``group_by`` / ``aggregates`` / ``having``; ``select`` projects
          every output under its SQL alias. An aggregate nested in a larger
          expression gets a generated name (``_agg0``). A grouped query is
          classed GA, the general case; a caller that knows its keys are
          local may relabel it LA.
        - **Reduction only.** EXISTS subqueries join their FROM items
          into the tree as semijoins. When every other relation enters that
          way (q4), or under SELECT DISTINCT without aggregates (ds_q37),
          and the outputs read only the root, the answer is the reduced
          root: ``reduction_only`` is set.
        - **Decorrelated subqueries** (§7, Kim's rewrite). A WHERE conjunct
          may hold subqueries of two shapes. Each becomes a ``lookups``
          spec, derived from its block by these same rules (nested blocks
          recurse, q20), whose result is inner-joined to the collection
          output before aggregation:

          - ``col IN (SELECT y …)``, uncorrelated: the lookup is
            ``DISTINCT y AS _sqN``, rooted at ``y``'s FROM item and joined
            on ``col = _sqN``.
          - A scalar subquery in a comparison, alone or under arithmetic
            (q17's ``< (SELECT 0.2 * avg(…) …)``, ds_q6's
            ``> 1.2 * (SELECT avg(…) …)``). It must aggregate and be
            correlated by equalities ``inner.c = outer.c`` only, whose
            inner columns belong to one FROM item: the lookup's root. The
            lookup groups by those columns, named ``_sqN_kM``, and is
            joined on the outer ones; its value is ``_sqN``, and the
            comparison reading it goes to ``post_filter``. An outer tuple
            with no inner group, or with a NULL key, finds no match and is
            dropped, as SQL's comparison with NULL drops it.

          An unqualified column that no FROM item of its block owns
          resolves in the enclosing block, as in SQL (q17's
          ``p_partkey``).

        Refused with ``ValueError``: COUNT in a correlated scalar subquery
        (an empty group counts 0, which the join cannot produce: the COUNT
        bug), non-equality correlation, correlation columns on more than
        one inner FROM item, an uncorrelated scalar subquery, correlated
        IN, NOT IN, a subquery under OR, NOT or another operator or outside
        WHERE; and WITH, explicit JOIN, ORDER BY, a Cartesian product, an
        ambiguous column.
        """
        spec = _Derivation(_parse(sql), prefixes).spec(root, name)
        spec.validate()
        return spec

    def nodes(self) -> list[Node]:
        return list(self.root.walk())

    def validate(self) -> None:
        names = [n.name for n in self.nodes()]
        assert len(names) == len(set(names)), f"duplicate aliases in {self.name}"
        for n in self.nodes():
            if n is self.root:
                assert n.parent_join is None
            else:
                assert n.parent_join is not None, f"{n.name} missing parent_join"
        assert self.agg_class in ("none", "LA", "GA", "scalar")
        if self.agg_class == "none":
            assert not self.aggregates
        if self.agg_class == "scalar":
            assert not self.group_by
        if self.agg_class in ("LA", "GA"):
            assert self.group_by
        for lookup, _ in self.lookups:
            lookup.validate()


# ---------------------------------------------------------------------------
# SQL → spec derivation over DuckDB's JSON AST
# ---------------------------------------------------------------------------

_AGGREGATES = {"sum", "avg", "min", "max", "count", "count_star"}
#: NULL-propagating operators a scalar subquery may sit under.
_ARITHMETIC = {"+", "-", "*", "/"}
_COMPARISONS = {
    "COMPARE_EQUAL", "COMPARE_NOTEQUAL", "COMPARE_LESSTHAN",
    "COMPARE_GREATERTHAN", "COMPARE_LESSTHANOREQUALTO",
    "COMPARE_GREATERTHANOREQUALTO",
}
_DISTINCT = {"type": "DISTINCT_MODIFIER", "distinct_on_targets": []}
_SUBQUERY_PLACES = (
    "a subquery is supported only as `column IN (SELECT …)` or inside a "
    "comparison under arithmetic, not under OR, NOT or other operators"
)


def _walk(value):
    """Every dict nested in a JSON value, outermost first."""
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from _walk(v)
    elif isinstance(value, list):
        for v in value:
            yield from _walk(v)


@functools.cache
def _duckdb():
    """The in-memory DuckDB connection used as SQL parser and printer.

    One per process: it holds no data, and opening one costs ~10 ms, which
    every query module would pay per query at import. ``threads=1`` keeps
    DuckDB from starting worker threads for it."""
    return duckdb.connect(config={"threads": 1})


def _sql_value(query: str, arg: str) -> str:
    return _duckdb().execute(query, [arg]).fetchone()[0]


def _parse(sql: str) -> dict:
    """DuckDB's JSON AST of the query node of ``sql``'s one statement."""
    out = json.loads(_sql_value("SELECT json_serialize_sql(?::VARCHAR)", sql))
    if out["error"]:
        raise ValueError(out["error_message"])
    if len(out["statements"]) != 1:
        raise ValueError("expected exactly one SQL statement")
    return out["statements"][0]["node"]


@functools.cache
def _select_one() -> dict:
    """A parsed ``SELECT 1``: the frame :meth:`_Derivation._render` prints
    an expression in. Callers copy it, never mutate it."""
    return _parse("SELECT 1")


def sql_tables(sql: str) -> list[str]:
    """Base tables ``sql`` reads, in order of first mention (CTEs excluded)."""
    node = _parse(sql)
    ctes = {c["key"] for d in _walk(node) if "cte_map" in d for c in d["cte_map"]["map"]}
    names = [d["table_name"] for d in _walk(node) if d.get("type") == "BASE_TABLE"]
    return [t for t in dict.fromkeys(names) if t not in ctes]


def _conjuncts(e: dict | None) -> list[dict]:
    if e is None:
        return []
    if e["type"] == "CONJUNCTION_AND":
        return [c for x in e["children"] for c in _conjuncts(x)]
    return [e]


def _junction(kind: str, parts: list[dict]) -> dict:
    if len(parts) == 1:
        return parts[0]
    return {"class": "CONJUNCTION", "type": f"CONJUNCTION_{kind}", "alias": "",
            "query_location": 0, "children": parts}


def _colref(name: str) -> dict:
    return {"class": "COLUMN_REF", "type": "COLUMN_REF", "alias": "",
            "query_location": 0, "column_names": [name]}


def _is_agg(e: dict) -> bool:
    return e.get("class") == "FUNCTION" and e["function_name"] in _AGGREGATES


def _key(e) -> str:
    """Structural identity of an expression, ignoring aliases and positions."""
    if isinstance(e, dict):
        return "{" + ",".join(
            f"{k}:{_key(v)}" for k, v in sorted(e.items())
            if k not in ("alias", "query_location")
        ) + "}"
    if isinstance(e, list):
        return "[" + ",".join(map(_key, e)) + "]"
    return json.dumps(e)


def _check_block(sel: dict, subquery: bool) -> None:
    if sel.get("type") != "SELECT_NODE":
        raise ValueError(f"{sel.get('type')} is not supported, only SELECT blocks")
    if sel["cte_map"]["map"]:
        raise ValueError("WITH is not supported")
    for m in sel["modifiers"]:
        if m["type"] != "DISTINCT_MODIFIER" or m["distinct_on_targets"]:
            raise ValueError(f"{m['type']} is not supported")
    if sel["group_sets"] not in ([], [list(range(len(sel["group_expressions"])))]):
        raise ValueError("GROUPING SETS / ROLLUP / CUBE are not supported")
    if subquery and (sel["group_expressions"] or sel["having"] or sel["modifiers"]):
        raise ValueError("a subquery may not use GROUP BY, HAVING or DISTINCT")


class _Derivation:
    """One SELECT block of :meth:`QuerySpec.from_sql`; see its docstring
    for the rules. A subquery block is derived by its own instance, whose
    ``outer`` is the enclosing block's."""

    def __init__(
        self,
        sel: dict,
        prefixes: Mapping[str, str],
        outer: "_Derivation | None" = None,
        ids: Iterator[int] | None = None,
    ):
        self.prefixes = prefixes
        self.sel = sel
        self.outer = outer
        self.ids = ids or itertools.count()  # numbers _sqN across all blocks
        _check_block(sel, subquery=outer is not None)
        self.tables: dict[str, str] = {}  # FROM item name -> table
        self.exists: set[str] = set()  # FROM items of EXISTS subqueries
        # Correlation equalities (inner column ref, outer (FROM item, column)).
        self.correlation: list[tuple[dict, tuple[str, str]]] = []
        self.subqueries: list[tuple[int, dict]] = []  # conjuncts holding one
        self.generated: set[str] = set()  # lookup columns (_sqN)
        edges, self.filters, self.residual = self._classify(
            self._block(sel, in_exists=False)
        )
        self.adj = self._spanning_tree(edges, self.residual)

    # -- join tree -----------------------------------------------------------

    def _classify(self, conjuncts: list[dict]):
        """Split the conjuncts into equi-join edges, per-FROM-item filters
        and (index, residual) pairs."""
        edges, filters, residual = [], {o: [] for o in self.tables}, []
        for i, c in enumerate(conjuncts):
            if any(d.get("class") == "SUBQUERY" for d in _walk(c)):
                self.subqueries.append((i, c))
                continue
            if self.outer and any(self._owner(d) is None for d in self._columns(c)):
                self._correlate(c)
                continue
            rels = self._rels(c)
            if len(rels) == 2 and c["type"] == "COMPARE_EQUAL" and all(
                c[s]["class"] == "COLUMN_REF" for s in ("left", "right")
            ):
                edges.append((i, self._resolve(c["left"]), self._resolve(c["right"]), c))
            elif len(rels) == 1:
                filters[rels.pop()].append(c)
            elif not rels:
                raise ValueError("a predicate without columns is not supported")
            else:
                residual.append((i, c))
                for occ, implied in self._implied(c):
                    filters[occ].append(implied)
        return edges, filters, residual

    def _spanning_tree(self, edges, residual) -> dict[str, list]:
        """Tree edges per FROM item, as (index, neighbour, own column,
        neighbour column); an edge that joins two already-connected items
        joins ``residual`` instead."""
        comp = {o: o for o in self.tables}  # union-find

        def find(o):
            while comp[o] != o:
                o = comp[o]
            return o

        adj: dict[str, list] = {o: [] for o in self.tables}
        for i, (a, ac), (b, bc), c in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                residual.append((i, c))
                continue
            comp[ra] = rb
            adj[a].append((i, b, ac, bc))
            adj[b].append((i, a, bc, ac))
        if len({find(o) for o in self.tables}) > 1:
            raise ValueError("the joins leave a Cartesian product")
        return adj

    def _build(self, occ: str, parent: str | None) -> Node:
        """The subtree at ``occ``, children in conjunct order."""
        table = self.tables[occ]
        node = self.nodes[occ] = Node(
            relation=table, alias=occ if occ != table else None
        )
        if self.filters[occ]:
            node.filter = self._render(
                self._rewrite(_junction("AND", self.filters[occ]), lambda o, col: col)
            )
        for _, other, col, ocol in sorted(self.adj[occ]):
            if other != parent:
                child = self._build(other, occ)
                child.parent_join = (col, ocol)
                self.merged[(other, ocol)] = (occ, col)
                node.children.append(child)
        return node

    # -- scopes and columns ------------------------------------------------

    def _block(self, sel: dict, in_exists: bool) -> list[dict]:
        """Register ``sel``'s FROM items; its WHERE conjuncts, with those of
        its EXISTS subqueries spliced in at their position."""
        before = set(self.tables)
        self._from(sel["from_table"])
        if in_exists:
            self.exists |= set(self.tables) - before
        out = []
        for c in _conjuncts(sel["where_clause"]):
            if c["class"] == "SUBQUERY" and c["subquery_type"] == "EXISTS":
                sub = c["subquery"]["node"]
                _check_block(sub, subquery=True)
                out += self._block(sub, in_exists=True)
            else:
                out.append(c)
        return out

    def _from(self, t: dict) -> None:
        if t["type"] == "JOIN" and t["ref_type"] == "CROSS":
            self._from(t["left"])
            self._from(t["right"])
        elif t["type"] == "BASE_TABLE":
            name = t["alias"] or t["table_name"]
            if name in self.tables:
                raise ValueError(f"{name} appears twice in FROM; alias it")
            if t["table_name"] not in self.prefixes:
                raise ValueError(f"no column prefix for table {t['table_name']}")
            self.tables[name] = t["table_name"]
        else:
            raise ValueError(f"FROM item {t['type']} ({t.get('ref_type')}) is not supported")

    def _columns(self, e):
        """The column references in ``e`` (subqueries and ``*`` refused)."""
        for d in _walk(e):
            if d.get("class") in ("SUBQUERY", "STAR"):
                raise ValueError(f"{d['class']} is not supported here")
            if d.get("class") == "COLUMN_REF":
                yield d

    def _owner(self, ref: dict) -> str | None:
        """The FROM item of this block that a column reference names."""
        *qual, col = ref["column_names"]
        if len(qual) > 1:
            raise ValueError(f"unknown qualifier in {'.'.join(ref['column_names'])}")
        if qual:
            return qual[0] if qual[0] in self.tables else None
        owners = [o for o, t in self.tables.items() if col.startswith(self.prefixes[t] + "_")]
        if len(owners) > 1:
            raise ValueError(f"column {col!r} matches FROM items {owners}")
        return owners[0] if owners else None

    def _resolve(self, ref: dict) -> tuple[str | None, str]:
        """(FROM item, column) of a column reference; a lookup column has
        no FROM item."""
        col = ref["column_names"][-1]
        if ref["column_names"] == [col] and col in self.generated:
            return None, col
        occ = self._owner(ref)
        if occ is None:
            raise ValueError(f"unknown column {'.'.join(ref['column_names'])}")
        return occ, col

    def _rels(self, e: dict) -> set[str]:
        return {self._resolve(d)[0] for d in self._columns(e)}

    def _out(self, occ: str | None, col: str) -> str:
        """Collection-output name of ``occ.col``; records it as needed."""
        if occ is None:
            return col
        while (occ, col) in self.merged:
            occ, col = self.merged[(occ, col)]
        need = self.need.setdefault(occ, [])
        if col not in need:
            need.append(col)
        return qualify(self.nodes[occ], col)

    def _rewrite(self, e: dict, name) -> dict:
        """A copy of ``e`` with each column reference renamed ``name(occ, col)``."""
        e = copy.deepcopy(e)
        for d in list(self._columns(e)):
            d["column_names"] = [name(*self._resolve(d))]
        return e

    def _render(self, e: dict) -> str:
        """``e`` as SQL text that Spark parses (DuckDB prints ``count(*)``
        as ``count_star()``)."""
        node = dict(_select_one(), select_list=[dict(e, alias="")])
        stmt = {"error": False, "statements": [{"node": node}]}
        sql = _sql_value("SELECT json_deserialize_sql(?::JSON)", json.dumps(stmt))
        return sql.removeprefix("SELECT ").replace("count_star()", "count(*)")

    def _implied(self, c: dict) -> list[tuple[str, dict]]:
        """Per-relation predicates implied by an OR of ANDs: for each
        relation every disjunct constrains, the OR of its constraints."""
        if c["type"] != "CONJUNCTION_OR":
            return []
        disjuncts = []
        for d in c["children"]:
            by_rel: dict[str, list[dict]] = {}
            for part in _conjuncts(d):
                rels = self._rels(part)
                if len(rels) == 1:
                    by_rel.setdefault(rels.pop(), []).append(part)
            disjuncts.append(by_rel)
        return [
            (occ, _junction("OR", [_junction("AND", d[occ]) for d in disjuncts]))
            for occ in self.tables
            if all(occ in d for d in disjuncts)
        ]

    # -- outputs -------------------------------------------------------------

    def spec(self, root: str, name: str) -> QuerySpec:
        """The spec of this block, rooted at FROM item ``root``."""
        if root not in self.tables:
            raise ValueError(f"root {root!r} is not a FROM item")
        self.root = root
        self.nodes: dict[str, Node] = {}
        # (child, join column) -> (parent, join column) that replaces it.
        self.merged: dict[tuple[str, str], tuple[str, str]] = {}
        self._build(root, None)
        self.need: dict[str, list[str]] = {}  # FROM item -> output columns
        self.lookups: list[tuple[QuerySpec, list[JoinCond]]] = []
        residual = list(self.residual)
        for i, c in self.subqueries:
            rest = self._decorrelate(c)
            if rest is not None:
                residual.append((i, rest))
        residual = [c for _, c in sorted(residual, key=lambda ic: ic[0])]
        post_filter = (
            self._render(self._rewrite(_junction("AND", residual), self._out))
            if residual else None
        )

        sel = self.sel
        aliases = []
        for it in sel["select_list"]:
            alias = it["alias"] or (
                it["column_names"][-1] if it["class"] == "COLUMN_REF" else ""
            )
            if not alias:
                raise ValueError("every computed output column needs an alias")
            aliases.append(alias)
        items = [self._rewrite(it, self._out) for it in sel["select_list"]]
        groups = [self._rewrite(g, self._out) for g in sel["group_expressions"]]
        having = sel["having"] and self._rewrite(sel["having"], self._out)
        has_agg = any(_is_agg(d) for d in _walk([items, having]))
        out = QuerySpec(
            name=name,
            root=self.nodes[self.root],
            post_filter=post_filter,
            lookups=self.lookups,
            distinct=any(m["type"] == "DISTINCT_MODIFIER" for m in sel["modifiers"]),
        )
        if not has_agg:
            if groups:
                raise ValueError("GROUP BY without aggregates is not supported")
            out.select = [(self._render(e), a) for e, a in zip(items, aliases)]
        else:
            self._aggregate(out, items, aliases, groups, having)
            out.agg_class = "GA" if groups else "scalar"
        for occ, node in self.nodes.items():
            node.need = self.need.get(occ, [])

        others = set(self.tables) - {self.root}
        root_only = set(self.need) <= {self.root} and not out.post_filter
        if self.exists:
            if not root_only or self.root in self.exists or others - self.exists:
                raise ValueError(
                    "EXISTS is supported only as a semijoin of every non-root "
                    "relation, with outputs read from the root alone"
                )
            out.reduction_only = True
        else:
            out.reduction_only = bool(
                out.distinct and not has_agg and root_only and others
            )
        return out

    # -- subqueries ----------------------------------------------------------

    def _correlate(self, c: dict) -> None:
        """Record a subquery block's conjunct ``inner column = outer column``."""
        sides = [c["left"], c["right"]] if c["type"] == "COMPARE_EQUAL" else []
        inner = [s for s in sides if s["class"] == "COLUMN_REF" and self._owner(s)]
        outer = [s for s in sides if s["class"] == "COLUMN_REF" and not self._owner(s)]
        if len(inner) != 1 or len(outer) != 1:
            raise ValueError(
                "a subquery may be correlated only by equalities between an "
                "inner and an outer column"
            )
        self.correlation.append((inner[0], self.outer._resolve(outer[0])))

    def _decorrelate(self, c: dict) -> dict | None:
        """Make the subqueries of WHERE conjunct ``c`` lookups; what is left
        of ``c`` for ``post_filter`` (nothing, for IN)."""
        if (
            c["class"] == "SUBQUERY" and c["subquery_type"] == "ANY"
            and c["comparison_type"] == "COMPARE_EQUAL"
            and c["child"]["class"] == "COLUMN_REF"
        ):
            self._lookup(c["subquery"]["node"], in_col=self._resolve(c["child"]))
            return None
        if c["type"] not in _COMPARISONS:
            raise ValueError(_SUBQUERY_PLACES)

        def lookup_column(e: dict) -> dict:
            if e["class"] == "SUBQUERY" and e["subquery_type"] == "SCALAR":
                return _colref(self._lookup(e["subquery"]["node"]))
            if e["class"] == "FUNCTION" and e["function_name"] in _ARITHMETIC:
                return dict(e, children=[lookup_column(x) for x in e["children"]])
            if any(d.get("class") == "SUBQUERY" for d in _walk(e)):
                raise ValueError(_SUBQUERY_PLACES)
            return e

        return dict(c, left=lookup_column(c["left"]), right=lookup_column(c["right"]))

    def _lookup(self, sub: dict, in_col: tuple[str, str] | None = None) -> str:
        """Derive subquery block ``sub`` as a lookup: the DISTINCT values
        for ``in_col``'s IN list, else a scalar subquery's value per group
        of its correlation columns. Returns the value's column name."""
        if len(sub["select_list"]) != 1:
            raise ValueError("a subquery must select exactly one value")
        (item,) = sub["select_list"]
        name = f"_sq{next(self.ids)}"
        inner = _Derivation(sub, self.prefixes, outer=self, ids=self.ids)
        if in_col is not None:
            if inner.correlation:
                raise ValueError("a correlated IN subquery is not supported")
            if item["class"] != "COLUMN_REF":
                raise ValueError("an IN subquery must select a column")
            root = inner._resolve(item)[0]
            inner.sel = dict(sub, select_list=[dict(item, alias=name)],
                             modifiers=[_DISTINCT])
            on = [(self._out(*in_col), name)]
        else:
            aggs = {d["function_name"] for d in _walk(item) if _is_agg(d)}
            if not inner.correlation:
                raise ValueError("an uncorrelated scalar subquery is not supported")
            if not aggs:
                raise ValueError("a correlated scalar subquery must aggregate")
            if aggs & {"count", "count_star"}:
                raise ValueError(
                    "COUNT in a correlated scalar subquery is not supported: an "
                    "outer tuple without inner rows must compare with 0, and the "
                    "lookup join drops it (the COUNT bug)"
                )
            keys = [ref for ref, _ in inner.correlation]
            roots = {inner._resolve(k)[0] for k in keys}
            if len(roots) != 1:
                raise ValueError(
                    f"the correlation columns span inner FROM items {sorted(roots)}"
                )
            (root,) = roots
            inner.sel = dict(
                sub,
                select_list=[dict(k, alias=f"{name}_k{m}") for m, k in enumerate(keys)]
                + [dict(item, alias=name)],
                group_expressions=keys,
                group_sets=[list(range(len(keys)))],
            )
            on = [(self._out(*o), f"{name}_k{m}")
                  for m, (_, o) in enumerate(inner.correlation)]
        self.lookups.append((inner.spec(root, name), on))
        self.generated.add(name)
        return name

    def _aggregate(self, out: QuerySpec, items, aliases, groups, having) -> None:
        """Fill ``group_by`` / ``aggregates`` / ``select`` / ``having``: the
        select list and HAVING read group keys and aggregates by name."""
        keys: dict[str, str] = {}
        for i, g in enumerate(groups):
            if g["class"] == "COLUMN_REF":
                keys[_key(g)] = g["column_names"][0]
                out.group_by.append(g["column_names"][0])
            else:
                alias = next(
                    (a for it, a in zip(items, aliases) if _key(it) == _key(g)),
                    f"_key{i}",
                )
                keys[_key(g)] = alias
                out.group_by.append((self._render(g), alias))
        aggs: dict[str, str] = {}

        def agg(e: dict, alias: str | None = None) -> str:
            k = _key(e)
            if k not in aggs:
                aggs[k] = alias or f"_agg{len(aggs)}"
                out.aggregates.append((self._render(e), aggs[k]))
            return aggs[k]

        for it, a in zip(items, aliases):
            if _is_agg(it) and _key(it) not in keys:
                agg(it, a)

        def sub(v):
            if isinstance(v, list):
                return [sub(x) for x in v]
            if not isinstance(v, dict):
                return v
            if "class" in v:
                k = _key(v)
                if k in keys:
                    return _colref(keys[k])
                if _is_agg(v):
                    return _colref(agg(v))
                if v["class"] == "COLUMN_REF":
                    raise ValueError(
                        f"{v['column_names'][0]} is neither grouped nor aggregated"
                    )
            return {k: sub(x) for k, x in v.items()}

        out.select = [(self._render(sub(it)), a) for it, a in zip(items, aliases)]
        if having:
            out.having = self._render(sub(having))
