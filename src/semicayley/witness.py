"""Cayley witnesses: explicit algebraic certificates and their verification.

A witness packages a multiplication table, a connection set and a vertex
bijection.  Every witness produced anywhere in the library is self-verifying:
``verify_witness`` re-derives each claimed boolean from scratch, every
producer passes its witness through ``_verified`` before returning it, and
the text record format carries the graph so a verifier needs nothing else.

The connection set may be empty only for edgeless carriers (an arcless
digraph is the Cayley graph of any monoid with the empty connection set);
the algebra-level constructors still insist on non-empty sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (MulTable, cayley_arc_set, format_table, parse_table,
                      underlying_graph, validate_table)
from .graphs import (Digraph, GraphFormatError, SimpleGraph, format_graph,
                     parse_graph, weak_components)

__all__ = [
    "CayleyWitness",
    "MODES",
    "cayley_arc_set",
    "generated_submonoid",
    "verify_witness",
    "witness_ok",
    "format_witness_record",
    "parse_witness_record",
    "WitnessRecordError",
    "WitnessCheckError",
]

MODES = (
    "monoid-digraph",
    "semigroup-digraph",
    "monoid-graph",
    "generated-monoid-tree",
    "embedding",
)


@dataclass(frozen=True)
class CayleyWitness:
    """Certificate that a graph is (or embeds in) a Cayley graph.

    ``vertex_map`` sends each graph vertex to its table element.  For the
    search modes it is the identity; for embeddings it injects the graph
    into a larger monoid and ``component`` lists the elements of the
    identity's component (the part removed by the embedding claim).
    """

    # (graph, checks) of the ``_verified`` call that accepted this
    # witness; not a field, so equality and the record ignore it
    _checks = None

    mode: str
    table: MulTable
    connection: frozenset
    vertex_map: tuple
    carrier: str = "directed"
    component: Optional[tuple] = None

    def __init__(self, mode, table, connection, vertex_map, carrier="directed",
                 component=None):
        if mode not in MODES:
            raise ValueError(f"unknown witness mode {mode!r}")
        if carrier not in ("directed", "undirected"):
            raise ValueError(f"unknown carrier {carrier!r}")
        conn = frozenset(int(x) for x in connection)
        for x in conn:
            if not 0 <= x < table.order:
                raise ValueError(f"connection element {x} out of range")
        vm = tuple(int(x) for x in vertex_map)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "connection", conn)
        object.__setattr__(self, "vertex_map", vm)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "component",
                           None if component is None else tuple(sorted(component)))


def generated_submonoid(table: MulTable, connection) -> frozenset:
    """Elements reachable as products of connection elements (empty product
    included, so the identity is always a member)."""
    if table.identity is None:
        raise ValueError("generated_submonoid needs an identity")
    seen = {table.identity}
    frontier = [table.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for c in connection:
                y = table.rows[x][c]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _mapped_arcs(g: Digraph, vm) -> frozenset:
    return frozenset((vm[u], vm[v]) for u, v in g.arcs)


def _mapped_edges(g: SimpleGraph, vm) -> frozenset:
    return frozenset((min(vm[u], vm[v]), max(vm[u], vm[v])) for u, v in g.edges)


def verify_witness(w: CayleyWitness, g) -> dict:
    """Re-derive every check for witness ``w`` against graph ``g``.

    Returns an ordered mapping of named booleans; the witness is good iff
    all of them hold.
    """
    checks: dict = {}
    table = w.table
    checks["table-valid"] = validate_table(table) is None
    if w.mode != "semigroup-digraph":
        checks["identity-set"] = table.identity is not None

    n_g = g.order
    vm = w.vertex_map
    checks["vertex-map-injective"] = (
        len(vm) == n_g and len(set(vm)) == n_g
        and all(0 <= x < table.order for x in vm))
    if not checks["vertex-map-injective"] or not checks["table-valid"]:
        checks["roundtrip"] = False
        return checks

    arcs = cayley_arc_set(table, w.connection)
    cay = Digraph(table.order, arcs)

    if w.mode in ("monoid-digraph", "semigroup-digraph"):
        ok = (isinstance(g, Digraph) and table.order == n_g
              and _mapped_arcs(g, vm) == arcs)
        checks["roundtrip"] = ok
    elif w.mode in ("monoid-graph", "generated-monoid-tree"):
        ok = (isinstance(g, SimpleGraph) and table.order == n_g
              and _mapped_edges(g, vm) == underlying_graph(cay).edges)
        checks["roundtrip"] = ok
        if w.mode == "generated-monoid-tree":
            checks["generated"] = (
                table.identity is not None
                and generated_submonoid(table, w.connection)
                == frozenset(range(table.order)))
    elif w.mode == "embedding":
        image = set(vm)
        comp = weak_components(cay)
        e = table.identity
        ident_comp = frozenset(comp.members(comp.component[e])) if e is not None else frozenset()
        rest = frozenset(range(table.order)) - ident_comp
        checks["component-separation"] = (
            e is not None
            and image == rest
            and (w.component is None or frozenset(w.component) == ident_comp))
        restricted = frozenset((u, v) for u, v in arcs
                               if u in image and v in image)
        sub = Digraph(table.order, restricted)
        if w.carrier == "directed":
            ok = isinstance(g, Digraph) and _mapped_arcs(g, vm) == restricted
        else:
            ok = (isinstance(g, SimpleGraph)
                  and _mapped_edges(g, vm) == underlying_graph(sub).edges)
        checks["roundtrip"] = ok and checks["component-separation"]
    return checks


def witness_ok(w: CayleyWitness, g) -> bool:
    return all(verify_witness(w, g).values())


class WitnessCheckError(RuntimeError):
    """A witness built by a search, a construction or a family generator
    failed its own re-verification."""


def _verified(witness: CayleyWitness, graph) -> CayleyWitness:
    """Return ``witness`` once every check of ``verify_witness`` holds.

    The one self-check every producer runs on its witness: an explicit
    check rather than ``assert``, so that it also runs under ``python -O``.
    """
    checks = verify_witness(witness, graph)
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        raise WitnessCheckError(
            f"{witness.mode} witness fails its own checks: {', '.join(failed)}")
    object.__setattr__(witness, "_checks", (graph, checks))
    return witness


# ---------------------------------------------------------------------------
# record format: tagged sections, line oriented, self-contained

class WitnessRecordError(ValueError):
    pass


def format_witness_record(w: CayleyWitness, g) -> str:
    """The text record of ``w`` against ``g``, with its ``check`` lines.

    A witness that passed ``_verified`` against a graph equal to ``g``
    carries the checks of that call, and the record writes them; any
    other witness is checked here.
    """
    lines = ["cayley-witness", f"mode: {w.mode}", f"carrier: {w.carrier}"]
    lines.append("graph:")
    lines.append(format_graph(g).rstrip("\n"))
    lines.append("end-graph")
    lines.append("table:")
    lines.append(format_table(w.table).rstrip("\n"))
    lines.append("end-table")
    lines.append("connection: " + " ".join(str(c) for c in sorted(w.connection)))
    lines.append("vertex-map: " + " ".join(str(x) for x in w.vertex_map))
    if w.component is not None:
        lines.append("component: " + " ".join(str(x) for x in w.component))
    if w._checks is not None and w._checks[0] == g:
        checks = w._checks[1]
    else:
        checks = verify_witness(w, g)
    for name, value in checks.items():
        lines.append(f"check {name}: {'true' if value else 'false'}")
    lines.append("end-witness")
    return "\n".join(lines) + "\n"


def parse_witness_record(text: str):
    """Parse a record; returns (witness, graph, recorded_checks)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "cayley-witness":
        raise WitnessRecordError("missing 'cayley-witness' header")
    fields: dict = {}
    blocks: dict = {}
    checks: dict = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line == "end-witness":
            continue
        if line in ("graph:", "table:"):
            name = line[:-1]
            body = []
            end = f"end-{name}"
            while i < len(lines) and lines[i].strip() != end:
                body.append(lines[i])
                i += 1
            if i == len(lines):
                raise WitnessRecordError(f"unterminated {name} block")
            i += 1
            blocks[name] = "\n".join(body)
        elif line.startswith("check "):
            rest = line[len("check "):]
            if ":" not in rest:
                raise WitnessRecordError(f"bad check line {line!r}")
            name, _, value = rest.partition(":")
            checks[name.strip()] = value.strip() == "true"
        elif ":" in line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        else:
            raise WitnessRecordError(f"unparsable line {line!r}")
    for required in ("mode", "carrier"):
        if required not in fields:
            raise WitnessRecordError(f"missing field {required!r}")
    for required in ("graph", "table"):
        if required not in blocks:
            raise WitnessRecordError(f"missing {required!r} block")
    if "vertex-map" not in fields:
        raise WitnessRecordError("missing field 'vertex-map'")
    try:
        g = parse_graph(blocks["graph"])
    except GraphFormatError as exc:
        raise WitnessRecordError(f"bad graph block: {exc}") from None
    try:
        table = parse_table(blocks["table"])
    except ValueError as exc:
        raise WitnessRecordError(f"bad table block: {exc}") from None

    def ints(s):
        return [int(tok) for tok in s.split()] if s else []

    try:
        conn = ints(fields.get("connection", ""))
        vm = ints(fields["vertex-map"])
        component = ints(fields["component"]) if "component" in fields else None
        w = CayleyWitness(fields["mode"], table, conn, vm,
                          carrier=fields["carrier"], component=component)
    except ValueError as exc:
        raise WitnessRecordError(str(exc)) from None
    return w, g, checks
