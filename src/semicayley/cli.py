"""Command line front end.

One subcommand per library entry point, line-oriented text formats on
stdin/stdout, deterministic output.  Exit status:

* 0 when the requested decision or construction completed, including a
  certified negative;
* 1 on input errors, among them an input order over the subcommand's cap
  in ``MAX_ORDER``, a ``gen`` family given the wrong number of parameters
  or more than ``MAX_CARRIER_ORDER`` vertices, and ``census --workers``
  below 1 or above the number of CPUs the process may use;
* 2 when a search gave up on its node or time budget;
* 3 on an internal error: any other exception, reported on one stderr
  line that names its type;
* 141 (128 + SIGPIPE, as a shell reports a writer killed by that signal)
  when stdout was closed before the output was written, for example by
  ``| head``; nothing is printed on stderr.

Each subcommand imports its library module when it runs, so a process
loads only what its own subcommand uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .graphs import Digraph, GraphFormatError, SimpleGraph, parse_graph
from .outcome import (
    BUDGET_EXCEEDED,
    CENSUS_MAX_NODES,
    CENSUS_MAX_SECONDS,
    CENSUS_MODES,
    Budget,
    BudgetExceededError,
    DEFAULT_MAX_MAPS,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_SECONDS,
    MAX_CARRIER_ORDER,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141

# Largest input order each subcommand accepts.  It is checked once the
# input is parsed, which takes time linear in the text whatever order the
# header claims, and before any table of that order is built.
MAX_ORDER = {
    "check-zelinka": 4096,                      # linear in the order
    "construct-zelinka": 512,                   # prints an n x n table
    "embed": MAX_CARRIER_ORDER - 1,             # carrier is order + maps
    "recognize": 64,                            # n x n search tables
    "tree-classify": 512,                       # one n x n walk table
    "invariants": 20,                           # invariants._SUBSET_CAP: arboricity
                                                # scans all 2^n vertex subsets
    "verify-witness": MAX_CARRIER_ORDER,        # embed's largest carrier
}


class _CliError(Exception):
    """Input-level failure; message goes to stderr, exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for budget
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}")


def _check_order(args, order: int) -> None:
    cap = MAX_ORDER[args.command]
    if order > cap:
        raise _CliError(
            f"{args.command} accepts orders up to {cap}, got {order}")


def _input_graph(args, want=None):
    try:
        g = parse_graph(_read_text(args.graph))
    except GraphFormatError as exc:
        raise _CliError(str(exc))
    _check_order(args, g.order)
    if want is not None and not isinstance(g, want):
        kind = "an undirected" if want is SimpleGraph else "a directed"
        raise _CliError(f"this subcommand needs {kind} graph")
    return g


def _budget(args) -> Budget:
    return Budget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _add_budget_flags(p) -> None:
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                   help="search node budget (default %(default)s)")
    p.add_argument("--max-seconds", type=float, default=DEFAULT_MAX_SECONDS,
                   help="search time budget in seconds (default %(default)s)")


def _emit_witness(w, g) -> None:
    from .witness import format_witness_record

    sys.stdout.write(format_witness_record(w, g))


# -- subcommand implementations -------------------------------------------


def _cmd_check_zelinka(args) -> int:
    from . import zelinka

    p = zelinka.profile(_input_graph(args, Digraph))
    ok_m, cid_m = zelinka.decide_monoid(p)
    ok_s, cid_s = zelinka.decide_semigroup(p)
    for name, ok, cid in (("monoid", ok_m, cid_m), ("semigroup", ok_s, cid_s)):
        where = f" dominant-component {cid}" if ok else ""
        print(f"{name}: {'yes' if ok else 'no'}{where}")
    return EXIT_OK


def _cmd_construct_zelinka(args) -> int:
    from . import zelinka

    g = _input_graph(args, Digraph)
    build = (zelinka.construct_monoid if args.mode == "monoid"
             else zelinka.construct_semigroup)
    _emit_witness(build(g), g)
    return EXIT_OK


def _cmd_embed(args) -> int:
    from .embed import embed_monoid, embed_undirected, greedy_cover

    g = _input_graph(args)
    if isinstance(g, SimpleGraph):
        w = embed_undirected(g, max_maps=args.max_maps)
    else:
        fam = greedy_cover(g, max(g.out_degrees()))
        w = embed_monoid(g, fam, max_maps=args.max_maps)
    _emit_witness(w, g)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    from .recognize import (
        recognize_monoid_digraph,
        recognize_monoid_graph,
        recognize_semigroup_digraph,
    )

    if args.mode == "monoid-graph":
        g = _input_graph(args, SimpleGraph)
        out = recognize_monoid_graph(
            g,
            _budget(args),
            require_generated=args.require_generated,
            max_connection=args.max_connection,
        )
    else:
        g = _input_graph(args, Digraph)
        if args.require_generated or args.max_connection is not None:
            raise _CliError(
                "--require-generated/--max-connection apply to monoid-graph only")
        rec = (recognize_monoid_digraph if args.mode == "monoid-digraph"
               else recognize_semigroup_digraph)
        out = rec(g, _budget(args))
    print(f"status: {out.status}")
    print(f"nodes: {out.nodes}")
    if args.max_connection is not None:
        print(f"scope: identities of degree <= {args.max_connection}")
    if out.is_witness:
        _emit_witness(out.witness, g)
    return EXIT_BUDGET if out.is_budget else EXIT_OK


def _cmd_invariants(args) -> int:
    from . import invariants

    g = _input_graph(args, SimpleGraph)
    print(f"order\t{g.order}")
    print(f"edges\t{len(g.edges)}")
    print(f"arboricity\t{invariants.arboricity(g)}")
    print(f"pseudoarboricity\t{invariants.pseudoarboricity(g)}")
    print(f"independence-number\t{invariants.independence_number(g)}")
    degs = g.degrees()
    if g.order > 0 and min(degs) == max(degs) and g.order > 1:
        p = invariants.spectrum(g)
        print(f"degree\t{p.degree}")
        print(f"lambda\t{p.lam:.6f}")
        print(f"connectivity-bound\t{invariants.connectivity_bound(p)}")
    if args.beta is not None:
        print(f"beta[{args.beta}]\t{invariants.beta(g, args.beta)}")
    return EXIT_OK


def _kary_order(k: int, h: int) -> int:
    """Vertex count of the perfect k-ary tree of height h, summed level by
    level only until it passes ``MAX_CARRIER_ORDER``."""
    total, level = 0, 1
    for _ in range(min(h, MAX_CARRIER_ORDER) + 1):
        total, level = total + level, level * k
        if total > MAX_CARRIER_ORDER:
            break
    return total


# family -> (builder in ``families``, parameter names, vertex count of what
# the builder makes; gklk merges the wide layer of a gkl it builds first)
GEN_FAMILIES = {
    "gkl": ("gen_Gkl", ("k", "ell"), lambda k, ell: k * k + (ell - 1) * k),
    "gklk": ("gen_Gklk", ("k", "ell", "kappa"),
             lambda k, ell, _: k * k + (ell - 1) * k),
    "threshold": ("gen_threshold", (), lambda seq: len(seq) + 1),
    "k4cl": ("gen_K4_Cl", ("ell",), lambda ell: 4 + ell),
    "perfect-kary": ("gen_perfect_kary", ("k", "h"), _kary_order),
    "tplus": ("gen_Tplus", ("k", "h"), lambda k, h: _kary_order(k, h) + 1),
    "looped-path": ("looped_path_digraph", (), lambda: 3),
    "smallest-tree": ("gen_smallest_tree", (), lambda: 7),
}


def _cmd_gen(args) -> int:
    from . import families
    from .graphs import format_graph

    name, p = args.family, args.params
    build, names, order = GEN_FAMILIES[name]
    if len(p) != len(names):
        raise _CliError(f"gen {name} takes {len(names)} parameter(s)"
                        f" ({' '.join(names) or 'none'}), got {len(p)}")
    if name == "threshold":
        p = [args.seq or ""]
    if order(*p) > MAX_CARRIER_ORDER:
        raise _CliError(f"gen builds families of up to {MAX_CARRIER_ORDER}"
                        f" vertices; this {name} would have more")
    g = getattr(families, build)(*p)
    if isinstance(g, tuple):  # with its root, or with its witness
        g, extra = g
    sys.stdout.write(format_graph(g))
    if name == "threshold":
        _emit_witness(extra, g)
    return EXIT_OK


def _cmd_tree_classify(args) -> int:
    from . import trees

    g = _input_graph(args, SimpleGraph)
    verdict = trees.classify_tree(g, escalate=args.escalate, budget=_budget(args))
    print(f"verdict: {verdict.status}")
    print("candidates: " + " ".join(str(e) for e in verdict.candidates))
    for e in verdict.candidates:
        detail = verdict.details.get(e)
        if detail is None:
            continue  # classifier stopped before examining this candidate
        print(f"candidate {e}: " + " ".join(str(x) for x in detail))
    if verdict.witness is not None:
        _emit_witness(verdict.witness, g)
    return EXIT_OK


def _cmd_census(args) -> int:
    from .forked import usable_cpus
    from .recognize import classify_all

    cpus = usable_cpus()
    if args.workers is not None and not 1 <= args.workers <= cpus:
        raise _CliError(f"--workers must be between 1 and {cpus}, got {args.workers}")
    report = classify_all(
        args.order,
        args.mode,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
        workers=args.workers,
    )
    for line in report.lines():
        print(line)
    counts = report.counts()
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"# total={len(report.entries)} {summary}", file=sys.stderr)
    return EXIT_BUDGET if counts.get(BUDGET_EXCEEDED) else EXIT_OK


def _cmd_verify_witness(args) -> int:
    from .witness import WitnessRecordError, parse_witness_record, verify_witness

    try:
        w, g, _recorded = parse_witness_record(_read_text(args.record))
    except WitnessRecordError as exc:
        raise _CliError(str(exc))
    _check_order(args, max(g.order, w.table.order))
    checks = verify_witness(w, g)
    ok = True
    for name, val in checks.items():
        print(f"check {name}: {'true' if val else 'false'}")
        ok = ok and val
    return EXIT_OK if ok else EXIT_INPUT


# -- parser wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="semicayley",
                description="Decide and certify Cayley graph representability "
                            "of finite graphs and digraphs.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-zelinka",
                       help="decide 1-outregular digraphs by component shape")
    q.add_argument("graph", nargs="?", help="graph file (default stdin)")
    q.set_defaults(func=_cmd_check_zelinka)

    q = sub.add_parser("construct-zelinka",
                       help="build a witness for a 1-outregular digraph")
    q.add_argument("--mode", choices=("monoid", "semigroup"), default="monoid")
    q.add_argument("graph", nargs="?")
    q.set_defaults(func=_cmd_construct_zelinka)

    q = sub.add_parser("embed",
                       help="represent a graph inside a larger transition monoid")
    q.add_argument("--max-maps", type=int, default=DEFAULT_MAX_MAPS,
                   help="closure size cap (default %(default)s)")
    q.add_argument("graph", nargs="?")
    q.set_defaults(func=_cmd_embed)

    q = sub.add_parser("recognize", help="exhaustive Cayley table search")
    q.add_argument("--mode", required=True, choices=CENSUS_MODES)
    q.add_argument("--require-generated", action="store_true",
                   help="demand that the connection set generates the monoid")
    q.add_argument("--max-connection", type=int, default=None,
                   help="restrict identity candidates to this degree")
    _add_budget_flags(q)
    q.add_argument("graph", nargs="?")
    q.set_defaults(func=_cmd_recognize)

    q = sub.add_parser("invariants",
                       help="density, independence and spectral invariants")
    q.add_argument("--beta", type=int, default=None,
                   help="also maximize independence over k incidence-map "
                        "edge removals")
    q.add_argument("graph", nargs="?")
    q.set_defaults(func=_cmd_invariants)

    q = sub.add_parser("gen", help="named graph families")
    q.add_argument("family", choices=tuple(GEN_FAMILIES))
    q.add_argument("params", type=int, nargs="*",
                   help="integer parameters, per family")
    q.add_argument("--seq", default=None,
                   help="threshold creation sequence over {i,d}")
    q.set_defaults(func=_cmd_gen)

    q = sub.add_parser("tree-classify",
                       help="three-valued generated-monoid-tree classifier")
    q.add_argument("--escalate", action="store_true",
                   help="fall through to exhaustive search when undecided")
    _add_budget_flags(q)
    q.add_argument("graph", nargs="?")
    q.set_defaults(func=_cmd_tree_classify)

    q = sub.add_parser("census",
                       help="classify all graphs of one order up to isomorphism")
    q.add_argument("order", type=int)
    q.add_argument("--mode", required=True, choices=CENSUS_MODES)
    q.add_argument("--workers", type=int, default=None,
                   help="classify on this many forked workers, from 1 (in "
                        "process) to the CPUs the process may use (default: "
                        "all of those CPUs)")
    q.add_argument("--max-nodes", type=int, default=CENSUS_MAX_NODES)
    q.add_argument("--max-seconds", type=float, default=CENSUS_MAX_SECONDS)
    q.set_defaults(func=_cmd_census)

    q = sub.add_parser("verify-witness",
                       help="recompute every check of a witness record")
    q.add_argument("record", nargs="?", help="record file (default stdin)")
    q.set_defaults(func=_cmd_verify_witness)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the interpreter's
        # final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # no input should get here; one line instead of a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}"
              + (f": {detail}" if detail else ""), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
