"""Cayley graphs of finite semigroups and monoids.

Decision procedures, explicit witness construction, and certified
negative answers for the question: which finite digraphs and graphs
arise as Cayley graphs of semigroups or monoids?

Importing the package loads none of its submodules.  Each public name
below is imported from its submodule on first access (PEP 562), so a
caller pays only for the parts it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "MulTable": "algebra",
    "TableFormatError": "algebra",
    "cayley_digraph": "algebra",
    "underlying_graph": "algebra",
    "validate_table": "algebra",
    "Digraph": "graphs",
    "GraphFormatError": "graphs",
    "SimpleGraph": "graphs",
    "canonical_form": "graphs",
    "enumerate_graphs": "graphs",
    "format_graph": "graphs",
    "parse_graph": "graphs",
    "BUDGET_EXCEEDED": "outcome",
    "Budget": "outcome",
    "BudgetExceededError": "outcome",
    "EXHAUSTED_NO": "outcome",
    "SearchOutcome": "outcome",
    "WITNESS": "outcome",
    "CayleyWitness": "witness",
    "format_witness_record": "witness",
    "parse_witness_record": "witness",
    "verify_witness": "witness",
    "witness_ok": "witness",
    "WitnessCheckError": "witness",
    "OutregularProfile": "zelinka",
    "construct_monoid": "zelinka",
    "construct_semigroup": "zelinka",
    "decide_monoid": "zelinka",
    "decide_semigroup": "zelinka",
    "forest_witness": "zelinka",
    "profile": "zelinka",
    "FunctionFamily": "embed",
    "embed_monoid": "embed",
    "embed_undirected": "embed",
    "greedy_cover": "embed",
    "classify_all": "recognize",
    "recognize_monoid_digraph": "recognize",
    "recognize_monoid_graph": "recognize",
    "recognize_semigroup_digraph": "recognize",
    "sabidussi_check": "recognize",
    "arboricity": "invariants",
    "beta": "invariants",
    "connectivity_bound": "invariants",
    "independence_number": "invariants",
    "nonmonoid_certificate": "invariants",
    "pseudoarboricity": "invariants",
    "spectrum": "invariants",
    "TreeVerdict": "trees",
    "classify_tree": "trees",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
