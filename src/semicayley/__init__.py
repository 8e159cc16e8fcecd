"""Cayley graphs of finite semigroups and monoids.

Decision procedures, explicit witness construction, and certified
negative answers for the question: which finite digraphs and graphs
arise as Cayley graphs of semigroups or monoids?
"""

from .algebra import (
    MulTable,
    TableFormatError,
    cayley_digraph,
    underlying_graph,
    validate_table,
)
from .graphs import (
    Digraph,
    GraphFormatError,
    SimpleGraph,
    canonical_form,
    enumerate_graphs,
    format_graph,
    parse_graph,
)
from .outcome import (
    BUDGET_EXCEEDED,
    Budget,
    BudgetExceededError,
    EXHAUSTED_NO,
    SearchOutcome,
    WITNESS,
)
from .witness import (
    CayleyWitness,
    format_witness_record,
    parse_witness_record,
    verify_witness,
    witness_ok,
)
from .zelinka import (
    OutregularProfile,
    construct_monoid,
    construct_semigroup,
    decide_monoid,
    decide_semigroup,
    forest_witness,
    profile,
)
from .embed import (
    FunctionFamily,
    embed_monoid,
    embed_undirected,
    greedy_cover,
)
from .recognize import (
    WitnessCheckError,
    classify_all,
    recognize_monoid_digraph,
    recognize_monoid_graph,
    recognize_semigroup_digraph,
    sabidussi_check,
)
from .invariants import (
    arboricity,
    beta,
    connectivity_bound,
    independence_number,
    nonmonoid_certificate,
    pseudoarboricity,
    spectrum,
)
from .trees import TreeVerdict, classify_tree

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "BUDGET_EXCEEDED",
    "CayleyWitness",
    "Digraph",
    "EXHAUSTED_NO",
    "FunctionFamily",
    "GraphFormatError",
    "MulTable",
    "OutregularProfile",
    "SearchOutcome",
    "SimpleGraph",
    "TableFormatError",
    "TreeVerdict",
    "WITNESS",
    "WitnessCheckError",
    "arboricity",
    "beta",
    "canonical_form",
    "cayley_digraph",
    "classify_all",
    "classify_tree",
    "connectivity_bound",
    "construct_monoid",
    "construct_semigroup",
    "decide_monoid",
    "decide_semigroup",
    "embed_monoid",
    "embed_undirected",
    "enumerate_graphs",
    "forest_witness",
    "format_graph",
    "format_witness_record",
    "greedy_cover",
    "independence_number",
    "nonmonoid_certificate",
    "parse_graph",
    "parse_witness_record",
    "profile",
    "pseudoarboricity",
    "recognize_monoid_digraph",
    "recognize_monoid_graph",
    "recognize_semigroup_digraph",
    "sabidussi_check",
    "spectrum",
    "underlying_graph",
    "validate_table",
    "verify_witness",
    "witness_ok",
]
