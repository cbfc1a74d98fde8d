"""Minimum-message-length pricing of labelled graphs.

The package measures the information content of an undirected labelled
graph in bits, both on its own and relative to background graphs a
receiver is assumed to know already.  Supporting pieces: combinatorial
baseline codes, succinct tree codecs, automorphism counting, a SMILES
reader for molecular graphs, and a command-line front end.

Each top-level name is imported from its module on first use, so
importing one module, such as graphmml.graph or graphmml.search, loads
only that module and what it imports.
"""

import importlib

# Each module's top-level names.
_NAMES = {
    "codes": (
        "CodeReport", "Fork", "GeneralTree", "Leaf", "SizeLimitError", "StrictBinaryTree",
        "TreeCodeError", "adaptive_binomial_bits", "automorphism_count",
        "directed_row_binomial_bits", "general_tree_decode", "general_tree_encode", "naive_bits",
        "ordering_surplus_bits", "strict_binary_tree_decode", "strict_binary_tree_encode",
        "undirected_matrix_bits",
    ),
    "context": (
        "ChainResult", "ContextError", "InfoResult", "StepRecord", "TableResult",
        "chain_information", "conditional_table", "information_content", "label_text",
        "outcome_text",
    ),
    "graph": (
        "DuplicateEdgeError", "Edge", "EdgeEvent", "EdgeOutcome", "Graph", "GraphError",
        "OrientedEdge", "SelfLoopError", "TraversalState", "VertexEvent", "VertexOutcome",
        "VertexRangeError", "build_graph", "connected_components", "max_edges", "traverse",
    ),
    "smiles": (
        "DEFAULT_VALENCES", "Bond", "Element", "SmilesError", "ValenceError",
        "infer_implicit_bonds", "parse_smiles", "read_molecule", "smiles_to_graph",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A top-level name, imported from its module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
