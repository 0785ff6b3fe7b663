from types import ModuleType

import hypertrace

# The package's public names: every public name its imports bind except
# the submodules degeneracy, domination, errors, graphs, hypergraph, io,
# report, trace, transversal and vc.
PUBLIC = [
    "AnalysisReport", "BoundEntry", "BudgetExceededError", "Budgets", "ChainBounds",
    "DegeneracyTriple", "DegreeProfile", "DominationReport", "DtResult", "FormatError",
    "Graph", "Hypergraph", "HypertraceError", "KindBounds", "MultiEdgeError",
    "NotATreeError", "PeelResult", "TraceFamily", "TreeBounds", "TreeCertificates",
    "TreeStats", "VcResult", "build_hypergraph", "degeneracy_chain_bounds", "degree_profile",
    "domination_lower_bounds", "dt_exact", "dt_lower_bounds", "find_twins", "gamma_exact",
    "generate", "is_distinguishing_transversal", "is_shattered", "max_degree_bound",
    "neighborhood_hypergraph", "parse_graph", "parse_graph_text", "parse_hypergraph",
    "parse_hypergraph_text", "peel_degeneracy", "peel_pseudo_degeneracy", "pseudo_induced",
    "random_gnp", "random_hypergraph", "random_tree", "reduced_degeneracy", "restriction",
    "run_report", "sauer_shelah_bound", "serialize_graph", "serialize_hypergraph",
    "trace_count_lower_bound", "trace_family", "trace_function_exact",
    "tree_degeneracy_certificates", "tree_lower_bounds", "tree_stats", "validate_report",
    "vc_exact", "vc_upper_bound",
]


def test_star_import_binds_no_module():
    """``from hypertrace import *`` binds the public names and no module,
    so it cannot rebind a caller's ``io`` or ``trace``."""
    assert hypertrace.__all__ == PUBLIC and len(PUBLIC) == 60
    namespace = {}
    exec("from hypertrace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
