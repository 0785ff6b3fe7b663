"""hypertrace: hypergraph degeneracy, trace bounds, VC dimension, and domination."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .degeneracy import (
    DegeneracyTriple,
    PeelResult,
    peel_degeneracy,
    peel_pseudo_degeneracy,
    reduced_degeneracy,
)
from .domination import (
    DominationReport,
    KindBounds,
    TreeBounds,
    TreeCertificates,
    domination_lower_bounds,
    gamma_exact,
    tree_degeneracy_certificates,
    tree_lower_bounds,
)
from .errors import (
    BudgetExceededError,
    FormatError,
    HypertraceError,
    MultiEdgeError,
    NotATreeError,
)
from .generate import generate, random_gnp, random_hypergraph, random_tree
from .graphs import Graph, TreeStats, find_twins, neighborhood_hypergraph, tree_stats
from .hypergraph import (
    DegreeProfile,
    Hypergraph,
    TraceFamily,
    build_hypergraph,
    degree_profile,
    pseudo_induced,
    restriction,
    trace_family,
)
from .io import (
    parse_graph,
    parse_graph_text,
    parse_hypergraph,
    parse_hypergraph_text,
    serialize_graph,
    serialize_hypergraph,
)
from .report import AnalysisReport, Budgets, run_report, validate_report
from .trace import (
    ChainBounds,
    degeneracy_chain_bounds,
    max_degree_bound,
    sauer_shelah_bound,
    trace_count_lower_bound,
    trace_function_exact,
)
from .transversal import (
    BoundEntry,
    DtResult,
    dt_exact,
    dt_lower_bounds,
    is_distinguishing_transversal,
)
from .vc import VcResult, is_shattered, vc_exact, vc_upper_bound

# The submodules the imports above bind stay out, so that a star-import
# does not rebind a caller's ``io`` or ``trace``.
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))
