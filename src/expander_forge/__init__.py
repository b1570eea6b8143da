"""Configuration-model random graphs with degree-3 interior and degree-1
boundary vertices: exact sampling and counting, Laplacian/Steklov spectra,
exact Cheeger certificates, first-moment separator bounds, and a certified
expander-family construction."""

__version__ = "0.1.0"

from .bounds import (
    MuPairBound,
    count_Nabs,
    first_moment_bound,
    is_mu_pair,
    mu_pair_sum,
    pendant_term,
    xyz_bound,
)
from .cheeger import CheegerCertificate, cheeger_exact, cheeger_upper
from .construct import (
    BalancedSubset,
    FamilySpec,
    TreeSplit,
    add_loops,
    balanced_boundary_subset,
    build_Tk,
    expander_family,
    plant_trees,
    steklov_test_function,
    two_tree_split,
)
from .errors import (
    CertificationError,
    ExpanderForgeError,
    GuardExceededError,
    ParityError,
    SolverError,
)
from .graph_core import (
    HalfEdgePairing,
    MultiGraph,
    Topology,
    build_graph,
    connected_components,
    from_text,
    is_connected,
    to_text,
    topology,
    validate_partition,
)
from .sampler import (
    ConnectivityEstimate,
    SampleConfig,
    count_family,
    enumerate_family,
    estimate_connectivity,
    sample_graph,
    sample_partition,
)
from .spectra import (
    SpectralReport,
    laplacian_spectrum,
    rayleigh_quotient,
    steklov_spectrum,
    verify_domination,
)

__all__ = [
    "BalancedSubset",
    "CertificationError",
    "CheegerCertificate",
    "ConnectivityEstimate",
    "ExpanderForgeError",
    "FamilySpec",
    "GuardExceededError",
    "HalfEdgePairing",
    "MultiGraph",
    "MuPairBound",
    "ParityError",
    "SampleConfig",
    "SolverError",
    "SpectralReport",
    "Topology",
    "TreeSplit",
    "add_loops",
    "balanced_boundary_subset",
    "build_Tk",
    "build_graph",
    "cheeger_exact",
    "cheeger_upper",
    "connected_components",
    "count_Nabs",
    "count_family",
    "enumerate_family",
    "estimate_connectivity",
    "expander_family",
    "first_moment_bound",
    "from_text",
    "is_connected",
    "is_mu_pair",
    "laplacian_spectrum",
    "mu_pair_sum",
    "pendant_term",
    "plant_trees",
    "rayleigh_quotient",
    "sample_graph",
    "sample_partition",
    "steklov_spectrum",
    "steklov_test_function",
    "to_text",
    "topology",
    "two_tree_split",
    "validate_partition",
    "verify_domination",
    "xyz_bound",
]
