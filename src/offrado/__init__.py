"""Exact two-color off-diagonal Rado numbers for x1 + ... + xm = x0.

Red guards the k-variable equation, blue the l-variable one.  Discrete values
come from an exhaustive propagation-driven search, continuous values from
interval sumset algebra (lower bounds) and machine-checkable forcing-chain
certificates (upper bounds).  All arithmetic is exact rational.
"""

from .equations import (
    Color,
    ProblemSpec,
    SolutionWitness,
    Verdict,
    check_witness,
    formula_continuous,
    formula_degenerate_k1,
    formula_discrete,
)
from .intervals import (
    ContinuousColoring,
    Interval,
    IntervalSet,
    boundary_witnesses,
    coloring_as_json,
    coloring_from_json,
    decompose_sum,
    lower_bound_coloring,
    m_fold_sumset,
    minkowski_sum,
    normalize,
    scale_coloring,
    verify_coloring,
)
from .search import (
    DiscreteColoring,
    SearchReport,
    SearchStats,
    brute_force_colorable,
    compute_rado,
    enumerate_solutions,
    is_valid_discrete,
    search_valid,
)
from .certificates import (
    CertificateCheck,
    CheckFailure,
    ResidueParams,
    UnprovedError,
    auto_prove,
    build_blue1_certificate,
    build_k2_certificate,
    certificate_from_json,
    certificate_stats,
    certify_upper,
    points_used,
    residue_params,
    verify_branch,
    verify_certificate,
)
from .serialize import canonical_json, format_rational, parse_rational

__version__ = "0.1.0"
