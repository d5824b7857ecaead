"""Exact two-color off-diagonal Rado numbers for x1 + ... + xm = x0.

Red guards the k-variable equation, blue the l-variable one.  Discrete values
come from an exhaustive propagation-driven search, continuous values from
interval sumset algebra (lower bounds) and machine-checkable forcing-chain
certificates (upper bounds).  All arithmetic is exact rational.
"""

# the names the README's Library section imports; the rest live in their modules
from .certificates import certify_upper, verify_certificate
from .equations import ProblemSpec
from .intervals import lower_bound_coloring, verify_coloring
from .search import compute_rado

__version__ = "0.1.0"
