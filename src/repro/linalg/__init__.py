"""Single-node numerical kernels: LU (Algorithm 1), triangular inversion
(Equation 4), permutations, block-wrap multiplication (Section 6.2), and the
verification residuals of Section 7.2."""

from . import blockwrap, permutation, verify
from .condest import (
    condition_estimate,
    estimate_inverse_one_norm,
    expected_residual_bound,
    one_norm,
)
from .lu import LUResult, SingularMatrixError, lu_decompose, lu_flop_count, solve_lu
from .refine import RefinementResult, newton_schulz_refine
from .tile_lu import TileTaskCount, tile_lu, tile_task_counts
from .triangular import (
    back_substitute,
    blocked_back_substitute,
    blocked_forward_substitute,
    forward_substitute,
    invert_lower,
    invert_lower_columns,
    invert_upper,
    invert_upper_rows,
    is_lower_triangular,
    is_upper_triangular,
    triangular_inverse_flop_count,
)

__all__ = [
    "LUResult",
    "RefinementResult",
    "SingularMatrixError",
    "TileTaskCount",
    "condition_estimate",
    "estimate_inverse_one_norm",
    "expected_residual_bound",
    "newton_schulz_refine",
    "one_norm",
    "tile_lu",
    "tile_task_counts",
    "back_substitute",
    "blocked_back_substitute",
    "blocked_forward_substitute",
    "blockwrap",
    "forward_substitute",
    "invert_lower",
    "invert_lower_columns",
    "invert_upper",
    "invert_upper_rows",
    "is_lower_triangular",
    "is_upper_triangular",
    "lu_decompose",
    "lu_flop_count",
    "permutation",
    "solve_lu",
    "triangular_inverse_flop_count",
    "verify",
]
