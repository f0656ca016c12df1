"""Exact arithmetic for jet representations of the Carlitz module.

Small finite fields, truncated power series, hyperderivative calculus, a
finite model of the Anderson-Thakur function, and exhaustively checkable
image orders and densities for the associated t-adic actions.
"""

from .binomials import binom_mod_p, binom_pascal_oracle, binom_row
from .cinfty import (
    UInftyElem,
    UPowerSeries,
    compute_omega,
    hhat_verdicts,
    jet_columns,
    theta,
    torsion_generators,
    verify_carlitz_equation,
    verify_hhat_membership,
    verify_prolongation_trivialization,
    zeta,
)
from .density import (
    DEFAULT_SEED,
    DensityEstimate,
    ImageRow,
    ImageTable,
    ZariskiReport,
    build_density_table,
    build_tensor_table,
    density_bounds,
    extra_indices,
    factor_structured_order,
    galois_rep,
    image_order_brute,
    image_order_formula,
    motivic_group_check,
    tensor_decompose,
    tensor_image_order_brute,
    tensor_image_order_formula,
    tensor_unit_part,
    torsion_level_m,
    zariski_rank_certificate,
)
from .field import FqElem, FqSpec, spec_for_order
from .jets import (
    JetMatrix,
    hyperderiv,
    jet,
    verify_iteration,
    verify_leibniz,
    verify_taylor,
)
from .series import (
    TruncSeries,
    parse_series,
    render_series,
    unit_count,
    unit_enumerate,
)

__version__ = "0.1.0"
