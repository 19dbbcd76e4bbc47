"""Moment transforms, orthogonal polynomial recursions, and shape recovery
for planar densities with values in [0, 1].

The pipeline: a shape (or banded-operator model) produces a power moment
matrix a; the exponential transform turns it into a positive Gram matrix b;
orthonormalizing against b gives polynomials whose Hessenberg matrix may be
banded; a band certificate propagates the first moment column over a full
triangle; and a Legendre projection turns the recovered moments back into a
picture of the density.
"""
from .errors import ExpotransError, InputError, MathDomainError, PrecisionError
from .exptransform import (
    AnnulusProfile,
    ExpMoments,
    TDiskProfile,
    a_to_b,
    b_to_a,
    boundary_root,
    eval_E,
    nevanlinna_density,
    rot_diag_b,
)
from .finiteterm import (
    BandCertificate,
    BandProfile,
    FilledMoments,
    band_profile,
    detect_order,
    fill_from_first_column,
    fit_certificate,
)
from .gallery import MatrixSource, OperatorFamily, a_for, b_for, resolve
from .heleshaw import (
    ExteriorMoments,
    confocal_ellipse,
    exterior_moments,
    inject,
    mother_body,
    mother_body_moment,
    squeeze,
    zero_attraction,
)
from .operators import (
    BandedOperator,
    RecursionState,
    b_from_operator,
    commutator_defect,
    ellipse_operator,
    toeplitz_ellipse,
    toeplitz_power,
    trifoil_curve,
    trifoil_operator,
    two_diagonal,
    two_diagonal_state,
)
from .orthopoly import (
    CompletenessReport,
    Hessenberg,
    PolyBasis,
    completeness_gap,
    hessenberg,
    orthonormalize,
    poly_zeros,
)
from .reconstruct import (
    GridFunction,
    LegendreField,
    RealMoments,
    legendre_fit,
    real_moments,
    reconstruct_from_certificate,
    support_box,
)
from .series import BiSeries, exp_neg, log_neg
from .shapes import (
    Annulus,
    Box,
    Disk,
    Ellipse,
    Grid,
    MomentMatrix,
    Shape,
    Sum,
    Weighted,
    cauchy_kernel_log,
    moments,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
