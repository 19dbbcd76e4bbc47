"""Moment transforms, orthogonal polynomial recursions, and shape recovery
for planar densities with values in [0, 1].

The pipeline: a shape (or banded-operator model) produces a power moment
matrix a; the exponential transform turns it into a positive Gram matrix b;
orthonormalizing against b gives polynomials whose Hessenberg matrix may be
banded; a band certificate propagates the first moment column over a full
triangle; and a Legendre projection turns the recovered moments back into a
picture of the density.

Importing the package loads none of its modules (nor numpy): each public
name below is imported from its home module on first use (PEP 562), so a
process pays only for the modules it touches.
"""
import sys as _sys

__version__ = "0.1.0"

# home module -> the public names it exports; each module is a public name too
_EXPORTS = {
    "errors": ("ExpotransError", "InputError", "MathDomainError", "PrecisionError"),
    "exptransform": ("boundary_root", "eval_E", "nevanlinna_density", "rot_diag_b"),
    "finiteterm": ("BandCertificate", "BandProfile", "FilledMoments", "band_profile",
                   "detect_order", "fill_from_first_column", "fit_certificate"),
    "gallery": ("MatrixSource", "OperatorFamily", "a_for", "b_for", "resolve"),
    "heleshaw": ("ExteriorMoments", "confocal_ellipse", "exterior_moments", "inject",
                 "mother_body", "mother_body_moment", "squeeze", "zero_attraction"),
    "operators": ("BandedOperator", "RecursionState", "b_from_operator", "commutator_defect",
                  "ellipse_operator", "toeplitz_ellipse", "toeplitz_power", "trifoil_curve",
                  "trifoil_operator", "two_diagonal", "two_diagonal_state"),
    "orthopoly": ("CompletenessReport", "Hessenberg", "PolyBasis", "completeness_gap",
                  "hessenberg", "orthonormalize", "poly_zeros"),
    "reconstruct": ("GridFunction", "LegendreField", "RealMoments", "legendre_fit",
                    "real_moments", "reconstruct_from_certificate", "support_box"),
    "series": ("BiSeries", "ExpMoments", "MomentMatrix", "a_to_b", "b_to_a", "exp_neg", "log_neg"),
    "shapes": ("Annulus", "Box", "Disk", "Ellipse", "Grid", "Shape", "Sum", "Weighted",
               "cauchy_kernel_log", "moments"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    __import__(f"{__name__}.{module}")  # the builtin import, which -X importtime reports
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
