"""ringspec: exact and numeric Laplacian spectral analysis of ring digraphs.

A ring digraph is a directed Hamiltonian cycle plus any subset of the
opposite cycle's arcs.  This package decides exactly which of them have a
completely real Laplacian spectrum, computes the spectra in closed form and
numerically, analyzes small weighted variants, counts spanning converging
trees, and demonstrates the link between non-real eigenvalues and oscillating
consensus dynamics.  Every closed-form claim is cross-checked against an
independent numeric pipeline (exact characteristic polynomials, matrix
eigenvalues certified exactly against them, and Sturm counts).
"""

from .polycore import (
    IntPolynomial,
    LandmarkRoots,
    RealRootVerdict,
    cheb_u,
    classify_product_real,
    eval_exact,
    landmark_roots,
    poly_mul,
    poly_product,
    poly_shift_const,
    product_bound_witness,
    w_poly,
    z_poly,
    z_roots,
    z_shifted_roots,
)
from .ringgraph import (
    Classification,
    GapDecomposition,
    RingDigraph,
    char_poly,
    classify_exact,
    closed_form_spectrum,
    decompose,
    laplacian,
    spectrum_numeric,
)
from .rootfind import (
    ComplexRootSet,
    RootFinderConfig,
    certify_roots,
    char_poly_exact,
    char_poly_float,
    refine_all,
    spectral_verdict,
)

__all__ = [
    "IntPolynomial",
    "LandmarkRoots",
    "RealRootVerdict",
    "cheb_u",
    "classify_product_real",
    "eval_exact",
    "landmark_roots",
    "poly_mul",
    "poly_product",
    "poly_shift_const",
    "product_bound_witness",
    "w_poly",
    "z_poly",
    "z_roots",
    "z_shifted_roots",
    "Classification",
    "GapDecomposition",
    "RingDigraph",
    "char_poly",
    "classify_exact",
    "closed_form_spectrum",
    "decompose",
    "laplacian",
    "spectrum_numeric",
    "ComplexRootSet",
    "RootFinderConfig",
    "certify_roots",
    "char_poly_exact",
    "char_poly_float",
    "refine_all",
    "spectral_verdict",
]
