"""Digraphs with ring structure: model, Laplacian, exact spectra, classifier.

A ring digraph on vertices 1..n always carries the forward Hamiltonian cycle
(1,n), (n,n-1), ..., (2,1) and, independently per position, the reverse arcs
(1,2), (2,3), ..., (n,1).  The boolean ``reverse_mask`` is the complete
description: entry j-1 (0-based) says whether the reverse arc out of vertex j
is present.  All-true gives the symmetric ring; all-false the bare directed
cycle.

The central exact result implemented here: writing i_1, ..., i_K for the
cyclic distances between the missing reverse arcs, the Laplacian
characteristic polynomial is ``prod_k Z_{i_k}(x) - (-1)**n`` (with Z from
:mod:`ringspec.polycore`).  Because Z_i(x**2) = U_2i, substituting x**2
gives ``prod_k U_{2 i_k} + (-1)**(n+1)``, so the classification is the
by-product theorem on such products,
:func:`ringspec.polycore.classify_product_real`, applied to the gaps: the
spectrum is completely real in exactly three shapes of mask (one reverse
arc missing, or two missing at (near-)maximal distance) besides the
symmetric ring, and then known in closed form.  Only the two masks without
gaps, the symmetric ring and the bare cycle, have their own formulas here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rootfind
from .polycore import IntPolynomial, classify_product_real, poly_shift_const, w_poly, z_poly
from .rootfind import ComplexRootSet, RootFinderConfig

CASE_FULL_CYCLE = "full-cycle"
CASE_SYMMETRIC = "symmetric"
CASE_SINGLE_GAP = "single-gap"
CASE_BALANCED = "balanced-gaps"
CASE_NEAR_BALANCED = "near-balanced-gaps"
CASE_SPLIT = "split-gaps"
CASE_MULTI_GAP = "multi-gap"


@dataclass(frozen=True)
class RingDigraph:
    """Ring-structure digraph: size plus the presence mask of reverse arcs."""

    n: int
    reverse_mask: tuple[bool, ...]

    def __init__(self, n: int, reverse_mask):
        if n < 3:
            raise ValueError(f"ring digraphs need n >= 3, got {n}")
        mask = tuple(bool(b) for b in reverse_mask)
        if len(mask) != n:
            raise ValueError(f"mask length {len(mask)} != n = {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reverse_mask", mask)

    @classmethod
    def from_mask_string(cls, n: int, mask: str) -> "RingDigraph":
        """Parse an n-character '0'/'1' string ('1' = reverse arc present)."""
        if len(mask) != n or any(ch not in "01" for ch in mask):
            raise ValueError(f"mask must be {n} characters of 0/1, got {mask!r}")
        return cls(n, tuple(ch == "1" for ch in mask))

    def mask_string(self) -> str:
        return "".join("1" if b else "0" for b in self.reverse_mask)


@dataclass(frozen=True)
class GapDecomposition:
    """Cyclic distances i_1, ..., i_K between the missing reverse arcs.

    Empty when no arc is missing or all are; otherwise the gaps sum to n.
    """

    K: int
    gaps: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    essentially_cyclic: bool
    case: str
    closed_form_spectrum: tuple[complex, ...] | None = None


def arcs(g: RingDigraph) -> list[tuple[int, int]]:
    """All arcs as 1-based (tail, head) pairs, forward cycle first."""
    out = [(1, g.n)] + [(v, v - 1) for v in range(2, g.n + 1)]
    for j in range(1, g.n + 1):
        if g.reverse_mask[j - 1]:
            out.append((j, j % g.n + 1))
    return out


def laplacian(g: RingDigraph) -> list[list[int]]:
    """Out-degree Laplacian: -1 per arc (u, v) at (u, v), zero row sums."""
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for u, v in arcs(g):
        mat[u - 1][v - 1] -= 1
        mat[u - 1][u - 1] += 1
    return mat


def decompose(g: RingDigraph) -> GapDecomposition:
    """Gap decomposition of the mask's false positions."""
    absent = [j for j in range(1, g.n + 1) if not g.reverse_mask[j - 1]]
    k = len(absent)
    if k == 0 or k == g.n:
        return GapDecomposition(k, ())
    gaps = [
        (absent[(idx + 1) % k] - pos) % g.n or g.n
        for idx, pos in enumerate(absent)
    ]
    return GapDecomposition(k, tuple(gaps))


def canonical_form(g: RingDigraph) -> RingDigraph:
    """Lexicographically minimal rotation of the mask.

    Two ring digraphs are isomorphic via a cyclic relabeling exactly when
    their canonical forms coincide.
    """
    mask = g.mask_string()
    best = min(mask[r:] + mask[:r] for r in range(g.n))
    return RingDigraph.from_mask_string(g.n, best)


def char_poly(g: RingDigraph) -> IntPolynomial:
    """Exact Laplacian characteristic polynomial from the gap decomposition.

    For 1 <= K <= n-1 this is prod_k Z_{i_k} - (-1)**n.  The bare cycle
    (K = n) expands (x-1)**n - (-1)**n directly; the symmetric ring (K = 0)
    is the Chebyshev closed form W_n - 2*(-1)**n with W_n(x) = 2*T_n((x-2)/2)
    (:func:`ringspec.polycore.w_poly`).  No branch calls the numeric oracle.
    """
    dec = decompose(g)
    n = g.n
    if dec.K == n:
        coeffs = [math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]
        return poly_shift_const(IntPolynomial(coeffs), -((-1) ** n))
    if dec.K == 0:
        return poly_shift_const(w_poly(n), -2 * (-1) ** n)
    prod = IntPolynomial([1])
    for gap in dec.gaps:
        prod = prod * z_poly(gap)
    return poly_shift_const(prod, -((-1) ** n))


def closed_form_spectrum(g: RingDigraph) -> list[complex] | None:
    """Closed-form Laplacian spectrum, where one exists (see :func:`classify_exact`)."""
    spectrum = classify_exact(g).closed_form_spectrum
    return None if spectrum is None else list(spectrum)


#: case labels of :func:`ringspec.polycore.classify_product_real` for the
#: three all-real gap shapes
_REAL_CASES = {
    "single-factor": CASE_SINGLE_GAP,
    "equal-pair": CASE_BALANCED,
    "adjacent-pair": CASE_NEAR_BALANCED,
}


def classify_exact(g: RingDigraph) -> Classification:
    """Exact essential-cyclicity verdict and closed-form spectrum from the gaps.

    * K = n (bare cycle): cyclic, 2*sin(pi*k/n)**2 + i*sin(2*pi*k/n),
      k = 1..n.
    * K = 0 (symmetric ring): real, 4*sin(pi*k/n)**2, k = 0..n-1, the
      circulant eigenvalues (the sum equals the trace 2n, which pins this
      form down).
    * 1 <= K <= n-1: since Z_i(x**2) = U_2i, the characteristic polynomial
      at x**2 is ``product_polynomial(gaps, (n + 1) % 2)``, and
      :func:`ringspec.polycore.classify_product_real` decides it.  The
      spectrum is real for one gap, or two gaps differing by at most one;
      the eigenvalues are then the squares of the product's n largest
      roots.  Every other mask has a conjugate pair and no formula.
    """
    dec = decompose(g)
    n = g.n
    if dec.K == n:
        return Classification(True, CASE_FULL_CYCLE, tuple(
            complex(2 * math.sin(math.pi * k / n) ** 2, math.sin(2 * math.pi * k / n))
            for k in range(1, n + 1)))
    if dec.K == 0:
        return Classification(False, CASE_SYMMETRIC, tuple(
            complex(4 * math.sin(math.pi * k / n) ** 2, 0.0) for k in range(n)))
    verdict = classify_product_real(dec.gaps, (n + 1) % 2)
    if not verdict.all_real:
        return Classification(True, CASE_SPLIT if dec.K == 2 else CASE_MULTI_GAP)
    return Classification(False, _REAL_CASES[verdict.case_label],
                          tuple(complex(r * r, 0.0) for r in verdict.roots[n:]))


def spectrum_numeric(g: RingDigraph, cfg: RootFinderConfig = RootFinderConfig()) -> ComplexRootSet:
    """Numeric Laplacian spectrum: root-find the exact characteristic polynomial."""
    return rootfind.aberth_roots(char_poly(g), cfg)


def classification_record(
    g: RingDigraph,
    cfg: RootFinderConfig | None = None,
    spectrum: ComplexRootSet | None = None,
) -> dict:
    """JSON-ready record of the full classification of one ring digraph."""
    dec = decompose(g)
    cls = classify_exact(g)
    if spectrum is None and cfg is not None:
        spectrum = spectrum_numeric(g, cfg)
    if spectrum is not None:
        spec_json = spectrum.to_json()
    elif cls.closed_form_spectrum is not None:
        spec_json = [[z.real, z.imag] for z in cls.closed_form_spectrum]
    else:
        spec_json = None
    return {
        "n": g.n,
        "mask": g.mask_string(),
        "K": dec.K,
        "gaps": list(dec.gaps),
        "essentially_cyclic": cls.essentially_cyclic,
        "case": cls.case,
        "spectrum": spec_json,
        "char_poly": char_poly(g).to_json(),
    }


def slowest_complex_pair(roots: ComplexRootSet, imag_threshold: float = 1e-6) -> complex | None:
    """Among non-real roots, the one with smallest real part and positive imag."""
    candidates = [z for z in roots.roots if z.imag > imag_threshold]
    if not candidates:
        return None
    return min(candidates, key=lambda z: (z.real, -z.imag))


def exhaustive_scan(n: int, cfg: RootFinderConfig = RootFinderConfig()) -> dict:
    """Compare the exact classifier with the numeric verdict over all 2**n masks.

    Masks with the same gap multiset share a characteristic polynomial (the
    product of Z factors does not depend on gap order), so the numeric
    verdict is memoized per (K, sorted gaps): the gap product, the root
    solve and the verdict run once per multiset, the exact classifier on
    every mask.  Returns mask strings of any disagreements and of masks
    where the numeric verdict was ambiguous, both sorted.
    """
    verdicts: dict[tuple, bool | None] = {}
    disagreements: list[str] = []
    ambiguous: list[str] = []
    for bits in range(2 ** n):
        mask = tuple(bool((bits >> j) & 1) for j in range(n))
        g = RingDigraph(n, mask)
        dec = decompose(g)
        key = (dec.K, tuple(sorted(dec.gaps)))
        if key not in verdicts:
            try:
                verdicts[key] = rootfind.spectral_verdict(
                    rootfind.aberth_roots(char_poly(g), cfg), cfg)
            except rootfind.AmbiguousSpectrumError:
                verdicts[key] = None
        numeric = verdicts[key]
        if numeric is None:
            ambiguous.append(g.mask_string())
        elif numeric != classify_exact(g).essentially_cyclic:
            disagreements.append(g.mask_string())
    return {
        "n": n,
        "instances": 2 ** n,
        "disagreements": sorted(disagreements),
        "ambiguous": sorted(ambiguous),
    }
