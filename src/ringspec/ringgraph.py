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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rootfind
from .polycore import (
    IntPolynomial,
    classify_product_real,
    poly_product,
    poly_shift_const,
    w_poly,
    z_poly,
)
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
    """Ring-structure digraph: size plus the presence mask of reverse arcs.

    ``decomposition`` holds the :class:`GapDecomposition` of the mask,
    computed once by :func:`decompose` on construction.  It is not a field:
    equality, hashing and the repr see n and the mask only.
    """

    n: int
    reverse_mask: tuple[bool, ...]

    def __init__(self, n: int, reverse_mask):
        if n < 3:
            raise ValueError(f"ring digraphs need n >= 3, got {n}")
        mask = tuple(map(bool, reverse_mask))
        if len(mask) != n:
            raise ValueError(f"mask length {len(mask)} != n = {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reverse_mask", mask)
        object.__setattr__(self, "decomposition", decompose(self))

    @classmethod
    def from_mask_string(cls, n: int, mask: str) -> "RingDigraph":
        """Parse an n-character '0'/'1' string ('1' = reverse arc present)."""
        if len(mask) != n or any(ch not in "01" for ch in mask):
            raise ValueError(f"mask must be {n} characters of 0/1, got {mask!r}")
        return cls(n, tuple(ch == "1" for ch in mask))

    def mask_string(self) -> str:
        return "".join("1" if b else "0" for b in self.reverse_mask)


class GapDecomposition(NamedTuple):
    """Cyclic distances i_1, ..., i_K between the missing reverse arcs.

    Empty when no arc is missing or all are; otherwise the gaps sum to n.
    A tuple (K, gaps): it hashes and compares as one, in C, so it equals
    the plain tuple with the same entries, and the two empty cases differ
    by K alone (``GapDecomposition(0, ()) != GapDecomposition(n, ())``).
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
    absent = [j for j, present in enumerate(g.reverse_mask, 1) if not present]
    k = len(absent)
    if k == 0 or k == g.n:
        return GapDecomposition(k, ())
    ends = absent[1:] + [absent[0] + g.n]
    return GapDecomposition(k, tuple([b - a for a, b in zip(absent, ends)]))


def char_poly(g: RingDigraph) -> IntPolynomial:
    """Exact Laplacian characteristic polynomial from the gap decomposition.

    For 1 <= K <= n-1 this is prod_k Z_{i_k} - (-1)**n, the product taken
    in one Kronecker substitution (:func:`ringspec.polycore.poly_product`:
    one pack per gap, one big-integer product, one unpack).  The bare cycle
    (K = n) expands (x-1)**n - (-1)**n directly; the symmetric ring (K = 0)
    is the Chebyshev closed form W_n - 2*(-1)**n with W_n(x) = 2*T_n((x-2)/2)
    (:func:`ringspec.polycore.w_poly`).  No branch calls the numeric oracle.
    """
    n, dec = g.n, g.decomposition
    if dec.K == n:
        coeffs = [math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]
        return poly_shift_const(IntPolynomial(coeffs), -((-1) ** n))
    if dec.K == 0:
        return poly_shift_const(w_poly(n), -2 * (-1) ** n)
    return poly_shift_const(poly_product(z_poly(gap) for gap in dec.gaps), -((-1) ** n))


def closed_form_spectrum(g: RingDigraph) -> list[complex] | None:
    """Closed-form Laplacian spectrum, where one exists (see :func:`classify_exact`)."""
    spectrum = classify_exact(g).closed_form_spectrum
    return None if spectrum is None else list(spectrum)


#: the verdicts without a closed form, shared by every such mask (frozen)
_SPLIT = Classification(True, CASE_SPLIT)
_MULTI_GAP = Classification(True, CASE_MULTI_GAP)

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
      roots.  Every other mask has a conjugate pair and no formula, and
      gets one shared verdict per case.
    """
    n, dec = g.n, g.decomposition
    if dec.K == n:
        return Classification(True, CASE_FULL_CYCLE, tuple(
            complex(2 * math.sin(math.pi * k / n) ** 2, math.sin(2 * math.pi * k / n))
            for k in range(1, n + 1)))
    if dec.K == 0:
        return Classification(False, CASE_SYMMETRIC, tuple(
            complex(4 * math.sin(math.pi * k / n) ** 2, 0.0) for k in range(n)))
    verdict = classify_product_real(dec.gaps, (n + 1) % 2)
    if not verdict.all_real:
        return _SPLIT if dec.K == 2 else _MULTI_GAP
    return Classification(False, _REAL_CASES[verdict.case_label],
                          tuple(complex(r * r, 0.0) for r in verdict.roots[n:]))


def spectrum_numeric(g: RingDigraph, cfg: RootFinderConfig = RootFinderConfig()) -> ComplexRootSet:
    """Numeric Laplacian spectrum from the matrix alone, certified exactly.

    The approximations are ``numpy.linalg.eigvals`` of the float
    :func:`laplacian`; :func:`ringspec.rootfind.certify_roots` proves them
    against the matrix's own polynomial :func:`ringspec.rootfind.char_poly_exact`
    (the result's ``source``), never the gap product.
    """
    mat = laplacian(g)
    return rootfind.certify_roots(rootfind.char_poly_exact(mat),
                                  np.linalg.eigvals(np.array(mat, dtype=float)), cfg)


def classification_record(g: RingDigraph) -> dict:
    """JSON-ready record of the full classification of one ring digraph.

    The spectrum is the closed form where there is one, else null.
    """
    dec = g.decomposition
    cls = classify_exact(g)
    spectrum = cls.closed_form_spectrum
    return {
        "n": g.n,
        "mask": g.mask_string(),
        "K": dec.K,
        "gaps": list(dec.gaps),
        "essentially_cyclic": cls.essentially_cyclic,
        "case": cls.case,
        "spectrum": None if spectrum is None else [[z.real, z.imag] for z in spectrum],
        "char_poly": char_poly(g).to_json(),
    }


def exhaustive_scan(n: int) -> dict:
    """Compare the exact classifier with the Sturm verdict over all 2**n masks.

    Each mask is built, and so decomposed, once.  Both verdicts are memoized
    per gap decomposition, a tuple that hashes and compares in C:
    :func:`classify_exact` runs on one mask of every distinct gap
    decomposition, which is all it reads.  Masks with the same
    gap multiset share a characteristic polynomial (the product of Z factors
    does not depend on gap order), so the second verdict,
    :func:`ringspec.rootfind.spectral_verdict` on the matrix's own polynomial
    :func:`ringspec.rootfind.char_poly_exact` of :func:`laplacian`, runs once
    per (K, sorted gaps); it shares no code with the exact classifier.
    Returns the sorted mask strings of any disagreements and how many
    decompositions were classified and multisets checked.  The ``ambiguous``
    list is always empty: the Sturm count leaves no verdict open.
    """
    verdicts: dict[GapDecomposition, tuple[bool, bool]] = {}
    numeric: dict[tuple, bool] = {}
    disagreements: list[str] = []
    for mask in itertools.product((False, True), repeat=n):
        g = RingDigraph(n, mask)
        dec = g.decomposition
        pair = verdicts.get(dec)
        if pair is None:
            key = (dec.K, tuple(sorted(dec.gaps)))
            if key not in numeric:
                numeric[key] = rootfind.spectral_verdict(rootfind.char_poly_exact(laplacian(g)))
            pair = verdicts[dec] = (classify_exact(g).essentially_cyclic, numeric[key])
        exact, verdict = pair
        if verdict != exact:
            disagreements.append(g.mask_string())
    return {
        "n": n,
        "instances": 2 ** n,
        "disagreements": sorted(disagreements),
        "ambiguous": [],
        "decompositions": len(verdicts),
        "multisets": len(numeric),
    }
