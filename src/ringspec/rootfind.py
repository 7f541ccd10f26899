"""Independent numeric oracle: polynomial roots and exact characteristic polynomials.

The package's closed-form spectral claims are all cross-checked against this
module, which knows nothing about those closed forms: it finds roots by
simultaneous (Aberth-Ehrlich) iteration and builds characteristic polynomials
by the Faddeev-LeVerrier trace recursion.

One Aberth iteration serves both arithmetics, on one route: the exact
square-free factorization of p (Yun's algorithm) splits it into factors whose
roots are all simple, and each factor is solved from its own companion
matrix's eigenvalues, in Python complex or, when the config sets a working
precision in decimal digits, in mpmath.  Double precision is enough for
degrees up to roughly 12; beyond that the monomial basis becomes badly
conditioned near the ends of the root interval (evaluation noise grows like
6**degree).  Every evaluation goes through one Horner pass that also bounds
its own rounding noise, and the iteration stops a root at that noise floor.
Individual roots can also be polished after the fact with
:func:`refine_root`: the same iteration from a single start, which is
Newton's method, run on the square-free part p / gcd(p, p')
(:func:`square_free_part`), computed exactly.  It has the same roots as p,
all simple, so Newton converges quadratically even where p has a double or
triple root.  Roots found in mpmath start their polishing with all their
digits.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple, Sequence

import mpmath
import numpy as np

from .polycore import IntPolynomial

#: Roots whose imaginary part lands below this are treated as possibly real
#: and get refined before any verdict.  Over every ring mask with n <= 16 the
#: real spectra come out of :func:`aberth_roots` within 3.9e-17 of the real
#: axis, while every essentially cyclic one has a conjugate pair with
#: |Im| >= 0.132.
SUSPICIOUS_IMAG_BAND = 1e-2


class AmbiguousSpectrumError(RuntimeError):
    """Raised when refinement cannot push a root clearly to either side."""


class NonConvergenceError(ValueError):
    """Raised when a verdict is asked of a root set that did not converge."""


@dataclass(frozen=True)
class RootFinderConfig:
    convergence_tol: float = 1e-13
    max_iterations: int = 500
    imag_threshold: float = 1e-6
    #: decimal digits for the iteration itself; None means double precision.
    working_dps: int | None = None

    def __post_init__(self):
        if self.convergence_tol <= 0 or self.imag_threshold <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.imag_threshold <= self.convergence_tol:
            raise ValueError("imag_threshold must exceed convergence_tol")


@dataclass(frozen=True)
class ComplexRootSet:
    """Roots of a real-coefficient polynomial with per-root residuals.

    ``residuals[i]`` is |p(z_i)| / (sum|a_k| * max(1,|z_i|)**degree).  The
    originating coefficients (ascending) ride along so that later refinement
    does not need a second argument, and so do the unrounded roots of the
    mpmath route, from which refinement starts.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool
    source: tuple = field(default=(), repr=False)
    #: the roots at the working precision that found them (mpmath route only)
    working: tuple = field(default=(), repr=False, compare=False)

    def max_abs_imag(self) -> float:
        return max(abs(z.imag) for z in self.roots)

    def to_json(self) -> list[list[float]]:
        return [[z.real, z.imag] for z in self.roots]


class RefinedRoot(NamedTuple):
    value: complex
    converged: bool


def _coefficients(p) -> tuple:
    coeffs = p.coefficients if isinstance(p, IntPolynomial) else tuple(p)
    if len(coeffs) < 2:
        raise ValueError("polynomial degree must be >= 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return tuple(coeffs)


def _horner(cs: Sequence, z):
    """p(z), p'(z) and pbar(|z|) = sum |c_k| |z|**k in one synthetic-division pass.

    ``cs`` holds ascending coefficients.  p and p' are computed in the
    arithmetic of ``cs`` and ``z`` (Python float and complex, or mpmath under
    its working precision); pbar only scales the rounding noise, so it is
    accumulated in double.
    """
    az = float(abs(z))
    pv, dv, pbar = cs[-1], 0, abs(float(cs[-1]))
    for c in cs[-2::-1]:
        dv = dv * z + pv
        pv = pv * z + c
        pbar = pbar * az + abs(float(c))
    return pv, dv, pbar


def _is_noise(pv, pbar, deg: int, eps) -> bool:
    """True when |p(z)| is within the rounding noise of evaluating p at z.

    Horner's rounding error is a small multiple of deg * eps * pbar(|z|),
    and 4 (deg + 1) covers complex arithmetic; an overflowed pbar settles
    nothing.
    """
    return abs(pv) <= 4 * (deg + 1) * eps * pbar < math.inf


def _residuals(coeffs: tuple, roots: Sequence[complex]) -> tuple[float, ...]:
    deg = len(coeffs) - 1
    scale_base = sum(abs(c) for c in map(float, coeffs))
    return tuple(abs(_horner(coeffs, z)[0]) / (scale_base * max(1.0, abs(z)) ** deg)
                 for z in roots)


def aberth_roots(p, cfg: RootFinderConfig = RootFinderConfig()) -> ComplexRootSet:
    """All complex roots of p by simultaneous Aberth-Ehrlich iteration.

    Each factor of :func:`_square_free_factors` is solved from its own
    starting points and each of its roots repeated by its multiplicity, so
    the iteration only ever meets simple roots (on a repeated root Aberth
    converges only linearly, and in double precision leaves it split by
    about sqrt(eps)).  A square-free p is solved from its own coefficients.
    The starting points are the eigenvalues of the companion matrix
    (``numpy.roots``), each nudged off the real axis by a different amount:
    a conjugate-symmetric start set stays symmetric under the iteration and
    can hold a conjugate pair on the real axis.  The iteration runs in double
    precision, or in mpmath at ``cfg.working_dps`` digits, which also keeps
    the roots at working precision in ``working``.  A root settles when its
    correction falls below convergence_tol * max(1, |z|) or, once it has
    taken a step, when |p(z)| reaches the evaluation-noise floor; hitting
    max_iterations, a blow-up or a companion matrix that double precision
    cannot hold reports ``converged=False`` rather than returning silent
    garbage.
    """
    coeffs = _coefficients(p)
    factors = _square_free_factors(coeffs)
    if [k for _, k in factors] == [1]:
        factors = [(coeffs, 1)]
    mp = cfg.working_dps is not None
    found, converged = [], True
    with mpmath.workdps(cfg.working_dps) if mp else nullcontext():
        real, cplx, eps = ((mpmath.mpf, mpmath.mpc, mpmath.mp.eps) if mp
                           else (float, complex, sys.float_info.epsilon))
        for factor, multiplicity in factors:
            try:
                cs = [real(c) for c in factor]
            except OverflowError:  # an integer factor beyond double range
                cs = [math.nan] * len(factor)
            zs, ok = _aberth(cs, [cplx(z) for z in _companion_starts(factor)],
                             real(cfg.convergence_tol), cfg.max_iterations, eps)
            found += [z for z in zs for _ in range(multiplicity)]
            converged = converged and ok
    roots = tuple(complex(z) for z in found)
    return ComplexRootSet(roots, _residuals(coeffs, roots), converged, coeffs,
                          tuple(found) if mp else ())


#: the smallest start nudge, relative to max(1, |z|): enough to leave the real
#: axis, small enough that a simple root settles in two sweeps
_START_NUDGE = 1e-10


def _companion_starts(coeffs: tuple) -> list[complex]:
    """Companion-matrix eigenvalues, start k moved up by (k + 1) nudges.

    NaN starts stand for a companion matrix that double precision cannot hold.
    """
    try:
        with np.errstate(all="ignore"):
            eigs = np.roots([float(c) for c in reversed(coeffs)])
    except (np.linalg.LinAlgError, OverflowError):  # beyond double range
        return [complex(math.nan, math.nan)] * (len(coeffs) - 1)
    return [complex(z) + 1j * _START_NUDGE * (k + 1) * max(1.0, abs(z))
            for k, z in enumerate(eigs)]


def _aberth(cs: Sequence, starts: Sequence, tol, max_iterations: int, eps):
    """Aberth-Ehrlich iteration over the number type of ``cs`` and ``starts``.

    Returns (roots, converged).  The correction p / (p' - p * sum_j
    1/(z_i - z_j)) is applied in place, one root at a time; with one start
    there are no neighbours and it is Newton's step.  A root settles when its
    correction falls below tol * max(1, |z|) or, from the second sweep on,
    when p(z) is zero to working precision; a settled root stops moving but
    still repels the others.  A root whose correction has a zero denominator
    stays active.  A non-finite iterate or two coinciding ones end the
    iteration unconverged, and so does a sweep after the first that moves no
    root while some stay active: the next sweep would repeat it exactly.
    """
    deg = len(cs) - 1
    z = list(starts)
    active = range(len(z))
    for sweep in range(max_iterations):
        still = []
        moved = False
        for i in active:
            zi = z[i]
            pv, dv, pbar = _horner(cs, zi)
            # the starts are perturbed on purpose, so every root takes one
            # step before the noise floor may settle it
            if sweep and _is_noise(pv, pbar, deg, eps):
                continue
            try:
                s = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
            except ZeroDivisionError:
                return z, False
            denom = dv - pv * s
            if denom == 0:  # no step from here; the neighbours may move
                still.append(i)
                continue
            w = pv / denom
            zn = zi - w
            if not abs(zn) < math.inf:
                return z, False
            z[i] = zn
            moved = True
            if abs(w) >= tol * max(1, abs(zn)):
                still.append(i)
        active = still
        if not active:
            return z, True
        if sweep and not moved:
            return z, False
    return z, False


def _primitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients, leading coefficient positive."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return [v // c for v in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of a mod b (ascending coefficients)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db:
        g = math.gcd(lb, r[-1])
        fb, fr = lb // g, r[-1] // g
        shift = len(r) - 1 - db
        r = [v * fb for v in r]
        for i, c in enumerate(b):
            r[i + shift] -= fr * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b, for a divisor b whose quotient has integer coefficients."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + db] // lb
        for i, v in enumerate(b):
            r[i + k] -= c * v
    if any(r):
        raise ArithmeticError("polynomial division not exact")
    return q


def _integer_coefficients(p) -> tuple[tuple, list[int]]:
    """p's coefficients and their primitive integer multiple.

    Float coefficients are converted losslessly through ``Fraction``.
    """
    coeffs = _coefficients(p)
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return coeffs, _primitive([int(f * den) for f in fracs])


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of a and a primitive b of lower degree.

    The last nonzero term of the primitive remainder sequence; [1] when the
    sequence ends in a constant.
    """
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def square_free_part(p) -> tuple:
    """p / gcd(p, p'): the same roots as p, each of them simple.

    Exact throughout (see :func:`_integer_coefficients` and :func:`_gcd`).  A
    square-free p comes back unchanged; otherwise the result has primitive
    integer coefficients (ascending) with a positive leading one.
    """
    coeffs, ints = _integer_coefficients(p)
    g = _gcd(ints, _primitive(_derivative(ints)))
    return coeffs if len(g) == 1 else tuple(_exact_quotient(ints, g))


def _square_free_factors(p) -> list[tuple[list[int], int]]:
    """Yun's square-free factorization: [(a_k, k)] with p = c * prod a_k**k.

    Each a_k is square-free, primitive, of positive leading coefficient and
    of degree >= 1, and the a_k are pairwise coprime, so every root of p is
    a simple root of exactly one a_k and k is its multiplicity.  With
    b_1 = p / g, c_1 = p' / g for g = gcd(p, p'), each step takes
    d_k = c_k - b_k', a_k = gcd(b_k, d_k), b_{k+1} = b_k / a_k and
    c_{k+1} = d_k / a_k until b is constant (Yun, SYMSAC 1976).  b and c are
    divided by the same polynomials, so they keep a common scale and d_k is
    exact; by Gauss's lemma every quotient has integer coefficients.
    """
    _, b = _integer_coefficients(p)
    c = _derivative(b)
    g = _gcd(b, _primitive(c))
    b, c = _exact_quotient(b, g), _exact_quotient(c, g)
    factors = []
    k = 1
    while len(b) > 1:
        d = [x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)]
        while d and d[-1] == 0:
            d.pop()
        a = _gcd(b, _primitive(d)) if d else b
        if len(a) > 1:
            factors.append((a, k))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        k += 1
    return factors


def refine_root(p, z: complex, dps: int = 60, max_steps: int = 90, *,
                square_free: bool = False) -> RefinedRoot:
    """Newton-polish one approximate root in high-precision arithmetic.

    Newton runs on :func:`square_free_part` of p, where every root is simple
    and convergence is quadratic; ``square_free=True`` says p already is
    square-free, so a caller refining many roots computes that part once.
    Evaluation uses the exact coefficients (integers, or floats converted
    losslessly), so split multiple roots collapse back onto the real axis
    instead of stalling at the double-precision noise floor.  The iteration
    is :func:`aberth_roots`' own, from the single start z at ``dps`` digits
    (z may be an mpmath number, which keeps its extra digits): it stops when
    a step falls below 10**-(dps - 10) relative, or when |p(z)| reaches the
    rounding noise of evaluating p; a degree-40 polynomial reaches that
    floor before its steps get that small.
    Divergence, a vanishing derivative or ``max_steps`` without settling
    returns the input, as a complex, with ``converged=False``.
    """
    coeffs = _coefficients(p) if square_free else square_free_part(p)
    with mpmath.workdps(dps):
        (zz,), converged = _aberth([mpmath.mpf(c) for c in coeffs], [mpmath.mpc(z)],
                                   mpmath.mpf(10) ** (-(dps - 10)), max_steps,
                                   mpmath.mp.eps)
        return RefinedRoot(complex(zz), True) if converged else RefinedRoot(complex(z), False)


def refine_all(rootset: ComplexRootSet, dps: int = 60) -> ComplexRootSet:
    """Newton-polish every root of a converged root set on its square-free part.

    Newton starts from the working-precision roots when the set carries
    them, so digits already found are not won back step by step.
    """
    q = square_free_part(rootset.source)
    refined = []
    for z, start in zip(rootset.roots, rootset.working or rootset.roots):
        rr = refine_root(q, start, dps=dps, square_free=True)
        refined.append(rr.value if rr.converged else z)
    roots = tuple(refined)
    return ComplexRootSet(roots, _residuals(rootset.source, roots),
                          rootset.converged, rootset.source)


def char_poly_exact(matrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of an integer matrix.

    Faddeev-LeVerrier trace recursion over arbitrary-precision integers; the
    per-step divisions are exact for integer input.  Each step multiplies by
    M row by row over its nonzero entries, so a matrix with a bounded number
    of nonzeros per row (ring and path Laplacians have at most three) costs
    O(n**2) per step instead of O(n**3).  Returns a monic polynomial of
    degree n with ascending coefficients.
    """
    rows = [[int(v) for v in row] for row in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = [0] * (n + 1)
    cs[n] = 1  # leading coefficient of x**n
    for k in range(1, n + 1):
        aux = _int_mat_mul(rows, aux)
        trace = sum(aux[i][i] for i in range(n))
        if trace % k != 0:
            raise ArithmeticError("trace recursion division not exact")
        ck = -(trace // k)
        cs[n - k] = ck
        for i in range(n):
            aux[i][i] += ck
    return IntPolynomial(cs)


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Integer product a @ b that skips the zero entries of a."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def char_poly_float(matrix) -> list[float]:
    """Faddeev-LeVerrier in floating point, for real (weighted) matrices.

    Accurate far below the test tolerances for the n <= 8 sizes it serves.
    Returns ascending coefficients of the monic characteristic polynomial;
    raises ValueError when one of them overflows double precision.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    aux = np.eye(n)
    cs = [0.0] * (n + 1)
    cs[n] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            prod = m @ aux
            ck = -np.trace(prod) / k
            cs[n - k] = float(ck)
            aux = prod + ck * np.eye(n)
    if not all(math.isfinite(c) for c in cs):
        raise ValueError("characteristic polynomial overflows double precision")
    return cs


def spectral_verdict(rootset: ComplexRootSet, cfg: RootFinderConfig = RootFinderConfig()) -> bool:
    """True when the spectrum genuinely contains a non-real eigenvalue.

    Roots whose imaginary part falls in the suspicious band are first pushed
    through :func:`refine_root` on the square-free part of the polynomial; a
    real root that came out slightly off the axis collapses back, a true
    conjugate pair does not.  If refinement leaves a root strictly between
    the convergence tolerance and the imaginary threshold the answer is
    undecidable and an :class:`AmbiguousSpectrumError` is raised.
    """
    if not rootset.converged:
        raise NonConvergenceError("root set did not converge; no verdict possible")
    imags = []
    for z in rootset.roots:
        ai = abs(z.imag)
        if cfg.convergence_tol < ai <= SUSPICIOUS_IMAG_BAND:
            rr = refine_root(rootset.source, z)
            if rr.converged:
                ai = abs(rr.value.imag)
        imags.append(ai)
    top = max(imags)
    if top > cfg.imag_threshold:
        return True
    if top > cfg.convergence_tol:
        raise AmbiguousSpectrumError(
            f"root with |Im| = {top:.3e} sits between the convergence tolerance "
            f"({cfg.convergence_tol:.0e}) and the imaginary threshold "
            f"({cfg.imag_threshold:.0e}) after refinement"
        )
    return False
