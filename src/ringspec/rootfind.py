"""Independent numeric oracle: polynomial roots and exact characteristic polynomials.

The package's closed-form spectral claims are all cross-checked against this
module, which knows nothing about those closed forms: it finds roots by
simultaneous (Aberth-Ehrlich) iteration and builds characteristic polynomials
by the Faddeev-LeVerrier trace recursion.

Double precision is enough for degrees up to roughly 12.  Beyond that the
monomial basis becomes badly conditioned near the ends of the root interval
(evaluation noise grows like 6**degree), so the config exposes a working
precision in decimal digits; when set, the iteration runs in mpmath arithmetic
on the exact coefficients.  Individual roots can also be polished after the
fact with :func:`refine_root`.  Polishing runs Newton's method on the
square-free part p / gcd(p, p') (:func:`square_free_part`), computed exactly:
it has the same roots as p, all simple, so Newton converges quadratically
even where p has a double or triple root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath
import numpy as np

from .polycore import IntPolynomial

#: Roots whose imaginary part lands below this are treated as possibly-real
#: artifacts of a split multiple root and get refined before any verdict.
#: Double precision splits the symmetric ring's double roots by up to 4.9e-3
#: at n = 16, while every essentially cyclic ring mask with n <= 16 has a
#: conjugate pair with |Im| >= 0.132.
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
    refine_suspicious: bool = True
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
    does not need a second argument.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool
    source: tuple = field(default=(), repr=False)

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


def _residuals(coeffs: tuple, roots: Sequence[complex]) -> tuple[float, ...]:
    deg = len(coeffs) - 1
    scale_base = sum(abs(c) for c in map(float, coeffs))
    out = []
    for z in roots:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + complex(c)
        out.append(abs(acc) / (scale_base * max(1.0, abs(z)) ** deg))
    return tuple(out)


def aberth_roots(p, cfg: RootFinderConfig = RootFinderConfig()) -> ComplexRootSet:
    """All complex roots of p by simultaneous Aberth-Ehrlich iteration.

    Starting points sit on the circle of radius 1 + max|a_i/a_d| at equally
    spaced angles with a half-step offset.  Iteration stops when every
    correction falls below convergence_tol * max(1, |z|) or the residual hits
    the evaluation-noise floor; hitting max_iterations instead reports
    ``converged=False`` rather than returning silent garbage.
    """
    coeffs = _coefficients(p)
    if cfg.working_dps is not None:
        return _aberth_mp(coeffs, cfg)
    return _aberth_double(coeffs, cfg)


def _initial_circle(deg: int, radius: float) -> np.ndarray:
    # the 2% radius taper breaks conjugate symmetry of the start set; real
    # polynomials otherwise keep symmetric iterates locked together, which
    # deadlocks a conjugate pair between two adjacent real roots
    angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg
    radii = radius * (1.0 + 0.02 * (np.arange(deg) + 1.0) / deg)
    return radii * np.exp(1j * angles)


def _fujiwara_radius(monic_abs: Sequence[float]) -> float:
    """Fujiwara root bound for a monic polynomial, given |coefficients|.

    Much tighter than the Cauchy bound 1 + max|a_i| when coefficients are
    huge, which keeps the starting circle inside the range where double
    Horner evaluation cannot overflow.
    """
    deg = len(monic_abs) - 1
    terms = []
    for k in range(1, deg + 1):
        a = monic_abs[deg - k] / (2.0 if k == deg else 1.0)
        if a > 0:
            terms.append(a ** (1.0 / k))
    return 2.0 * max(terms) if terms else 1.0


def _aberth_double(coeffs: tuple, cfg: RootFinderConfig) -> ComplexRootSet:
    monic = np.asarray(coeffs, dtype=np.complex128)
    monic = monic / monic[-1]
    deg = len(monic) - 1
    deriv = monic[1:] * np.arange(1, deg + 1)
    abs_monic = np.abs(monic)

    if deg == 1:
        z = np.array([-monic[0]])
    else:
        z = _initial_circle(deg, _fujiwara_radius(abs_monic))

    eps = np.finfo(np.float64).eps
    converged = False
    for _ in range(cfg.max_iterations):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pv = np.zeros_like(z)
            for c in monic[::-1]:
                pv = pv * z + c
            dv = np.zeros_like(z)
            for c in deriv[::-1]:
                dv = dv * z + c
            # running magnitude of the evaluation, for the roundoff-noise floor
            az = np.abs(z)
            pbar = np.zeros_like(az)
            for c in abs_monic[::-1]:
                pbar = pbar * az + c
            noise = 4.0 * (deg + 1) * eps * pbar
            settled = np.isfinite(pbar) & (np.abs(pv) <= noise)

            ratio = np.where(dv != 0, pv / np.where(dv != 0, dv, 1.0), 0.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            pair_sum = np.sum(1.0 / diff, axis=1)
            w = ratio / (1.0 - ratio * pair_sum)
        w = np.where(np.isfinite(w), w, ratio)
        w = np.where(settled, 0.0, w)
        z_next = z - w
        if not np.all(np.isfinite(z_next)):
            break  # blow-up: report non-convergence, never silent garbage
        z = z_next
        if np.all(settled | (np.abs(w) < cfg.convergence_tol * np.maximum(1.0, np.abs(z)))):
            converged = True
            break

    roots = tuple(complex(v) for v in z)
    return ComplexRootSet(roots, _residuals(coeffs, roots), converged, coeffs)


def _aberth_mp(coeffs: tuple, cfg: RootFinderConfig) -> ComplexRootSet:
    deg = len(coeffs) - 1
    # the double-precision result is inaccurate at high degree but is a fine
    # warm start; fall back to the starting circle when it blew up
    warm = _aberth_double(coeffs, RootFinderConfig(
        convergence_tol=cfg.convergence_tol,
        max_iterations=min(cfg.max_iterations, 200),
        imag_threshold=cfg.imag_threshold,
        refine_suspicious=False,
    ))
    warm_ok = all(
        math.isfinite(v.real) and math.isfinite(v.imag) for v in warm.roots
    ) and warm.converged
    with mpmath.workdps(cfg.working_dps):
        lead = mpmath.mpf(coeffs[-1])
        cs = [mpmath.mpf(c) / lead for c in coeffs]
        if warm_ok:
            z = [mpmath.mpc(v) for v in warm.roots]
        else:
            radius = _fujiwara_radius([abs(c) for c in cs])
            z = [
                mpmath.mpc(radius) * (1 + mpmath.mpf(i + 1) / (50 * deg))
                * mpmath.expjpi(mpmath.mpf(2 * i + 1) / deg)
                for i in range(deg)
            ]
        tol = mpmath.mpf(cfg.convergence_tol)
        active = list(range(deg))
        converged = False
        for _ in range(cfg.max_iterations):
            corrections = {}
            for i in active:
                # synthetic division: p and p' in one pass
                pv = mpmath.mpc(cs[-1])
                dv = mpmath.mpc(0)
                for c in cs[-2::-1]:
                    dv = dv * z[i] + pv
                    pv = pv * z[i] + c
                if pv == 0:
                    corrections[i] = mpmath.mpc(0)
                    continue
                if dv == 0:
                    corrections[i] = mpmath.mpc(0)  # exact multiple-root hit
                    continue
                ratio = pv / dv
                s = mpmath.mpc(0)
                for j in range(deg):
                    if j != i:
                        s += 1 / (z[i] - z[j])
                denom = 1 - ratio * s
                corrections[i] = ratio / denom if denom != 0 else ratio
            still = []
            for i in active:
                w = corrections[i]
                zz = z[i] - w
                if not (mpmath.isfinite(mpmath.re(zz)) and mpmath.isfinite(mpmath.im(zz))):
                    still.append(i)  # keep iterating this one from its old value
                    continue
                z[i] = zz
                if abs(w) >= tol * max(1, abs(zz)):
                    still.append(i)
            active = still
            if not active:
                converged = True
                break
        roots = tuple(complex(v) for v in z)
    return ComplexRootSet(roots, _residuals(coeffs, roots), converged, coeffs)


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


def square_free_part(p) -> tuple:
    """p / gcd(p, p'): the same roots as p, each of them simple.

    Exact throughout: float coefficients are converted losslessly through
    ``Fraction``, and the gcd is the last nonzero term of a primitive integer
    polynomial remainder sequence.  A square-free p comes back unchanged;
    otherwise the result has primitive integer coefficients (ascending) with
    a positive leading one.
    """
    coeffs = _coefficients(p)
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = _primitive([int(f * den) for f in fracs])
    a, b = ints, _primitive([i * c for i, c in enumerate(ints)][1:])
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return tuple(_exact_quotient(ints, b))
        a, b = b, _primitive(r)
    return coeffs


def refine_root(p, z: complex, dps: int = 60, max_steps: int = 90, *,
                square_free: bool = False) -> RefinedRoot:
    """Newton-polish one approximate root in high-precision arithmetic.

    Newton runs on :func:`square_free_part` of p, where every root is simple
    and convergence is quadratic; ``square_free=True`` says p already is
    square-free, so a caller refining many roots computes that part once.
    Evaluation uses the exact coefficients (integers, or floats converted
    losslessly), so split multiple roots collapse back onto the real axis
    instead of stalling at the double-precision noise floor.  Divergence
    returns the input unchanged with ``converged=False``.
    """
    coeffs = _coefficients(p) if square_free else square_free_part(p)
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c) for c in coeffs]
        dcs = [cs[i] * i for i in range(1, len(cs))]
        zz = mpmath.mpc(z)
        stop = mpmath.mpf(10) ** (-(dps - 10))
        last_step = mpmath.mpf(1)
        for _ in range(max_steps):
            pv = mpmath.mpc(0)
            for c in reversed(cs):
                pv = pv * zz + c
            if pv == 0:
                return RefinedRoot(complex(zz), True)
            dv = mpmath.mpc(0)
            for c in reversed(dcs):
                dv = dv * zz + c
            if dv == 0 or not mpmath.isfinite(dv):
                return RefinedRoot(z, False)
            step = pv / dv
            zz = zz - step
            if not mpmath.isfinite(zz):
                return RefinedRoot(z, False)
            last_step = abs(step)
            if last_step <= stop * max(1, abs(zz)):
                return RefinedRoot(complex(zz), True)
        ok = last_step <= mpmath.mpf(1e-12) * max(1, abs(zz))
        return RefinedRoot(complex(zz) if ok else z, bool(ok))


def refine_all(rootset: ComplexRootSet, dps: int = 60) -> ComplexRootSet:
    """Newton-polish every root of a converged root set on its square-free part."""
    q = square_free_part(rootset.source)
    refined = []
    for z in rootset.roots:
        rr = refine_root(q, z, dps=dps, square_free=True)
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
    Returns ascending coefficients of the monic characteristic polynomial.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    aux = np.eye(n)
    cs = [0.0] * (n + 1)
    cs[n] = 1.0
    for k in range(1, n + 1):
        prod = m @ aux
        ck = -np.trace(prod) / k
        cs[n - k] = float(ck)
        aux = prod + ck * np.eye(n)
    return cs


def spectral_verdict(rootset: ComplexRootSet, cfg: RootFinderConfig = RootFinderConfig()) -> bool:
    """True when the spectrum genuinely contains a non-real eigenvalue.

    Roots whose imaginary part falls in the suspicious band are first pushed
    through :func:`refine_root` on the square-free part of the polynomial; a
    double real root split by rounding collapses back, a true conjugate pair
    does not.  If refinement leaves a root strictly between the convergence
    tolerance and the imaginary threshold the answer is undecidable and an
    :class:`AmbiguousSpectrumError` is raised.
    """
    if not rootset.converged:
        raise NonConvergenceError("root set did not converge; no verdict possible")
    imags = []
    q = None  # the square-free part, computed once a root needs refining
    for z in rootset.roots:
        ai = abs(z.imag)
        if cfg.refine_suspicious and cfg.convergence_tol < ai <= SUSPICIOUS_IMAG_BAND:
            if q is None:
                q = square_free_part(rootset.source)
            rr = refine_root(q, z, square_free=True)
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
