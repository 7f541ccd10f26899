"""Independent numeric oracle: certified roots and exact characteristic polynomials.

The package's closed-form spectral claims are all cross-checked against this
module, which knows nothing about those closed forms.  It builds
characteristic polynomials from the matrix entries alone, with its own
arithmetic on plain lists: the transfer-matrix (periodic Jacobi) determinant
for ring-shaped matrices, whose nonzeros lie on the three cyclic diagonals,
and the Faddeev-LeVerrier trace recursion for every other matrix.

It reads no matrix to find roots.  :func:`certify_roots` takes approximations
from its caller (the program passes the Laplacian's ``numpy.linalg.eigvals``)
and proves them against the exact polynomial: p itself when its discs prove
it square-free, else the exact square-free factorization of p (Yun's
algorithm) splits it into factors whose roots are
all simple, each factor is evaluated exactly at each approximation rounded to
a 2**-64 grid, by one Horner pass over the Gaussian integers, and Newton's
inclusion discs d * |a / a'| that come out pairwise disjoint, as many per
factor as its degree, hold one root each.  Each root is then reported one
exact Newton step from its disc's centre.  Under a working precision a
factor whose discs fail is refined by :func:`_fixed_aberth` sweeps and
tried again on a 2**-128 grid (:func:`_refined`).
Roots are polished after the fact by :func:`_polish`, the only Newton polish,
run in fixed point at 60 digits on the square-free part p / gcd(p, p')
(:func:`square_free_part`), computed exactly.  It has the same roots as p,
all simple, so Newton converges quadratically even where p has a double or
triple root.  :func:`refine_all` polishes a whole root set with it, starting
from the working-precision roots with all their digits.

:func:`aberth_roots`, simultaneous Aberth-Ehrlich iteration in double or in
fixed point, is no program path: it stays as the tests' oracle, and only its
fixed-point sweep serves the program, in :func:`_refined`.
One Aberth iteration serves both arithmetics, on Yun's factors, each solved
from its own companion matrix's eigenvalues: in Python complex or, when the
config sets a working precision in decimal digits, in fixed point, where each
iterate is two Python integers on a 2**-bits grid and the sweep
(:func:`_fixed_aberth`) computes on those integers directly, flooring every
product and quotient to the grid and keeping every sum exact;
:class:`_FixedComplex` only carries its starts and roots.  Double precision is
enough for degrees up to roughly 12; beyond that the monomial basis becomes
badly conditioned near the ends of the root interval (evaluation noise grows
like 6**degree).  Every evaluation goes through one Horner pass that also
bounds its own rounding noise, and the iteration stops a root at that noise
floor.  :func:`_polish` runs Newton's method on the same Horner pass.

Whether p has a non-real root at all is decided without any root:
:func:`spectral_verdict` counts p's distinct real roots by Sturm's theorem,
on the signed remainder sequence of p and p' over the integers, with the
same pseudo-remainder that gives gcd(p, p') and Yun's factors.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .polycore import IntPolynomial

#: A root settles when its Aberth correction falls below this, relative to
#: max(1, |z|).
CONVERGENCE_TOL = 1e-13
#: Sweeps :func:`aberth_roots` runs before it reports ``converged=False``.
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class RootFinderConfig:
    #: decimal digits for the iteration itself; None means double precision.
    working_dps: int | None = None


@dataclass(frozen=True)
class ComplexRootSet:
    """Roots of a real-coefficient polynomial, with what polishing them needs.

    The originating coefficients (ascending) ride along so that later
    refinement does not need a second argument, and so do the unrounded
    roots of the working-precision route, from which refinement starts.
    """

    roots: tuple[complex, ...]
    converged: bool
    source: tuple = field(default=(), repr=False)
    #: the roots at the working precision, as :class:`_FixedComplex`
    #: (only when the config sets ``working_dps``)
    working: tuple = field(default=(), repr=False, compare=False)
    #: the largest radius of a disc that :func:`certify_roots` proved to hold
    #: exactly one root; None for an uncertified set
    max_radius: float | None = None

    def to_json(self) -> list[list[float]]:
        return [[z.real, z.imag] for z in self.roots]


def _coefficients(p) -> tuple:
    coeffs = p.coefficients if isinstance(p, IntPolynomial) else tuple(p)
    if len(coeffs) < 2:
        raise ValueError("polynomial degree must be >= 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return tuple(coeffs)


#: bits of the grid :func:`certify_roots` rounds each approximation to, and
#: of the finer grid :func:`_refined` puts its refined roots on
_DISC_BITS = 64
_REFINED_BITS = 2 * _DISC_BITS


#: approximations closer than this times max(1, |Re z| + |Im z|) go to Yun's factors
_SEPARATION = 1e-6


def certify_roots(p, approximations, cfg: RootFinderConfig = RootFinderConfig()) -> ComplexRootSet:
    """All roots of p, certified from approximations by exact Newton discs.

    p splits into the factors a_k of :func:`_square_free_factors`, whose
    roots are simple and are the roots of multiplicity k in p.  Each finite
    approximation z is rounded down to the 2**-64 grid, and every a_k is
    evaluated there exactly (:func:`_newton_disc`), or conjugated from the
    conjugate approximation's discs.  The disc of radius
    d * |a_k(z) / a_k'(z)| about z, d = deg a_k, holds a root of a_k, since
    |a'/a| = |sum_j 1 / (z - r_j)| <= d / min_j |z - r_j|.  z goes to the
    factor of its smallest disc, and each factor sorts its discs into
    clusters (:func:`_clusters`).  When a_k has d clusters, each holds
    exactly one root, and when each has k discs, a_k is certified: each
    root is listed k times at one exact Newton step from its disc's centre.
    With ``cfg.working_dps`` the step is also kept in ``working``, on the
    grid of :func:`_fixed_point` for that precision, for :func:`refine_all`,
    and a factor that fails gets a second chance (:func:`_refined`).
    ``max_radius`` bounds the distance from each reported root to its root
    before it is rounded to a ``complex``: the Newton step moves d times less
    than the disc's radius r, so it is the largest r (1 + 1/d).  Any other
    count leaves ``converged=False``, the approximations as the roots and no
    radius.  Approximations pairwise more than ``_SEPARATION`` * max(1, |z|)
    apart first try the same pass with p's primitive multiple as the only
    factor and no second chance: deg p disjoint discs prove deg p distinct
    roots, so p is square-free and Yun's sequence is skipped.
    """
    coeffs = _coefficients(p)
    zs = [z for z in map(complex, approximations) if cmath.isfinite(z)]
    scale = _SEPARATION * max([1.0] + [abs(z.real) + abs(z.imag) for z in zs])
    dps = cfg.working_dps
    for square_free in [True, False] if (_inverse_gaps(zs) < 1 / scale).all() else [False]:
        factors = ([(_integer_coefficients(coeffs)[1], 1)] if square_free
                   else _square_free_factors(coeffs))
        taken: list[list[_Disc]] = [[] for _ in factors]
        seen: dict[complex, list[_Disc]] = {}
        for z in zs:
            # the factors are real, so the discs about a conjugate centre are the
            # conjugate discs: a real matrix's non-real eigenvalues come in exact
            # conjugate pairs, and each pair costs one Horner pass per factor
            mirror = seen.get(z.conjugate())
            if mirror is not None:
                discs = [disc.conjugate() for disc in mirror]
            else:
                point = _FixedComplex.of(z, _DISC_BITS)
                discs = seen[z] = [_newton_disc(a, point.re, point.im, _DISC_BITS)
                                   for a, _ in factors]
            best = min(range(len(discs)), key=lambda i: discs[i].radius)
            taken[best].append(discs[best])
        roots, working, reach = [], [], 0
        for (a, multiplicity), discs in zip(factors, taken):
            clusters = _clusters(discs)
            if not (_certified(clusters, a, multiplicity) or square_free or dps is None):
                clusters = _clusters(_refined(a, multiplicity, clusters, dps))
            if not _certified(clusters, a, multiplicity):
                break
            bits = None if dps is None else _grid_bits(a, dps)
            degree = len(a) - 1
            for disc, *_ in clusters:
                step = disc.newton_step(bits)
                roots += [complex(step)] * multiplicity
                working += [step] * multiplicity
                reach = max(reach, _scaled_down(disc.radius + -(-disc.radius // degree), disc.bits))
        else:
            return ComplexRootSet(tuple(roots), True, coeffs, () if dps is None else tuple(working),
                                  reach)
    return ComplexRootSet(tuple(map(complex, approximations)), False, coeffs)


def _inverse_gaps(zs) -> np.ndarray:
    """1 / |z_i - z_j| for each pair of the complex zs, 0 where i = j."""
    z = np.array(zs, dtype=complex)
    with np.errstate(all="ignore"):
        return 1 / (abs(z[:, None] - z) + np.diag(np.full(len(z), math.inf)))


def _clusters(discs: list["_Disc"]) -> list[list["_Disc"]]:
    """The discs grouped into clusters, each led by its smallest disc.

    The discs are taken smallest first; one that overlaps a cluster's
    leading disc (decided exactly) joins the first such cluster, any other
    leads a new one.  The leading discs are pairwise disjoint, and each
    cluster lists its discs smallest first.
    """
    clusters: list[list[_Disc]] = []
    for disc in sorted(discs, key=lambda disc: disc.radius):
        for c in clusters:
            reach, dx, dy = disc.radius + c[0].radius, disc.x - c[0].x, disc.y - c[0].y
            if abs(dx) <= reach and dx * dx + dy * dy <= reach * reach:
                c.append(disc)
                break
        else:
            clusters.append([disc])
    return clusters


def _certified(clusters: list[list["_Disc"]], a: list[int], multiplicity: int) -> bool:
    """Whether the clusters certify a: deg a of them, ``multiplicity`` discs each."""
    return len(clusters) == len(a) - 1 and all(len(c) == multiplicity for c in clusters)


#: the Aberth sweeps :func:`_refined` runs at most
_REFINE_SWEEPS = 100


def _refined(a: list[int], multiplicity: int, clusters: list[list["_Disc"]],
             dps: int) -> list["_Disc"]:
    """Newton discs of a from its approximations refined at ``dps`` digits.

    A cluster of m approximations of a factor of multiplicity k stands for
    about m / k roots, so its m // k smallest discs are taken as starts.
    When that gives deg a starts, at most ``_REFINE_SWEEPS`` sweeps of
    :func:`_fixed_aberth` on a's exact coefficients refine them all
    together from :func:`_nudged` starts, so that roots closer together
    than the approximations could tell apart (``eigvals`` can return one
    double for two of them) are pulled apart, until their steps fall below
    2**-128.  Each refined root gets its disc on the 2**-128 grid,
    ``multiplicity`` times, so that roots too close for discs on the
    2**-64 grid are told apart too; a finer grid would tell closer roots
    apart, but the exact Horner pass grows with its bits times the degree.
    Otherwise there are no discs.  The discs prove whatever they hold, so
    the refined roots need not have converged.
    """
    starts = [complex(_FixedComplex(disc.x, disc.y, disc.bits))
              for c in clusters for disc in c[:len(c) // multiplicity]]
    if len(starts) != len(a) - 1:
        return []
    terms, starts, bits = _fixed_point(a, _nudged(starts), dps)
    zs, _ = _fixed_aberth(terms, starts, bits, 2.0 ** -_REFINED_BITS, _REFINE_SWEEPS)
    discs = []
    for z in zs:
        point = _FixedComplex.of(z, _REFINED_BITS)
        discs += [_newton_disc(a, point.re, point.im, _REFINED_BITS)] * multiplicity
    return discs


@dataclass(frozen=True)
class _Disc:
    """A Newton disc on the 2**-bits grid, with what its Newton step needs.

    The centre is z = (x + i y) / D, D = 2**bits, and ``radius`` bounds
    d * |a(z) / a'(z)| from above in units of 1 / D (inf where a'(z) = 0).
    ``value`` and ``slope`` are D**d a(z) and D**(d-1) a'(z) as (real,
    imaginary) integer pairs.
    """

    x: int
    y: int
    bits: int
    radius: int | float
    value: tuple[int, int]
    slope: tuple[int, int]

    def conjugate(self) -> "_Disc":
        """The disc of the same real polynomial about the conjugate centre."""
        (pr, pi), (qr, qi) = self.value, self.slope
        return _Disc(self.x, -self.y, self.bits, self.radius, (pr, -pi), (qr, -qi))

    def newton_step(self, bits: int | None):
        """z - a(z) / a'(z): on a 2**-bits :class:`_FixedComplex`, floored but
        for the imaginary part's cut toward 0, so that conjugate discs step to
        exact conjugates, or correctly rounded to a ``complex`` if bits is None."""
        (pr, pi), (qr, qi) = self.value, self.slope
        norm = qr * qr + qi * qi
        # z - a/a' = (Z |A'|^2 - A conj(A')) / (D |A'|^2) with Z = x + i y
        re = self.x * norm - (pr * qr + pi * qi)
        im = self.y * norm - (pi * qr - pr * qi)
        den = norm << self.bits
        if bits is None:
            return complex(re / den, im / den)
        cut = (abs(im) << bits) // den
        return _FixedComplex((re << bits) // den, cut if im >= 0 else -cut, bits)


def _newton_disc(a: list[int], x: int, y: int, bits: int) -> _Disc:
    """The Newton disc of the integer polynomial a at (x + i y) * 2**-bits.

    One homogeneous Horner pass over the Gaussian integers: with Z = x + i y
    and D = 2**bits, P_m = Z P_(m-1) + a_(d-m) D**m and Q_m = Z Q_(m-1) +
    P_(m-1) end in P_d = D**d a(z) and Q_d = D**(d-1) a'(z), exactly.  The
    radius d |a / a'| is d |P_d| / |Q_d| in grid units, rounded up to an
    integer by an exact integer square root.
    """
    d = len(a) - 1
    pr, pi, qr, qi = a[-1], 0, 0, 0
    for m in range(1, d + 1):
        qr, qi = qr * x - qi * y + pr, qr * y + qi * x + pi
        pr, pi = pr * x - pi * y + (a[d - m] << (bits * m)), pr * y + pi * x
    norm = qr * qr + qi * qi
    if not norm:
        return _Disc(x, y, bits, math.inf, (pr, pi), (qr, qi))
    square = -(-(d * d) * (pr * pr + pi * pi) // norm)  # ceil(d**2 |P|**2 / |Q|**2)
    radius = math.isqrt(square)
    if radius * radius < square:
        radius += 1
    return _Disc(x, y, bits, radius, (pr, pi), (qr, qi))


def _horner(cs: Sequence, z):
    """p(z), p'(z) and pbar(|z|) = sum |c_k| |z|**k in one synthetic-division pass.

    ``cs`` holds ascending coefficients.  p and p' are computed in the
    arithmetic of ``cs`` and ``z`` (Python float and complex;
    :func:`_fixed_horner` is the same pass in fixed point); pbar only scales
    the rounding noise, so it is accumulated in double.
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

    In floating point Horner's rounding error is a small multiple of
    deg * eps * pbar(|z|), and 4 (deg + 1) covers complex arithmetic.  In
    fixed point with eps = 2**-bits each product errs by less than
    sqrt(2) * eps, absolutely, so p(z) errs by less than
    sqrt(2) * eps * sum_{k < deg} |z|**k.  With integer coefficients and
    p(0) != 0, pbar(|z|) >= max(1, |z|)**deg, so the same bound covers that
    too; where p(0) = 0 it can fall short at |z| well below 1 / deg, and a
    root there settles by its step size instead.  An overflowed pbar settles
    nothing.
    """
    return abs(pv) <= 4 * (deg + 1) * eps * pbar < math.inf


def aberth_roots(p, cfg: RootFinderConfig = RootFinderConfig()) -> ComplexRootSet:
    """All complex roots of p by simultaneous Aberth-Ehrlich iteration.

    The tests' oracle: no program path calls it (:func:`certify_roots` is the
    program's route to roots).
    Each factor of :func:`_square_free_factors` is solved from its own
    starting points and each of its roots repeated by its multiplicity, so
    the iteration only ever meets simple roots (on a repeated root Aberth
    converges only linearly, and in double precision leaves it split by
    about sqrt(eps)).  A square-free p is solved from its own coefficients.
    The starting points are the eigenvalues of the companion matrix
    (``numpy.roots``), each nudged off the real axis by a different amount:
    a conjugate-symmetric start set stays symmetric under the iteration and
    can hold a conjugate pair on the real axis.  The iteration runs in double
    precision, or in fixed point on the exact integer coefficients of each
    factor with ``cfg.working_dps`` significant digits on every nonzero root
    (:func:`_fixed_point`), which also keeps the roots at working precision
    in ``working``.  A root settles when its
    correction falls below ``CONVERGENCE_TOL`` * max(1, |z|) or, once it has
    taken a step, when |p(z)| reaches the evaluation-noise floor; running
    ``MAX_ITERATIONS`` sweeps, a blow-up or a companion matrix that double
    precision cannot hold reports ``converged=False`` rather than returning
    silent garbage.  ``cfg`` only chooses the arithmetic.
    """
    coeffs = _coefficients(p)
    factors = _square_free_factors(coeffs)
    if [k for _, k in factors] == [1]:
        factors = [(coeffs, 1)]
    fixed = cfg.working_dps is not None
    found, converged = [], True
    for factor, multiplicity in factors:
        zs = _companion_starts(factor)
        if not all(map(cmath.isfinite, zs)):  # a factor beyond double range
            ok = False
        else:
            if fixed:
                terms, zs, bits = _fixed_point(factor, zs, cfg.working_dps)
                zs, ok = _fixed_aberth(terms, zs, bits, CONVERGENCE_TOL, MAX_ITERATIONS)
            else:
                zs, ok = _aberth([float(c) for c in factor], zs, CONVERGENCE_TOL,
                                 MAX_ITERATIONS, sys.float_info.epsilon)
        found += [z for z in zs for _ in range(multiplicity)]
        converged = converged and ok
    roots = tuple(complex(z) for z in found)
    return ComplexRootSet(roots, converged, coeffs, tuple(found) if fixed else ())


class _FixedComplex:
    """(re + i im) * 2**-bits, with re and im Python integers.

    The value type of the working-precision route: its starts, its roots in
    ``ComplexRootSet.working`` and nothing else.  The iteration itself
    (:func:`_fixed_aberth`) computes on the ``re`` and ``im`` integers.
    ``abs`` and ``complex`` answer in double precision, infinite where the
    value overflows it.
    """

    __slots__ = ("re", "im", "bits")

    def __init__(self, re: int, im: int, bits: int):
        self.re, self.im, self.bits = re, im, bits

    @classmethod
    def of(cls, z, bits: int) -> "_FixedComplex":
        """z on the 2**-bits grid: a fixed-point z by a shift, else exactly.

        A finite double is a dyadic rational, so it lands on the grid
        exactly wherever its last bit is no finer than 2**-bits.
        """
        if isinstance(z, cls):
            shift = bits - z.bits
            if shift >= 0:
                return cls(z.re << shift, z.im << shift, bits)
            return cls(z.re >> -shift, z.im >> -shift, bits)
        z = complex(z)
        (rn, rd), (imn, imd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        return cls((rn << bits) // rd, (imn << bits) // imd, bits)

    def __eq__(self, other):
        if type(other) is not _FixedComplex:
            return NotImplemented
        return (self.re, self.im, self.bits) == (other.re, other.im, other.bits)

    def __abs__(self) -> float:
        return _fixed_abs(self.re, self.im, 1 << self.bits)

    def __complex__(self) -> complex:
        return complex(_scaled_down(self.re, self.bits), _scaled_down(self.im, self.bits))

    def __repr__(self) -> str:
        return f"_FixedComplex({complex(self)!r}, bits={self.bits})"


def _scaled_down(n: int, bits: int) -> float:
    """n * 2**-bits, correctly rounded to a double, infinite beyond its range."""
    try:
        return n / (1 << bits)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _fixed_abs(re: int, im: int, one: int) -> float:
    """|re + i im| / one in double precision, infinite beyond its range."""
    try:
        x, y = re / one, im / one
    except OverflowError:
        return math.inf
    return math.hypot(x, y)


#: bits beyond ceil(dps * log2(10)), so that the last requested digit is not
#: the one the truncations wear down
_GUARD_BITS = 16


def _fixed_point(coeffs, starts, dps: int):
    """A polynomial and its starts in fixed point: (terms, starts, bits).

    ``terms`` holds a pair (c_k * 2**bits, |c_k| in double) for each of the
    exact primitive integer coefficients c_k of ``coeffs`` (see
    :func:`_integer_coefficients`), descending from the leading one, as
    :func:`_fixed_horner` reads them; the starts are :class:`_FixedComplex`
    on the same grid.  The grid keeps ``dps`` significant digits on every
    nonzero root: besides ceil(dps * log2(10)) and a guard, ``bits`` covers
    Cauchy's lower bound |r| >= |c_m| / (|c_m| + max_{k > m} |c_k|) on the
    nonzero roots r, where c_m is the lowest nonzero coefficient.  It
    depends on the coefficients and ``dps`` alone, so any number of starts
    share it.
    """
    ints = _integer_coefficients(coeffs)[1]
    bits = _grid_bits(ints, dps)
    terms = [(c << bits, _scaled_down(abs(c), 0)) for c in reversed(ints)]
    return terms, [_FixedComplex.of(z, bits) for z in starts], bits


def _grid_bits(ints: list[int], dps: int) -> int:
    """The bits of :func:`_fixed_point`'s grid for integer coefficients ``ints``."""
    low = next(c for c in ints if c)
    top = max(map(abs, ints[ints.index(low) + 1:]), default=0)
    return (math.ceil(dps * math.log2(10)) + _GUARD_BITS
            + max(0, top.bit_length() - abs(low).bit_length()) + 2)


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
    return _nudged(eigs)


def _nudged(zs) -> list[complex]:
    """Each z moved up by (k + 1) nudges, k its index, so that no two starts
    coincide and no start set is symmetric about the real axis."""
    return [complex(z) + 1j * _START_NUDGE * (k + 1) * max(1.0, abs(z))
            for k, z in enumerate(zs)]


def _aberth(cs: Sequence, starts: Sequence, tol, max_iterations: int, eps):
    """Aberth-Ehrlich iteration over the number type of ``cs`` and ``starts``.

    The double-precision route runs it on floats and complex numbers;
    :func:`_fixed_aberth` takes the same steps on the fixed-point grid.
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


def _fixed_horner(terms: Sequence[tuple[int, float]], zr: int, zi: int, bits: int, one: int):
    """:func:`_horner` at z = (zr + i zi) * 2**-bits, on plain integers.

    ``terms`` holds (c_k * 2**bits, |c_k|) pairs, descending from the leading
    coefficient, and ``one`` is 2**bits.  Returns (pr, pi, dr, di, pbar) with
    p(z) = (pr + i pi) * 2**-bits and p'(z) = (dr + i di) * 2**-bits: each
    product is floored to the grid, an error below 2**-bits per component,
    and each sum is exact.  pbar(|z|) is accumulated in double.
    """
    az = _fixed_abs(zr, zi, one)
    it = iter(terms)
    pr, pbar = next(it)
    pi = dr = di = 0
    for c, m in it:
        dr, di = ((dr * zr - di * zi) >> bits) + pr, ((dr * zi + di * zr) >> bits) + pi
        pr, pi = ((pr * zr - pi * zi) >> bits) + c, (pr * zi + pi * zr) >> bits
        pbar = pbar * az + m
    return pr, pi, dr, di, pbar


def _on_grid(zr: list[int], zi: list[int], bits: int) -> list[_FixedComplex]:
    return [_FixedComplex(a, b, bits) for a, b in zip(zr, zi)]


def _fixed_aberth(terms: Sequence[tuple[int, float]], starts: Sequence[_FixedComplex],
                  bits: int, tol: float, max_iterations: int):
    """:func:`_aberth` on the 2**-bits grid, with every step on plain integers.

    ``terms`` and ``starts`` are as :func:`_fixed_point` puts them on the
    grid.  Each root is a pair of integers; the evaluation is
    :func:`_fixed_horner`, the neighbour sum adds the quotients
    1 / (z_i - z_j) floored to the grid, and the correction
    p / (p' - p * sum) floors its product and its quotient the same way:
    the truncations of two-integer complex arithmetic with no object per
    operation.  Settling, the noise floor (:func:`_is_noise` with
    eps = 2**-bits) and every way to end unconverged are :func:`_aberth`'s.
    Returns (roots as :class:`_FixedComplex`, converged).
    """
    one, two = 1 << bits, 2 * bits
    # not math.ldexp: an underflowing ldexp leaves errno set, and CPython's
    # abs() of a NaN complex then raises OverflowError
    eps = 2.0 ** -bits
    deg = len(terms) - 1
    zr, zi = [z.re for z in starts], [z.im for z in starts]
    count = len(zr)
    active = range(count)
    for sweep in range(max_iterations):
        still = []
        moved = False
        for i in active:
            ar, ai = zr[i], zi[i]
            pr, pi, dr, di, pbar = _fixed_horner(terms, ar, ai, bits, one)
            # the starts are perturbed on purpose, so every root takes one
            # step before the noise floor may settle it
            if sweep and _is_noise(_fixed_abs(pr, pi, one), pbar, deg, eps):
                continue
            sr = si = 0
            for j in range(count):
                if j != i:
                    xr, xi = ar - zr[j], ai - zi[j]
                    den = xr * xr + xi * xi
                    if not den:
                        return _on_grid(zr, zi, bits), False
                    sr += (xr << two) // den
                    si += -(xi << two) // den
            er = dr - ((pr * sr - pi * si) >> bits)
            ei = di - ((pr * si + pi * sr) >> bits)
            if not (er or ei):  # no step from here; the neighbours may move
                still.append(i)
                continue
            den = er * er + ei * ei
            wr = ((pr * er + pi * ei) << bits) // den
            wi = ((pi * er - pr * ei) << bits) // den
            nr, ni = ar - wr, ai - wi
            az = _fixed_abs(nr, ni, one)
            if not az < math.inf:
                return _on_grid(zr, zi, bits), False
            zr[i], zi[i] = nr, ni
            moved = True
            if _fixed_abs(wr, wi, one) >= tol * max(1, az):
                still.append(i)
        active = still
        if not active:
            return _on_grid(zr, zi, bits), True
        if sweep and not moved:
            return _on_grid(zr, zi, bits), False
    return _on_grid(zr, zi, bits), False


def _primitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients, leading coefficient positive."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return [v // c for v in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of a mod b (ascending coefficients).

    Each step scales the running remainder by a positive factor, so the
    result keeps the sign of a mod b, as :func:`spectral_verdict` needs.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db:
        g = math.gcd(lb, r[-1])
        fb, fr = lb // g, r[-1] // g
        if fb < 0:
            fb, fr = -fb, -fr
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
    if all(type(c) is int for c in coeffs):
        return coeffs, _primitive(list(coeffs))
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


#: the digits :func:`_polish` works to, and the Newton steps a root gets
#: before it is given up
_POLISH_DPS = 60
_POLISH_STEPS = 90


def _polish(q, starts) -> list[complex | None]:
    """Newton-polish each distinct start on the square-free polynomial q.

    q and the finite starts go on the grid of :func:`_fixed_point` with
    ``_POLISH_DPS`` digits, a ``ComplexRootSet.working`` start with all its
    digits.  :func:`_newton` runs once per distinct point; its copies reuse
    the value and its conjugate takes the mirrored one.  deg q distinct
    points are taken for all of q's roots in Newton's error estimate.
    Returns the polished value per start, or None where Newton fails.
    """
    terms, _, bits = _fixed_point(q, (), _POLISH_DPS)
    grid = [_FixedComplex.of(s, bits) if cmath.isfinite(complex(s)) else None for s in starts]
    points = [None if z is None else (z.re, z.im) for z in grid]
    distinct = list(dict.fromkeys(p for p in points if p is not None))
    spreads = (_inverse_gaps([complex(_FixedComplex(*z, bits)) for z in distinct]).sum(1).tolist()
               if len(distinct) == len(terms) - 1 else [math.inf] * len(distinct))
    polished: dict[tuple[int, int], complex | None] = {}
    for (re, im), spread in zip(distinct, spreads):
        mirror = polished.get((re, -im))
        polished[re, im] = (_newton(terms, re, im, bits, spread) if mirror is None
                            else mirror.conjugate())
    return [None if p is None else polished[p] for p in points]


def _newton(terms, zr: int, zi: int, bits: int, spread: float) -> complex | None:
    """Newton's method on :func:`_fixed_horner` from (zr + i zi) 2**-bits.

    z stops at the noise floor (:func:`_is_noise`) from the second evaluation
    on, or after a step w with |w| or |w|**2 * ``spread`` at most
    10**-(_POLISH_DPS - 10) max(1, |z|): the error left is about |w**2 p'' /
    (2 p')|, and p'' / (2 p') = sum_j 1 / (z - z_j) over q's other roots.
    None for p' = 0, divergence or ``_POLISH_STEPS`` steps.
    """
    one, eps, deg, tol = 1 << bits, 2.0 ** -bits, len(terms) - 1, 10.0 ** -(_POLISH_DPS - 10)
    for step in range(_POLISH_STEPS):
        pr, pi, dr, di, pbar = _fixed_horner(terms, zr, zi, bits, one)
        if step and _is_noise(_fixed_abs(pr, pi, one), pbar, deg, eps):
            return complex(_FixedComplex(zr, zi, bits))
        den = dr * dr + di * di
        if not den:
            return None
        wr, wi = ((pr * dr + pi * di) << bits) // den, ((pi * dr - pr * di) << bits) // den
        zr, zi = zr - wr, zi - wi
        w, bound = _fixed_abs(wr, wi, one), tol * max(1, _fixed_abs(zr, zi, one))
        if not bound < math.inf:
            return None
        if w < bound or w * w * spread <= bound:
            return complex(_FixedComplex(zr, zi, bits))
    return None


def refine_all(rootset: ComplexRootSet) -> ComplexRootSet:
    """Newton-polish every root of a root set on its square-free part.

    The polish is :func:`_polish`.  It starts from the working-precision
    roots when the set carries them, moved onto its grid by a bit shift, so
    digits already found are not won back step by step.  A root that does
    not converge, or has no finite start, keeps its value.  The result
    carries the set's ``converged`` flag and source, and no working roots.
    """
    polished = _polish(square_free_part(rootset.source), rootset.working or rootset.roots)
    roots = tuple(z if p is None else p for z, p in zip(rootset.roots, polished))
    return ComplexRootSet(roots, rootset.converged, rootset.source)


def char_poly_exact(matrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of an integer matrix.

    A ring-shaped matrix -- n >= 3 and every nonzero entry on the cyclic
    diagonals (i, i) and (i, i +- 1 mod n), as ring and path Laplacians and
    every 3-by-3 matrix are -- goes through the transfer-matrix determinant
    (:func:`_transfer_char_poly`), O(n**2) coefficient operations.  Every
    other matrix, n <= 2 included, goes through the Faddeev-LeVerrier trace
    recursion (:func:`_faddeev_leverrier`).  Both run on Python integers and
    read only the matrix entries, which must be integers: a float entry
    raises TypeError instead of being truncated.  Returns a monic polynomial
    of degree n with ascending coefficients.
    """
    rows = [[operator.index(v) for v in row] for row in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n >= 3 and all(v == 0 or (j - i) % n in (0, 1, n - 1)
                      for i, row in enumerate(rows) for j, v in enumerate(row)):
        return IntPolynomial(_transfer_char_poly(rows))
    return IntPolynomial(_faddeev_leverrier(rows))


def _transfer_char_poly(rows: list[list[int]]) -> list[int]:
    """det(xI - M) of a ring-shaped n-by-n matrix, n >= 3, ascending coefficients.

    With a_i = x - m_(i,i), b_i = -m_(i,i+1) and c_i = -m_(i+1,i), indices
    mod n, the periodic Jacobi determinant is

        det(xI - M) = tr(T_n ... T_1) + (-1)**(n+1) * (prod b_i + prod c_i),
        T_i = [[a_i, -b_(i-1) c_(i-1)], [1, 0]].

    The product is built one factor at a time; its two columns each follow
    the three-term recurrence p_i = a_i p_(i-1) - b_(i-1) c_(i-1) p_(i-2),
    one O(n) pass per factor on plain lists.  Only +, - and * are used, so
    the same code runs over ``Fraction`` entries.
    """
    n = len(rows)
    up = [rows[i][(i + 1) % n] for i in range(n)]    # -b_i
    down = [rows[(i + 1) % n][i] for i in range(n)]  # -c_i
    zero = [0] * (n + 1)
    # columns (top, bottom) of T_i ... T_1, starting from the identity
    top1, bot1 = [1] + zero[1:], zero
    top2, bot2 = zero, [1] + zero[1:]
    for i in range(n):
        m, d = rows[i][i], up[i - 1] * down[i - 1]
        top1, bot1 = [s - m * t - d * u for s, t, u in zip([0] + top1, top1, bot1)], top1
        top2, bot2 = [s - m * t - d * u for s, t, u in zip([0] + top2, top2, bot2)], top2
    coeffs = [t + u for t, u in zip(top1, bot2)]
    # (-1)**(n+1) (prod b + prod c) = -(prod up + prod down)
    coeffs[0] -= math.prod(up) + math.prod(down)
    return coeffs


def _faddeev_leverrier(rows: list[list[int]]) -> list[int]:
    """det(xI - M) by the trace recursion, ascending coefficients.

    The per-step divisions are exact for integer input.  Each step
    multiplies by M row by row over its nonzero entries, so a matrix with a
    bounded number of nonzeros per row costs O(n**2) per step instead of
    O(n**3).
    """
    n = len(rows)
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
    return cs


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


def spectral_verdict(p) -> bool:
    """True exactly when p has a non-real root; no root is computed.

    Sturm's theorem on p's primitive integer multiple a
    (:func:`_integer_coefficients`): the signed remainder sequence a, a',
    -rem(a, a'), ... is built with :func:`_pseudo_remainder`, each term
    divided by the positive gcd of its coefficients, until a remainder
    vanishes.  Its last term is gcd(a, a') up to a constant, so p has
    deg p - deg gcd distinct roots, and V(-inf) - V(+inf) of them are real,
    where V counts the sign changes of the terms' leading signs at that end.
    A common factor of the terms changes neither count, so p need not be
    square-free.
    """
    _, a = _integer_coefficients(p)
    degree, b = len(a) - 1, _derivative(a)
    # (leading coefficient, degree) of each term; only the last two are kept whole
    leads = [(a[-1], degree), (b[-1], degree - 1)]
    while r := _pseudo_remainder(a, b):
        g = math.gcd(*r)
        a, b = b, [-v // g for v in r]
        leads.append((b[-1], len(b) - 1))
    at_plus = [c > 0 for c, _ in leads]
    at_minus = [(c > 0) == (d % 2 == 0) for c, d in leads]
    real = _sign_changes(at_minus) - _sign_changes(at_plus)
    return real < degree - leads[-1][1]


def _sign_changes(positive: list[bool]) -> int:
    return sum(x != y for x, y in zip(positive, positive[1:]))
