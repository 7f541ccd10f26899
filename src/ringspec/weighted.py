"""Essential-cyclicity criteria for small weighted digraphs.

Three families, all decided through the discriminant of the cubic factor of
the Laplacian characteristic polynomial (the remaining factor is the trivial
eigenvalue 0).  Discriminant convention throughout: for a monic cubic
``t**3 + b t**2 + c t + d``,

    disc = 18*b*c*d - 4*b**3*d + b**2*c**2 - 4*c**3 - 27*d**2,

and disc < 0 means exactly one real root plus a conjugate pair, i.e. the
digraph is essentially cyclic.

* The complete digraph on three vertices: cyclicity is equivalent to a
  strict triangle inequality on the square roots of opposing-arc weight
  differences (:func:`k3_classify`), and to the sign of the closed-form
  quadratic discriminant (:func:`k3_discriminant`).
* A 4-cycle with one shortcut arc of weight p and one variable arc weight y
  (:func:`chorded_c4_discriminant`): cyclicity holds on a single window
  y in (y1, y2) found by bisection.
* A weighted 4-cycle with arc weights {4, 9, a, x}: the fixed pair (4, 9) is
  forced by the cubic coefficients 13 = 4 + 9 and 36 = 4 * 9.  The region
  boundary also has a closed quartic form (:func:`c4_boundary_value`) which
  equals the negated discriminant exactly, an identity the tests verify on
  integer grids.

All formula helpers use plain Python arithmetic, so they accept ints, floats
or Fractions and stay exact on exact input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

#: The two fixed arc weights of the variable-weight 4-cycle.
C4_FIXED_WEIGHTS = (4, 9)


class BoundaryNotFoundError(RuntimeError):
    """Raised when no sign change brackets the cyclicity window."""


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative arc-weight matrix with zero diagonal.

    ``w[i][j] > 0`` means the arc (i+1, j+1) is present with that weight;
    zero entries mean the arc is absent (the boundary analyses push weights
    to zero, so zeros are legal).
    """

    n: int
    w: tuple[tuple[float, ...], ...]

    def __init__(self, rows: Sequence[Sequence[float]]):
        try:
            w = tuple(tuple(float(v) for v in row) for row in rows)
        except TypeError as exc:
            raise ValueError(f"weights must be rows of numbers: {exc}") from None
        except OverflowError as exc:  # an integer beyond double range
            raise ValueError(f"weight out of double range: {exc}") from None
        n = len(w)
        if any(len(row) != n for row in w):
            raise ValueError("weight matrix must be square")
        for i, row in enumerate(w):
            for j, v in enumerate(row):
                if not math.isfinite(v) or v < 0:
                    raise ValueError(f"weight ({i},{j}) must be finite and >= 0, got {v}")
            if row[i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            # the Laplacian row holds the weight sum once on the diagonal and
            # every weight once off it
            if not math.isfinite(2 * sum(row)):
                raise ValueError(f"Laplacian row {i} overflows: weights sum to {sum(row)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class CyclicityRegionSample:
    """One grid point of the weighted 4-cycle scan."""

    a: float
    x: float
    discriminant: float
    essentially_cyclic: bool
    triangle_ok: bool


def weighted_laplacian(wm: WeightMatrix) -> list[list[float]]:
    """Off-diagonal -w[i][j], diagonal = row weight sum; zero row sums."""
    n = wm.n
    return [
        [sum(wm.w[i]) if i == j else -wm.w[i][j] for j in range(n)]
        for i in range(n)
    ]


def unit_scaled(wm: WeightMatrix) -> tuple[WeightMatrix, int]:
    """(wm * 2**-e, e): weights below 1 moved up so that the largest is in [1, 2).

    Essential cyclicity does not change when every weight is multiplied by
    the same positive factor, and a power of two changes no bit of a
    weight, so products of tiny weights (a discriminant near 1e-600) no
    longer underflow to zero.  A weight matrix whose largest weight is 1 or
    more, or zero, comes back unchanged with e = 0, so weights large enough
    to overflow the characteristic polynomial are still rejected as invalid
    input.
    """
    top = max(max(row) for row in wm.w)
    if top == 0 or top >= 1:
        return wm, 0
    e = math.frexp(top)[1] - 1
    return WeightMatrix([[math.ldexp(v, -e) for v in row] for row in wm.w]), e


def k3_matrix(a, b, c, alpha, beta, gamma) -> WeightMatrix:
    """Complete 3-vertex weight matrix.

    (a, b, c) run around the cycle 3->1, 1->2, 2->3; (alpha, beta, gamma) are
    the opposing arcs 2->1, 3->2, 1->3, so each difference pairs the two arcs
    converging on one vertex.
    """
    return WeightMatrix([[0, b, gamma], [alpha, 0, c], [a, beta, 0]])


def k3_weights(wm: WeightMatrix) -> tuple[float, float, float, float, float, float]:
    """Read (a, b, c, alpha, beta, gamma) back out of a 3x3 weight matrix."""
    if wm.n != 3:
        raise ValueError(f"need a 3x3 weight matrix, got n={wm.n}")
    w = wm.w
    return w[2][0], w[0][1], w[1][2], w[1][0], w[2][1], w[0][2]


def k3_discriminant(wm: WeightMatrix) -> float:
    """Discriminant of the nonzero-eigenvalue quadratic; negative means cyclic."""
    a, b, c, alpha, beta, gamma = k3_weights(wm)
    s = a + b + c + alpha + beta + gamma
    q = (a * b + b * c + c * a + alpha * beta + beta * gamma + gamma * alpha
         + a * alpha + b * beta + c * gamma)
    return s * s - 4 * q


def _strict_triangle(r1: float, r2: float, r3: float) -> bool:
    return r1 < r2 + r3 and r2 < r1 + r3 and r3 < r1 + r2


def k3_classify(wm: WeightMatrix) -> bool:
    """Essential cyclicity of the complete 3-vertex digraph.

    True iff the square roots of the three weight differences (a - alpha,
    b - beta, c - gamma), or of all their negations, are real and satisfy the
    strict triangle inequality.  Agrees with ``k3_discriminant(wm) < 0`` and,
    for pure cycles (alpha = beta = gamma = 0), reduces to the strict
    triangle inequality on sqrt(a), sqrt(b), sqrt(c).
    """
    a, b, c, alpha, beta, gamma = k3_weights(wm)
    diffs = (a - alpha, b - beta, c - gamma)
    for signed in (diffs, tuple(-d for d in diffs)):
        if all(d >= 0 for d in signed):
            if _strict_triangle(*(math.sqrt(d) for d in signed)):
                return True
    return False


def cubic_discriminant(b, c, d):
    """Discriminant of the monic cubic t**3 + b t**2 + c t + d.

    Raises ValueError when float coefficients make it overflow.
    """
    try:
        disc = (18 * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * c ** 3 - 27 * d * d)
    except OverflowError:
        disc = math.nan
    if isinstance(disc, float) and not math.isfinite(disc):
        raise ValueError(f"cubic discriminant overflows at b={b}, c={c}, d={d}")
    return disc


# -- 4-cycle with a shortcut arc ---------------------------------------------

def chorded_c4_cubic(p, y) -> tuple:
    """Monic-cubic coefficients (b, c, d) of the nonzero-eigenvalue factor."""
    q = p + 3
    return -(y + q), q * y + q, -(q * y + 1)


def chorded_c4_laplacian(p: float, y: float) -> list[list[float]]:
    """Laplacian of the 4-cycle 1->2->3->4->1 (weights 1, y, 1, 1) plus the
    shortcut arc 1->4 of weight p."""
    return [
        [p + 1, -1, 0, -p],
        [0, y, -y, 0],
        [0, 0, 1, -1],
        [-1, 0, 0, 1],
    ]


def chorded_c4_discriminant(p, y):
    """Cubic-factor discriminant; negative iff essentially cyclic."""
    if p <= 0 or y <= 0:
        raise ValueError(f"need p > 0 and y > 0, got p={p}, y={y}")
    return cubic_discriminant(*chorded_c4_cubic(p, y))


def chorded_c4_quartic(p, y):
    """The same discriminant written out as a quartic in y.

    Kept as an independent expression; the tests verify it coincides with
    :func:`chorded_c4_discriminant` exactly.
    """
    value = 0
    for c in _chorded_c4_quartic_coefficients(p):
        value = value * y + c
    return value


def _chorded_c4_quartic_coefficients(p) -> tuple:
    """Coefficients of :func:`chorded_c4_quartic` in y, highest degree first."""
    q = p + 3
    return (q * (q - 4),
            -(2 * q ** 3 - 8 * q ** 2 + 4),
            q * (q ** 3 - 2 * q ** 2 - 8 * q + 6),
            -2 * q * (q + 2) * (q - 3) ** 2,
            (q + 1) * (q - 3) ** 3)


def chorded_c4_boundary(p: float) -> tuple[float, float]:
    """The edges (y1, y2) of the window of positive y where the digraph is cyclic.

    The candidates are the positive real parts of the quartic's roots
    (``numpy.roots``), and for p <= 1 also sqrt(4/27) * p**1.5 when that is
    a positive double: the lower edge tends to it as p shrinks, and
    ``numpy.roots`` no longer resolves it at small p.  Each candidate is
    bracketed by the midpoints to its neighbours (by half the smallest
    candidate and twice the largest at the ends), and
    only a bracket across which the exact discriminant, evaluated on
    ``Fraction`` values, changes sign holds an edge: the double-precision
    discriminant is rounding noise near the edges once p is large, and
    ``numpy.roots`` also returns false real roots there.  Each edge is
    bisected on exact values down to adjacent doubles, and the one on the
    cyclic side is returned, so the discriminant is negative at y1 and y2
    and nonnegative at the doubles just outside them.  For p > 1 the window
    is two-sided.  For p <= 1 the quartic's leading coefficient (p+3)(p-1)
    is no longer positive, the discriminant stays negative for all large y,
    and the right edge is reported as inf.  Raises ValueError when the
    quartic's coefficients overflow double precision and
    :class:`BoundaryNotFoundError` when no edge is found.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"need a finite p > 0, got {p}")
    exact = Fraction(p)
    try:
        coeffs = [float(c) for c in _chorded_c4_quartic_coefficients(exact)]
    except OverflowError:
        raise ValueError(f"the quartic in y overflows double precision at p={p}") from None

    def cyclic(y: float) -> bool:
        return chorded_c4_discriminant(exact, Fraction(y)) < 0

    ys = [float(z.real) for z in np.roots(coeffs) if z.real > 0]
    small_edge = math.sqrt(4 / 27) * p ** 1.5 if p <= 1 else 0.0
    if small_edge > 0:
        ys.append(small_edge)
    ys.sort()
    cuts = ([0.5 * y for y in ys[:1]] + [0.5 * (a + b) for a, b in zip(ys, ys[1:])]
            + [2.0 * y for y in ys[-1:]])
    crossings = [_bisect(cyclic, lo, hi) for lo, hi in zip(cuts, cuts[1:])
                 if cyclic(lo) != cyclic(hi)]
    if len(crossings) == 2:
        return crossings[0], crossings[1]
    if len(crossings) == 1 and p <= 1 and cyclic(cuts[-1]):
        return crossings[0], math.inf
    raise BoundaryNotFoundError(
        f"expected one cyclicity window for p={p}, found {len(crossings)} crossings"
    )


def _bisect(cyclic, lo: float, hi: float) -> float:
    """Of the two adjacent doubles where ``cyclic`` flips in (lo, hi), the cyclic one.

    ``cyclic(lo)`` and ``cyclic(hi)`` must differ.
    """
    lo_cyclic = cyclic(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if lo_cyclic else hi
        if cyclic(mid) == lo_cyclic:
            lo = mid
        else:
            hi = mid


# -- weighted 4-cycle with two variable weights ------------------------------

def c4_cubic(a, x) -> tuple:
    """Monic-cubic coefficients of the nonzero-eigenvalue factor.

    The cycle weights are {4, 9, a, x}; the product of (t - w) over them
    minus the weight product factors as t times this cubic, so 13 and 36 are
    the sum and product of the fixed pair.
    """
    return -(13 + x + a), 36 + 13 * x + 13 * a + a * x, -(36 * x + 36 * a + 13 * a * x)


def c4_laplacian(a: float, x: float) -> list[list[float]]:
    """Laplacian of the directed 4-cycle with arc weights (4, a, 9, x)."""
    return [
        [4, -4, 0, 0],
        [0, a, -a, 0],
        [0, 0, 9, -9],
        [-x, 0, 0, x],
    ]


def c4_discriminant(a, x):
    """Cubic-factor discriminant; negative iff essentially cyclic.

    An absent arc (a = 0 or x = 0) breaks every directed cycle, the Laplacian
    becomes permutation-triangular, and the discriminant is nonnegative.
    """
    return cubic_discriminant(*c4_cubic(a, x))


def c4_boundary_value(a, x):
    """Closed-form boundary quartic of the cyclicity region.

    Identically the negated :func:`c4_discriminant` (verified exactly on
    integer grids), so the region {boundary > 0} is the cyclic one.
    """
    return (-(a ** 2) * x ** 2 * (x - a) ** 2
            + 26 * (x + a) * (a * x * (x - a) ** 2 + 25 * (x ** 2 + a ** 2)
                              + 58 * a * x + 900)
            + 870 * a ** 2 * x ** 2
            - 241 * (x ** 2 + a ** 2) * (2 * a * x + 25)
            - 25 * (x ** 4 + a ** 4)
            - 3934 * a * x
            - 32400)


def c4_triangle_ok(a: float, x: float) -> bool:
    """Strict triangle inequality on square roots of the three smallest weights."""
    w1, w2, w3 = sorted((float(C4_FIXED_WEIGHTS[0]), float(C4_FIXED_WEIGHTS[1]),
                         float(a), float(x)))[:3]
    return _strict_triangle(math.sqrt(w1), math.sqrt(w2), math.sqrt(w3))


def c4_scan(a_grid: Sequence[float], x_grid: Sequence[float]) -> list[CyclicityRegionSample]:
    """Evaluate discriminant, cyclicity and the triangle criterion on a grid."""
    out = []
    for a in a_grid:
        if a < 0:
            raise ValueError(f"grid weights must be >= 0, got a={a}")
        for x in x_grid:
            if x < 0:
                raise ValueError(f"grid weights must be >= 0, got x={x}")
            disc = c4_discriminant(float(a), float(x))
            out.append(CyclicityRegionSample(
                a=float(a), x=float(x), discriminant=disc,
                essentially_cyclic=disc < 0,
                triangle_ok=c4_triangle_ok(a, x),
            ))
    return out


def scan_csv(samples: Sequence[CyclicityRegionSample]) -> str:
    """CSV of a grid scan in the rooted scales sqrt(a), sqrt(x)."""
    lines = ["sqrt_a,sqrt_x,discriminant,cyclic,triangle_ok"]
    for s in samples:
        lines.append("{:.9g},{:.9g},{:.9g},{},{}".format(
            math.sqrt(s.a), math.sqrt(s.x), s.discriminant,
            int(s.essentially_cyclic), int(s.triangle_ok)))
    return "\n".join(lines) + "\n"
