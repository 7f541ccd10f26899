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
  quadratic discriminant (:func:`k3_discriminant`), computed on the weights'
  exact rational values.
* A 4-cycle with one shortcut arc of weight p and one variable arc weight y
  (:func:`chorded_c4_discriminant`): cyclicity holds on a single window
  y in (y1, y2) that contains y = 1, its edges found by bisection on exact
  values (:func:`chorded_c4_boundary`).
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
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

#: The two fixed arc weights of the variable-weight 4-cycle.
C4_FIXED_WEIGHTS = (4, 9)
#: the most grid points ``weighted c4`` scans: steps**2 samples of about 300 bytes each
C4_MAX_SAMPLES = 10 ** 6


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


def weighted_laplacian(wm: WeightMatrix) -> list[list[Fraction]]:
    """Off-diagonal -w[i][j], diagonal = row weight sum; zero row sums.

    The entries are the weights' exact values as ``Fraction``: a row sum of
    doubles rounded to a double would leave the rows summing to a tiny
    nonzero value, which moves the zero eigenvalue off zero and can split a
    repeated one into a conjugate pair.
    """
    w = [[Fraction(v) for v in row] for row in wm.w]
    return [[sum(row) if i == j else -v for j, v in enumerate(row)]
            for i, row in enumerate(w)]


def integer_scaled(matrix) -> list[list[int]]:
    """The matrix times the lcm of its entries' denominators, as Python ints.

    Every entry is read as its exact ``Fraction``; for doubles the lcm is a
    power of two.  Scaling by a positive factor scales every eigenvalue by
    that factor, so whether the spectrum is real does not change.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


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


def k3_discriminant(wm: WeightMatrix) -> Fraction:
    """Discriminant of the nonzero-eigenvalue quadratic; negative means cyclic.

    Computed on the weights' exact values, so its sign is never rounding
    noise and it neither underflows nor overflows.
    """
    a, b, c, alpha, beta, gamma = map(Fraction, k3_weights(wm))
    s = a + b + c + alpha + beta + gamma
    q = (a * b + b * c + c * a + alpha * beta + beta * gamma + gamma * alpha
         + a * alpha + b * beta + c * gamma)
    return s * s - 4 * q


def _sqrt_triangle(d1, d2, d3) -> bool:
    """Strict triangle inequality on sqrt(d1), sqrt(d2), sqrt(d3), d_i >= 0.

    sqrt(x) < sqrt(y) + sqrt(z) iff t = x - y - z < 0 or t**2 < 4*y*z, so
    no square root is taken and the answer is exact on ``Fraction`` input.
    """
    def below(x, y, z):
        t = x - y - z
        return t < 0 or t * t < 4 * y * z
    return below(d1, d2, d3) and below(d2, d1, d3) and below(d3, d1, d2)


def k3_classify(wm: WeightMatrix) -> bool:
    """Essential cyclicity of the complete 3-vertex digraph.

    True iff the square roots of the three weight differences (a - alpha,
    b - beta, c - gamma), or of all their negations, are real and satisfy the
    strict triangle inequality.  Agrees with ``k3_discriminant(wm) < 0`` and,
    for pure cycles (alpha = beta = gamma = 0), reduces to the strict
    triangle inequality on sqrt(a), sqrt(b), sqrt(c).  The differences and
    the inequality are computed on the weights' exact values.
    """
    a, b, c, alpha, beta, gamma = map(Fraction, k3_weights(wm))
    diffs = (a - alpha, b - beta, c - gamma)
    for signed in (diffs, tuple(-d for d in diffs)):
        if all(d >= 0 for d in signed) and _sqrt_triangle(*signed):
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


def chorded_c4_discriminant(p, y):
    """Cubic-factor discriminant; negative iff essentially cyclic."""
    if p <= 0 or y <= 0:
        raise ValueError(f"need p > 0 and y > 0, got p={p}, y={y}")
    return cubic_discriminant(*chorded_c4_cubic(p, y))


def chorded_c4_boundary(p: float) -> tuple[float, float]:
    """The edges (y1, y2) of the window of positive y where the digraph is cyclic.

    At y = 1 the discriminant is -4p**3 - (11p**2 - 8p + 16), negative for
    every p > 0 since 11p**2 - 8p + 16 has discriminant 64 - 704 < 0, so
    y = 1 lies inside the window, which is a single interval.  Each edge is
    bisected on the exact ``Fraction`` discriminant between y = 1 and the
    end of the positive doubles, down to adjacent doubles, and the one on
    the cyclic side is returned: the discriminant is negative at y1 and y2
    and nonnegative at the doubles just outside them.  An edge beyond the
    doubles is reported as the smallest positive double (y1, at tiny p) or
    as inf (y2, for p <= 1, where the quartic's leading coefficient
    (p+3)(p-1) is no longer positive and large y stays cyclic).
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"need a finite p > 0, got {p}")
    exact = Fraction(p)

    def cyclic(y: float) -> bool:
        return chorded_c4_discriminant(exact, Fraction(y)) < 0

    tiny, top = math.ulp(0.0), sys.float_info.max
    y1 = tiny if cyclic(tiny) else _bisect(cyclic, 1.0, tiny)
    y2 = math.inf if cyclic(top) else _bisect(cyclic, 1.0, top)
    return y1, y2


def _bisect(cyclic, inside: float, outside: float) -> float:
    """Of the two adjacent doubles where ``cyclic`` flips between the two, the cyclic one.

    ``inside`` and ``outside`` are positive doubles, ``cyclic(inside)`` true
    and ``cyclic(outside)`` false.  The bisection halves the range of their
    bit patterns, which run in the same order as the values of positive
    doubles, so it takes at most 64 steps.
    """
    cyc, out = _bits(inside), _bits(outside)
    while abs(out - cyc) > 1:
        mid = (cyc + out) // 2
        if cyclic(_double(mid)):
            cyc = mid
        else:
            out = mid
    return _double(cyc)


def _bits(y: float) -> int:
    return struct.unpack("<q", struct.pack("<d", y))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# -- weighted 4-cycle with two variable weights ------------------------------

def c4_cubic(a, x) -> tuple:
    """Monic-cubic coefficients of the nonzero-eigenvalue factor.

    The cycle weights are {4, 9, a, x}; the product of (t - w) over them
    minus the weight product factors as t times this cubic, so 13 and 36 are
    the sum and product of the fixed pair.
    """
    return -(13 + x + a), 36 + 13 * x + 13 * a + a * x, -(36 * x + 36 * a + 13 * a * x)


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
    """Strict triangle inequality on square roots of the three smallest weights.

    Decided on the weights' exact values.
    """
    return _sqrt_triangle(*sorted(map(Fraction, (*C4_FIXED_WEIGHTS, a, x)))[:3])


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
