"""Exact integer polynomials and the Chebyshev-type families used everywhere else.

Three related families are the workhorses of this package.  Each is defined
by a three-term recurrence and computed from the binomial form of its
coefficients (Mason and Handscomb, *Chebyshev Polynomials*, 2003, ch. 2),
memoized per degree:

* ``cheb_u(n)`` -- the degree-n Chebyshev polynomial of the second kind scaled
  to the interval (-2, 2): ``P_0 = 1``, ``P_1 = x``, ``P_n = x*P_{n-1} - P_{n-2}``.
  The coefficient of x**(n-2i) is ``(-1)**i * C(n-i, i)``.
  Its roots are ``2*cos(pi*k/(n+1))``, k = 1..n.
* ``z_poly(n)`` -- the characteristic polynomial of the n-by-n tridiagonal
  matrix with diagonal (2, ..., 2, 1) and -1 on the off-diagonals:
  ``Z_0 = 1``, ``Z_1 = x - 1``, ``Z_n = (x-2)*Z_{n-1} - Z_{n-2}``.
  Substituting x**2 into Z_n yields cheb_u(2n), so the coefficient of x**k
  is ``(-1)**(n-k) * C(n+k, 2k)`` and its roots are
  ``4*cos(pi*k/(2n+1))**2``, all inside [0, 4).
* ``w_poly(n)`` -- the Chebyshev polynomial of the first kind, doubled and
  shifted: ``W_0 = 2``, ``W_1 = x - 2``, ``W_n = (x-2)*W_{n-1} - W_{n-2}``,
  so ``W_n(x) = 2*T_n((x-2)/2)``.  For n >= 1 the coefficient of x**k is
  ``(-1)**(n+k) * 2n * C(n+k, 2k) / (n+k)``, an exact division.
  ``W_n - 2*(-1)**n`` is the characteristic polynomial of the symmetric
  ring's Laplacian.

All coefficients are arbitrary-precision Python integers; binomial-sized
coefficients overflow 64-bit words near degree 35, and exactness is the whole
point of this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial over the integers.

    ``coefficients[i]`` is the coefficient of x**i.  The zero polynomial is
    represented by the single coefficient (0,); any other polynomial has a
    nonzero leading coefficient.
    """

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Sequence[int]):
        coeffs = [int(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports 0 by the single-zero convention."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return poly_shift_const(self, other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coefficients])

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return poly_shift_const(self, -other)
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coefficients])
        return poly_mul(self, other)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coefficients)][1:])

    def substitute_square(self) -> "IntPolynomial":
        """Return p(x**2): coefficient i moves to power 2i."""
        out = [0] * (2 * len(self.coefficients) - 1)
        for i, c in enumerate(self.coefficients):
            out[2 * i] = c
        return IntPolynomial(out)

    def halve_even_powers(self) -> "IntPolynomial":
        """Inverse of :meth:`substitute_square`; requires only even powers."""
        for i, c in enumerate(self.coefficients):
            if i % 2 == 1 and c != 0:
                raise ValueError("polynomial has odd powers; cannot halve exponents")
        return IntPolynomial(self.coefficients[::2])

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, ascending, preserving exactness."""
        return [str(c) for c in self.coefficients]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "IntPolynomial":
        return cls([int(s) for s in data])

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0 and self.degree > 0:
                continue
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            sign = "-" if c < 0 else ("+" if terms else "")
            terms.append(f"{sign} {mag}{var}".strip() if terms else f"{sign}{mag}{var}")
        return " ".join(terms) if terms else "0"


@dataclass(frozen=True)
class LandmarkRoots:
    """Smallest and second-smallest roots of Z_m and of Z_m + (-1)**m.

    x1 < x2 are roots of Z_m; u1 < u2 are roots of Z_m + (-1)**m.  All four
    lie in [0, 4).
    """

    m: int
    x1: float
    x2: float
    u1: float
    u2: float


@dataclass(frozen=True)
class RealRootVerdict:
    """Outcome of the real-rootedness test for products of cheb_u factors.

    ``roots`` is present exactly when ``all_real`` is true; it is then the
    full closed-form root list, ascending, with multiplicities.
    """

    all_real: bool
    case_label: str  # one of: single-factor, equal-pair, adjacent-pair, non-real
    roots: tuple[float, ...] | None = None


_NON_REAL = RealRootVerdict(False, "non-real", None)


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


@functools.cache
def cheb_u(n: int) -> IntPolynomial:
    """Chebyshev polynomial of the second kind scaled to (-2, 2), degree n."""
    _check_degree(n)
    coeffs = [0] * (n + 1)
    for i in range(n // 2 + 1):
        coeffs[n - 2 * i] = (-1) ** i * math.comb(n - i, i)
    return IntPolynomial(coeffs)


@functools.cache
def z_poly(n: int) -> IntPolynomial:
    """Characteristic polynomial of the tridiagonal matrix with diagonal (2,..,2,1).

    Satisfies z_poly(n).substitute_square() == cheb_u(2n); the constant term
    is (-1)**n.
    """
    _check_degree(n)
    return IntPolynomial([(-1) ** (n - k) * math.comb(n + k, 2 * k) for k in range(n + 1)])


@functools.cache
def w_poly(n: int) -> IntPolynomial:
    """Doubled, shifted Chebyshev polynomial of the first kind, degree n.

    W_n(x) = 2*T_n((x-2)/2), so its roots are 2 - 2*cos(pi*(2k-1)/(2n)).
    For n >= 3, W_n - 2*(-1)**n = det(xI - L) for the Laplacian L of the
    symmetric ring on n vertices (the circulant with eigenvalues
    2 - 2*cos(2*pi*k/n) = 4*sin(pi*k/n)**2), equivalently
    (-1)**n * (2*T_n((2-x)/2) - 2).
    """
    _check_degree(n)
    if n == 0:
        return IntPolynomial([2])
    return IntPolynomial([(-1) ** (n + k) * (2 * n * math.comb(n + k, 2 * k) // (n + k))
                          for k in range(n + 1)])


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact product of two polynomials (:func:`poly_product`)."""
    return poly_product((a, b))


def poly_product(factors: Iterable[IntPolynomial]) -> IntPolynomial:
    """Exact product of any number of polynomials by Kronecker substitution.

    Every coefficient of the product is bounded by B, the product of the
    factors' L1 norms, so with bits = B.bit_length() + 1 each factor packs
    into the integer sum_k c_k * 2**(bits*k) without its coefficients
    overlapping, one big-integer product (in C) multiplies them all, and the
    product's coefficients are that integer's balanced base-2**bits digits.
    The empty product is 1; a lone factor comes back as it is, unpacked.
    """
    factors = list(factors)
    if len(factors) == 1:
        return factors[0]
    coeff_lists = [f.coefficients for f in factors]
    bound = 1
    for cs in coeff_lists:
        bound *= sum(abs(c) for c in cs)
    if bound == 0:
        return IntPolynomial([0])
    bits = bound.bit_length() + 1
    packed = 1
    for cs in coeff_lists:
        packed *= _pack(cs, bits)
    return IntPolynomial(_unpack(packed, bits, sum(len(cs) - 1 for cs in coeff_lists) + 1))


#: coefficient count below which packing and unpacking run a plain loop;
#: longer lists are split in halves, so each big-integer shift or mask costs
#: O(size) once per level instead of once per coefficient
_LEAF = 16


def _pack(coeffs: Sequence[int], bits: int) -> int:
    """The integer sum_k coeffs[k] * 2**(bits*k)."""
    if len(coeffs) > _LEAF:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], bits) + (_pack(coeffs[h:], bits) << (bits * h))
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << bits) + c
    return acc


def _unpack(value: int, bits: int, count: int) -> list[int]:
    """The ``count`` balanced base-2**bits digits of ``value``, lowest first.

    Every digit must lie strictly between -2**(bits-1) and 2**(bits-1), as
    the coefficients of :func:`poly_product` do; then each block of h digits
    is the balanced residue of its value mod 2**(bits*h).  Raises
    ArithmeticError when ``value`` has digits beyond the first ``count``.
    """
    if _balanced_low(value, bits * count) != value:
        raise ArithmeticError("packed product has digits beyond the coefficient count")
    return _digits(value, bits, count)


def _digits(value: int, bits: int, count: int) -> list[int]:
    if count > _LEAF:
        h = count // 2
        low = _balanced_low(value, bits * h)
        return _digits(low, bits, h) + _digits((value - low) >> (bits * h), bits, count - h)
    base, half, mask = 1 << bits, 1 << (bits - 1), (1 << bits) - 1
    out = []
    for _ in range(count):
        d = value & mask
        if d >= half:
            d -= base
        out.append(d)
        value = (value - d) >> bits
    return out


def _balanced_low(value: int, width: int) -> int:
    """The residue of ``value`` mod 2**width in [-2**(width-1), 2**(width-1))."""
    low = value & ((1 << width) - 1)
    return low - (1 << width) if low >> (width - 1) else low


def poly_shift_const(p: IntPolynomial, c: int) -> IntPolynomial:
    """Return p + c."""
    coeffs = list(p.coefficients)
    coeffs[0] += c
    return IntPolynomial(coeffs)


def eval_exact(p: IntPolynomial, x: int | Fraction | float) -> int | Fraction | float:
    """Horner evaluation, exact at an integer or rational point.

    ``Fraction(float_value)`` converts a float argument losslessly, so this
    doubles as an arbitrarily-accurate evaluator at floating-point points.
    At a float point the same loop runs in floating point; the monomial basis
    is ill-conditioned near the ends of the root interval once degrees pass
    ~25, so high-degree sweeps evaluate at ``Fraction(x)`` instead.
    """
    acc: int | Fraction = 0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def z_value(n: int, x):
    """Evaluate z_poly(n) at x by the recurrence (numerically stable).

    Accepts scalars or numpy arrays.
    """
    if n == 0:
        return x * 0 + 1.0
    prev, cur = x * 0 + 1.0, x - 1.0
    for _ in range(n - 1):
        prev, cur = cur, (x - 2.0) * cur - prev
    return cur


def z_roots(n: int) -> list[float]:
    """Roots of z_poly(n): 4*cos(pi*k/(2n+1))**2, k = 1..n, ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [4 * math.cos(math.pi * k / (2 * n + 1)) ** 2 for k in range(n, 0, -1)]


def z_shifted_roots(n: int, p: int) -> list[float]:
    """Roots of z_poly(n) + (-1)**p in closed form.

    The root set is {4*cos(pi*k / (2n+1+(-1)**(k+p)))**2 : k = 1..n}; all n
    values are distinct and lie in [0, 4).  Returned in the k-order of the
    formula (descending in magnitude).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p not in (0, 1):
        raise ValueError(f"p must be 0 or 1, got {p}")
    out = []
    for k in range(1, n + 1):
        denom = 2 * n + 1 + (-1) ** (k + p)
        out.append(4 * math.cos(math.pi * k / denom) ** 2)
    return out


def landmark_roots(m: int) -> LandmarkRoots:
    """The two smallest roots of Z_m and of Z_m + (-1)**m, for m > 1."""
    if m <= 1:
        raise ValueError(f"m must be > 1, got {m}")
    return LandmarkRoots(
        m=m,
        x1=4 * math.cos(math.pi * m / (2 * m + 1)) ** 2,
        x2=4 * math.cos(math.pi * (m - 1) / (2 * m + 1)) ** 2,
        u1=4 * math.cos(math.pi * m / (2 * m + 2)) ** 2,
        u2=4 * math.cos(math.pi * (m - 1) / (2 * m)) ** 2,
    )


def product_polynomial(ks: Sequence[int], p: int) -> IntPolynomial:
    """The even polynomial prod_k cheb_u(2*i_k) + (-1)**p."""
    return poly_shift_const(poly_product(cheb_u(2 * k) for k in ks), (-1) ** p)


def classify_product_real(ks: Sequence[int], p: int) -> RealRootVerdict:
    """Decide whether prod_k cheb_u(2*i_k) + (-1)**p has only real roots.

    Exactly three shapes are all-real; every root is then known in closed
    form (returned ascending, double roots listed twice):

    * one factor, either sign of the constant;
    * two equal factors with constant -1 (the product minus one splits into
      a difference of two shifted factors);
    * two factors of adjacent index with constant +1 (the product plus one
      is a perfect square of an odd-degree cheb_u in sqrt(x)).

    Everything else has at least one conjugate pair and gets the one shared
    (frozen) non-real verdict, without roots.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("factor index list must be nonempty")
    if min(ks) < 1:
        raise ValueError(f"factor indices must be >= 1, got {list(ks)}")
    if p not in (0, 1):
        raise ValueError(f"p must be 0 or 1, got {p}")

    if len(ks) == 1:
        j = ks[0]
        vals = []
        for y in z_shifted_roots(j, p):
            r = math.sqrt(y)
            vals.extend([r, -r])
        return RealRootVerdict(True, "single-factor", tuple(sorted(vals)))

    if len(ks) == 2:
        i1, i2 = ks
        if i1 == i2 and p == 1:
            j = i1
            vals = []
            for k in range(1, j + 1):
                for denom in (2 * j, 2 * j + 2):
                    r = 2 * math.cos(math.pi * k / denom)
                    vals.extend([r, -r])
            return RealRootVerdict(True, "equal-pair", tuple(sorted(vals)))
        if abs(i1 - i2) == 1 and p == 0:
            j = max(i1, i2)
            vals = []
            for k in range(1, 2 * j):
                r = 2 * math.cos(math.pi * k / (2 * j))
                vals.extend([r, r])  # every root has multiplicity 2
            return RealRootVerdict(True, "adjacent-pair", tuple(sorted(vals)))

    return _NON_REAL


def product_bound_witness(ks: Sequence[int]) -> float:
    """Third-smallest root (with multiplicity) of prod_k z_poly(i_k).

    On (0, x3] the product stays strictly below 1 in absolute value; callers
    sample that interval to confirm the bound.  For exactly two factors the
    bound requires the indices to differ by more than 1 and is rejected
    otherwise.
    """
    ks = list(ks)
    if len(ks) < 2:
        raise ValueError("need at least two factors")
    if any(k < 1 for k in ks):
        raise ValueError(f"factor indices must be >= 1, got {ks}")
    if len(ks) == 2 and abs(ks[0] - ks[1]) <= 1:
        raise ValueError(
            f"two-factor bound requires indices differing by more than 1, got {ks}"
        )
    merged: list[float] = []
    for k in ks:
        merged.extend(z_roots(k))
    merged.sort()
    return merged[2]
