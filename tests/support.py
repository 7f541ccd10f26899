"""Shared helpers for the test suite, and the reference routes it checks the
program against: Faddeev-LeVerrier, Bareiss cofactors, tree enumeration, the
path matrix, the weighted 4-cycles' Laplacians and the consensus disagreement.
None of these is reached by the program itself."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from ringspec import rootfind
from ringspec.arborescence import ArborescenceCount
from ringspec.polycore import IntPolynomial
from ringspec.ringgraph import RingDigraph, arcs


def match_multisets(expected, actual, tol: float) -> float:
    """Greedy nearest-neighbour matching of two complex multisets.

    Returns the largest matched distance; raises AssertionError on size
    mismatch or when some value cannot be matched within 100*tol (so the
    caller still sees the offending distance).
    """
    exp = [complex(v) for v in expected]
    act = [complex(v) for v in actual]
    assert len(exp) == len(act), f"multiset sizes differ: {len(exp)} vs {len(act)}"
    remaining = list(act)
    worst = 0.0
    for e in exp:
        dists = [abs(e - a) for a in remaining]
        idx = dists.index(min(dists))
        worst = max(worst, dists[idx])
        remaining.pop(idx)
    assert worst <= tol, f"multiset mismatch: worst distance {worst:.3e} > {tol:.0e}"
    return worst


def has_repeats(values, gap: float = 1e-7) -> bool:
    vals = [complex(v) for v in values]
    return any(
        abs(a - b) < gap
        for i, a in enumerate(vals) for b in vals[i + 1:]
    )


def spectrum_tol(expected) -> float:
    """1e-6 for spectra with repeated values, 1e-9 otherwise."""
    return 1e-6 if has_repeats(expected) else 1e-9


def exact_abs_at(p: IntPolynomial, x: float) -> float:
    """|p(x)| evaluated exactly at the (lossless) rational image of x."""
    return float(abs(sum(Fraction(c) * Fraction(x) ** i
                         for i, c in enumerate(p.coefficients))))


def dps_for(degree: int) -> int:
    """Working precision that keeps root clusters far below 1e-9."""
    return 30 + degree


def polyroots(p) -> tuple:
    """p's roots by mpmath.polyroots at 120 digits, one square-free factor at a time.

    The factors are Yun's (``rootfind._square_free_factors``), each root
    listed as often as its multiplicity.  Computed once per polynomial; a
    degree-20 factor takes about a second.
    """
    return _polyroots(rootfind._coefficients(p))


@functools.cache
def _polyroots(coeffs: tuple) -> tuple:
    roots = []
    with mpmath.workdps(120):
        for factor, k in rootfind._square_free_factors(coeffs):
            found = mpmath.polyroots([mpmath.mpf(c) for c in reversed(factor)],
                                     maxsteps=400, extraprec=600)
            roots += [r for r in found for _ in range(k)]
    return tuple(roots)


def newton_roots(p, starts, dps: int = 150, steps: int = 3) -> tuple[list, list[float]]:
    """p's roots by mpmath's Newton method, each proved by its Newton disc.

    The starts are fixed-point numbers (re + i im) * 2**-bits, as
    ``ComplexRootSet.working`` holds them, taken exactly.  Each takes
    ``steps`` Newton steps at ``dps`` digits; the disc of radius
    deg p * |p / p'| about the point it reaches holds a root of p.  Asserts
    that there is one start per degree of p and that the discs are pairwise
    disjoint, so that each holds exactly one root and p is square-free.
    Returns the points, as mpmath numbers, and the discs' radii.
    """
    coeffs = rootfind._coefficients(p)
    d = len(coeffs) - 1
    assert len(starts) == d, f"{len(starts)} starts for degree {d}"
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c) for c in reversed(coeffs)]
        points, radii = [], []
        for z in starts:
            z = mpmath.mpc(mpmath.ldexp(z.re, -z.bits), mpmath.ldexp(z.im, -z.bits))
            for _ in range(steps):
                value, slope = mpmath.polyval(cs, z, derivative=True)
                z -= value / slope
            value, slope = mpmath.polyval(cs, z, derivative=True)
            points.append(z)
            radii.append(d * abs(value / slope))
        for (z, r), (w, s) in itertools.combinations(zip(points, radii), 2):
            assert abs(z - w) > r + s, f"discs about {complex(z)} and {complex(w)} overlap"
        return points, [float(r) for r in radii]


def faddeev_leverrier(rows: list[list[int]]) -> list[int]:
    """det(xI - M) of any square integer matrix by the trace recursion, ascending.

    The reference for ``rootfind.char_poly_exact``, which shares no code
    with it.  The per-step divisions are exact for integer input.
    """
    n = len(rows)
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = [0] * (n + 1)
    cs[n] = 1  # leading coefficient of x**n
    for k in range(1, n + 1):
        aux = _int_mat_mul(rows, aux)
        trace = sum(aux[i][i] for i in range(n))
        assert trace % k == 0, "trace recursion division not exact"
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


# -- tree counts: the cofactor route and enumeration -------------------------
#
# The references for ``arborescence.tree_counts``.  For a digraph Laplacian
# with zero row sums, every cofactor taken in row v equals the number of
# spanning trees converging to v, so the principal minor at (v, v) already
# is the per-root count and the total is their sum (the all-minors
# matrix-tree theorem).  Hence adj(L) = 1 t^T, and the count vector t spans
# the left kernel of L: one fraction-free (Bareiss) solve on that kernel
# gives every count in O(n^3) instead of n separate minors.  Arithmetic stays
# in exact integers, and the result is checked against t^T L = 0.

BRUTE_FORCE_LIMIT = 9


def _bareiss_eliminate(m: list[list[int]], size: int) -> int:
    """Fraction-free forward elimination of the leading ``size`` columns, in place.

    Rows may be longer than ``size``; their extra columns are carried along,
    so an augmented right-hand side is reduced with the matrix.  Rows are
    swapped to find a nonzero pivot.  Returns the sign of the row
    permutation, or 0 when the leading size x size block is singular.
    Afterwards row k holds the pivot m[k][k] and the entries right of it
    after k steps (Bareiss): every entry is an integer minor, and
    m[size-1][size-1] is sign * the block's determinant.
    """
    sign = 1
    prev = 1
    for k in range(size):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, size):
            row_i = m[i]
            a = row_i[k]
            # every division here is exact (Bareiss)
            if a:
                row_i[k + 1:] = [(pivot * x - a * y) // prev
                                 for x, y in zip(row_i[k + 1:], row_k[k + 1:])]
            elif pivot != prev:
                row_i[k + 1:] = [pivot * x // prev for x in row_i[k + 1:]]
        prev = pivot
    return sign


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [[int(v) for v in row] for row in matrix]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    return _bareiss_eliminate(m, n) * m[n - 1][n - 1]


def _counts_from_root(rows: list[list[int]], v: int) -> list[int] | None:
    """Every per-root count from one elimination anchored at root v.

    With M the Laplacian without row and column v and r its row v without
    entry v, the counts t satisfy t_v = det(M) and M^T t' = -t_v r for the
    others (t^T L = 0).  One Bareiss pass over [M^T | -r] gives the last
    pivot D = +-det(M); fraction-free back-substitution then yields D * t'
    in integers, since D * (M^T)^-1 r is integral by Cramer's rule.
    Returns None when det(M) = 0.
    """
    n = len(rows)
    keep = [j for j in range(n) if j != v]
    aug = [[rows[i][j] for i in keep] + [-rows[v][j]] for j in keep]
    size = n - 1
    sign = _bareiss_eliminate(aug, size)
    if sign == 0:
        return None
    d = aug[size - 1][size - 1] if size else 1
    scaled = [0] * size  # scaled[k] = d * x_k, where M^T x = -r
    for k in range(size - 1, -1, -1):
        row = aug[k]
        acc = d * row[size] - sum(row[j] * scaled[j] for j in range(k + 1, size))
        scaled[k] = acc // row[k]
    counts = [sign * x for x in scaled]
    counts.insert(v, sign * d)
    return counts


def count_by_cofactor(laplacian_matrix: Sequence[Sequence[int]]) -> ArborescenceCount:
    """All per-root in-arborescence counts of an integer Laplacian.

    ``per_root[v]`` is the principal (v, v) minor, exact.  Because the rows
    sum to zero, adj(L) = 1 t^T: the counts t span the left kernel of L,
    scaled so that t_v is that minor.  One fraction-free solve anchored at
    the last root with a nonzero minor gives them all in O(n^3); the result
    is checked against t^T L = 0 exactly before it is returned.
    """
    rows = [[int(v) for v in row] for row in laplacian_matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if any(sum(row) != 0 for row in rows):
        raise ValueError("not a Laplacian: row sums must be zero")
    per_root = [0] * n
    for v in range(n - 1, -1, -1):
        counts = _counts_from_root(rows, v)
        if counts is not None:
            per_root = counts
            break
    for j in range(n):
        if sum(t * row[j] for t, row in zip(per_root, rows)) != 0:
            raise ArithmeticError(f"tree counts fail t^T L = 0 in column {j}")
    return ArborescenceCount(tuple(per_root), sum(per_root))


def brute_force_count(g, root: int, n: int | None = None) -> int:
    """Count spanning converging trees rooted at ``root`` by enumeration.

    Every non-root vertex picks one outgoing arc; a choice is a converging
    tree iff following the picks from each vertex reaches the root without
    revisiting a vertex.  Guarded to n <= 9 (combinatorial blow-up).
    """
    if isinstance(g, RingDigraph):
        arc_list = arcs(g)
        n = g.n
    else:
        arc_list = [(int(u), int(v)) for u, v in g]
        if n is None:
            n = max(max(u, v) for u, v in arc_list)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration guarded to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    if not 1 <= root <= n:
        raise ValueError(f"root {root} out of range 1..{n}")

    out: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in arc_list:
        out[u].append(v)
    non_root = [v for v in range(1, n + 1) if v != root]
    if any(not out[v] for v in non_root):
        return 0

    count = 0
    for choice in itertools.product(*(out[v] for v in non_root)):
        succ = dict(zip(non_root, choice))
        if all(_reaches_root(v, succ, root) for v in non_root):
            count += 1
    return count


def _reaches_root(v: int, succ: dict[int, int], root: int) -> bool:
    seen = set()
    while v != root:
        if v in seen:
            return False
        seen.add(v)
        v = succ[v]
    return True


# -- the path matrix ---------------------------------------------------------

def path_laplacian(n: int) -> list[list[int]]:
    """Laplacian of the undirected path on n vertices.

    Tridiagonal with diagonal (1, 2, ..., 2, 1) and -1 off-diagonals.  Note
    this is not the cycle Laplacian (no corner entries); the cycle's spectrum
    is 4*sin(pi*k/n)**2, k = 0..n-1, while the path's is 4*cos(pi*k/(2n))**2,
    k = 1..n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mat = [[0] * n for _ in range(n)]
    for v in range(n):
        deg = (1 if v > 0 else 0) + (1 if v < n - 1 else 0)
        mat[v][v] = deg
        if v > 0:
            mat[v][v - 1] = -1
        if v < n - 1:
            mat[v][v + 1] = -1
    return mat


def path_matrix_spectrum(n: int) -> tuple[IntPolynomial, list[float]]:
    """Characteristic polynomial of the path Laplacian plus closed-form roots.

    The polynomial always equals z_poly(n) + z_poly(n-1) exactly (an identity
    the tests pin down); the roots are 4*cos(pi*k/(2n))**2, k = 1..n.
    """
    poly = rootfind.char_poly_exact(path_laplacian(n))
    roots = [4 * math.cos(math.pi * k / (2 * n)) ** 2 for k in range(1, n + 1)]
    return poly, roots


# -- weighted 4-cycles --------------------------------------------------------

def chorded_c4_laplacian(p: float, y: float) -> list[list[float]]:
    """Laplacian of the 4-cycle 1->2->3->4->1 (weights 1, y, 1, 1) plus the
    shortcut arc 1->4 of weight p."""
    return [
        [p + 1, -1, 0, -p],
        [0, y, -y, 0],
        [0, 0, 1, -1],
        [-1, 0, 0, 1],
    ]


def chorded_c4_quartic(p, y):
    """The chorded 4-cycle's cubic-factor discriminant written out as a quartic in y.

    An independent expression; the tests verify that it coincides with
    ``weighted.chorded_c4_discriminant`` exactly.
    """
    q = p + 3
    value = 0
    for c in (q * (q - 4),
              -(2 * q ** 3 - 8 * q ** 2 + 4),
              q * (q ** 3 - 2 * q ** 2 - 8 * q + 6),
              -2 * q * (q + 2) * (q - 3) ** 2,
              (q + 1) * (q - 3) ** 3):
        value = value * y + c
    return value


def c4_laplacian(a: float, x: float) -> list[list[float]]:
    """Laplacian of the directed 4-cycle with arc weights (4, a, 9, x)."""
    return [
        [4, -4, 0, 0],
        [0, a, -a, 0],
        [0, 0, 9, -9],
        [-x, 0, 0, x],
    ]


# -- consensus dynamics -------------------------------------------------------

def disagreement(traj: Trajectory) -> np.ndarray:
    """Squared Euclidean distance of the state from its mean, per sample."""
    centered = traj.states - traj.states.mean(axis=1, keepdims=True)
    return np.einsum("ij,ij->i", centered, centered)
