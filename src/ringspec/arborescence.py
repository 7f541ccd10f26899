"""Counting spanning converging trees (in-arborescences) in ring digraphs.

The closed form: in a tree converging to v every other vertex keeps one
out-arc, so v+1, ..., v+a step back along forward arcs and v-1, ..., v-b
step up along reverse arcs, with a + b = n - 1.  Hence t_v is one more than
the run of present reverse arcs ending at v - 1, capped at n: n on the
symmetric ring, 1 on the bare cycle.  :func:`tree_counts` takes every t_v
from two laps of the mask, then certifies them in O(n) against the
Laplacian's nonzeros before returning them; ``trees <n> <mask>`` answers
from it.

The cofactor route, the tests' oracle: for a digraph Laplacian with zero row
sums, every cofactor taken in row v equals the number of spanning trees
converging to v, so the principal minor at (v, v) already is the per-root
count and the total is their sum (the all-minors matrix-tree theorem).
Hence adj(L) = 1 t^T, and the count vector t spans the left kernel of L:
one fraction-free (Bareiss) solve on that kernel gives every count in
O(n^3) instead of n separate minors.  Arithmetic stays in exact integers,
and the result is checked against t^T L = 0.

For the ring digraph missing exactly the reverse arcs at positions i and n,
the total admits the closed form (i**2 + n + (n-i)**2) / 2, which reduces to
n(n+2)/4 at i = n/2 (n even) and (n+1)**2/4 at i = (n+-1)/2 (n odd); those
values are simultaneously trigonometric product identities, checked in
:func:`trig_product_check`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import rootfind
from .polycore import IntPolynomial
from .ringgraph import RingDigraph, arcs

BRUTE_FORCE_LIMIT = 9


@dataclass(frozen=True)
class ArborescenceCount:
    """Per-root spanning converging tree counts plus their sum."""

    per_root: tuple[int, ...]
    total: int


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


def _closed_form_counts(mask: Sequence[bool]) -> list[int]:
    """t_v = 1 + the run of present reverse arcs ending at v - 1, capped at n.

    One lap of the mask seeds the run that wraps into vertex 1; a second lap
    emits the counts, so the whole vector takes O(n).
    """
    n = len(mask)
    run = 0
    for present in mask:
        run = run + 1 if present else 0
    counts = []
    for present in mask:
        counts.append(min(run + 1, n))
        run = run + 1 if present else 0
    return counts


def _certify_counts(g: RingDigraph, counts: Sequence[int]) -> None:
    """Prove ``counts`` are the matrix-tree counts of g, in O(n), or raise.

    Reads the Laplacian's nonzeros from the arc list, at most three per row
    and per column, and never the mask runs the closed form used.  (a) t^T L
    = 0 column by column.  (b) t at vertex 1 equals the principal minor
    there: without vertex 1, the vertices 2..n in cyclic order form a
    tridiagonal matrix, whose determinant is the continuant.  The forward
    cycle makes every ring digraph strongly connected, so the left kernel
    of L is one-dimensional and (a) and (b) together pin t down.
    """
    n = g.n
    diag = [0] * (n + 1)
    up = [0] * (n + 1)  # up[u] = L[u][u+1]
    down = [0] * (n + 1)  # down[u] = L[u][u-1]
    column = [0] * (n + 1)  # column[j] = (t^T L)_j
    for u, v in arcs(g):
        t = counts[u - 1]
        diag[u] += 1
        column[u] += t
        column[v] -= t
        if v == u + 1:
            up[u] -= 1
        elif v == u - 1:
            down[u] -= 1
        elif u != 1 and v != 1:
            raise ArithmeticError(
                f"arc ({u}, {v}) leaves the minor at vertex 1 non-tridiagonal")
    for j in range(1, n + 1):
        if column[j] != 0:
            raise ArithmeticError(f"tree counts fail t^T L = 0 in column {j - 1}")
    prev, cur = 1, diag[2]
    for b in range(3, n + 1):
        prev, cur = cur, diag[b] * cur - up[b - 1] * down[b] * prev
    if counts[0] != cur:
        raise ArithmeticError(
            f"tree count {counts[0]} at vertex 1 != its principal minor {cur}")


def tree_counts(g: RingDigraph) -> ArborescenceCount:
    """Every per-root converging-tree count of g from the closed form, certified.

    O(n) in time and memory: the counts come from two laps of the mask and
    are checked against the Laplacian's nonzeros (t^T L = 0 and the principal
    minor at vertex 1) before they are returned; a failed check raises
    ArithmeticError.
    """
    counts = _closed_form_counts(g.reverse_mask)
    _certify_counts(g, counts)
    return ArborescenceCount(tuple(counts), sum(counts))


def tree_count_formula(n: int, i: int) -> int:
    """Closed-form total count for the two-gap ring digraph with gaps (i, n-i).

    Equals (i**2 + n + (n-i)**2) / 2; the numerator is even for every valid
    (n, i), which the test suite sweeps rather than assumes.
    """
    if n < 3 or not 1 <= i < n:
        raise ValueError(f"need n >= 3 and 1 <= i < n, got i={i}, n={n}")
    num = i * i + n + (n - i) * (n - i)
    if num % 2 != 0:
        raise ArithmeticError(f"count formula not integral at n={n}, i={i}")
    return num // 2


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


def trig_product_check(n: int) -> tuple[float, float]:
    """Evaluate both sides of the product identity for the balanced tree count.

    Even n: (prod_{k<n/2} 2cos(pi*k/n) * prod_{k<=n/2} 2cos(pi*k/(n+2)))**2
    against n(n+2)/4.  Odd n: (prod_{k<=(n-1)/2} 2cos(pi*k/(n+1)))**4 against
    (n+1)**2/4.  Returns (product side, closed form).
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if n % 2 == 0:
        lhs = 1.0
        for k in range(1, n // 2):
            lhs *= 2 * math.cos(math.pi * k / n)
        for k in range(1, n // 2 + 1):
            lhs *= 2 * math.cos(math.pi * k / (n + 2))
        return lhs * lhs, n * (n + 2) / 4
    lhs = 1.0
    for k in range(1, (n - 1) // 2 + 1):
        lhs *= 2 * math.cos(math.pi * k / (n + 1))
    return lhs ** 4, (n + 1) ** 2 / 4


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


def count_record(g: RingDigraph) -> dict:
    """JSON-ready per-root and total counts for one ring digraph."""
    counts = tree_counts(g)
    return {
        "n": g.n,
        "mask": g.mask_string(),
        "per_root": list(counts.per_root),
        "total": counts.total,
    }
