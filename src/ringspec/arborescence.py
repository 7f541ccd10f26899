"""Counting spanning converging trees (in-arborescences) in ring digraphs.

The closed form: in a tree converging to v every other vertex keeps one
out-arc, so v+1, ..., v+a step back along forward arcs and v-1, ..., v-b
step up along reverse arcs, with a + b = n - 1.  Hence t_v is one more than
the run of present reverse arcs ending at v - 1, capped at n: n on the
symmetric ring, 1 on the bare cycle.  :func:`tree_counts` takes every t_v
from two laps of the mask, then certifies them in O(n) against the
Laplacian's nonzeros before returning them; ``trees <n> <mask>`` answers
from it.  The test suite holds the independent routes it is checked
against: Bareiss cofactors (the all-minors matrix-tree theorem) and
enumeration.

For the ring digraph missing exactly the reverse arcs at positions i and n,
the total admits the closed form (i**2 + n + (n-i)**2) / 2, which reduces to
n(n+2)/4 at i = n/2 (n even) and (n+1)**2/4 at i = (n+-1)/2 (n odd); those
values are simultaneously trigonometric product identities, checked in
:func:`trig_product_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ringgraph import RingDigraph, arcs


@dataclass(frozen=True)
class ArborescenceCount:
    """Per-root spanning converging tree counts plus their sum."""

    per_root: tuple[int, ...]
    total: int


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


def count_record(g: RingDigraph) -> dict:
    """JSON-ready per-root and total counts for one ring digraph."""
    counts = tree_counts(g)
    return {
        "n": g.n,
        "mask": g.mask_string(),
        "per_root": list(counts.per_root),
        "total": counts.total,
    }
