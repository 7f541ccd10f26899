"""Reference computations the benchmark checks ringspec's outputs against.

Nothing here imports ringspec: every expected value is derived again from
the mask string, by the paper's rule table and closed forms or by exact
integer elimination on a Laplacian built here.

Masks are strings of '0'/'1'; position j (0-based) is the reverse arc out of
vertex j + 1, '1' when present.  Vertices are 0-based below.
"""

from __future__ import annotations

import math

#: distance under which two eigenvalues count as one repeated root
REPEAT_GAP = 1e-7
TOL_SIMPLE = 1e-9
TOL_REPEATED = 1e-6


def gaps(mask: str) -> list[int]:
    """Cyclic distances between consecutive missing reverse arcs.

    Empty when no arc or every arc is missing; otherwise they sum to n.
    """
    n = len(mask)
    absent = [j for j, ch in enumerate(mask) if ch == "0"]
    k = len(absent)
    if k in (0, n):
        return []
    return [(absent[(i + 1) % k] - pos) % n or n for i, pos in enumerate(absent)]


def rule_table(mask: str) -> tuple[bool, str]:
    """(essentially cyclic, case) by the theorem's rule table.

    The spectrum is real iff K = 0, K = 1, or K = 2 with gaps differing by
    at most one, where K is the number of missing reverse arcs.
    """
    n = len(mask)
    k = mask.count("0")
    if k == 0:
        return False, "symmetric"
    if k == n:
        return True, "full-cycle"
    if k == 1:
        return False, "single-gap"
    if k == 2:
        i1, i2 = gaps(mask)
        if i1 == i2:
            return False, "balanced-gaps"
        if abs(i1 - i2) == 1:
            return False, "near-balanced-gaps"
        return True, "split-gaps"
    return True, "multi-gap"


def closed_form(mask: str) -> list[complex] | None:
    """The paper's closed-form Laplacian spectrum, or None where it has none."""
    n = len(mask)
    k = mask.count("0")
    pi = math.pi
    if k == n:  # bare directed cycle: 1 - exp(2 pi i j / n)
        return [complex(1 - math.cos(2 * pi * j / n), math.sin(2 * pi * j / n))
                for j in range(n)]
    if k == 0:  # symmetric ring: undirected cycle
        return [complex(2 - 2 * math.cos(2 * pi * j / n)) for j in range(n)]
    if k == 1:
        return [complex(4 * math.cos(pi * j / (2 * n + 1 - (-1) ** (j + n))) ** 2)
                for j in range(1, n + 1)]
    if k == 2:
        i1, i2 = gaps(mask)
        if i1 == i2:
            return [complex(4 * math.cos(pi * j / d) ** 2)
                    for d in (n, n + 2) for j in range(1, n // 2 + 1)]
        if abs(i1 - i2) == 1:
            return [complex(4 * math.cos(pi * j / (n + 1)) ** 2) for j in range(1, n + 1)]
    return None


def path_spectrum(n: int) -> list[float]:
    """Eigenvalues 4cos^2(pi k / 2n), k = 1..n, of the path Laplacian."""
    return [4 * math.cos(math.pi * k / (2 * n)) ** 2 for k in range(1, n + 1)]


def two_gap_tree_total(n: int, i: int) -> int:
    """Converging spanning trees of the ring missing two reverse arcs at gaps (i, n-i)."""
    return (i * i + n + (n - i) ** 2) // 2


def ring_laplacian(mask: str) -> list[dict[int, int]]:
    """Out-degree Laplacian as sparse rows {column: entry}.

    Vertex v always has the forward arc to v - 1 (mod n) and, when mask[v]
    is '1', the reverse arc to v + 1 (mod n).
    """
    n = len(mask)
    rows = []
    for v in range(n):
        row = {v: 1, (v - 1) % n: -1}
        if mask[v] == "1":
            row[v] += 1
            row[(v + 1) % n] = -1
        rows.append(row)
    return rows


def path_laplacian(n: int) -> list[dict[int, int]]:
    """Laplacian of the undirected path on n vertices, as sparse rows."""
    rows = []
    for v in range(n):
        row = {}
        for u in (v - 1, v + 1):
            if 0 <= u < n:
                row[u] = -1
                row[v] = row.get(v, 0) + 1
        rows.append(row)
    return rows


def dense(rows: list[dict[int, int]]) -> list[list[int]]:
    n = len(rows)
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def trace(rows: list[dict[int, int]]) -> int:
    return sum(row.get(v, 0) for v, row in enumerate(rows))


def shifted(rows: list[dict[int, int]], k: int) -> list[dict[int, int]]:
    """Sparse rows of kI - M."""
    out = []
    for v, row in enumerate(rows):
        new = {j: -x for j, x in row.items()}
        new[v] = new.get(v, 0) + k
        out.append({j: x for j, x in new.items() if x})
    return out


def principal_minor(rows: list[dict[int, int]], v: int) -> list[dict[int, int]]:
    """Sparse rows of M with row and column v removed."""
    return [{(j if j < v else j - 1): x for j, x in row.items() if j != v}
            for i, row in enumerate(rows) if i != v]


def det(rows: list[dict[int, int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination on sparse rows.

    A row that has a zero in the pivot column is not touched by that step.
    Bareiss would multiply it by pivot / previous pivot, and those factors
    telescope, so such a row is brought up to date only when it is next
    used.  Ring and path Laplacians then cost O(n) big-integer operations
    per step instead of O(n^2).
    """
    n = len(rows)
    if n == 0:
        return 1
    rows = [dict(r) for r in rows]
    level = [0] * n   # elimination steps already applied to each stored row
    divisor = [1]     # divisor[s]: the divisor of step s (the pivot of step s - 1)
    sign = 1

    def lift(i: int, k: int) -> None:
        if level[i] != k:
            f, d = divisor[k], divisor[level[i]]
            rows[i] = {j: x * f // d for j, x in rows[i].items()}
            level[i] = k

    for k in range(n - 1):
        hits = [i for i in range(k, n) if rows[i].get(k)]
        if not hits:
            return 0
        if hits[0] != k:
            i = hits[0]
            rows[k], rows[i] = rows[i], rows[k]
            level[k], level[i] = level[i], level[k]
            sign = -sign
            hits[0] = k  # the old row k had a zero in column k
        for i in hits:
            lift(i, k)
        top = rows[k]
        p = top[k]
        for i in hits[1:]:
            row = rows[i]
            a = row.pop(k)
            new = {}
            for j in row.keys() | top.keys():
                if j > k:
                    x = (p * row.get(j, 0) - a * top.get(j, 0)) // divisor[k]
                    if x:
                        new[j] = x
            rows[i] = new
            level[i] = k + 1
        divisor.append(p)
    lift(n - 1, n - 1)
    return sign * rows[n - 1].get(n - 1, 0)


def tree_counts(rows: list[dict[int, int]]) -> list[int]:
    """Converging spanning trees per root: the principal minors of a Laplacian."""
    return [det(principal_minor(rows, v)) for v in range(len(rows))]


def eval_int(coeffs: list[int], x: int) -> int:
    """Exact value at an integer of the polynomial with ascending coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def monic_from_roots(roots: list[float]) -> list[float]:
    """Ascending coefficients of prod (x - r), in floating point."""
    coeffs = [1.0]
    for r in roots:
        nxt = [0.0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs


def spectrum_tol(expected) -> float:
    """1e-9, or 1e-6 when the expected spectrum has a repeated value."""
    vals = [complex(z) for z in expected]
    repeated = any(abs(a - b) < REPEAT_GAP for i, a in enumerate(vals) for b in vals[i + 1:])
    return TOL_REPEATED if repeated else TOL_SIMPLE


def match_distance(expected, actual) -> float:
    """Largest distance of a greedy nearest-neighbour pairing of two multisets."""
    exp = [complex(z) for z in expected]
    rest = [complex(z) for z in actual]
    if len(exp) != len(rest):
        return math.inf
    worst = 0.0
    for e in exp:
        dists = [abs(e - a) for a in rest]
        i = dists.index(min(dists))
        worst = max(worst, dists[i])
        rest.pop(i)
    return worst
