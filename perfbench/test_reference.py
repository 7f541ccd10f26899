"""The benchmark's reference formulas against numpy.linalg.eigvals at small n.

Run from the repository root: ``python3 -m pytest -q perfbench/test_reference.py``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

import reference as ref


def masks(n):
    return ("".join(bits) for bits in itertools.product("01", repeat=n))


def eigvals(rows):
    return np.linalg.eigvals(np.array(ref.dense(rows), dtype=float))


def fraction_det(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return int(out)


def test_rule_table_matches_eigenvalues():
    for n in range(3, 9):
        for mask in masks(n):
            cyclic, _ = ref.rule_table(mask)
            ev = eigvals(ref.ring_laplacian(mask))
            assert (max(abs(ev.imag)) > 1e-6) == cyclic, mask


def test_closed_forms_match_eigenvalues():
    seen = set()
    for n in range(3, 13):
        for mask in masks(n) if n <= 8 else ["0" * n, "1" * n, "0" + "1" * (n - 1)]:
            expected = ref.closed_form(mask)
            if expected is None:
                continue
            seen.add(ref.rule_table(mask)[1])
            ev = eigvals(ref.ring_laplacian(mask))
            assert ref.match_distance(expected, ev) <= ref.spectrum_tol(expected), mask
    assert seen == {"symmetric", "full-cycle", "single-gap", "balanced-gaps",
                    "near-balanced-gaps"}


def test_path_spectrum():
    for n in range(1, 13):
        ev = eigvals(ref.path_laplacian(n))
        assert ref.match_distance(ref.path_spectrum(n), ev) <= 1e-9


def test_det_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        matrix = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(n)]
        rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
        assert ref.det(rows) == fraction_det(matrix)


def test_char_poly_identities():
    for n in range(3, 9):
        for mask in masks(n):
            rows = ref.ring_laplacian(mask)
            coeffs = [round(c) for c in np.poly(np.array(ref.dense(rows), dtype=float))[::-1].real]
            for k in (1, 2, 3):
                assert ref.eval_int(coeffs, k) == ref.det(ref.shifted(rows, k)), mask
            assert coeffs[0] == 0
            assert coeffs[n - 1] == -ref.trace(rows)
            assert coeffs[1] == (-1) ** (n - 1) * sum(ref.tree_counts(rows))


def test_tree_counts():
    for n in range(3, 13):
        assert ref.tree_counts(ref.ring_laplacian("1" * n)) == [n] * n
        assert ref.tree_counts(ref.ring_laplacian("0" * n)) == [1] * n
        for i in range(1, n):
            mask = "".join("0" if j in (i - 1, n - 1) else "1" for j in range(n))
            assert sum(ref.tree_counts(ref.ring_laplacian(mask))) == ref.two_gap_tree_total(n, i)


def test_bare_cycle_frequency():
    for n in range(3, 11):
        ev = eigvals(ref.ring_laplacian("0" * n))
        slowest = min((z for z in ev if z.imag > 1e-6), key=lambda z: z.real)
        assert abs(slowest.imag - math.sin(2 * math.pi / n)) < 1e-12


def test_monic_from_roots():
    roots = ref.path_spectrum(9)
    assert np.allclose(ref.monic_from_roots(roots), np.poly(roots)[::-1], rtol=1e-12)
