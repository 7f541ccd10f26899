"""Tests for spanning converging tree counts and the path-matrix spectrum."""

from __future__ import annotations

import math
import random

import pytest

from ringspec import arborescence
from ringspec.arborescence import (
    ArborescenceCount,
    count_record,
    tree_count_formula,
    tree_counts,
    trig_product_check,
)
from ringspec.polycore import z_poly
from ringspec.ringgraph import RingDigraph, arcs, classify_exact, laplacian
import support
from support import (
    bareiss_determinant,
    brute_force_count,
    count_by_cofactor,
    exact_abs_at,
    match_multisets,
    path_laplacian,
    path_matrix_spectrum,
    polyroots,
)


def two_gap_digraph(n: int, i: int) -> RingDigraph:
    """Reverse arcs missing exactly at positions i and n: gaps (i, n-i)."""
    mask = [True] * n
    mask[i - 1] = False
    mask[n - 1] = False
    return RingDigraph(n, mask)


class TestBareiss:
    def test_known_determinants(self):
        assert bareiss_determinant([[2]]) == 2
        assert bareiss_determinant([[1, 2], [3, 4]]) == -2
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0

    def test_against_leibniz_on_random_matrices(self):
        import itertools
        import random

        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            ref = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                seen = [False] * n
                # parity via cycle decomposition
                for start in range(n):
                    if seen[start]:
                        continue
                    length = 0
                    j = start
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        length += 1
                    if length % 2 == 0:
                        sign = -sign
                term = sign
                for r in range(n):
                    term *= m[r][perm[r]]
                ref += term
            assert bareiss_determinant(m) == ref


class TestCofactorCounts:
    def test_two_gap_examples(self):
        c = count_by_cofactor(laplacian(two_gap_digraph(4, 2)))
        assert c == ArborescenceCount((1, 2, 1, 2), 6)
        assert tree_count_formula(4, 2) == 6
        c = count_by_cofactor(laplacian(two_gap_digraph(4, 1)))
        assert c.total == 7 == tree_count_formula(4, 1)

    def test_bare_cycle_has_one_tree_per_root(self):
        for n in (3, 5, 8):
            c = count_by_cofactor(laplacian(RingDigraph(n, (False,) * n)))
            assert c.per_root == (1,) * n

    def test_symmetric_triangle(self):
        c = count_by_cofactor(laplacian(RingDigraph(3, (True,) * 3)))
        assert c.per_root == (3, 3, 3)

    def test_rejects_non_laplacian(self):
        with pytest.raises(ValueError):
            count_by_cofactor([[1, 0], [0, 1]])

    def test_brute_force_agreement_exhaustive(self):
        for n in (3, 4, 5, 6):
            for bits in range(2 ** n):
                mask = tuple(bool((bits >> j) & 1) for j in range(n))
                g = RingDigraph(n, mask)
                c = count_by_cofactor(laplacian(g))
                for root in range(1, n + 1):
                    assert brute_force_count(g, root) == c.per_root[root - 1], (
                        n, mask, root)


def minor_counts(lap):
    """Per-root counts as n separate principal minors (the O(n^4) route)."""
    n = len(lap)
    return tuple(
        bareiss_determinant([[lap[i][j] for j in range(n) if j != v]
                             for i in range(n) if i != v])
        for v in range(n))


def arc_laplacian(n, arc_list):
    lap = [[0] * n for _ in range(n)]
    for u, v in arc_list:
        lap[u - 1][u - 1] += 1
        lap[u - 1][v - 1] -= 1
    return lap


class TestOneSolve:
    def test_equals_the_minors_on_every_mask(self):
        for n in range(3, 10):
            for bits in range(2 ** n):
                lap = laplacian(RingDigraph(n, tuple(bool((bits >> j) & 1)
                                                     for j in range(n))))
                assert count_by_cofactor(lap).per_root == minor_counts(lap), (n, bits)

    def test_equals_the_minors_on_random_laplacians(self):
        rng = random.Random(7)
        with_zero = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            density = rng.choice((0.2, 0.4, 0.7))
            weights = [[rng.randint(1, 3) if j != i and rng.random() < density else 0
                        for j in range(n)] for i in range(n)]
            lap = [[sum(weights[i]) if i == j else -weights[i][j] for j in range(n)]
                   for i in range(n)]
            counts = count_by_cofactor(lap)
            assert counts.per_root == minor_counts(lap), lap
            assert counts.total == sum(counts.per_root)
            with_zero += 0 in counts.per_root
        assert 20 <= with_zero <= 180

    def test_zero_minor_at_the_last_root_moves_to_the_next(self):
        arc_list = [(3, 1), (2, 1), (1, 2)]
        lap = arc_laplacian(3, arc_list)
        assert bareiss_determinant([row[:2] for row in lap[:2]]) == 0
        assert count_by_cofactor(lap) == ArborescenceCount((1, 1, 0), 2)
        assert [brute_force_count(arc_list, r, n=3) for r in (1, 2, 3)] == [1, 1, 0]

    def test_no_root_at_all_gives_zeros(self):
        # two sinks: no spanning converging tree anywhere
        lap = arc_laplacian(3, [(3, 1)])
        assert count_by_cofactor(lap) == ArborescenceCount((0, 0, 0), 0)

    def test_one_elimination_per_ring_digraph(self, monkeypatch):
        calls = 0
        eliminate = support._bareiss_eliminate

        def counting(m, size):
            nonlocal calls
            calls += 1
            return eliminate(m, size)

        monkeypatch.setattr(support, "_bareiss_eliminate", counting)
        for n in range(3, 10):
            for bits in range(2 ** n):
                calls = 0
                count_by_cofactor(laplacian(RingDigraph(
                    n, tuple(bool((bits >> j) & 1) for j in range(n)))))
                assert calls == 1, (n, bits)

    def test_symmetric_ring_and_bare_cycle_up_to_120(self):
        for n in list(range(3, 41)) + [60, 80, 100, 120]:
            sym = count_by_cofactor(laplacian(RingDigraph(n, (True,) * n)))
            assert sym == ArborescenceCount((n,) * n, n * n), n
            bare = count_by_cofactor(laplacian(RingDigraph(n, (False,) * n)))
            assert bare == ArborescenceCount((1,) * n, n), n

    def test_two_gap_totals_at_fifty_and_eighty(self):
        for n in (50, 80):
            for i in range(1, n):
                total = count_by_cofactor(laplacian(two_gap_digraph(n, i))).total
                assert total == tree_count_formula(n, i), (n, i)

    def test_a_count_off_the_left_kernel_raises(self, monkeypatch):
        solve = support._counts_from_root

        def off_by_one(rows, v):
            counts = solve(rows, v)
            counts[0] += 1
            return counts

        monkeypatch.setattr(support, "_counts_from_root", off_by_one)
        with pytest.raises(ArithmeticError):
            count_by_cofactor(laplacian(two_gap_digraph(6, 2)))

    def test_single_vertex_and_empty_matrix(self):
        assert count_by_cofactor([[0]]) == ArborescenceCount((1,), 1)
        assert count_by_cofactor([]) == ArborescenceCount((), 0)


def every_mask(n):
    for bits in range(2 ** n):
        yield RingDigraph(n, tuple(bool((bits >> j) & 1) for j in range(n)))


class TestTreeCounts:
    def test_equals_the_oracle_on_every_mask_to_twelve(self):
        checked = 0
        for n in range(3, 13):
            for g in every_mask(n):
                assert tree_counts(g) == count_by_cofactor(laplacian(g)), g.mask_string()
                checked += 1
        assert checked == 8184

    def test_equals_the_oracle_at_forty_to_three_hundred(self):
        rng = random.Random(20)
        for n in (40, 120, 300):
            masks = [(True,) * n, (False,) * n]
            masks += [tuple(rng.random() < p for _ in range(n)) for p in (0.5, 0.9)]
            for mask in masks:
                g = RingDigraph(n, mask)
                assert tree_counts(g) == count_by_cofactor(laplacian(g)), g.mask_string()

    def test_every_two_gap_mask_to_sixty_matches_the_formula(self):
        for n in range(3, 61):
            for a in range(1, n):
                for b in range(a + 1, n + 1):
                    mask = [True] * n
                    mask[a - 1] = mask[b - 1] = False
                    total = tree_counts(RingDigraph(n, mask)).total
                    assert total == tree_count_formula(n, b - a), (n, a, b)

    def test_a_count_off_the_left_kernel_raises(self, monkeypatch):
        formula = arborescence._closed_form_counts

        def off_by_one(mask):
            counts = formula(mask)
            counts[2] += 1
            return counts

        monkeypatch.setattr(arborescence, "_closed_form_counts", off_by_one)
        with pytest.raises(ArithmeticError, match="t\\^T L = 0"):
            tree_counts(two_gap_digraph(6, 2))

    def test_a_multiple_of_the_counts_fails_the_minor(self, monkeypatch):
        formula = arborescence._closed_form_counts
        monkeypatch.setattr(arborescence, "_closed_form_counts",
                            lambda mask: [2 * t for t in formula(mask)])
        with pytest.raises(ArithmeticError, match="principal minor"):
            tree_counts(two_gap_digraph(6, 2))

    def test_a_chord_off_the_ring_is_refused(self, monkeypatch):
        # the continuant is the minor only while the minor is tridiagonal
        monkeypatch.setattr(arborescence, "arcs", lambda g: arcs(g) + [(2, 4)])
        with pytest.raises(ArithmeticError, match="tridiagonal"):
            tree_counts(RingDigraph(6, (True,) * 6))


class TestClosedForm:
    def test_formula_matches_cofactors(self):
        for n in range(4, 21):
            for i in range(1, n):
                total = count_by_cofactor(laplacian(two_gap_digraph(n, i))).total
                assert total == tree_count_formula(n, i), (n, i)

    def test_numerator_always_even(self):
        for n in range(2, 201):
            for i in range(1, n):
                assert (i * i + n + (n - i) * (n - i)) % 2 == 0

    def test_special_values(self):
        for n in range(4, 41, 2):
            assert tree_count_formula(n, n // 2) == n * (n + 2) // 4
        for n in range(5, 41, 2):
            assert tree_count_formula(n, (n - 1) // 2) == (n + 1) ** 2 // 4
            assert tree_count_formula(n, (n + 1) // 2) == (n + 1) ** 2 // 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tree_count_formula(5, 0)
        with pytest.raises(ValueError):
            tree_count_formula(5, 5)
        with pytest.raises(ValueError):
            tree_count_formula(2, 1)


class TestBruteForce:
    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_count(RingDigraph(10, (True,) * 10), 1)
        with pytest.raises(ValueError):
            brute_force_count(RingDigraph(4, (True,) * 4), 5)

    def test_arc_list_input(self):
        arcs = [(1, 2), (2, 3), (3, 1)]
        assert brute_force_count(arcs, 1) == 1
        assert brute_force_count(arcs, 1, n=3) == 1
        # no arcs out of vertex 2 -> no converging tree rooted elsewhere
        assert brute_force_count([(1, 2), (3, 2)], 1) == 0


class TestDeterminantSpectrumProduct:
    def test_nonzero_eigenvalue_product_equals_count(self):
        for n, i in [(6, 3), (8, 4), (10, 5), (7, 3), (9, 4), (11, 5), (13, 6)]:
            g = two_gap_digraph(n, i)
            cls = classify_exact(g)
            assert not cls.essentially_cyclic
            prod = 1.0
            for z in cls.closed_form_spectrum:
                if abs(z) > 1e-9:
                    prod *= z.real
            assert prod == pytest.approx(tree_count_formula(n, i), rel=1e-6)


class TestTrigProducts:
    def test_small_values(self):
        lhs, rhs = trig_product_check(4)
        assert rhs == 6
        assert lhs == pytest.approx(6, rel=1e-12)
        lhs, rhs = trig_product_check(5)
        assert rhs == 9
        assert lhs == pytest.approx(9, rel=1e-12)

    def test_up_to_forty(self):
        for n in range(4, 41):
            lhs, rhs = trig_product_check(n)
            assert lhs == pytest.approx(rhs, rel=1e-9), n
            assert rhs == pytest.approx(
                tree_count_formula(n, n // 2 if n % 2 == 0 else (n - 1) // 2))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            trig_product_check(3)


class TestPathMatrix:
    def test_matrix_shape(self):
        assert path_laplacian(1) == [[0]]
        assert path_laplacian(2) == [[1, -1], [-1, 1]]
        assert path_laplacian(4) == [
            [1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]

    def test_n2_polynomial_and_roots(self):
        poly, roots = path_matrix_spectrum(2)
        assert poly.coefficients == (0, -2, 1)
        match_multisets([2.0, 0.0], roots, 1e-12)

    def test_char_poly_identity_up_to_sixty(self):
        for n in range(1, 61):
            poly, _ = path_matrix_spectrum(n)
            assert poly == z_poly(n) + z_poly(n - 1), n

    def test_closed_roots_satisfy_polynomial(self):
        for n in (3, 10, 25, 40):
            poly, roots = path_matrix_spectrum(n)
            for r in roots:
                assert exact_abs_at(poly, r) < 1e-9, n

    def test_numeric_roots_match_closed_form(self):
        # mpmath's roots; the degree-40 sweep lives in the acceptance suite
        for n in (3, 8, 14):
            poly, roots = path_matrix_spectrum(n)
            match_multisets(roots, polyroots(poly), 1e-9)

    def test_path_spectrum_differs_from_cycle_spectrum(self):
        # the path matrix is not the cycle Laplacian: spectra differ at n=4
        n = 4
        _, path_roots = path_matrix_spectrum(n)
        cycle_roots = [4 * math.sin(math.pi * k / n) ** 2 for k in range(n)]
        assert sorted(path_roots) != pytest.approx(sorted(cycle_roots), abs=1e-6)


class TestRecord:
    def test_json_shape(self):
        rec = count_record(two_gap_digraph(4, 2))
        assert rec == {"n": 4, "mask": "1010", "per_root": [1, 2, 1, 2], "total": 6}
