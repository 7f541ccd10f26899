"""Tests for the weighted small-digraph cyclicity criteria."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from ringspec import weighted
from ringspec.rootfind import RootFinderConfig, aberth_roots, char_poly_float, spectral_verdict
from ringspec.weighted import (
    BoundaryNotFoundError,
    WeightMatrix,
    c4_boundary_value,
    c4_cubic,
    c4_discriminant,
    c4_laplacian,
    c4_scan,
    c4_triangle_ok,
    chorded_c4_boundary,
    chorded_c4_cubic,
    chorded_c4_discriminant,
    chorded_c4_laplacian,
    chorded_c4_quartic,
    cubic_discriminant,
    k3_classify,
    k3_discriminant,
    k3_matrix,
    k3_weights,
    scan_csv,
    weighted_laplacian,
)

CFG = RootFinderConfig()


class TestWeightMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix([[0, 1], [1, 0], [0, 0]])
        with pytest.raises(ValueError):
            WeightMatrix([[1, 1], [1, 0]])  # nonzero diagonal
        with pytest.raises(ValueError):
            WeightMatrix([[0, -1], [1, 0]])
        with pytest.raises(ValueError):
            WeightMatrix([[0, math.inf], [1, 0]])

    def test_layout_round_trip(self):
        wm = k3_matrix(1, 2, 3, 4, 5, 6)
        assert k3_weights(wm) == (1, 2, 3, 4, 5, 6)

    def test_zero_weights_allowed(self):
        WeightMatrix([[0, 0], [0, 0]])


class TestWeightedLaplacian:
    def test_unit_cycle_matches_unweighted(self):
        wm = WeightMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert weighted_laplacian(wm) == [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]

    def test_complete_unit_triangle(self):
        wm = k3_matrix(*([1.0] * 6))
        lap = weighted_laplacian(wm)
        for i in range(3):
            assert lap[i][i] == 2
            assert sum(lap[i]) == 0

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = rng.uniform(0, 5, size=(4, 4))
            np.fill_diagonal(w, 0.0)
            lap = weighted_laplacian(WeightMatrix(w.tolist()))
            assert all(abs(sum(row)) < 1e-12 for row in lap)


class TestK3:
    def test_discriminant_examples(self):
        assert k3_discriminant(k3_matrix(1, 1, 1, 1, 1, 1)) == 0
        assert k3_discriminant(k3_matrix(1, 1, 1, 0, 0, 0)) == -3
        assert k3_discriminant(k3_matrix(4, 1, 1, 0, 0, 0)) == 0

    def test_classify_examples(self):
        assert k3_classify(k3_matrix(1, 1, 1, 0, 0, 0)) is True
        assert k3_classify(k3_matrix(4, 1, 1, 0, 0, 0)) is False
        # mixed difference signs: one converging pair dominated each way
        assert k3_classify(k3_matrix(2, 1, 3, 1, 2, 1)) is False

    def test_pure_cycle_reduces_to_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b, c = rng.uniform(0, 10, size=3)
            r1, r2, r3 = math.sqrt(a), math.sqrt(b), math.sqrt(c)
            triangle = r1 < r2 + r3 and r2 < r1 + r3 and r3 < r1 + r2
            assert k3_classify(k3_matrix(a, b, c, 0, 0, 0)) == triangle

    def test_quadratic_root_identity(self):
        # roots of the discriminant as a quadratic in (a - alpha) are
        # (sqrt(b-beta) +- sqrt(c-gamma))^2 when both differences are positive
        rng = np.random.default_rng(9)
        for _ in range(200):
            b, beta = sorted(rng.uniform(0, 10, size=2), reverse=True)
            c, gamma = sorted(rng.uniform(0, 10, size=2), reverse=True)
            if (b - beta) * (c - gamma) <= 0:
                continue
            lo = (math.sqrt(b - beta) - math.sqrt(c - gamma)) ** 2
            hi = (math.sqrt(b - beta) + math.sqrt(c - gamma)) ** 2
            for root in (lo, hi):
                alpha = 1.3
                a = root + alpha
                d = k3_discriminant(k3_matrix(a, b, c, alpha, beta, gamma))
                assert d == pytest.approx(0.0, abs=1e-9 * max(1.0, a * a))

    def test_three_way_agreement_sample(self):
        # the 10^4-instance version is acceptance criterion 7
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 300:
            a, b, c, alpha, beta, gamma = rng.uniform(0, 10, size=6)
            wm = k3_matrix(a, b, c, alpha, beta, gamma)
            d = k3_discriminant(wm)
            if abs(d) <= 1e-6:
                continue
            triangle = k3_classify(wm)
            numeric = spectral_verdict(
                aberth_roots(char_poly_float(weighted_laplacian(wm)), CFG), CFG)
            assert triangle == (d < 0) == numeric, (a, b, c, alpha, beta, gamma)
            checked += 1


class TestChordedC4:
    def test_cubic_coefficients(self):
        b, c, d = chorded_c4_cubic(3, 1)
        assert (b, c, d) == (-7, 12, -7)

    def test_discriminant_examples(self):
        assert chorded_c4_discriminant(3, 1) == -199
        assert chorded_c4_discriminant(3, 0.1) > 0
        assert chorded_c4_discriminant(3, 0.2) > 0 > chorded_c4_discriminant(3, 0.3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chorded_c4_discriminant(0, 1)
        with pytest.raises(ValueError):
            chorded_c4_discriminant(3, 0)
        with pytest.raises(ValueError):
            chorded_c4_boundary(-1)

    def test_quartic_equals_discriminant_exactly(self):
        # both are bivariate of degree <= 4 per variable, so agreement on a
        # 6x6 rational grid proves the polynomial identity
        for pn in range(1, 7):
            for yn in range(1, 7):
                p, y = Fraction(pn, 2), Fraction(yn, 3)
                assert chorded_c4_quartic(p, y) == chorded_c4_discriminant(p, y)

    def test_laplacian_matches_cubic(self):
        for p, y in ((3.0, 1.0), (1.0, 2.0), (5.0, 0.7)):
            cs = char_poly_float(chorded_c4_laplacian(p, y))
            b, c, d = chorded_c4_cubic(p, y)
            # char poly = x * (x^3 + b x^2 + c x + d); ascending coefficients
            assert cs == pytest.approx([0.0, d, c, b, 1.0], abs=1e-9)

    def test_boundary_window_p3(self):
        y1, y2 = chorded_c4_boundary(3.0)
        assert y1 == pytest.approx(0.266, abs=0.002)
        assert y2 == pytest.approx(2.441, abs=0.002)
        assert chorded_c4_discriminant(3.0, 0.5 * (y1 + y2)) < 0
        assert chorded_c4_discriminant(3.0, y1 * 0.9) > 0
        assert chorded_c4_discriminant(3.0, y2 * 1.1) > 0

    def test_boundary_bisection_accuracy(self):
        for p in (1.5, 2.0, 3.0, 5.0):
            y1, y2 = chorded_c4_boundary(p)
            for y in (y1, y2):
                assert abs(chorded_c4_discriminant(p, y)) < 1e-4
            assert chorded_c4_discriminant(p, 0.5 * (y1 + y2)) < 0

    def test_boundary_at_large_p_stops_at_adjacent_doubles(self, monkeypatch):
        # near y = 1e10 adjacent doubles are ~2e-6 apart, far above the 1e-9
        # accuracy; the bisection must stop once its midpoint stops moving
        # (4096 scan samples plus well under 100 steps per edge).  Only the
        # bisection's invariant is checked: at this p the double-precision
        # discriminant near y = p is rounding noise, so where the edges land
        # is not asserted.
        discriminant = weighted.chorded_c4_discriminant
        calls = 0

        def counting(p, y):
            nonlocal calls
            calls += 1
            if calls > 5000:
                raise RuntimeError("bisection does not terminate")
            return discriminant(p, y)

        monkeypatch.setattr(weighted, "chorded_c4_discriminant", counting)
        p = 1e10
        for y in chorded_c4_boundary(p):
            below, at, above = (discriminant(p, v) < 0 for v in
                                (math.nextafter(y, 0), y, math.nextafter(y, math.inf)))
            assert below != at or at != above, y

    @pytest.mark.parametrize("p", [1e4, 1e6, 1e8, 1e10])
    def test_window_at_large_p(self, p):
        # the window is about (1 - 2/sqrt(p), 1 + 2/sqrt(p)); its edges are
        # the outermost doubles at which the exact discriminant is negative
        y1, y2 = chorded_c4_boundary(p)
        half = 2 / math.sqrt(p)
        assert y1 == pytest.approx(1 - half, abs=0.01 * half)
        assert y2 == pytest.approx(1 + half, abs=0.01 * half)
        exact = Fraction(p)
        for inside, outside in ((y1, math.nextafter(y1, 0)), (y2, math.nextafter(y2, 2))):
            assert chorded_c4_discriminant(exact, Fraction(inside)) < 0
            assert chorded_c4_discriminant(exact, Fraction(outside)) >= 0

    def test_half_infinite_window_below_p_one(self):
        # at p <= 1 the quartic's leading coefficient (p+3)(p-1) is <= 0 and
        # large y no longer suppresses cyclicity
        y1, y2 = chorded_c4_boundary(1.0)
        assert math.isinf(y2)
        assert chorded_c4_discriminant(1.0, y1 * 0.5) > 0
        assert chorded_c4_discriminant(1.0, 100.0) < 0

    def test_sign_matches_numeric_spectrum(self):
        for p in (1.0, 2.0, 3.0, 5.0):
            for y in np.linspace(0.05, 8.0, 25):
                d = chorded_c4_discriminant(p, float(y))
                if abs(d) < 1e-3:
                    continue
                verdict = spectral_verdict(aberth_roots(
                    char_poly_float(chorded_c4_laplacian(p, float(y))), CFG), CFG)
                assert verdict == (d < 0), (p, y, d)


class TestC4:
    def test_cubic_coefficients_symmetric(self):
        assert c4_cubic(2, 5) == c4_cubic(5, 2)

    def test_discriminant_examples(self):
        assert c4_discriminant(0, 7) >= 0
        assert c4_discriminant(4, 9) == -616896
        for a, x in ((1.5, 7.25), (0.3, 11.0)):
            assert c4_discriminant(a, x) == c4_discriminant(x, a)

    def test_absent_arc_never_cyclic(self):
        for x in np.linspace(0, 12, 25):
            assert c4_discriminant(0.0, float(x)) >= 0
            assert c4_discriminant(float(x), 0.0) >= 0

    def test_boundary_is_negated_discriminant_exactly(self):
        for an in range(7):
            for xn in range(7):
                a, x = Fraction(an, 2), Fraction(2 * xn, 3)
                assert c4_boundary_value(a, x) == -c4_discriminant(a, x)

    def test_triangle_criterion(self):
        assert c4_triangle_ok(4, 9) is True   # sqrt weights 2,2,3
        assert c4_triangle_ok(0.0, 5.0) is False
        assert c4_triangle_ok(16.0, 30.0) is True   # smallest three 4,9,16
        assert c4_triangle_ok(25.0, 30.0) is False  # 5 = 2+3 degenerate

    def test_triangle_implies_cyclic_on_grid(self):
        grid = np.linspace(0.0, 12.0, 25)
        for s in c4_scan(grid.tolist(), grid.tolist()):
            if s.triangle_ok:
                assert s.essentially_cyclic, (s.a, s.x)

    def test_laplacian_char_poly_matches_cubic(self):
        for a, x in ((4.0, 9.0), (1.0, 0.5), (11.0, 2.0)):
            cs = char_poly_float(c4_laplacian(a, x))
            b, c, d = c4_cubic(a, x)
            assert cs == pytest.approx([0.0, d, c, b, 1.0], abs=1e-7)

    def test_scan_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            c4_scan([-1.0], [0.0])

    def test_csv_shape(self):
        text = scan_csv(c4_scan([0.0, 4.0], [9.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "sqrt_a,sqrt_x,discriminant,cyclic,triangle_ok"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert float(row[0]) == 2.0 and float(row[1]) == 3.0
        assert row[3] == "1" and row[4] == "1"


class TestCubicDiscriminant:
    def test_sign_convention(self):
        # (x-1)(x-2)(x-3): distinct real -> positive
        assert cubic_discriminant(-6, 11, -6) == 4
        # x^3 + x: roots 0, +-i -> negative
        assert cubic_discriminant(0, 1, 0) == -4
        # (x-2)^2 x: repeated -> zero
        assert cubic_discriminant(-4, 4, 0) == 0
