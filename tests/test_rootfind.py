"""Tests for the numeric oracle: Aberth roots, refinement, exact char polys."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest

from ringspec import rootfind
from ringspec.arborescence import path_matrix_spectrum
from ringspec.polycore import IntPolynomial, poly_mul, poly_shift_const, z_poly
from ringspec.ringgraph import RingDigraph, char_poly, closed_form_spectrum, laplacian
from ringspec.rootfind import (
    AmbiguousSpectrumError,
    RootFinderConfig,
    aberth_roots,
    char_poly_exact,
    char_poly_float,
    refine_all,
    refine_root,
    spectral_verdict,
    square_free_part,
)
from support import match_multisets

CFG = RootFinderConfig()


def _count_horner(monkeypatch) -> list[int]:
    """Count rootfind._horner calls; the count is the list's one entry."""
    calls = [0]
    horner = rootfind._horner

    def counting_horner(cs, z):
        calls[0] += 1
        return horner(cs, z)

    monkeypatch.setattr(rootfind, "_horner", counting_horner)
    return calls


class TestConfig:
    def test_defaults(self):
        assert CFG.convergence_tol == 1e-13
        assert CFG.max_iterations == 500
        assert CFG.imag_threshold == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            RootFinderConfig(convergence_tol=0)
        with pytest.raises(ValueError):
            RootFinderConfig(imag_threshold=1e-14)  # below convergence_tol
        with pytest.raises(ValueError):
            RootFinderConfig(max_iterations=0)


class TestAberth:
    def test_quadratic_with_imaginary_pair(self):
        rs = aberth_roots(IntPolynomial([1, 0, 1]), CFG)
        assert rs.converged
        match_multisets([1j, -1j], rs.roots, 1e-12)

    def test_z3_plus_one(self):
        rs = aberth_roots(poly_shift_const(z_poly(3), 1), CFG)
        match_multisets([0, 2, 3], rs.roots, 1e-9)

    def test_z2_squared_minus_one(self):
        p = poly_shift_const(poly_mul(z_poly(2), z_poly(2)), -1)
        rs = aberth_roots(p, CFG)
        match_multisets([0, 1, 2, 3], rs.roots, 1e-9)

    def test_degree_one_and_degenerate_input(self):
        rs = aberth_roots([3.0, 2.0], CFG)
        assert rs.roots[0] == pytest.approx(-1.5)
        with pytest.raises(ValueError):
            aberth_roots([1.0], CFG)
        with pytest.raises(ValueError):
            aberth_roots([1.0, 0.0], CFG)

    def test_non_convergence_is_flagged(self):
        cfg = RootFinderConfig(max_iterations=1)
        rs = aberth_roots(z_poly(9), cfg)
        assert rs.converged is False
        with pytest.raises(ValueError):
            spectral_verdict(rs, cfg)

    def test_residual_bound(self):
        # every converged root satisfies |p(z)| <= 1e-9 sum|a| max(1,|z|)^deg
        for poly in (z_poly(8), poly_shift_const(z_poly(12), -1),
                     IntPolynomial([5, 0, 0, 1]), char_poly_exact(laplacian(
                         RingDigraph.from_mask_string(9, "110101011")))):
            rs = aberth_roots(poly, CFG)
            assert rs.converged
            assert max(rs.residuals) <= 1e-9

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            coeffs = rng.integers(-9, 10, size=rng.integers(3, 9)).tolist()
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            rs = aberth_roots(coeffs, CFG)
            if not rs.converged:
                continue
            conj = [z.conjugate() for z in rs.roots]
            match_multisets(conj, rs.roots, 1e-8)

    def test_trace_and_determinant_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = rng.integers(-4, 5, size=(n, n)).tolist()
            p = char_poly_exact(m)
            rs = aberth_roots(p, CFG)
            if not rs.converged:
                continue
            trace = sum(m[i][i] for i in range(n))
            det = complex(np.prod(rs.roots))
            assert sum(rs.roots).real == pytest.approx(trace, abs=1e-8)
            assert abs(sum(rs.roots).imag) < 1e-8
            expected_det = (-1) ** n * p.coefficients[0]
            assert det.real == pytest.approx(expected_det, rel=1e-8, abs=1e-8)

    def test_gershgorin_containment(self):
        # unweighted ring-digraph Laplacian spectra stay inside |z| <= 4
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            mask = rng.integers(0, 2, size=n).astype(bool).tolist()
            rs = aberth_roots(char_poly_exact(laplacian(RingDigraph(n, mask))), CFG)
            assert all(abs(z) <= 4 + 1e-6 for z in rs.roots)

    def test_working_precision_path_on_ill_conditioned_input(self):
        # Z_25's extreme roots are hopeless in double precision from the
        # monomial basis; the mp path recovers them to ~1e-15
        n = 25
        rs = aberth_roots(z_poly(n), RootFinderConfig(working_dps=55))
        assert rs.converged
        expected = sorted(4 * math.cos(math.pi * k / (2 * n + 1)) ** 2
                          for k in range(1, n + 1))
        match_multisets(expected, rs.roots, 1e-12)

    @pytest.mark.parametrize("dps, tol", [(None, 1e-8), (40, 1e-14)])
    def test_conjugate_pair_between_adjacent_real_roots(self, dps, tol):
        # (x-1)(x-3)(1e8 (x-2)^2 + 1): roots 1, 3 and 2 +- 1e-4 i
        p = poly_mul(IntPolynomial([3, -4, 1]),
                     IntPolynomial([4 * 10 ** 8 + 1, -4 * 10 ** 8, 10 ** 8]))
        rs = aberth_roots(p, RootFinderConfig(working_dps=dps))
        assert rs.converged
        match_multisets([1, 3, 2 + 1e-4j, 2 - 1e-4j], rs.roots, tol)

    def test_pair_below_double_resolution_leaves_the_real_axis(self):
        # roots 1, 3 and 2 +- 1e-9 i: the companion eigenvalues of the pair
        # come out real in double, and a conjugate-symmetric start set would
        # hold the pair on the real axis at any working precision
        p = poly_mul(IntPolynomial([3, -4, 1]),
                     IntPolynomial([4 * 10 ** 18 + 1, -4 * 10 ** 18, 10 ** 18]))
        rs = aberth_roots(p, RootFinderConfig(working_dps=40))
        assert rs.converged
        match_multisets([1, 3, 2 + 1e-9j, 2 - 1e-9j], rs.roots, 1e-14)

    def test_double_and_working_precision_agree_on_small_rings(self):
        # both arithmetics solve each square-free factor, so the repeated
        # roots of char_poly(g) agree as closely as the simple roots of its
        # square-free part
        seen = set()
        for n in range(3, 9):
            for bits in range(2 ** n):
                g = RingDigraph(n, tuple(bool(bits >> j & 1) for j in range(n)))
                p = char_poly(g).coefficients
                for q in (p, square_free_part(p)):
                    if q in seen:
                        continue
                    seen.add(q)
                    double = aberth_roots(q, CFG)
                    mp = aberth_roots(q, RootFinderConfig(working_dps=40))
                    assert double.converged and mp.converged, g.mask_string()
                    match_multisets(mp.roots, double.roots, 1e-9)

    @pytest.mark.parametrize("mask", ["1" * 10, "111011110"])
    def test_working_precision_solves_each_square_free_factor(self, monkeypatch, mask):
        # both spectra have double roots, on which Aberth converges only
        # linearly; one solve per square-free factor keeps every root simple
        g = RingDigraph.from_mask_string(len(mask), mask)
        p = char_poly(g)
        calls = _count_horner(monkeypatch)
        rs = aberth_roots(p, RootFinderConfig(working_dps=40))
        assert calls[0] <= 30
        assert rs.converged
        match_multisets(closed_form_spectrum(g), rs.roots, 1e-12)
        assert max(rs.residuals) <= 1e-15
        assert all(isinstance(z, mpmath.mpc) for z in rs.working)
        assert rs.roots == tuple(complex(z) for z in rs.working)

    def test_working_roots_stay_out_of_repr_and_equality(self):
        p = IntPolynomial([2, -3, 1])
        mp = aberth_roots(p, RootFinderConfig(working_dps=30))
        assert "working" not in repr(mp)
        assert aberth_roots(p, CFG).working == ()
        assert mp == rootfind.ComplexRootSet(mp.roots, mp.residuals, mp.converged, mp.source)

    def test_coefficients_beyond_double_range_do_not_converge(self):
        # the companion matrix holds -1e300 / 1e-10, which overflows
        rs = aberth_roots([1e300, 0.0, 1e-10], CFG)
        assert rs.converged is False

    def test_factor_beyond_double_range_does_not_converge(self):
        # x**2 (x - 6e-300): the primitive integer form of the factor
        # x - 6e-300 has a coefficient near 2**1040
        rs = aberth_roots([0.0, 0.0, -6e-300, 1.0], CFG)
        assert rs.converged is False

    def test_start_at_a_critical_point_keeps_moving(self):
        # p'(0) = 0 for x^3 + 1, where p(0) = 1: the root at 0 is not settled
        roots, converged = rootfind._aberth([1.0, 0.0, 0.0, 1.0], [0j, 5 + 0j, -3j],
                                            1e-13, 500, np.finfo(float).eps)
        assert converged
        match_multisets([-1, cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)],
                        roots, 1e-12)


class TestRefinement:
    def test_sqrt_two(self):
        rr = refine_root(IntPolynomial([-2, 0, 1]), 1.41421)
        assert rr.converged
        assert rr.value.real == pytest.approx(math.sqrt(2), abs=1e-14)
        assert rr.value.imag == 0

    def test_double_root_imaginary_part_collapses(self):
        rr = refine_root(IntPolynomial([4, -4, 1]), 2 + 1e-7j)  # (x-2)^2
        assert rr.converged
        assert abs(rr.value.imag) < 1e-9
        assert rr.value.real == pytest.approx(2.0, abs=1e-9)

    def test_refined_complex_pair_residual(self):
        # gaps (1,2,3) at n=6: the char poly has a conjugate pair
        p = poly_shift_const(
            poly_mul(poly_mul(z_poly(1), z_poly(2)), z_poly(3)), -1)
        rs = aberth_roots(p, CFG)
        z = max(rs.roots, key=lambda v: abs(v.imag))
        rr = refine_root(p, z)
        assert rr.converged
        with mpmath.workdps(60):
            val = mpmath.polyval([mpmath.mpf(c) for c in p.coefficients[::-1]],
                                 mpmath.mpc(rr.value))
            scale = sum(abs(c) for c in p.coefficients)
            assert abs(val) / scale < 1e-12

    def test_split_double_root_converges_in_few_steps(self):
        # on (x-2)^2(x-3) itself Newton halves the error per step; on the
        # square-free part it converges quadratically
        p = poly_mul(poly_mul(IntPolynomial([-2, 1]), IntPolynomial([-2, 1])),
                     IntPolynomial([-3, 1]))
        rr = refine_root(p, 2 + 1e-7j, max_steps=10)
        assert rr.converged
        assert abs(rr.value.imag) < 1e-40
        assert rr.value.real == pytest.approx(2.0, abs=1e-15)

    def test_path_forty_roots_refine_in_few_evaluations(self, monkeypatch):
        # at 60 digits the degree-40 evaluation noise keeps Newton's steps
        # above the 1e-50 step rule; the noise-floor stop ends each root
        poly, closed = path_matrix_spectrum(40)
        rs = aberth_roots(poly, RootFinderConfig(working_dps=70))
        q = square_free_part(poly)
        calls = 0
        horner = rootfind._horner

        def counting_horner(cs, z):
            nonlocal calls
            calls += 1
            return horner(cs, z)

        monkeypatch.setattr(rootfind, "_horner", counting_horner)
        refined = [refine_root(q, z, square_free=True) for z in rs.roots]
        assert all(rr.converged for rr in refined)
        assert calls <= 10 * len(refined)
        match_multisets(closed, [rr.value for rr in refined], 1e-9)

    def test_refine_all_starts_from_the_working_roots(self, monkeypatch):
        # the mpmath route's roots keep their digits, so Newton needs about
        # one step per root; each root also gets one residual evaluation
        poly, closed = path_matrix_spectrum(40)
        rs = aberth_roots(poly, RootFinderConfig(working_dps=70))
        calls = _count_horner(monkeypatch)
        refined = refine_all(rs)
        assert calls[0] <= 3 * len(rs.roots)
        match_multisets(closed, refined.roots, 1e-12)
        assert refined.converged and refined.source == rs.source

    def test_zero_derivative_without_a_root_stays_unconverged(self):
        # x^2 + 1 at 0: Newton has no step and 0 is not a root
        rr = refine_root(IntPolynomial([1, 0, 1]), 0j)
        assert rr == (0j, False)

    def test_stuck_start_gives_up_after_one_repeated_sweep(self, monkeypatch):
        # a lone start with p' = 0 never moves, so a second sweep that moves
        # nothing ends the iteration instead of spending all max_steps
        calls = 0
        horner = rootfind._horner

        def counting_horner(cs, z):
            nonlocal calls
            calls += 1
            return horner(cs, z)

        monkeypatch.setattr(rootfind, "_horner", counting_horner)
        assert refine_root(IntPolynomial([1, 0, 1]), 0j) == (0j, False)
        assert calls <= 2

    def test_refine_all_restores_split_doubles(self):
        # near-balanced two-gap digraph: all roots real, several double
        g = RingDigraph.from_mask_string(9, "111011110")
        p = char_poly_exact(laplacian(g))
        rs = refine_all(aberth_roots(p, CFG))
        assert rs.max_abs_imag() < 1e-12


def _monic_from_roots(roots):
    p = IntPolynomial([1])
    for r in roots:
        p = poly_mul(p, IntPolynomial([-r, 1]))
    return p


def _expand(factors) -> IntPolynomial:
    p = IntPolynomial([1])
    for a, k in factors:
        for _ in range(k):
            p = poly_mul(p, IntPolynomial(a))
    return p


class TestSquareFreeFactors:
    def test_known_multiplicities(self):
        p = _monic_from_roots([1, 1, 2, 2, 2, 3])
        assert rootfind._square_free_factors(p) == [([-3, 1], 1), ([-1, 1], 2), ([-2, 1], 3)]

    def test_only_repeated_factors(self):
        p = _monic_from_roots([1, 2, 2, 3, 3, 3, 4, 4, 4, 4])
        assert rootfind._square_free_factors(p) == [
            ([-1, 1], 1), ([-2, 1], 2), ([-3, 1], 3), ([-4, 1], 4)]
        assert rootfind._square_free_factors(_monic_from_roots([0] * 5)) == [([0, 1], 5)]

    def test_square_free_input_is_one_factor(self):
        # (x^2 + 1)(x - 2), scaled by -3: the factor is the primitive part
        p = [6, -3, 6, -3]
        assert rootfind._square_free_factors(p) == [([-2, 1, -2, 1], 1)]

    def test_linear(self):
        assert rootfind._square_free_factors(IntPolynomial([-6, 4])) == [([-3, 2], 1)]

    def test_float_coefficients(self):
        # 0.25 (x - 0.5)^2 (x + 1.5), exactly representable
        assert rootfind._square_free_factors([0.09375, -0.3125, 0.125, 0.25]) == [
            ([3, 2], 1), ([-1, 2], 2)]

    def test_ring_polynomials_factor_completely(self):
        # the factors multiply back to p, and each is square-free
        seen = set()
        for n in range(3, 9):
            for bits in range(2 ** n):
                p = char_poly(RingDigraph(n, tuple(bool(bits >> j & 1) for j in range(n))))
                if p in seen:
                    continue
                seen.add(p)
                factors = rootfind._square_free_factors(p)
                assert _expand(factors) == p
                assert all(square_free_part(a) == tuple(a) for a, _ in factors)
                assert [k for _, k in factors] == sorted({k for _, k in factors})


class TestSquareFreePart:
    def test_repeated_roots_become_simple(self):
        q = square_free_part(_monic_from_roots([1, 1, 2, 2, 2]))
        expected = _monic_from_roots([1, 2]).coefficients
        assert len(q) == 3
        assert [c * expected[-1] for c in q] == [c * q[-1] for c in expected]

    def test_square_free_float_cubic_unchanged(self):
        coeffs = [0.5, -1.25, 0.1, 2.0]
        assert square_free_part(coeffs) == tuple(coeffs)

    def test_float_coefficients_with_a_double_root(self):
        # 0.25 (x - 0.5)^2 (x + 1.5), exactly representable
        q = square_free_part([0.09375, -0.3125, 0.125, 0.25])
        assert q == (-3, 4, 4)  # 4 (x - 0.5)(x + 1.5)

    def test_symmetric_ring_at_eight(self):
        # eigenvalues 4 sin^2(pi k / 8): k = 0 and 4 simple, three doubles
        p = char_poly(RingDigraph(8, (True,) * 8))
        q = square_free_part(p)
        assert len(q) - 1 == 5
        rs = aberth_roots(q, CFG)
        expected = [4 * math.sin(math.pi * k / 8) ** 2 for k in range(5)]
        match_multisets(expected, rs.roots, 1e-12)

    def test_degree_one(self):
        assert square_free_part(IntPolynomial([3, 2])) == (3, 2)


class TestCharPolyExact:
    def test_tridiagonal_matches_z_family(self):
        for n in range(1, 9):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = 2 if i < n - 1 else 1
                if i > 0:
                    m[i][i - 1] = -1
                if i < n - 1:
                    m[i][i + 1] = -1
            assert char_poly_exact(m) == z_poly(n), n

    def test_zero_matrix(self):
        assert char_poly_exact([[0, 0], [0, 0]]).coefficients == (0, 0, 1)

    def test_bare_cycle_laplacian(self):
        g = RingDigraph.from_mask_string(3, "000")
        assert char_poly_exact(laplacian(g)).coefficients == (0, 3, -3, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            char_poly_exact([[1, 2, 3], [4, 5, 6]])

    def test_dense_matrices_match_numpy(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            m = rng.integers(-5, 6, size=(n, n))
            if trial % 3 == 0:
                m[int(rng.integers(n)), :] = 0
            if trial % 4 == 0:
                m[:, int(rng.integers(n))] = 0
            expected = [int(round(c)) for c in np.poly(m)[::-1].real]
            assert list(char_poly_exact(m.tolist()).coefficients) == expected, m

    def test_agrees_with_float_route(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 100:
            n = int(rng.integers(2, 7))
            m = rng.integers(-3, 4, size=(n, n)).tolist()
            exact = aberth_roots(char_poly_exact(m), CFG)
            approx = aberth_roots(char_poly_float(m), CFG)
            if not (exact.converged and approx.converged):
                continue
            match_multisets(exact.roots, approx.roots, 1e-8)
            count += 1


class TestCharPolyFloat:
    def test_diagonal(self):
        assert char_poly_float([[1, 0], [0, 2]]) == pytest.approx([2.0, -3.0, 1.0])

    def test_chorded_cycle_instance(self):
        # shortcut weight 3, variable arc 1: lambda(lambda^3-7l^2+12l-7)
        from ringspec.weighted import chorded_c4_laplacian

        cs = char_poly_float(chorded_c4_laplacian(3.0, 1.0))
        assert cs == pytest.approx([0.0, -7.0, 12.0, -7.0, 1.0], abs=1e-10)

    def test_unit_weighted_triangle(self):
        from ringspec.weighted import WeightMatrix, weighted_laplacian

        wm = WeightMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        cs = char_poly_float(weighted_laplacian(wm))
        assert cs == pytest.approx([0.0, 3.0, -3.0, 1.0], abs=1e-12)


class TestSpectralVerdict:
    def test_bare_cycle_is_cyclic(self):
        g = RingDigraph.from_mask_string(4, "0000")
        rs = aberth_roots(char_poly_exact(laplacian(g)), CFG)
        assert spectral_verdict(rs, CFG) is True

    def test_real_spectrum(self):
        # (x)(x-2)^2(x-4): all real with a double root
        p = IntPolynomial([0, 16, -20, 8, -1])
        assert spectral_verdict(aberth_roots(p, CFG), CFG) is False

    def test_split_double_root_classified_real(self):
        g = RingDigraph.from_mask_string(7, "1101110")  # near-balanced, doubles
        p = char_poly_exact(laplacian(g)).coefficients
        assert aberth_roots(p, CFG).max_abs_imag() <= 1e-13
        # the same spectrum with each double root split by +-1e-6 i, built by
        # hand: refinement has to rejoin the pairs on the real axis
        reals = sorted(z.real for z in closed_form_spectrum(g))
        doubles = [x for x, y in zip(reals, reals[1:]) if abs(x - y) < 1e-9]
        split = (0j,) + tuple(complex(x, s * 1e-6) for x in doubles for s in (1, -1))
        match_multisets(closed_form_spectrum(g), split, 1e-6)
        rs = rootfind.ComplexRootSet(split, rootfind._residuals(p, split), True, p)
        assert rs.max_abs_imag() > 1e-9  # genuinely split before refinement
        assert spectral_verdict(rs, CFG) is False

    def test_ambiguous_band_raises(self):
        # a true conjugate pair with |Im| = 1e-8 sits inside the band
        p = IntPolynomial([int(1e16 * 1e-16 + 1), 0, 10 ** 16])  # 1 + 1e16 x^2
        rs = aberth_roots(p, CFG)
        with pytest.raises(AmbiguousSpectrumError):
            spectral_verdict(rs, CFG)


class TestSerialization:
    def test_root_set_json(self):
        rs = aberth_roots(IntPolynomial([1, 0, 1]), CFG)
        data = rs.to_json()
        assert len(data) == 2 and all(len(pair) == 2 for pair in data)
