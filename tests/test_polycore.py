"""Unit and property tests for the exact polynomial families."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ringspec import polycore
from ringspec.polycore import (
    IntPolynomial,
    cheb_u,
    classify_product_real,
    eval_exact,
    landmark_roots,
    poly_mul,
    poly_product,
    poly_shift_const,
    product_bound_witness,
    product_polynomial,
    w_poly,
    z_poly,
    z_roots,
    z_shifted_roots,
    z_value,
)
from support import exact_abs_at


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0]).coefficients == (0,)
        assert IntPolynomial([]).coefficients == (0,)
        assert IntPolynomial([0]).is_zero()

    def test_degree(self):
        assert IntPolynomial([1, 2, 3]).degree == 2
        assert IntPolynomial([5]).degree == 0

    def test_arithmetic(self):
        p = IntPolynomial([1, 1])
        assert (p * p).coefficients == (1, 2, 1)
        assert (p - p).is_zero()
        assert (-p).coefficients == (-1, -1)
        assert (3 * p).coefficients == (3, 3)

    def test_substitute_square_roundtrip(self):
        p = IntPolynomial([3, -1, 2])
        q = p.substitute_square()
        assert q.coefficients == (3, 0, -1, 0, 2)
        assert q.halve_even_powers() == p
        with pytest.raises(ValueError):
            IntPolynomial([0, 1]).halve_even_powers()

    def test_derivative(self):
        assert IntPolynomial([1, 2, 3]).derivative().coefficients == (2, 6)
        assert IntPolynomial([7]).derivative().is_zero()

    def test_json_round_trip(self):
        p = z_poly(40)
        assert IntPolynomial.from_json(p.to_json()) == p
        assert all(isinstance(s, str) for s in p.to_json())

    def test_str(self):
        assert str(z_poly(2)) == "x^2 - 3x + 1"
        assert str(IntPolynomial([0])) == "0"


def schoolbook(*factors):
    """Coefficient list of the product, one convolution at a time."""
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        out = acc
    return out


class TestKroneckerProduct:
    def test_random_signed_factors_match_schoolbook(self):
        rng = random.Random(11)
        for _ in range(400):
            top = 10 ** rng.choice([1, 5, 20, 40])
            factors = [[rng.randint(-top, top) for _ in range(rng.randint(1, 12))]
                       for _ in range(rng.randint(1, 6))]
            for f in factors:
                f[-1] = f[-1] or 1
            expected = IntPolynomial(schoolbook(*factors))
            assert poly_product(IntPolynomial(f) for f in factors) == expected
            if len(factors) == 2:
                assert poly_mul(IntPolynomial(factors[0]),
                                IntPolynomial(factors[1])) == expected

    def test_extreme_coefficients_and_mixed_degrees(self):
        big = 10 ** 40
        cases = [
            [[big, -big], [-big, big, big]],
            [[-big] * 30, [big, 1], [1, -big]],
            [[0, 0, 0, big], [-1]],
            [[1] + [0] * 50 + [-1], [big, big]],
        ]
        for factors in cases:
            expected = IntPolynomial(schoolbook(*factors))
            assert poly_product(IntPolynomial(f) for f in factors) == expected, factors

    def test_zero_constant_and_empty_products(self):
        zero, p = IntPolynomial([0]), IntPolynomial([3, -1, 2])
        assert poly_product([zero]).is_zero()
        assert poly_product([p, zero, p]).is_zero()
        assert poly_mul(zero, p).is_zero() and poly_mul(p, zero).is_zero()
        assert poly_product([IntPolynomial([-7]), IntPolynomial([5])]) == IntPolynomial([-35])
        assert poly_mul(IntPolynomial([-1]), p) == -p
        assert poly_product([]) == IntPolynomial([1])

    def test_single_factor_is_returned_unchanged(self):
        for f in ([5], [0, 1], [-(10 ** 40), 3, 0, -(10 ** 39)], z_poly(30).coefficients):
            assert poly_product([IntPolynomial(f)]) == IntPolynomial(f)

    def test_lone_factor_is_not_packed(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("a lone factor went through the Kronecker packing")

        monkeypatch.setattr(polycore, "_pack", unavailable)
        for f in ([5], [0], [0, 1], [-(10 ** 40), 3, 0, -(10 ** 39)], z_poly(30).coefficients):
            assert poly_product(iter([IntPolynomial(f)])) == IntPolynomial(f)
        assert poly_product([]) == IntPolynomial([1])
        assert poly_product(iter(())) == IntPolynomial([1])

    def test_many_factors(self):
        rng = random.Random(5)
        factors = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1]
                   for _ in range(40)]
        expected = IntPolynomial(schoolbook(*factors))
        assert poly_product(IntPolynomial(f) for f in factors) == expected
        gaps = [1, 2, 2, 3, 5, 8, 13, 1, 1, 4]
        assert poly_product(z_poly(g) for g in gaps) == IntPolynomial(
            schoolbook(*(z_poly(g).coefficients for g in gaps)))

    def test_product_polynomial_matches_schoolbook(self):
        for ks in ([1], [3, 3], [2, 5, 7], [1, 1, 1, 1, 9]):
            for p in (0, 1):
                coeffs = schoolbook(*(cheb_u(2 * k).coefficients for k in ks))
                coeffs[0] += (-1) ** p
                assert product_polynomial(ks, p) == IntPolynomial(coeffs), (ks, p)

    def test_digits_beyond_the_count_raise(self):
        import ringspec.polycore as pc

        coeffs = [5, -3, 0, 7, -1] * 8
        value = pc._pack(coeffs, 6)
        assert pc._unpack(value, 6, len(coeffs)) == coeffs
        for extra in (1, -1):
            with pytest.raises(ArithmeticError):
                pc._unpack(value + (extra << (6 * len(coeffs))), 6, len(coeffs))


def recurrence(a, p0, p1, count=201):
    """Coefficient lists of P_0..P_{count-1}, P_n = (x - a)*P_{n-1} - P_{n-2}."""
    out = [p0, p1]
    while len(out) < count:
        prev, cur = out[-2], out[-1]
        nxt = [0, *cur]
        for k, c in enumerate(cur):
            nxt[k] -= a * c
        for k, c in enumerate(prev):
            nxt[k] -= c
        out.append(nxt)
    return out


CHEB_U = recurrence(0, [1], [0, 1])
Z = recurrence(2, [1], [-1, 1])
W = recurrence(2, [2], [-2, 1])


class TestFamilies:
    def test_cheb_u_base_cases(self):
        assert cheb_u(0).coefficients == (1,)
        assert cheb_u(1).coefficients == (0, 1)
        assert cheb_u(2).coefficients == (-1, 0, 1)
        # one recurrence step by hand: x*(x^2 - 1) - x
        assert cheb_u(3).coefficients == (0, -2, 0, 1)

    def test_cheb_u_rejects_negative(self):
        with pytest.raises(ValueError):
            cheb_u(-1)

    def test_z_poly_base_cases(self):
        assert z_poly(0).coefficients == (1,)
        assert z_poly(1).coefficients == (-1, 1)
        assert z_poly(2).coefficients == (1, -3, 1)
        # (x-2)(x^2-3x+1) - (x-1)
        assert z_poly(3).coefficients == (-1, 6, -5, 1)

    def test_recurrence_matches_explicit_binomial_form(self):
        # the program computes each family from its binomial coefficients;
        # the reference here is the defining recurrence
        for family, reference in ((cheb_u, CHEB_U), (z_poly, Z), (w_poly, W)):
            for n, coeffs in enumerate(reference):
                assert family(n) == IntPolynomial(coeffs), (family.__name__, n)

    def test_families_compute_only_the_degree_asked_for(self):
        z_poly.cache_clear()
        z_poly(600)
        assert z_poly.cache_info().currsize == 1

    def test_constant_terms(self):
        for n in range(80):
            assert z_poly(n).coefficients[0] == (-1) ** n

    def test_square_substitution_identity(self):
        for n in range(101):
            assert z_poly(n).substitute_square() == cheb_u(2 * n), n

    def test_w_poly_base_cases(self):
        assert w_poly(0).coefficients == (2,)
        assert w_poly(1).coefficients == (-2, 1)
        # (x-2)^2 - 2
        assert w_poly(2).coefficients == (2, -4, 1)
        with pytest.raises(ValueError):
            w_poly(-1)

    def test_w_poly_is_doubled_shifted_chebyshev_t(self):
        # W_n(x) = 2*T_n((x-2)/2), T by its own recurrence in y = (x-2)/2
        for n in range(41):
            for x in (Fraction(-3), Fraction(1, 3), Fraction(2), Fraction(7, 2), Fraction(9)):
                y = (x - 2) / 2
                t_prev, t_cur = Fraction(1), y
                for _ in range(n):
                    t_prev, t_cur = t_cur, 2 * y * t_cur - t_prev
                assert eval_exact(w_poly(n), x) == 2 * t_prev, (n, x)


class TestConcurrency:
    def test_parallel_cache_growth_stays_consistent(self):
        import concurrent.futures

        # fill the caches from cold under contention
        for family in (cheb_u, z_poly, w_poly):
            family.cache_clear()
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda n: (cheb_u(n), z_poly(n), w_poly(n)),
                          [120] * 8 + list(range(119))))
        for n in (0, 1, 37, 88, 120):
            assert z_poly(n) == IntPolynomial(Z[n])
            assert cheb_u(n) == IntPolynomial(CHEB_U[n])
            assert w_poly(n) == IntPolynomial(W[n])


class TestEvaluation:
    def test_z_at_zero_and_cheb_at_two(self):
        for n in range(50):
            assert eval_exact(z_poly(n), 0) == (-1) ** n
            assert eval_exact(cheb_u(n), 2) == n + 1
        assert eval_exact(cheb_u(3), 0.0) == 0.0

    def test_horner_float_obeys_the_standard_error_model(self):
        # |float - exact| <= 4(2n+1) eps sum|a_i||x|^i; tight ranges degrade
        # near x = 4 as degree grows, which is why the big sweeps above use
        # exact evaluation
        eps = np.finfo(np.float64).eps
        for n in range(1, 21):
            p = z_poly(n)
            for x in (0.1, 0.5, 1.7, 3.9):
                exact = float(eval_exact(p, Fraction(x)))
                mag = sum(abs(c) * x ** i for i, c in enumerate(p.coefficients))
                bound = 4 * (2 * n + 1) * eps * mag
                assert abs(eval_exact(p, float(x)) - exact) <= max(bound, 1e-13)

    def test_recurrence_evaluators_match_exact_values(self):
        # the recurrence is the numerically stable evaluator, accurate to
        # ~n^2 eps even where monomial Horner has lost many digits
        for x in np.linspace(0.01, 3.9, 7):
            for n in (0, 1, 5, 12, 30):
                exact = float(eval_exact(z_poly(n), Fraction(float(x))))
                assert z_value(n, float(x)) == pytest.approx(
                    exact, rel=1e-11, abs=1e-11)


class TestRootFormulas:
    def test_cheb_u_roots(self):
        # 2cos(pi*k/(n+1)) are roots, to 1e-9, up to degree 60
        for n in range(1, 61):
            p = cheb_u(n)
            for k in range(1, n + 1):
                r = 2 * math.cos(math.pi * k / (n + 1))
                assert exact_abs_at(p, r) < 1e-9, (n, k)

    def test_z_roots_formula_and_interval(self):
        for n in range(1, 41):
            roots = z_roots(n)
            assert roots == sorted(roots)
            assert all(0 <= r < 4 for r in roots)
            p = z_poly(n)
            for r in roots:
                assert exact_abs_at(p, r) < 1e-9, n

    def test_z_shifted_roots(self):
        for n in range(1, 41):
            for p in (0, 1):
                poly = poly_shift_const(z_poly(n), (-1) ** p)
                roots = z_shifted_roots(n, p)
                assert len(roots) == n
                assert all(0 <= r < 4 for r in roots)
                for r in roots:
                    assert exact_abs_at(poly, r) < 1e-9, (n, p)

    def test_z_shifted_examples(self):
        assert z_shifted_roots(1, 1) == pytest.approx([2.0])
        assert z_shifted_roots(1, 0) == pytest.approx([0.0], abs=1e-15)
        # Z_3 + 1 = x(x-2)(x-3)
        assert sorted(z_shifted_roots(3, 0)) == pytest.approx([0.0, 2.0, 3.0])

    def test_z_shifted_rejects(self):
        with pytest.raises(ValueError):
            z_shifted_roots(0, 0)
        with pytest.raises(ValueError):
            z_shifted_roots(3, 2)

    def test_odd_cheb_u_product_form(self):
        # P_{2m-1}(x) = x * prod_k (x^2 - 4cos^2(pi k / 2m))
        for m in range(1, 16):
            p = cheb_u(2 * m - 1)
            for x in (-1.7, -0.3, 0.9, 1.99):
                prod = x
                for k in range(1, m):
                    prod *= x * x - 4 * math.cos(math.pi * k / (2 * m)) ** 2
                exact = float(eval_exact(p, Fraction(x)))
                assert prod == pytest.approx(exact, rel=1e-9, abs=1e-9)


class TestLandmarks:
    def test_examples(self):
        lm = landmark_roots(2)
        assert lm.x1 == pytest.approx(0.381966, abs=1e-6)
        assert lm.x2 == pytest.approx(2.618034, abs=1e-6)
        assert lm.u1 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_m(self):
        for m in (1, 0, -2):
            with pytest.raises(ValueError):
                landmark_roots(m)

    def test_values_are_the_two_smallest_roots(self):
        for m in range(2, 31):
            lm = landmark_roots(m)
            assert 0 <= lm.x1 < lm.x2 < 4
            assert 0 <= lm.u1 < lm.u2 < 4
            assert abs(eval_exact(z_poly(m), float(lm.x1))) < 1e-12
            roots = z_roots(m)
            assert lm.x1 == pytest.approx(roots[0], abs=1e-12)
            assert lm.x2 == pytest.approx(roots[1], abs=1e-12)
            shifted = sorted(z_shifted_roots(m, m % 2))
            assert lm.u1 == pytest.approx(shifted[0], abs=1e-12)
            assert lm.u2 == pytest.approx(shifted[1], abs=1e-12)

    def test_interleaving_inequality(self):
        # u1 of the smaller index beats u2 of the larger whenever i < j-1
        def u1(i):
            return landmark_roots(i).u1 if i > 1 else sorted(z_shifted_roots(1, 1))[0]

        for j in range(3, 29):
            for i in range(1, j - 1):
                if i + j > 30:
                    continue
                assert u1(i) > landmark_roots(j).u2, (i, j)


class TestCatalanIdentities:
    def test_exact_polynomial_forms(self):
        for n in range(1, 101):
            pn, pm, pp = cheb_u(n), cheb_u(n - 1), cheb_u(n + 1)
            assert poly_mul(pn - 1, pn + 1) == poly_mul(pm, pp), n
            assert poly_mul(pm, pp) + 1 == poly_mul(pn, pn), n

    def test_adjacent_product_plus_one_is_a_square(self):
        # Z_i * Z_{i+1} + 1 equals cheb_u(2i+1)^2 with exponents halved
        for i in range(1, 51):
            lhs = poly_mul(z_poly(i), z_poly(i + 1)) + 1
            sq = poly_mul(cheb_u(2 * i + 1), cheb_u(2 * i + 1))
            assert lhs == sq.halve_even_powers(), i


class TestProductClassifier:
    def test_single_factor_all_real(self):
        for j in (1, 2, 5):
            for p in (0, 1):
                v = classify_product_real([j], p)
                assert v.all_real and v.case_label == "single-factor"
                assert len(v.roots) == 2 * j
                assert list(v.roots) == sorted(v.roots)
                assert all(-2 < r < 2 for r in v.roots)

    def test_non_real_cases(self):
        assert classify_product_real([2, 2], 0).case_label == "non-real"
        assert classify_product_real([1, 3], 0).all_real is False
        assert classify_product_real([2, 3], 1).all_real is False
        assert classify_product_real([1, 1, 1], 0).all_real is False
        assert classify_product_real([3, 2, 1], 1).all_real is False
        assert classify_product_real([2, 2], 0).roots is None

    def test_equal_pair_and_adjacent_pair(self):
        v = classify_product_real([3, 3], 1)
        assert v.all_real and v.case_label == "equal-pair"
        assert len(v.roots) == 12
        v = classify_product_real([4, 3], 0)
        assert v.all_real and v.case_label == "adjacent-pair"
        assert len(v.roots) == 14
        # every value appears exactly twice
        assert all(v.roots[2 * i] == v.roots[2 * i + 1] for i in range(7))

    def test_closed_form_roots_really_are_roots(self):
        cases = [([4], 0), ([4], 1), ([3, 3], 1), ([4, 3], 0), ([1], 1)]
        for ks, p in cases:
            v = classify_product_real(ks, p)
            h = product_polynomial(ks, p)
            for r in set(v.roots):
                assert exact_abs_at(h, r) < 1e-9, (ks, p, r)

    def test_rejects_bad_input(self):
        for ks, p in (([], 0), ((), 1), ([0, 2], 0), ([3, -1], 1), ((2, 2, 0), 0), ([-4], 1),
                      ([2], 3), ([2], -1), ([1, 1, 1], 2), ([2, 3], 2)):
            with pytest.raises(ValueError):
                classify_product_real(ks, p)

    def test_non_real_verdict_is_shared_and_frozen(self):
        verdict = classify_product_real([1, 1, 1], 0)
        assert verdict is classify_product_real((2, 3), 1) is classify_product_real([2, 2], 0)
        assert (verdict.all_real, verdict.case_label, verdict.roots) == (False, "non-real", None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.all_real = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            classify_product_real([3], 0).roots = ()
        assert classify_product_real([1, 1, 1], 0).all_real is False


class TestBoundWitness:
    def test_examples(self):
        assert product_bound_witness([1, 3]) == pytest.approx(
            4 * math.cos(2 * math.pi / 7) ** 2)
        assert product_bound_witness([1, 1, 1]) == pytest.approx(1.0)
        merged = sorted(z_roots(2) + z_roots(2) + z_roots(3))
        assert product_bound_witness([2, 2, 3]) == pytest.approx(merged[2])

    def test_rejects_outside_hypotheses(self):
        with pytest.raises(ValueError):
            product_bound_witness([3])
        with pytest.raises(ValueError):
            product_bound_witness([2, 2])
        with pytest.raises(ValueError):
            product_bound_witness([2, 3])
        with pytest.raises(ValueError):
            product_bound_witness([0, 5])

    def test_bound_holds_on_a_sample(self):
        # full sweep lives in the acceptance suite
        for ks in ([1, 3], [2, 4], [1, 1, 1], [2, 2, 3], [1, 2, 3, 4]):
            x3 = product_bound_witness(ks)
            xs = x3 * np.arange(1, 1001) / 1000.0
            prod = np.ones_like(xs)
            for k in ks:
                prod = prod * z_value(k, xs)
            assert np.max(np.abs(prod)) < 1.0, ks
