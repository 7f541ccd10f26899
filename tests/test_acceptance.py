"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion (each test also prints an ACCEPTANCE summary line, visible with
``-s``).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ringspec.arborescence import tree_count_formula, trig_product_check
from ringspec.polycore import (
    cheb_u,
    classify_product_real,
    landmark_roots,
    poly_mul,
    poly_shift_const,
    product_bound_witness,
    product_polynomial,
    z_poly,
    z_shifted_roots,
    z_value,
)
from ringspec.dynamics import SimConfig, dominant_frequency, simulate
from ringspec.ringgraph import (
    RingDigraph,
    char_poly,
    closed_form_spectrum,
    decompose,
    exhaustive_scan,
    laplacian,
)
from ringspec.rootfind import (
    RootFinderConfig,
    certify_roots,
    char_poly_exact,
    refine_all,
    spectral_verdict,
)
from ringspec.weighted import (
    c4_boundary_value,
    c4_discriminant,
    c4_scan,
    chorded_c4_boundary,
    k3_classify,
    k3_discriminant,
    k3_matrix,
    weighted_laplacian,
)
from support import (
    brute_force_count,
    char_poly_float,
    count_by_cofactor,
    disagreement,
    match_multisets,
    path_matrix_spectrum,
    spectrum_tol,
)


def accurate_roots(poly):
    """Certified roots fit for 1e-9 comparisons at any degree in range.

    The companion matrix's eigenvalues are certified against the exact
    polynomial by Newton discs, with a working precision of 30 + degree
    digits for the roots that double cannot tell apart; every root is
    Newton-polished on the exact coefficients afterwards.
    """
    approximations = np.roots([float(c) for c in reversed(poly.coefficients)])
    rs = certify_roots(poly, approximations, RootFinderConfig(working_dps=30 + poly.degree))
    assert rs.converged
    return refine_all(rs)


def all_masks(n):
    for bits in range(2 ** n):
        yield tuple(bool((bits >> j) & 1) for j in range(n))


def partitions(total, max_parts, min_part=1):
    """Nondecreasing integer tuples with the given sum and length bound."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min_part, total + 1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def test_criterion_01_exhaustive_classification_agreement():
    start = time.monotonic()
    instances = 0
    for n in range(3, 13):
        res = exhaustive_scan(n)
        assert res["disagreements"] == [], f"n={n}: {res['disagreements'][:5]}"
        assert res["ambiguous"] == [], f"n={n}: {res['ambiguous'][:5]}"
        instances += res["instances"]
    elapsed = time.monotonic() - start
    assert instances == sum(2 ** n for n in range(3, 13))
    assert elapsed < 60.0, f"scan took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS — 0 disagreements over {instances} instances "
          f"in {elapsed:.1f}s")


def test_criterion_02_characteristic_polynomial_identity():
    checked = 0
    for n in range(3, 13):
        for mask in all_masks(n):
            g = RingDigraph(n, mask)
            exact = char_poly_exact(laplacian(g))
            assert char_poly(g) == exact, (n, mask)
            dec = decompose(g)
            sign = (-1) ** n
            if dec.K == 1:
                assert exact == poly_shift_const(z_poly(n), -sign)
            elif dec.K == 2:
                i1, i2 = dec.gaps
                assert exact == poly_shift_const(
                    poly_mul(z_poly(i1), z_poly(i2)), -sign)
            checked += 1
    print(f"\nACCEPTANCE 2: PASS — product-form char poly exact on {checked} masks")


def test_criterion_03_closed_form_spectra():
    cases = 0
    for n in range(3, 21):
        graphs = [
            RingDigraph(n, (False,) * n),                      # bare cycle
            RingDigraph(n, tuple([True] * (n - 1) + [False])),  # one gap
        ]
        i = n // 2  # most distant pair of missing arcs
        mask = [True] * n
        mask[i - 1] = False
        mask[n - 1] = False
        graphs.append(RingDigraph(n, tuple(mask)))              # (near-)balanced
        for g in graphs:
            expected = closed_form_spectrum(g)
            assert expected is not None
            rs = accurate_roots(char_poly(g))
            match_multisets(expected, rs.roots, spectrum_tol(expected))
            cases += 1
    print(f"\nACCEPTANCE 3: PASS — {cases} closed-form spectra match the "
          f"numeric oracle (1e-9; 1e-6 with repeated roots)")


def test_criterion_04_symmetric_ring_formula_resolution():
    for n in range(3, 11):
        g = RingDigraph(n, (True,) * n)
        rs = accurate_roots(char_poly(g))
        circulant = [4 * math.sin(math.pi * k / n) ** 2 for k in range(n)]
        printed = [4 * math.sin(math.pi * k / (2 * n)) ** 2 for k in range(1, n + 1)]
        # the circulant form matches the oracle (repeated values -> 1e-6)
        match_multisets(circulant, rs.roots, 1e-6)
        # trace consistency: eigenvalues must sum to trace(L) = 2n
        assert sum(circulant) == pytest.approx(2 * n, abs=1e-9)
        assert sum(printed) == pytest.approx(2 * n + 2, abs=1e-9)
        # the alternative form cannot describe this matrix
        got = sorted(z.real for z in rs.roots)
        deviation = max(abs(a - b) for a, b in zip(got, sorted(printed)))
        assert deviation > 1e-3, f"n={n}: alternative formula unexpectedly close"
    print("\nACCEPTANCE 4: PASS — symmetric-ring spectrum is 4sin^2(pi k/n), "
          "k=0..n-1 (sums to trace 2n); the k=1..n half-angle form sums to "
          "2n+2 and deviates by >1e-3")


def test_criterion_05_product_classifier_vs_numeric():
    checked = real_cases = 0
    for total in range(1, 13):
        for ks in partitions(total, 4):
            if not ks:
                continue
            for p in (0, 1):
                verdict = classify_product_real(ks, p)
                poly = product_polynomial(ks, p)
                rs = accurate_roots(poly)
                numeric_nonreal = any(abs(z.imag) > 1e-6 for z in rs.roots)
                assert verdict.all_real == (not numeric_nonreal), (ks, p)
                if verdict.all_real:
                    match_multisets(verdict.roots, rs.roots, 1e-6)
                    real_cases += 1
                checked += 1
    print(f"\nACCEPTANCE 5: PASS — classifier agrees with the oracle on "
          f"{checked} factor lists ({real_cases} with closed-form roots)")


def test_criterion_06_polynomial_identity_suites():
    # exact square-substitution identity up to n = 100
    for n in range(101):
        assert z_poly(n).substitute_square() == cheb_u(2 * n), n

    # closed-form roots of z_poly and its +-1 shifts, n <= 40, 1e-9
    for n in range(1, 41):
        for k in range(1, n + 1):
            r = 4 * math.cos(math.pi * k / (2 * n + 1)) ** 2
            assert 0 <= r < 4
            val = sum(Fraction(c) * Fraction(r) ** i
                      for i, c in enumerate(z_poly(n).coefficients))
            assert abs(val) < 1e-9, (n, k)
        for p in (0, 1):
            shifted = poly_shift_const(z_poly(n), (-1) ** p)
            for r in z_shifted_roots(n, p):
                val = sum(Fraction(c) * Fraction(r) ** i
                          for i, c in enumerate(shifted.coefficients))
                assert abs(val) < 1e-9, (n, p)

    # landmark ordering for all 0 < i < j-1 with i + j <= 30
    def u1(i):
        return landmark_roots(i).u1 if i > 1 else sorted(z_shifted_roots(1, 1))[0]

    pairs = 0
    for j in range(3, 30):
        for i in range(1, j - 1):
            if i + j > 30:
                continue
            assert u1(i) > landmark_roots(j).u2, (i, j)
            pairs += 1

    # |prod z_poly(i_k)| < 1 on (0, x3], every admissible list of total
    # degree <= 24, 1000 uniform samples each
    bound_lists = 0
    for total in range(2, 25):
        for ks in partitions(total, 24):
            if len(ks) < 2:
                continue
            if len(ks) == 2 and abs(ks[0] - ks[1]) <= 1:
                continue
            x3 = product_bound_witness(ks)
            xs = x3 * np.arange(1, 1001) / 1000.0
            prod = np.ones_like(xs)
            for k in ks:
                prod = prod * z_value(k, xs)
            assert np.max(np.abs(prod)) < 1.0, ks
            bound_lists += 1

    # adjacent-product square identity, exact, i <= 50
    for i in range(1, 51):
        lhs = poly_mul(z_poly(i), z_poly(i + 1)) + 1
        sq = poly_mul(cheb_u(2 * i + 1), cheb_u(2 * i + 1))
        assert lhs == sq.halve_even_powers(), i

    print(f"\nACCEPTANCE 6: PASS — identity sweeps exact to n=100/i=50, root "
          f"formulas to n=40 at 1e-9, {pairs} landmark orderings, "
          f"{bound_lists} product bounds sampled")


def test_criterion_07_weighted_k3_three_way_agreement():
    rng = np.random.default_rng(20260810)
    tested = skipped = 0
    while tested < 10_000:
        a, b, c, alpha, beta, gamma = rng.uniform(0.0, 10.0, size=6)
        wm = k3_matrix(a, b, c, alpha, beta, gamma)
        disc = k3_discriminant(wm)
        if abs(disc) <= 1e-6:
            skipped += 1
            continue
        triangle = k3_classify(wm)
        numeric = spectral_verdict(char_poly_float(weighted_laplacian(wm)))
        assert triangle == (disc < 0) == numeric, (a, b, c, alpha, beta, gamma)
        tested += 1
    print(f"\nACCEPTANCE 7: PASS — 10000 instances, 0 disagreements "
          f"({skipped} boundary-band draws excluded)")


def test_criterion_08_chorded_cycle_boundary():
    start = time.monotonic()
    y1, y2 = chorded_c4_boundary(3.0)
    elapsed = time.monotonic() - start
    assert y1 == pytest.approx(0.266, abs=0.002)
    assert y2 == pytest.approx(2.441, abs=0.002)
    assert elapsed < 1.0
    # closed nested-radical form of the same two roots, as a cross-check
    z = 0.5 * (671 + 65 * math.sqrt(65)) ** (1.0 / 3.0)
    big_q = math.sqrt(36 * z + 145 + 504 / z)
    inner = 290 - 36 * z - 504 / z + 3454 / big_q
    closed = sorted(((37 - big_q + s * math.sqrt(inner)) / 12 for s in (-1, 1)))
    assert y1 == pytest.approx(closed[0], abs=1e-6)
    assert y2 == pytest.approx(closed[1], abs=1e-6)
    print(f"\nACCEPTANCE 8: PASS — cyclicity window ({y1:.6f}, {y2:.6f}) in "
          f"{elapsed * 1000:.0f} ms, matches the closed radical form")


def test_criterion_09_weighted_four_cycle_region():
    grid = np.linspace(0.0, 12.0, 50)
    sign_checked = triangle_points = 0
    for a in grid:
        for x in grid:
            af, xf = Fraction(float(a)), Fraction(float(x))
            disc = c4_discriminant(af, xf)
            boundary = c4_boundary_value(af, xf)
            assert boundary == -disc  # exact identity at every grid point
            if abs(float(disc)) > 1e-6:
                assert (disc < 0) == (boundary > 0)
                sign_checked += 1
    for s in c4_scan(grid.tolist(), grid.tolist()):
        if s.triangle_ok:
            triangle_points += 1
            assert s.essentially_cyclic, (s.a, s.x)
    print(f"\nACCEPTANCE 9: PASS — boundary polynomial = -discriminant exactly "
          f"on all 2500 points ({sign_checked} sign checks outside the band); "
          f"all {triangle_points} triangle-criterion points are cyclic")


def test_criterion_10_arborescence_counts():
    def two_gap(n, i):
        mask = [True] * n
        mask[i - 1] = False
        mask[n - 1] = False
        return RingDigraph(n, tuple(mask))

    for n in range(4, 31):
        for i in range(1, n):
            total = count_by_cofactor(laplacian(two_gap(n, i))).total
            assert total == tree_count_formula(n, i), (n, i)

    # brute-force enumeration confirms the matrix-tree route for n <= 8
    for n in range(3, 9):
        for mask in all_masks(n):
            g = RingDigraph(n, mask)
            counts = count_by_cofactor(laplacian(g))
            for root in range(1, n + 1):
                assert brute_force_count(g, root) == counts.per_root[root - 1]

    for n in range(4, 41, 2):
        assert tree_count_formula(n, n // 2) == n * (n + 2) // 4
    for n in range(5, 41, 2):
        assert tree_count_formula(n, (n - 1) // 2) == (n + 1) ** 2 // 4
    for n in range(4, 41):
        lhs, rhs = trig_product_check(n)
        assert lhs == pytest.approx(rhs, rel=1e-9), n

    print("\nACCEPTANCE 10: PASS — closed-form counts match cofactors "
          "(n<=30, all i), brute force (n<=8, all masks/roots), and the "
          "trigonometric identities (n<=40)")


def test_criterion_11_path_matrix_spectrum():
    for n in range(1, 41):
        poly, closed = path_matrix_spectrum(n)
        assert poly == z_poly(n) + z_poly(n - 1), n
        rs = accurate_roots(poly)
        match_multisets(closed, rs.roots, 1e-9)
    print("\nACCEPTANCE 11: PASS — char poly equals the shifted-family sum "
          "exactly and roots match 4cos^2(pi k/2n) to 1e-9, n<=40")


def test_criterion_12_dynamics():
    # symmetric rings: sampled squared disagreement never increases
    runs = 0
    for n in range(3, 9):
        for seed in (0, 1, 2):
            g = RingDigraph(n, (True,) * n)
            traj = simulate(laplacian(g), SimConfig(step=0.02, horizon=10.0,
                                                    seed=seed))
            d = disagreement(traj)
            assert np.all(np.diff(d) <= 0), (n, seed)
            runs += 1

    # bare cycles: measured frequency within 5% of sin(2 pi / n)
    for n in range(3, 11):
        g = RingDigraph(n, (False,) * n)
        x0 = tuple([1.0] + [0.0] * (n - 1))
        traj = simulate(laplacian(g), SimConfig(step=0.02, horizon=30.0,
                                                initial_state=x0))
        freq = dominant_frequency(traj)
        assert freq is not None, n
        assert freq == pytest.approx(math.sin(2 * math.pi / n), rel=0.05), n

    # step halving reduces the endpoint error by at least 8x (4th order)
    g = RingDigraph(4, (False,) * 4)
    lap = laplacian(g)
    states = {}
    for h in (0.02, 0.01, 0.005):
        cfg = SimConfig(step=h, horizon=2.0,
                        initial_state=(1.0, 0.0, 0.0, 0.0))
        states[h] = simulate(lap, cfg).states[-1]
    e1 = np.linalg.norm(states[0.02] - states[0.01])
    e2 = np.linalg.norm(states[0.01] - states[0.005])
    assert e1 / e2 >= 8.0
    print(f"\nACCEPTANCE 12: PASS — {runs} monotone symmetric runs, bare-cycle "
          f"frequencies within 5% (n=3..10), step-halving ratio "
          f"{e1 / e2:.1f} >= 8")
