"""Tests for the numeric oracle: certified roots, the fixed-point Aberth sweep,
refinement and exact char polys."""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ringspec import dynamics, rootfind
from ringspec.polycore import IntPolynomial, poly_mul, poly_shift_const, z_poly
from ringspec.ringgraph import (
    RingDigraph,
    char_poly,
    classify_exact,
    closed_form_spectrum,
    laplacian,
    spectrum_numeric,
)
from ringspec.rootfind import (
    RootFinderConfig,
    certify_roots,
    char_poly_exact,
    refine_all,
    spectral_verdict,
    square_free_part,
)
from support import (
    char_poly_float,
    chorded_c4_laplacian,
    faddeev_leverrier,
    match_multisets,
    newton_roots,
    path_matrix_spectrum,
    polyroots,
)

CFG = RootFinderConfig()


def _count_horner(monkeypatch) -> list[int]:
    """Count rootfind._fixed_horner evaluations; the count is the list's one entry."""
    calls = [0]
    horner = rootfind._fixed_horner

    def counted(*args):
        calls[0] += 1
        return horner(*args)

    monkeypatch.setattr(rootfind, "_fixed_horner", counted)
    return calls


def _approx(p) -> list[complex]:
    """The companion matrix's eigenvalues: approximations of p's roots in double."""
    return list(np.roots([float(c) for c in reversed(rootfind._coefficients(p))]))


def _ring_shaped(rng, n: int, bound: int) -> list[list[int]]:
    """A random n-by-n integer matrix, entries in [-bound, bound] on the cyclic
    diagonals (i, i) and (i, i +- 1 mod n) and 0 everywhere else."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in (i - 1, i, i + 1):
            m[i][j % n] = int(rng.integers(-bound, bound + 1))
    return m


def _sweep(p, dps: int, sweeps: int = rootfind._REFINE_SWEEPS):
    """(roots, converged) of the fixed-point Aberth sweep on p at ``dps`` digits.

    As :func:`rootfind._refined` runs it: on p's exact coefficients, from
    the companion matrix's eigenvalues nudged apart, until every step falls
    below 2**-128 or p(z) reaches the noise floor.
    """
    terms, zs, bits = rootfind._fixed_point(p, rootfind._nudged(_approx(p)), dps)
    return rootfind._fixed_aberth(terms, zs, bits, 2.0 ** -rootfind._REFINED_BITS, sweeps)


def _residual(p, z: complex) -> float:
    """|p(z)| / (sum |a_k| * max(1, |z|)**deg), with p(z) computed exactly at z."""
    coeffs = rootfind._coefficients(p)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    vr = vi = Fraction(0)
    for c in reversed(coeffs):
        vr, vi = vr * zr - vi * zi + Fraction(c), vr * zi + vi * zr
    scale = sum(abs(float(c)) for c in coeffs) * max(1.0, abs(z)) ** (len(coeffs) - 1)
    return math.hypot(float(vr), float(vi)) / scale


def _root_set(p, roots, working=()) -> rootfind.ComplexRootSet:
    return rootfind.ComplexRootSet(tuple(roots), True, rootfind._coefficients(p), tuple(working))


def _polished(p, starts) -> tuple:
    """:func:`refine_all`'s polish of ``starts`` as roots of p, NaN where it gave one up.

    The starts ride in ``working``, from which refine_all starts, and NaN in
    ``roots``, the value refine_all keeps for a root it cannot polish.
    """
    return refine_all(_root_set(p, [complex(math.nan, math.nan)] * len(starts), starts)).roots


class TestConfig:
    def test_defaults(self):
        # the report's threshold lives with its only reader
        assert dynamics.IMAG_THRESHOLD == 1e-6
        # the working precision is the one setting a caller chooses
        assert [f.name for f in dataclasses.fields(RootFinderConfig)] == ["working_dps"]
        assert CFG.working_dps is None


class TestAberth:
    """The fixed-point Aberth sweep, and the certified roots it backs up."""

    def test_quadratic_with_imaginary_pair(self):
        roots, converged = _sweep(IntPolynomial([1, 0, 1]), 30)
        assert converged
        match_multisets([1j, -1j], roots, 1e-12)

    def test_z3_plus_one(self):
        p = poly_shift_const(z_poly(3), 1)
        rs = certify_roots(p, _approx(p))
        assert rs.converged
        match_multisets([0, 2, 3], rs.roots, 1e-9)

    def test_z2_squared_minus_one(self):
        p = poly_shift_const(poly_mul(z_poly(2), z_poly(2)), -1)
        rs = certify_roots(p, _approx(p))
        assert rs.converged
        match_multisets([0, 1, 2, 3], rs.roots, 1e-9)

    def test_degree_one_and_degenerate_input(self):
        rs = certify_roots([3.0, 2.0], [-1.4])
        assert rs.converged and rs.roots[0] == pytest.approx(-1.5)
        with pytest.raises(ValueError):
            certify_roots([1.0], [])
        with pytest.raises(ValueError):
            certify_roots([1.0, 0.0], [0.0])

    def test_non_convergence_is_flagged(self):
        # one sweep from the companion eigenvalues leaves Z_9's roots unsettled
        roots, converged = _sweep(z_poly(9), 30, sweeps=1)
        assert converged is False and len(roots) == 9

    def test_residual_bound(self):
        # every certified root satisfies |p(z)| <= 1e-9 sum|a| max(1,|z|)^deg
        for poly in (z_poly(8), poly_shift_const(z_poly(12), -1),
                     IntPolynomial([5, 0, 0, 1]), char_poly_exact(laplacian(
                         RingDigraph.from_mask_string(9, "110101011")))):
            rs = certify_roots(poly, _approx(poly))
            assert rs.converged
            assert max(_residual(poly, z) for z in rs.roots) <= 1e-9

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            coeffs = rng.integers(-9, 10, size=rng.integers(3, 9)).tolist()
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            rs = certify_roots(coeffs, _approx(coeffs))
            if not rs.converged:
                continue
            conj = [z.conjugate() for z in rs.roots]
            match_multisets(conj, rs.roots, 1e-8)

    def test_trace_and_determinant_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = _ring_shaped(rng, n, 4)
            p = char_poly_exact(m)
            rs = certify_roots(p, np.linalg.eigvals(np.array(m, dtype=float)))
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
            rs = spectrum_numeric(RingDigraph(n, mask))
            assert rs.converged
            assert all(abs(z) <= 4 + 1e-6 for z in rs.roots)

    def test_working_precision_path_on_ill_conditioned_input(self):
        # Z_25's extreme roots are hopeless in double precision from the
        # monomial basis; the sweep at 55 digits recovers them to ~1e-15
        n = 25
        roots, converged = _sweep(z_poly(n), 55)
        assert converged
        expected = sorted(4 * math.cos(math.pi * k / (2 * n + 1)) ** 2
                          for k in range(1, n + 1))
        match_multisets(expected, roots, 1e-12)
        # certify_roots refuses the companion eigenvalues in double, and
        # refines them with the same sweep under a working precision
        assert not certify_roots(z_poly(n), _approx(z_poly(n))).converged
        rs = certify_roots(z_poly(n), _approx(z_poly(n)), RootFinderConfig(working_dps=55))
        assert rs.converged
        match_multisets(expected, rs.roots, 1e-12)

    @pytest.mark.parametrize("dps, tol", [(None, 1e-8), (40, 1e-14)])
    def test_conjugate_pair_between_adjacent_real_roots(self, dps, tol):
        # (x-1)(x-3)(1e8 (x-2)^2 + 1): roots 1, 3 and 2 +- 1e-4 i.  In double
        # from the companion eigenvalues; at a working precision from the pair
        # collapsed onto the real axis, which the sweep must pull apart
        p = poly_mul(IntPolynomial([3, -4, 1]),
                     IntPolynomial([4 * 10 ** 8 + 1, -4 * 10 ** 8, 10 ** 8]))
        approx = _approx(p) if dps is None else [1.0, 3.0, 2.0, 2.0]
        rs = certify_roots(p, approx, RootFinderConfig(working_dps=dps))
        assert rs.converged
        match_multisets([1, 3, 2 + 1e-4j, 2 - 1e-4j], rs.roots, tol)

    def test_pair_below_double_resolution_leaves_the_real_axis(self):
        # roots 1, 3 and 2 +- 1e-9 i: the companion eigenvalues of the pair
        # come out real in double, and a conjugate-symmetric start set would
        # hold the pair on the real axis at any working precision
        p = poly_mul(IntPolynomial([3, -4, 1]),
                     IntPolynomial([4 * 10 ** 18 + 1, -4 * 10 ** 18, 10 ** 18]))
        assert all(z.imag == 0 for z in _approx(p))
        assert not certify_roots(p, _approx(p)).converged
        rs = certify_roots(p, _approx(p), RootFinderConfig(working_dps=40))
        assert rs.converged
        match_multisets([1, 3, 2 + 1e-9j, 2 - 1e-9j], rs.roots, 1e-14)

    def test_double_and_working_precision_agree_on_small_rings(self):
        # both configurations certify each square-free factor, so the
        # repeated roots of char_poly(g) agree as closely as the simple roots
        # of its square-free part
        seen = set()
        for n in range(3, 9):
            for bits in range(2 ** n):
                g = RingDigraph(n, tuple(bool(bits >> j & 1) for j in range(n)))
                p = char_poly(g).coefficients
                for q in (p, square_free_part(p)):
                    if q in seen:
                        continue
                    seen.add(q)
                    double = certify_roots(q, _approx(q))
                    mp = certify_roots(q, _approx(q), RootFinderConfig(working_dps=40))
                    assert double.converged and mp.converged, g.mask_string()
                    match_multisets(mp.roots, double.roots, 1e-9)

    @pytest.mark.parametrize("mask", ["1" * 10, "111011110"])
    def test_working_precision_solves_each_square_free_factor(self, monkeypatch, mask):
        # both spectra have double roots, on which Aberth converges only
        # linearly; one sweep per square-free factor keeps every root simple
        g = RingDigraph.from_mask_string(len(mask), mask)
        p = char_poly(g)
        calls = _count_horner(monkeypatch)
        working = []
        for factor, k in rootfind._square_free_factors(p):
            roots, converged = _sweep(factor, 40)
            assert converged
            working += [z for z in roots for _ in range(k)]
        assert calls[0] <= 30
        roots = [complex(z) for z in working]
        match_multisets(closed_form_spectrum(g), roots, 1e-12)
        assert max(_residual(p, z) for z in roots) <= 1e-15
        assert all(isinstance(z, rootfind._FixedComplex) for z in working)

    def test_working_roots_stay_out_of_repr_and_equality(self):
        p = IntPolynomial([2, -3, 1])
        mp = certify_roots(p, [1.0, 2.0], RootFinderConfig(working_dps=30))
        assert mp.converged and len(mp.working) == 2
        assert "working" not in repr(mp)
        assert certify_roots(p, [1.0, 2.0], CFG).working == ()
        assert mp == rootfind.ComplexRootSet(mp.roots, mp.converged, mp.source,
                                             max_radius=mp.max_radius)

    def test_factor_beyond_double_range_does_not_converge(self):
        # x**2 (x - 6e-300): the primitive integer form of the factor
        # x - 6e-300 has a coefficient near 2**1040, and its root rounds to
        # the double root's point of the 2**-64 grid
        p = [0.0, 0.0, -6e-300, 1.0]
        rs = certify_roots(p, _approx(p))
        assert rs.converged is False and rs.max_radius is None

    def test_start_at_a_critical_point_keeps_moving(self):
        # p'(0) = 0 for x^3 + 1, where p(0) = 1: the root at 0 is not settled
        terms, starts, bits = rootfind._fixed_point([1, 0, 0, 1], [0j, 5 + 0j, -3j], 30)
        roots, converged = rootfind._fixed_aberth(terms, starts, bits, 1e-13, 500)
        assert converged
        match_multisets([-1, cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)],
                        roots, 1e-12)


def _to_mp(z):
    """A working-precision root as an mpmath number, exactly (call under workdps)."""
    return mpmath.mpc(mpmath.ldexp(z.re, -z.bits), mpmath.ldexp(z.im, -z.bits))


def _worst_distance(roots, reference, relative: bool) -> float:
    """Largest distance from a root to its nearest reference root (call under workdps)."""
    return max(float(min(abs(z - r) / (abs(r) if relative else 1) for r in reference))
               for z in roots)


#: the certified spectra of the benchmark's spectra workload: its closed-form
#: families, and three of its random multi-gap masks
CERTIFIED_MASKS = ["0" + "1" * 15, "0" + "1" * 19, "1111111011111110", "11111111101111111110",
                   "111011110", "11110111110", "0" * 20, "0" * 28, "1" * 8, "1" * 10,
                   "001011110010", "11011001000010", "1001101001101001"]


@functools.cache
def _certified(mask: str) -> tuple:
    """(certified spectrum at 30 + n digits, mpmath's roots) for a mask, once per module.

    mpmath's roots are :func:`support.polyroots` where Yun's factors have
    degree 12 at most.  Beyond that polyroots takes about a second per mask,
    and they are mpmath's Newton method from the working roots, each proved
    by a Newton disc below 1e-60 (:func:`support.newton_roots`).
    """
    n = len(mask)
    rs = spectrum_numeric(RingDigraph.from_mask_string(n, mask),
                          RootFinderConfig(working_dps=30 + n))
    assert rs.converged, mask
    if max(len(a) - 1 for a, _ in rootfind._square_free_factors(rs.source)) <= 12:
        return rs, polyroots(rs.source)
    points, radii = newton_roots(rs.source, rs.working)
    assert max(radii) < 1e-60, mask
    return rs, tuple(points)


class TestFixedPoint:
    def test_value_type_lands_on_the_grid_exactly(self):
        bits = 80
        rng = np.random.default_rng(5)
        # doubles, so that they land on the grid exactly
        exact = [(Fraction(int(re), 2 ** 40), Fraction(int(im), 2 ** 50))
                 for re, im in rng.integers(-2 ** 52, 2 ** 52, size=(40, 2))]
        for a, b in exact:
            x = rootfind._FixedComplex.of(complex(float(a), float(b)), bits)
            assert (Fraction(x.re, 2 ** bits), Fraction(x.im, 2 ** bits)) == (a, b)
            assert complex(x) == complex(float(a), float(b))
            assert abs(x) == pytest.approx(abs(complex(x)), rel=1e-15)
            # a root found on a coarse grid moves to a finer one exactly
            finer = rootfind._FixedComplex.of(x, bits + 30)
            assert finer == rootfind._FixedComplex(x.re << 30, x.im << 30, bits + 30)
            assert rootfind._FixedComplex.of(finer, bits) == x
        assert x != rootfind._FixedComplex(0, 0, bits) and x != complex(x)
        assert repr(x) == f"_FixedComplex({complex(x)!r}, bits={bits})"
        huge = rootfind._FixedComplex(1 << 2000, -1, bits)
        assert abs(huge) == math.inf and complex(huge).real == math.inf
        # the iteration computes on re and im; the value type has no arithmetic
        with pytest.raises(TypeError):
            x + x

    def test_horner_errs_within_the_noise_bound(self):
        # each of Horner's deg products is floored to the grid, an error below
        # sqrt(2) * 2**-bits, and the remaining steps multiply it by |z|**k:
        # |error of p(z)| < sqrt(2) * 2**-bits * sum_{k < deg} |z|**k, the
        # bound _is_noise assumes; p'(z) accumulates at most deg**2 such errors
        bits = 80
        one, grid = 1 << bits, Fraction(1, 1 << bits)
        rng = random.Random(41)
        for trial in range(300):
            deg = rng.randint(1, 14)
            ints = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(deg)] + [rng.randint(1, 99)]
            size = rng.choice([2.0 ** -30, 0.01, 0.5, 1.0, 2.0, 7.0])
            x = rootfind._FixedComplex.of(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * size, bits)
            terms = [(c << bits, float(abs(c))) for c in reversed(ints)]
            pr, pi, dr, di, pbar = rootfind._fixed_horner(terms, x.re, x.im, bits, one)
            zr, zi = Fraction(x.re, one), Fraction(x.im, one)
            vr = vi = wr = wi = Fraction(0)  # p and p' exactly, by Horner over Fraction
            for c in reversed(ints):
                wr, wi = wr * zr - wi * zi + vr, wr * zi + wi * zr + vi
                vr, vi = vr * zr - vi * zi + c, vr * zi + vi * zr
            az = abs(x)
            bound = math.sqrt(2) * math.ldexp(sum(az ** k for k in range(deg)), -bits)
            p_err = (Fraction(pr, one) - vr, Fraction(pi, one) - vi)
            assert math.hypot(*map(float, p_err)) < bound, (trial, ints, x)
            d_err = (Fraction(dr, one) - wr, Fraction(di, one) - wi)
            assert math.hypot(*map(float, d_err)) < deg * deg * max(1.0, az) ** (deg - 1) \
                * math.sqrt(2) * math.ldexp(1.0, -bits), (trial, ints, x)
            assert pbar == pytest.approx(sum(abs(c) * az ** k for k, c in enumerate(ints)),
                                         rel=1e-12)
            if deg == 2:  # c_2 z is exact, so p(z) has one floored product
                assert all(-grid < e <= 0 for e in p_err), (trial, ints, x)

    @pytest.mark.parametrize("name, p, tol", [
        # (10**30 x - 1)(x - 1)(x - 2): one root at 1e-30, where the grid
        # needs about 100 bits more than 40 digits near 1
        ("tiny", poly_mul(IntPolynomial([-1, 10 ** 30]), IntPolynomial([2, -3, 1])), 1e-40),
        # roots 1e6, 2e6 and 1e6 +- i
        ("large", poly_mul(poly_mul(IntPolynomial([-10 ** 6, 1]), IntPolynomial([-2 * 10 ** 6, 1])),
                           IntPolynomial([10 ** 12 + 1, -2 * 10 ** 6, 1])), 1e-29),
        # roots 1, 3 and 2 +- 1e-9 i
        ("pair", poly_mul(IntPolynomial([3, -4, 1]),
                          IntPolynomial([4 * 10 ** 18 + 1, -4 * 10 ** 18, 10 ** 18])), 1e-35),
    ])
    def test_working_roots_match_polyroots(self, name, p, tol):
        working, converged = _sweep(p, 40)
        assert converged
        reference = polyroots(p)
        with mpmath.workdps(120):
            assert _worst_distance([_to_mp(z) for z in working], reference,
                                   relative=True) <= tol, name
            assert _worst_distance(reference, [_to_mp(z) for z in working],
                                   relative=False) < 1e-20, name

    def test_certified_spectra_match_the_mpmath_route(self):
        # each working root lies within the certified radius of mpmath's root
        for mask in CERTIFIED_MASKS:
            rs, reference = _certified(mask)
            with mpmath.workdps(120):
                assert _worst_distance([_to_mp(z) for z in rs.working], reference,
                                       relative=False) <= rs.max_radius, mask


def _grid_distance(z, roots) -> float:
    """Distance from a working root to the nearest of the given roots, exactly."""
    zr, zi = Fraction(z.re, 1 << z.bits), Fraction(z.im, 1 << z.bits)
    return min(math.hypot(float(zr - Fraction(r.real)), float(zi - Fraction(r.imag)))
               for r in roots)


class TestCertifyRoots:
    def test_known_roots_with_multiplicities(self, monkeypatch):
        # Yun's factors: a_1 = (x^2 + 1)(x + 3), a_2 = 2x - 1, a_3 = x - 1
        p = _expand([([-1, 1], 3), ([-1, 2], 2), ([1, 0, 1], 1), ([3, 1], 1)])
        true = [1, 1, 1, 0.5, 0.5, 1j, -1j, -3]
        rng = random.Random(3)
        approx = [complex(r) + complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
                  for r in true]
        approx[6] = approx[5].conjugate()
        passes = []
        newton_disc = rootfind._newton_disc
        monkeypatch.setattr(rootfind, "_newton_disc",
                            lambda a, x, y, bits: passes.append(y) or newton_disc(a, x, y, bits))
        rs = rootfind.certify_roots(p, approx, RootFinderConfig(working_dps=40))
        # three factors at seven points: the conjugate takes the mirrored discs
        assert len(passes) == 21
        monkeypatch.undo()
        assert rs.converged and rs.source == rootfind._coefficients(p)
        assert 0 < rs.max_radius < 1e-7
        match_multisets(true, rs.roots, 1e-15)
        assert rs.roots == tuple(complex(z) for z in rs.working)
        # one exact Newton step from 1e-9 off: exact on the linear factors,
        # about 1e-18 off on the cubic
        assert max(_grid_distance(z, [complex(r) for r in true]) for z in rs.working) < 1e-16
        pair = [z for z in rs.working if abs(complex(z).imag) > 0.5]
        # exact conjugates: the imaginary part of each step is cut toward 0
        assert len(pair) == 2 and (pair[0].re, pair[0].im) == (pair[1].re, -pair[1].im)
        assert rootfind.certify_roots(p, approx).working == ()

    def test_square_free_attempt_changes_no_answer(self, monkeypatch):
        # with the attempt on p itself turned off, every answer comes from
        # Yun's factors; both routes give the same roots, digits and radii
        masks = {}
        for n in range(3, 13):
            for bits in range(2 ** n):
                g = RingDigraph(n, tuple(bool((bits >> j) & 1) for j in range(n)))
                dec = g.decomposition
                masks.setdefault((n, dec.K, tuple(sorted(dec.gaps))), g)
        assert len(masks) == 278
        cases = [(g, CFG) for g in masks.values()]
        cases += [(RingDigraph.from_mask_string(len(mask), mask),
                   RootFinderConfig(working_dps=30 + len(mask))) for mask in CERTIFIED_MASKS]
        fields = ("roots", "converged", "max_radius", "working")
        factorizations = []
        square_free_factors = rootfind._square_free_factors
        monkeypatch.setattr(rootfind, "_square_free_factors",
                            lambda p: factorizations.append(p) or square_free_factors(p))
        normal = [spectrum_numeric(g, cfg) for g, cfg in cases]
        # most spectra certify without Yun's sequence, but not all
        assert 0 < len(factorizations) < len(cases) / 2
        monkeypatch.setattr(rootfind, "_SEPARATION", math.inf)
        yun = [spectrum_numeric(g, cfg) for g, cfg in cases]
        for (g, cfg), a, b in zip(cases, normal, yun):
            assert a.converged, g.mask_string()
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields], \
                g.mask_string()

    def test_separated_approximations_of_a_double_root_go_to_yun(self, monkeypatch):
        # (x - 1)^2 (x - 2) from 0.9, 1.1 and 2.0: the attempt on p itself
        # draws three discs, of which the two about the double root overlap,
        # so Yun's factors x - 2 and x - 1 (two discs each) certify instead
        p = _monic_from_roots([1, 1, 2])
        passes, factorizations = [], []
        newton_disc, square_free_factors = rootfind._newton_disc, rootfind._square_free_factors
        monkeypatch.setattr(rootfind, "_newton_disc",
                            lambda a, *point: passes.append(a) or newton_disc(a, *point))
        monkeypatch.setattr(rootfind, "_square_free_factors",
                            lambda p: factorizations.append(p) or square_free_factors(p))
        for cfg in (CFG, RootFinderConfig(working_dps=30)):
            passes.clear()
            factorizations.clear()
            rs = rootfind.certify_roots(p, [0.9, 1.1, 2.0], cfg)
            assert rs.converged and sorted(rs.roots, key=abs) == [1, 1, 2]
            assert [len(a) - 1 for a in passes] == [3] * 3 + [1] * 6
            assert len(factorizations) == 1

    @pytest.mark.parametrize("bits", [64, 128])
    def test_newton_disc_is_exact(self, bits):
        # P = D**d a(z) and Q = D**(d-1) a'(z) at z = (x + i y) / D, D = 2**bits,
        # and the radius is the least integer >= d |P| / |Q|
        rng = random.Random(8)
        one = 1 << bits
        cases = [([-1, 3], one // 3, 0)]  # 3z - 1 one grid step below 1/3: ratio 1/9
        for trial in range(200):
            a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 9))] + [rng.randint(1, 5)]
            cases.append((a, rng.randint(-3 * one, 3 * one),
                          rng.choice([0, rng.randint(-3 * one, 3 * one)])))
        for trial, (a, x, y) in enumerate(cases):
            d = len(a) - 1
            disc = rootfind._newton_disc(a, x, y, bits)
            zr, zi = Fraction(x, one), Fraction(y, one)
            vr = vi = wr = wi = Fraction(0)
            for c in reversed(a):
                wr, wi = wr * zr - wi * zi + vr, wr * zi + wi * zr + vi
                vr, vi = vr * zr - vi * zi + c, vr * zi + vi * zr
            assert disc.value == (vr * one ** d, vi * one ** d), trial
            assert disc.slope == (wr * one ** (d - 1), wi * one ** (d - 1)), trial
            assert disc.conjugate() == rootfind._newton_disc(a, x, -y, bits), trial
            (pr, pi), (qr, qi) = disc.value, disc.slope
            ratio = Fraction(d * d * (pr * pr + pi * pi), qr * qr + qi * qi)
            assert disc.radius ** 2 >= ratio > (disc.radius - 1) ** 2 or ratio == disc.radius == 0
        assert rootfind._newton_disc([-1, 3], one // 3, 0, bits).radius == 1

    def test_planted_bad_approximations_are_not_certified(self):
        p = _monic_from_roots([1, 2, 3, 4, 5, 6])
        good = [r + 1e-10 * (r % 3 - 1) for r in range(1, 7)]
        assert rootfind.certify_roots(p, good).converged
        planted = [good[:5] + [5.0],             # one root missing, another twice
                   good[:5],                     # one missing
                   good + [3.5],                 # one too many
                   good[:5] + [complex(math.nan, 0)]]
        for approx in planted:
            rs = rootfind.certify_roots(p, approx)
            assert not rs.converged, approx
            assert len(rs.roots) == len(approx) and rs.roots[:5] == tuple(good[:5])
            assert rs.max_radius is None and rs.working == ()
        # with a working precision the factor gets a second chance from its
        # approximations refined together, one per root: a count that is off
        # still fails, and a root given in place of another is moved back
        cfg = RootFinderConfig(working_dps=30)
        for approx in planted[1:]:
            rs = rootfind.certify_roots(p, approx, cfg)
            assert not rs.converged and rs.max_radius is None and rs.working == (), approx
        rs = rootfind.certify_roots(p, planted[0], cfg)
        assert rs.converged and rs.max_radius < 1e-30
        match_multisets([1, 2, 3, 4, 5, 6], rs.roots, 1e-15)
        # an isolated root stays certified from 0.1 away, by a disc that wide
        rs = rootfind.certify_roots(p, good[:5] + [6.1])
        assert rs.converged and 0.1 <= rs.max_radius < 1
        assert abs(max(rs.roots, key=abs) - 6) <= rs.max_radius
        # (x - 1)^2 (x - 2): a double root needs two approximations
        q = _monic_from_roots([1, 1, 2])
        assert rootfind.certify_roots(q, [1.0 + 1e-8j, 1.0 - 1e-8j, 2.0]).converged
        assert not rootfind.certify_roots(q, [1.0, 2.0, 2.0]).converged
        assert not rootfind.certify_roots(q, [1.0, 2.0]).converged

    def test_max_radius_bounds_the_step_from_the_centre(self):
        # x^2 - 2 from 1.4: a/a' = -0.04/2.8, so the disc has radius 2|a/a'|
        # and the step moves |a/a'| more, which max_radius includes
        rs = rootfind.certify_roots(IntPolynomial([-2, 0, 1]), [1.4, -1.4])
        assert rs.converged
        assert rs.max_radius == pytest.approx(3 * 0.04 / 2.8, rel=1e-12)
        match_multisets([math.sqrt(2), -math.sqrt(2)], rs.roots, rs.max_radius)

    def test_roots_closer_than_the_grid_are_not_certified(self):
        # two roots near 1e-30, which an Aberth iteration in double once
        # reported as converged with wrong values, round to one point of
        # the 2**-64 grid, so their discs coincide
        p = poly_mul(poly_mul(IntPolynomial([-1, 10 ** 30]), IntPolynomial([-3, 10 ** 30])),
                     IntPolynomial([2, -3, 1]))
        rs = rootfind.certify_roots(p, [1e-30, 3e-30, 1.0, 2.0])
        assert not rs.converged and rs.max_radius is None
        # refined at a working precision, they are told apart on the 2**-128 grid
        rs = rootfind.certify_roots(p, [1e-30, 3e-30, 1.0, 2.0], RootFinderConfig(working_dps=40))
        assert rs.converged and rs.max_radius < 1e-35
        match_multisets([1e-30, 3e-30, 1, 2], rs.roots, 1e-36)

    def test_a_failing_factor_is_refined_at_working_precision(self, monkeypatch):
        # (x - 1)(x - 1 - 1e-6)(x - 2): approximations 3e-7 off the close
        # pair give discs that overlap; Aberth at the working precision
        # separates them, and the discs are drawn again on the 2**-128 grid
        p = poly_mul(poly_mul(IntPolynomial([-1, 1]), IntPolynomial([-(10 ** 6 + 1), 10 ** 6])),
                     IntPolynomial([-2, 1]))
        approx = [1 + 3e-7, 1 + 7e-7, 2.0]
        assert not rootfind.certify_roots(p, approx).converged
        sweeps = []
        fixed_aberth = rootfind._fixed_aberth
        monkeypatch.setattr(rootfind, "_fixed_aberth",
                            lambda *args: sweeps.append(args[-1]) or fixed_aberth(*args))
        rs = rootfind.certify_roots(p, approx, RootFinderConfig(working_dps=40))
        assert sweeps == [rootfind._REFINE_SWEEPS]
        assert rs.converged and rs.max_radius < 1e-35
        match_multisets([1, 1 + 1e-6, 2], rs.roots, 1e-15)
        true = [Fraction(1), Fraction(10 ** 6 + 1, 10 ** 6), Fraction(2)]
        for z in rs.working:
            assert min(abs(Fraction(z.re, 1 << z.bits) - r) for r in true) < Fraction(1, 10 ** 39)
            assert z.im == 0
        # one double for two roots 1e-20 apart, as eigvals can give: the
        # starts are nudged apart before they are refined
        close = poly_mul(poly_mul(IntPolynomial([-1, 1]),
                                  IntPolynomial([-(10 ** 20 + 1), 10 ** 20])),
                         IntPolynomial([-2, 1]))
        assert not rootfind.certify_roots(close, [1.0, 1.0, 2.0]).converged
        rs = rootfind.certify_roots(close, [1.0, 1.0, 2.0], RootFinderConfig(working_dps=40))
        assert rs.converged and rs.max_radius < 1e-21
        pair = [Fraction(z.re, 1 << z.bits) for z in rs.working if abs(complex(z) - 1) < 0.5]
        assert len(pair) == 2
        assert abs(abs(pair[0] - pair[1]) - Fraction(1, 10 ** 20)) <= 2 * rs.max_radius
        # on p squared, a cluster of four approximations gives two starts,
        # and each refined root is listed twice
        q = poly_mul(p, p)
        assert not rootfind.certify_roots(q, approx + approx).converged
        rs = rootfind.certify_roots(q, approx + approx, RootFinderConfig(working_dps=40))
        assert rs.converged
        match_multisets([1, 1, 1 + 1e-6, 1 + 1e-6, 2, 2], rs.roots, 1e-15)

    def test_certified_discs_hold_the_roots(self):
        # random integer polynomials, some with repeated factors, from the
        # companion matrix's eigenvalues: every certified root lies within
        # max_radius of a root mpmath finds, up to its rounding to a complex
        rng = random.Random(11)
        certified = 0
        for trial in range(150):
            p = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                              + [rng.randint(1, 4)])
            if rng.random() < 0.4:
                p = poly_mul(p, poly_mul(p, IntPolynomial([rng.randint(-5, 5), 1])))
            if p.coefficients[0] == 0:
                continue
            approx = np.roots([float(c) for c in reversed(p.coefficients)])
            rs = rootfind.certify_roots(p, approx)
            if not rs.converged:
                continue
            certified += 1
            reference = [complex(r) for r in polyroots(p)]
            match_multisets(reference, rs.roots, rs.max_radius + 1e-13)
        assert certified >= 100

    def test_certified_spectra_polish_as_the_oracle_does(self):
        for mask in CERTIFIED_MASKS:
            rs, reference = _certified(mask)
            assert rs.roots == tuple(complex(z) for z in rs.working)
            match_multisets(map(complex, reference), refine_all(rs).roots, 1e-40)


class TestRefinement:
    def test_sqrt_two(self):
        (value,) = _polished(IntPolynomial([-2, 0, 1]), [1.41421])
        assert value.real == pytest.approx(math.sqrt(2), abs=1e-14)
        assert value.imag == 0

    def test_double_root_imaginary_part_collapses(self):
        (value,) = _polished(IntPolynomial([4, -4, 1]), [2 + 1e-7j])  # (x-2)^2
        assert abs(value.imag) < 1e-9
        assert value.real == pytest.approx(2.0, abs=1e-9)

    def test_refined_complex_pair_residual(self):
        # gaps (1,2,3) at n=6: the char poly has a conjugate pair
        p = poly_shift_const(
            poly_mul(poly_mul(z_poly(1), z_poly(2)), z_poly(3)), -1)
        z = max(_approx(p), key=lambda v: abs(v.imag))
        (value,) = _polished(p, [z])
        with mpmath.workdps(60):
            val = mpmath.polyval([mpmath.mpf(c) for c in p.coefficients[::-1]],
                                 mpmath.mpc(value))
            scale = sum(abs(c) for c in p.coefficients)
            assert abs(val) / scale < 1e-12

    def test_split_double_root_converges_in_few_steps(self, monkeypatch):
        # on (x-2)^2(x-3) itself Newton halves the error per step; on the
        # square-free part it converges quadratically, within ten steps
        p = poly_mul(poly_mul(IntPolynomial([-2, 1]), IntPolynomial([-2, 1])),
                     IntPolynomial([-3, 1]))
        calls = _count_horner(monkeypatch)
        (value,) = _polished(p, [2 + 1e-7j])
        assert 0 < calls[0] <= 10
        assert abs(value.imag) < 1e-40
        assert value.real == pytest.approx(2.0, abs=1e-15)

    def test_path_forty_roots_refine_in_few_evaluations(self, monkeypatch):
        # at 60 digits the degree-40 evaluation noise keeps Newton's steps
        # above the 1e-50 step rule; the noise-floor stop ends each root,
        # started from its certified double value
        poly, closed = path_matrix_spectrum(40)
        rs = certify_roots(poly, closed, RootFinderConfig(working_dps=70))
        assert rs.converged
        calls = _count_horner(monkeypatch)
        refined = _polished(poly, rs.roots)
        assert all(map(cmath.isfinite, refined))
        assert 0 < calls[0] <= 10 * len(refined)
        match_multisets(closed, refined, 1e-9)

    def test_refine_all_starts_from_the_working_roots(self, monkeypatch):
        # the certified working roots keep their digits, so Newton needs
        # about one step per root
        poly, closed = path_matrix_spectrum(40)
        rs = certify_roots(poly, closed, RootFinderConfig(working_dps=70))
        assert rs.converged
        calls = _count_horner(monkeypatch)
        refined = refine_all(rs)
        assert calls[0] <= len(rs.roots) + 1
        match_multisets(closed, refined.roots, 1e-12)
        assert refined.converged and refined.source == rs.source

    def test_certified_spectra_polish_in_few_evaluations(self, monkeypatch):
        # the roots certify_roots keeps carry 30 + n digits, so one Newton
        # step reaches 60; Newton's error estimate from the other roots
        # stops almost every root there, without a confirming evaluation
        # (413 evaluations when each root was polished alone and confirmed)
        sets = [spectrum_numeric(RingDigraph.from_mask_string(len(mask), mask),
                                 RootFinderConfig(working_dps=30 + len(mask)))
                for mask in CERTIFIED_MASKS]
        calls = _count_horner(monkeypatch)
        for rs in sets:
            refine_all(rs)
        assert calls[0] <= 160

    def test_certified_distinct_roots_skip_the_square_free_part(self, monkeypatch):
        # deg p distinct certified roots prove p square-free, so refine_all
        # polishes p itself; only the 4 sets with repeated roots (the
        # symmetric rings and the two near-balanced masks) run gcd(p, p'), and
        # every root comes out as it does when all 13 run it
        sets = [spectrum_numeric(RingDigraph.from_mask_string(len(mask), mask),
                                 RootFinderConfig(working_dps=30 + len(mask)))
                for mask in CERTIFIED_MASKS]
        calls = []
        real = rootfind.square_free_part
        monkeypatch.setattr(rootfind, "square_free_part", lambda p: calls.append(p) or real(p))
        refined = [refine_all(rs) for rs in sets]
        assert calls == [rs.source for rs in sets if len(set(rs.roots)) < len(rs.roots)]
        assert len(calls) == 4
        monkeypatch.undo()
        for rs, ref in zip(sets, refined):
            polished = rootfind._polish(real(rs.source), rs.working)
            assert ref.roots == tuple(z if p is None else p for z, p in zip(rs.roots, polished))
            assert (ref.converged, ref.source) == (True, rs.source)

    @pytest.mark.parametrize("mask, distinct", [
        # 0 and 4 once, four double roots: six points, all real
        ("1" * 10, 6),
        # 0 and 2, and nine conjugate pairs 1 - exp(+-2 pi i k / 20)
        ("0" * 20, 11)])
    def test_copies_and_conjugates_are_polished_once(self, monkeypatch, mask, distinct):
        n = len(mask)
        g = RingDigraph.from_mask_string(n, mask)
        rs = spectrum_numeric(g, RootFinderConfig(working_dps=30 + n))
        starts = []
        newton = rootfind._newton
        monkeypatch.setattr(rootfind, "_newton",
                            lambda terms, zr, zi, *rest: starts.append((zr, zi))
                            or newton(terms, zr, zi, *rest))
        refined = refine_all(rs)
        assert len(starts) == len(set(starts)) == distinct
        assert not any((zr, -zi) in starts for zr, zi in starts if zi)
        match_multisets(closed_form_spectrum(g), refined.roots, 1e-12)
        for z in refined.roots:
            assert refined.roots.count(z) == refined.roots.count(z.conjugate())

    def test_error_estimate_needs_every_root(self, monkeypatch):
        # the estimate sums 1 / |z_i - z_j| over q's other roots, so a set
        # without all of them stops by step size and noise floor alone
        spreads = []
        newton = rootfind._newton
        monkeypatch.setattr(rootfind, "_newton",
                            lambda *args: spreads.append(args[-1]) or newton(*args))
        p = IntPolynomial([-2, 0, 1])
        (alone,) = _polished(p, [1.41421])
        both = _polished(p, [1.41421, -1.41421])
        assert spreads == [math.inf] + [pytest.approx(1 / 2.82842, rel=1e-5)] * 2
        assert alone == both[0] == -both[1] == pytest.approx(math.sqrt(2), abs=1e-15)
        # (x^2 - 2)(x - 3): the same two starts are two of three roots
        spreads.clear()
        assert _polished(poly_mul(p, IntPolynomial([-3, 1])), [1.41421, -1.41421]) == both
        assert spreads == [math.inf] * 2

    def test_zero_derivative_without_a_root_stays_unconverged(self):
        # x^2 + 1 at 0: Newton has no step and 0 is not a root
        assert refine_all(_root_set(IntPolynomial([1, 0, 1]), [0j])).roots == (0j,)

    def test_non_finite_start_stays_unconverged(self):
        # a root set that did not converge can carry NaN roots into refine_all
        p = IntPolynomial([1, 0, 1])
        assert refine_all(_root_set(p, [complex(math.inf, 0)])).roots == (complex(math.inf, 0),)
        (value,) = refine_all(_root_set(p, [complex(math.nan, 0)])).roots
        assert cmath.isnan(value)
        # x**2 (x - 6e-300), not certified (see TestAberth), polishes the
        # double root it was given
        p = [0.0, 0.0, -6e-300, 1.0]
        rs = certify_roots(p, _approx(p))
        assert refine_all(rs).roots[1:] == (0j, 0j)

    def test_nan_roots_survive_an_underflow_errno(self):
        # an underflowing math.ldexp leaves errno at ERANGE, and CPython's abs()
        # of a NaN complex can then raise OverflowError; nothing takes abs() of
        # these roots, so they come back as NaN and unconverged.  The companion
        # matrix of 1e-10 x**2 + 1e300 overflows, so its eigenvalues are NaN
        math.ldexp(1.0, -1100)
        rs = certify_roots([1e300, 0.0, 1e-10], [complex(math.nan, math.nan)] * 2)
        assert rs.converged is False
        assert len(rs.roots) == 2 and all(map(cmath.isnan, rs.roots))
        math.ldexp(1.0, -1100)
        refined = refine_all(rs)
        assert len(refined.roots) == 2 and all(map(cmath.isnan, refined.roots))

    def test_stuck_start_gives_up_after_one_repeated_sweep(self, monkeypatch):
        # a lone start with p' = 0 never moves, so a second sweep that moves
        # nothing ends the iteration instead of spending all its steps
        calls = _count_horner(monkeypatch)
        assert refine_all(_root_set(IntPolynomial([1, 0, 1]), [0j])).roots == (0j,)
        assert 0 < calls[0] <= 2

    def test_refine_all_restores_split_doubles(self):
        # near-balanced two-gap digraph: all roots real, several double
        g = RingDigraph.from_mask_string(9, "111011110")
        p = char_poly_exact(laplacian(g))
        # the companion eigenvalues split each double root
        rs = refine_all(_root_set(p, _approx(p)))
        assert max(abs(z.imag) for z in rs.roots) < 1e-12


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


class TestRemainderSequence:
    def test_terms_are_the_rational_sequence_without_content(self):
        # Sturm's sequence a, b, -rem(a, b), ... over the rationals: each
        # term after b is a positive multiple of it with coprime coefficients
        def random_poly(degree):
            return [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]

        rng = random.Random(31)
        repeated = 0
        for trial in range(300):
            a = random_poly(rng.randint(2, 9))
            if trial % 3 == 0:  # a squared factor, so that gcd(a, a') is not constant
                f = IntPolynomial(random_poly(rng.randint(1, 3)))
                a = list(poly_mul(poly_mul(f, f), IntPolynomial(a)).coefficients)
            b = rootfind._derivative(a) if trial % 2 else random_poly(len(a) - 2)
            expected = [[Fraction(c) for c in a], [Fraction(c) for c in b]]
            while len(expected[-1]) > 1:
                r = _rational_remainder(*expected[-2:])
                if not r:
                    break
                expected.append([-c for c in r])
            terms = list(rootfind._remainder_sequence(a, b))
            assert len(terms) == len(expected), (a, b)
            assert terms[:2] == [a, b]
            for t, e in zip(terms[2:], expected[2:]):
                assert math.gcd(*t) == 1 and len(t) == len(e)
                scale = Fraction(t[-1]) / e[-1]
                assert scale > 0 and [scale * c for c in e] == t, (a, b)
            # the last term is the gcd: it divides a and b, with the degree of
            # the rational sequence's last term
            gcd = rootfind._gcd(a, b)
            repeated += len(gcd) > 1
            assert len(gcd) == (len(expected[-1]) if len(expected[-1]) > 1 else 1)
            assert gcd[-1] > 0 and math.gcd(*gcd) == 1
            for poly in (a, b):  # raises ArithmeticError unless gcd divides it
                rootfind._exact_quotient(poly, gcd)
        assert repeated >= 50


def _rational_remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a mod b over the rationals, ascending, trailing zeros dropped."""
    r = list(a)
    while len(r) >= len(b):
        q, shift = r[-1] / b[-1], len(r) - len(b)
        for i, c in enumerate(b):
            r[i + shift] -= q * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


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
        rs = certify_roots(q, _approx(q))
        assert rs.converged
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

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            char_poly_exact([[1, 2, 3], [4, 5, 6], [7, 8]])

    def test_transfer_route_matches_faddeev_leverrier(self):
        rng = random.Random(29)
        # 3000 small matrices, then 200 at n = 10..40: by turns unconstrained,
        # every diagonal entry 0, every product m_(i,i+1) m_(i+1,i) 0, or both
        for trial in range(3200):
            n = rng.randint(3, 9) if trial < 3000 else rng.randint(10, 40)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in (i - 1, i, i + 1):
                    m[i][j % n] = rng.randint(-5, 5)
            if trial >= 3000 and trial % 2:
                for i in range(n):
                    m[i][i] = 0
            if trial >= 3000 and trial % 4 >= 2:
                for i in range(n):
                    if rng.random() < 0.5:
                        m[i][(i + 1) % n] = 0
                    else:
                        m[(i + 1) % n][i] = 0
            expected = faddeev_leverrier(m)
            assert rootfind._transfer_char_poly(m) == expected, m
            assert list(char_poly_exact(m).coefficients) == expected, m
            # the recurrence over Fraction entries: det(xI - M/q) has the
            # coefficients c_k / q**(n - k) of det(xI - M)
            q = rng.randint(2, 9)
            scaled = [[Fraction(v, q) for v in row] for row in m]
            assert rootfind._transfer_char_poly(scaled) == [
                Fraction(c, q ** (n - k)) for k, c in enumerate(expected)], (m, q)

    def test_other_matrices_are_refused(self):
        off_pattern = laplacian(RingDigraph.from_mask_string(6, "101101"))
        off_pattern[1][3] = 3  # one nonzero off the three cyclic diagonals
        # each position off the cyclic diagonals, alone, wrapping ones included
        single = []
        for n in (4, 5, 7):
            for i in range(n):
                for j in range(n):
                    if (j - i) % n not in (0, 1, n - 1):
                        m = laplacian(RingDigraph(n, [k % 2 for k in range(n)]))
                        m[i][j] = 2
                        single.append(m)
        assert len(single) == 4 + 10 + 28
        for m in [off_pattern] + single:
            with pytest.raises(ValueError, match="ring-shaped"):
                char_poly_exact(m)
        # n <= 2: the determinant formula, as the trace recursion has it
        small = [[], [[3]], [[1, 2], [3, 4]], [[0, -1], [-1, 0]]]
        expected = [[1], [-3, 1], [-2, -5, 1], [-1, 0, 1]]
        assert [faddeev_leverrier(m) for m in small] == expected
        assert [list(char_poly_exact(m).coefficients) for m in small] == expected
        with pytest.raises(ValueError):
            char_poly_exact([[1, 2, 3], [4, 5, 6]])

    def test_float_entries_are_refused(self):
        # int() would truncate 0.5 to 0 and answer x**2 - x
        with pytest.raises(TypeError):
            char_poly_exact([[0.5, 0], [0, 1]])
        assert char_poly_exact(np.array([[2, 0], [0, 1]])).coefficients == (2, -3, 1)

    def test_dense_matrices_match_numpy(self):
        # a matrix on the cyclic diagonals, and so every one with n <= 3,
        # matches np.poly; any other is refused
        rng = np.random.default_rng(23)
        matched = refused = 0
        for trial in range(60):
            n = int(rng.integers(1, 9))
            dense = rng.integers(-5, 6, size=(n, n))
            if trial % 3 == 0:
                dense[int(rng.integers(n)), :] = 0
            if trial % 4 == 0:
                dense[:, int(rng.integers(n))] = 0
            for m in (dense, np.array(_ring_shaped(rng, n, 5))):
                off = any(m[i, j] for i in range(n) for j in range(n)
                          if (j - i) % n not in (0, 1, n - 1))
                if off:
                    refused += 1
                    with pytest.raises(ValueError):
                        char_poly_exact(m.tolist())
                    continue
                matched += 1
                expected = [int(round(c)) for c in np.poly(m)[::-1].real]
                assert list(char_poly_exact(m.tolist()).coefficients) == expected, m
        assert matched > 60 and refused > 20

    def test_agrees_with_float_route(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 100:
            n = int(rng.integers(2, 7))
            m = _ring_shaped(rng, n, 3)
            exact = certify_roots(char_poly_exact(m), _approx(char_poly_exact(m)))
            approx = certify_roots(char_poly_float(m), _approx(char_poly_float(m)))
            if not (exact.converged and approx.converged):
                continue
            match_multisets(exact.roots, approx.roots, 1e-8)
            count += 1


class TestCharPolyFloat:
    def test_diagonal(self):
        assert char_poly_float([[1, 0], [0, 2]]) == pytest.approx([2.0, -3.0, 1.0])

    def test_chorded_cycle_instance(self):
        # shortcut weight 3, variable arc 1: lambda(lambda^3-7l^2+12l-7)
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
        assert spectral_verdict(char_poly_exact(laplacian(g))) is True

    def test_real_spectrum(self):
        # (x)(x-2)^2(x-4): all real with a double root
        p = IntPolynomial([0, 16, -20, 8, -1])
        assert spectral_verdict(p) is False

    @pytest.mark.parametrize("n", [20, 30])
    def test_one_grid_per_verdict(self, monkeypatch, n):
        # refine_all polishes every root of classify n 01...1's spectrum on
        # one 60-digit grid of the square-free part
        rs = spectrum_numeric(RingDigraph.from_mask_string(n, "0" + "1" * (n - 1)), CFG)
        calls = []
        fixed_point = rootfind._fixed_point

        def counting(*args):
            calls.append(args)
            return fixed_point(*args)

        monkeypatch.setattr(rootfind, "_fixed_point", counting)
        refine_all(rs)
        assert len(calls) == 1

    def test_ambiguous_band_raises(self):
        # 1 + 1e16 x^2: a conjugate pair with |Im| = 1e-8, which a tolerance
        # on root sets cannot tell from a real double root; the count can
        p = IntPolynomial([1, 0, 10 ** 16])
        assert spectral_verdict(p) is True
        assert spectral_verdict(IntPolynomial([1, 0, -10 ** 16])) is False

    def test_counts_without_roots(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("the verdict computed a root")

        cases = [
            (IntPolynomial([1, 0, 1]), True),
            (IntPolynomial([-3, 7, -5, 1]), False),  # (x-1)^2 (x-3)
            (IntPolynomial([1, 0, 2, 0, 1]), True),  # (x^2+1)^2: no real root
            (IntPolynomial([0, 0, 0, 5]), False),
            (IntPolynomial([-1, 0, 0, 1]), True),
            ([0.5, -1.5, 1.0], False),  # (x - 1/2)(x - 1), exactly in binary
            ([3.0, 2.0], False),
            (char_poly_exact(laplacian(RingDigraph.from_mask_string(7, "1101110"))), False),
            (char_poly_exact(laplacian(RingDigraph.from_mask_string(8, "11011110"))), True),
        ]
        for name in ("certify_roots", "_fixed_aberth", "_polish"):
            monkeypatch.setattr(rootfind, name, unavailable)
        monkeypatch.setattr(np, "roots", unavailable)
        for p, cyclic in cases:
            assert spectral_verdict(p) is cyclic, p
        with pytest.raises(ValueError):
            spectral_verdict([1.0])


class TestNewtonInequalities:
    def test_never_fires_on_a_real_spectrum_to_twelve(self, monkeypatch):
        # every mask with n <= 12 whose Sturm count is all real; masks with
        # one gap multiset share their polynomial, so each is tested once
        breaks = rootfind._breaks_newton
        monkeypatch.setattr(rootfind, "_breaks_newton", lambda a: False)  # Sturm alone
        seen, real = set(), 0
        for n in range(3, 13):
            for bits in range(2 ** n):
                g = RingDigraph(n, [bool((bits >> j) & 1) for j in range(n)])
                key = (n, g.decomposition.K, tuple(sorted(g.decomposition.gaps)))
                if key in seen:
                    continue
                seen.add(key)
                p = char_poly_exact(laplacian(g))
                if not spectral_verdict(p):
                    real += 1
                    assert not breaks(list(p.coefficients)), g.mask_string()
        assert (len(seen), real) == (278, 30)

    @pytest.mark.parametrize("n", [40, 120, 400])
    def test_never_fires_on_the_real_shapes(self, n):
        # symmetric ring, single gap, balanced pair and (at n + 1) near-balanced pair
        for m, parts, case in ((n, [], "symmetric"), (n, [n], "single-gap"),
                               (n, [n // 2, n // 2], "balanced-gaps"),
                               (n + 1, [n // 2, n // 2 + 1], "near-balanced-gaps")):
            absent = set(itertools.accumulate(parts))
            g = RingDigraph(m, [j not in absent for j in range(1, m + 1)])
            assert classify_exact(g).case == case
            p = char_poly_exact(laplacian(g))
            assert not rootfind._breaks_newton(list(p.coefficients)), (m, case)
            assert spectral_verdict(p) is False, (m, case)

    def test_never_fires_on_integer_roots_with_repeats(self):
        rng = random.Random(28)
        for _ in range(300):
            pool = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
            roots = [rng.choice(pool) for _ in range(rng.randint(1, 14))]
            a = [1]
            for r in roots:
                a = poly_mul(IntPolynomial(a), IntPolynomial([-r, 1])).coefficients
            assert not rootfind._breaks_newton(list(a)), roots
            assert spectral_verdict(IntPolynomial(a)) is False, roots

    @pytest.mark.parametrize("r", [1, -3, 2 ** 60 + 1, 3 ** 40 + 1],
                             ids=["1", "-3", "2**60+1", "3**40+1"])
    def test_equality_is_not_a_violation(self, r):
        # x**m (x - r)**d meets every inequality with equality: a non-strict
        # test or one in floating point would call it cyclic (or overflow)
        for d in range(2, 25):
            for m in (0, 1, 3):
                a = [0] * m + [math.comb(d, j) * (-r) ** (d - j) for j in range(d + 1)]
                assert not rootfind._breaks_newton(a), (r, d, m)
                assert spectral_verdict(IntPolynomial(a)) is False, (r, d, m)

    def test_quadratic_case_is_the_discriminant(self):
        # at d = 2 the one inequality reads a1^2 >= 4 a0 a2
        for a0, a1, a2 in itertools.product(range(-6, 7), range(-9, 10), range(1, 5)):
            assert rootfind._breaks_newton([a0, a1, a2]) is (a1 * a1 < 4 * a0 * a2), (a0, a1, a2)
            assert rootfind._breaks_newton([0, 0, a0, a1, a2]) is (a1 * a1 < 4 * a0 * a2)

    def test_many_gap_masks_skip_the_sturm_count(self, monkeypatch):
        def unavailable(*args):
            raise AssertionError("the verdict ran the Sturm count")

        monkeypatch.setattr(rootfind, "_pseudo_remainder", unavailable)
        assert spectral_verdict(IntPolynomial([1, 0, 1])) is True
        for n in (60, 100, 200, 400):
            rng = random.Random(3)
            g = RingDigraph.from_mask_string(n, "".join(rng.choice("0111") for _ in range(n)))
            assert classify_exact(g).essentially_cyclic
            assert spectral_verdict(char_poly_exact(laplacian(g))) is True, n


class TestSerialization:
    def test_root_set_json(self):
        rs = certify_roots(IntPolynomial([1, 0, 1]), [1j, -1j])
        assert rs.converged
        data = rs.to_json()
        assert len(data) == 2 and all(len(pair) == 2 for pair in data)
