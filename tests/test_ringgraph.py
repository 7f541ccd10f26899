"""Tests for the ring-digraph model, exact spectra and classifier."""

from __future__ import annotations

import cmath
import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from ringspec import polycore, ringgraph, rootfind
from ringspec.polycore import poly_mul, poly_shift_const, z_poly
from ringspec.ringgraph import (
    CASE_BALANCED,
    CASE_FULL_CYCLE,
    CASE_MULTI_GAP,
    CASE_NEAR_BALANCED,
    CASE_SINGLE_GAP,
    CASE_SPLIT,
    CASE_SYMMETRIC,
    Classification,
    GapDecomposition,
    RingDigraph,
    arcs,
    char_poly,
    classification_record,
    classify_exact,
    closed_form_spectrum,
    decompose,
    exhaustive_scan,
    laplacian,
    spectrum_numeric,
)
from ringspec.rootfind import RootFinderConfig, char_poly_exact, refine_all, spectral_verdict
from support import match_multisets, newton_roots, spectrum_tol

CFG = RootFinderConfig()


def assert_real_spectrum(expected, spectrum, n):
    """A real spectrum equal to the expected values to 1e-12, as multisets."""
    assert all(z.imag == 0 for z in spectrum), n
    got = sorted(z.real for z in spectrum)
    assert len(got) == len(expected) == n
    assert max(abs(a - b) for a, b in zip(got, sorted(expected))) <= 1e-12, n


def all_masks(n):
    for bits in range(2 ** n):
        yield tuple(bool((bits >> j) & 1) for j in range(n))


def partitions(total, least=1):
    """Nondecreasing tuples of positive integers summing to total."""
    if total == 0:
        yield ()
    for first in range(least, total + 1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


class TestModel:
    def test_mask_validation(self):
        with pytest.raises(ValueError):
            RingDigraph(2, (True, False))
        with pytest.raises(ValueError):
            RingDigraph(4, (True, False))
        with pytest.raises(ValueError):
            RingDigraph.from_mask_string(4, "10x1")
        with pytest.raises(ValueError):
            RingDigraph.from_mask_string(4, "101")

    def test_any_iterable_mask_becomes_a_tuple_of_bools(self):
        bits = (1, 0, 1, 1, 0)
        for mask in ([1, 0, 1, 1, 0], (b for b in bits), bits):
            g = RingDigraph(5, mask)
            assert g.reverse_mask == (True, False, True, True, False)
            assert all(type(b) is bool for b in g.reverse_mask)
        assert RingDigraph(5, [1, 0, 1, 1, 0]) == RingDigraph(5, (True, False, True, True, False))
        with pytest.raises(ValueError):
            RingDigraph(5, (b for b in (1, 0, 1, 1)))
        with pytest.raises(ValueError):
            RingDigraph(5, [1] * 6)
        for n in (2, 1, 0, -1):
            with pytest.raises(ValueError):
                RingDigraph(n, [1] * n)

    def test_mask_string_round_trip(self):
        g = RingDigraph.from_mask_string(5, "01101")
        assert g.mask_string() == "01101"

    def test_arc_set(self):
        g = RingDigraph.from_mask_string(3, "100")
        assert set(arcs(g)) == {(1, 3), (3, 2), (2, 1), (1, 2)}


class TestLaplacian:
    def test_bare_cycle(self):
        g = RingDigraph.from_mask_string(3, "000")
        assert laplacian(g) == [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]

    def test_symmetric_ring_is_circulant(self):
        for n in (3, 5, 8):
            mat = laplacian(RingDigraph(n, (True,) * n))
            for i in range(n):
                assert mat[i][i] == 2
                assert mat[i][(i + 1) % n] == -1
                assert mat[i][(i - 1) % n] == -1
            assert all(mat[i] == mat[i][:] for i in range(n))

    def test_row_sums_zero(self):
        for n in (3, 6, 9):
            for mask in list(all_masks(n))[:: max(1, 2 ** n // 16)]:
                mat = laplacian(RingDigraph(n, mask))
                assert all(sum(row) == 0 for row in mat)


class TestDecompose:
    def test_examples(self):
        g = RingDigraph.from_mask_string(8, "11111110")
        assert decompose(g) == decompose(g).__class__(1, (8,))
        g = RingDigraph.from_mask_string(8, "11011110")
        assert decompose(g).gaps == (5, 3)
        g = RingDigraph(5, (False,) * 5)
        dec = decompose(g)
        assert dec.K == 5 and dec.gaps == ()

    def test_digraph_holds_its_decomposition_outside_its_fields(self):
        g = RingDigraph.from_mask_string(8, "11011110")
        h = RingDigraph(8, [True, True, False, True, True, True, True, False])
        assert g.decomposition == decompose(g) == GapDecomposition(2, (5, 3))
        assert g == h and hash(g) == hash(h) and {g: 1}[h] == 1
        assert repr(g) == "RingDigraph(n=8, reverse_mask=(True, True, False, " \
            "True, True, True, True, False))"
        assert [f.name for f in dataclasses.fields(g)] == ["n", "reverse_mask"]

    def test_decompositions_are_tuples_of_k_and_ordered_gaps(self):
        for n in range(3, 11):
            for mask in all_masks(n):
                absent = [j for j in range(n) if not mask[j]]
                gaps = tuple((b - a) % n or n for a, b in zip(absent, absent[1:] + absent[:1]))
                k = len(absent)
                dec = decompose(RingDigraph(n, mask))
                assert dec == (k, gaps if 0 < k < n else ()), (n, mask)
                assert hash(dec) == hash((dec.K, dec.gaps))
            # the two masks without gaps differ by K alone
            assert decompose(RingDigraph(n, (True,) * n)) == GapDecomposition(0, ()) \
                != GapDecomposition(n, ()) == decompose(RingDigraph(n, (False,) * n))
        assert GapDecomposition(2, (5, 3)) != GapDecomposition(2, (3, 5))

    def test_gaps_sum_to_n(self):
        for n in (5, 7, 10):
            for mask in all_masks(n):
                dec = decompose(RingDigraph(n, mask))
                if 1 <= dec.K <= n - 1:
                    assert sum(dec.gaps) == n
                    assert len(dec.gaps) == dec.K
                else:
                    assert dec.gaps == ()


class TestCharPoly:
    def test_single_gap_instance(self):
        g = RingDigraph.from_mask_string(3, "110")
        assert char_poly(g).coefficients == (0, 6, -5, 1)

    def test_balanced_two_gap_instance(self):
        g = RingDigraph.from_mask_string(4, "1010")
        assert char_poly(g).coefficients == (0, -6, 11, -6, 1)

    def test_bare_cycle_expansion(self):
        g = RingDigraph.from_mask_string(3, "000")
        assert char_poly(g).coefficients == (0, 3, -3, 1)

    def test_identity_with_generic_oracle_exhaustive(self):
        # the acceptance suite extends this to n <= 12
        for n in range(3, 10):
            for mask in all_masks(n):
                g = RingDigraph(n, mask)
                assert char_poly(g) == char_poly_exact(laplacian(g)), (n, mask)

    def test_symmetric_ring_closed_form_matches_oracle(self):
        for n in range(3, 41):
            g = RingDigraph(n, (True,) * n)
            assert char_poly(g) == char_poly_exact(laplacian(g)), n

    def test_symmetric_ring_examples(self):
        assert char_poly(RingDigraph(3, (True,) * 3)).coefficients == (0, 9, -6, 1)
        for n in range(3, 41):
            # n roots with n converging trees each (matrix-tree theorem)
            coeffs = char_poly(RingDigraph(n, (True,) * n)).coefficients
            assert coeffs[1] == (-1) ** (n - 1) * n * n, n

    def test_exact_route_never_calls_the_oracle(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("the exact route called the numeric oracle")

        # replacing the code objects catches every name bound to these functions
        for fn in (rootfind.char_poly_exact, rootfind._transfer_char_poly):
            monkeypatch.setattr(fn, "__code__", unavailable.__code__)
        for n in range(3, 11):
            for mask in all_masks(n):
                coeffs = char_poly(RingDigraph(n, mask)).coefficients
                assert len(coeffs) == n + 1 and coeffs[-1] == 1 and coeffs[0] == 0

    def test_oracle_never_calls_the_gap_product(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("the oracle called the exact route's product")

        graphs = [RingDigraph(n, mask) for n in range(3, 10) for mask in all_masks(n)]
        expected = [(char_poly(g), classify_exact(g).essentially_cyclic) for g in graphs]
        path = [[0] * 40 for _ in range(40)]
        for i in range(40):
            path[i][i] = 2 if i < 39 else 1
            if i > 0:
                path[i][i - 1] = path[i - 1][i] = -1
        z40 = z_poly(40)
        for fn in (polycore.poly_mul, polycore.poly_product, polycore._pack, polycore._unpack,
                   polycore._digits, polycore._balanced_low, polycore.classify_product_real):
            monkeypatch.setattr(fn, "__code__", unavailable.__code__)
        for g, (poly, cyclic) in zip(graphs, expected):
            matrix_poly = char_poly_exact(laplacian(g))
            assert matrix_poly == poly, (g.n, g.mask_string())
            assert spectral_verdict(matrix_poly) == cyclic, (g.n, g.mask_string())
        assert char_poly_exact(path) == z40

    def test_gap_product_matches_the_matrix_on_every_multiset(self):
        # one mask per partition of n (all parts 1 is the bare cycle), plus
        # the symmetric ring: beyond the exhaustive n <= 12 of criterion 02
        for n in range(13, 21):
            graphs = [RingDigraph(n, (True,) * n)]
            for parts in partitions(n):
                absent = set(itertools.accumulate(parts))
                g = RingDigraph(n, [j not in absent for j in range(1, n + 1)])
                assert sorted(decompose(g).gaps) == (sorted(parts) if len(parts) < n else [])
                graphs.append(g)
            for g in graphs:
                matrix_poly = char_poly_exact(laplacian(g))
                assert char_poly(g) == matrix_poly, (n, g.mask_string())
                assert spectral_verdict(matrix_poly) == classify_exact(g).essentially_cyclic, \
                    (n, g.mask_string())

    def test_closed_form_families_match_the_matrix_at_three_hundred(self):
        # symmetric ring, bare cycle, single gap, balanced and near-balanced pair
        for n, parts in ((300, []), (300, [1] * 300), (300, [300]), (300, [150, 150]),
                         (301, [150, 151])):
            absent = set(itertools.accumulate(parts))
            g = RingDigraph(n, [j not in absent for j in range(1, n + 1)])
            assert sorted(decompose(g).gaps) == (parts if len(parts) < n else [])
            assert char_poly(g) == char_poly_exact(laplacian(g)), (n, parts[:2])

    def test_single_and_double_gap_reduce_to_shifted_products(self):
        for n in range(3, 11):
            mask = [True] * n
            mask[n - 1] = False
            g = RingDigraph(n, mask)
            assert char_poly(g) == poly_shift_const(z_poly(n), -((-1) ** n))
            for i in range(1, n):
                mask2 = [True] * n
                mask2[i - 1] = False
                mask2[n - 1] = False
                g2 = RingDigraph(n, mask2)
                prod = poly_mul(z_poly(i), z_poly(n - i))
                assert char_poly(g2) == poly_shift_const(prod, -((-1) ** n))

    def test_equal_gap_multisets_share_char_poly(self):
        for n in (8, 10):
            seen = {}
            for mask in all_masks(n):
                g = RingDigraph(n, mask)
                dec = decompose(g)
                key = (dec.K, tuple(sorted(dec.gaps)))
                poly = char_poly(g)
                if key in seen:
                    assert poly == seen[key], (n, mask)
                else:
                    seen[key] = poly

    def test_constant_term_always_zero(self):
        for n in (3, 6, 10):
            for mask in all_masks(n):
                assert char_poly(RingDigraph(n, mask)).coefficients[0] == 0


class TestClassifier:
    def test_case_table(self):
        assert classify_exact(RingDigraph(6, (True,) * 6)).case == CASE_SYMMETRIC
        assert classify_exact(RingDigraph(6, (False,) * 6)).case == CASE_FULL_CYCLE
        g = RingDigraph.from_mask_string(10, "1111111110")
        c = classify_exact(g)
        assert c.case == CASE_SINGLE_GAP and not c.essentially_cyclic
        g = RingDigraph.from_mask_string(10, "0111101111")
        c = classify_exact(g)
        assert c.case == CASE_BALANCED and not c.essentially_cyclic
        g = RingDigraph.from_mask_string(7, "1101110")
        c = classify_exact(g)
        assert c.case == CASE_NEAR_BALANCED and not c.essentially_cyclic
        g = RingDigraph.from_mask_string(7, "0101111")  # gaps (2, 5)
        c2 = classify_exact(g)
        assert c2.case == CASE_SPLIT
        assert c2.essentially_cyclic
        g = RingDigraph.from_mask_string(8, "10011010")
        c3 = classify_exact(g)
        assert c3.case == CASE_MULTI_GAP and c3.essentially_cyclic

    def test_verdicts_without_a_formula_are_shared_and_frozen(self):
        split = classify_exact(RingDigraph.from_mask_string(7, "0101111"))
        multi = classify_exact(RingDigraph.from_mask_string(8, "10011010"))
        assert split is classify_exact(RingDigraph.from_mask_string(9, "011111101"))
        assert multi is classify_exact(RingDigraph.from_mask_string(10, "0110111010"))
        for verdict in (split, multi):
            assert verdict.closed_form_spectrum is None
            with pytest.raises(dataclasses.FrozenInstanceError):
                verdict.essentially_cyclic = False
        assert (split.case, multi.case) == (CASE_SPLIT, CASE_MULTI_GAP)

    def test_balanced_spectrum_formula(self):
        # gaps (n/2, n/2): 4cos^2(pi k/n) and 4cos^2(pi k/(n+2)), k = 1..n/2
        for n in range(4, 241, 2):
            mask = ["1"] * n
            mask[0] = mask[n // 2] = "0"
            g = RingDigraph.from_mask_string(n, "".join(mask))
            expected = [4 * math.cos(math.pi * k / d) ** 2
                        for d in (n, n + 2) for k in range(1, n // 2 + 1)]
            assert_real_spectrum(expected, classify_exact(g).closed_form_spectrum, n)

    def test_near_balanced_spectrum_formula(self):
        # gaps ((n-1)/2, (n+1)/2): 4cos^2(pi k/(n+1)), k = 1..n
        for n in range(3, 240, 2):
            mask = ["1"] * n
            mask[0] = mask[n // 2] = "0"
            g = RingDigraph.from_mask_string(n, "".join(mask))
            expected = [4 * math.cos(math.pi * k / (n + 1)) ** 2 for k in range(1, n + 1)]
            assert_real_spectrum(expected, classify_exact(g).closed_form_spectrum, n)

    def test_spectrum_presence_matches_case(self):
        for n in (5, 8):
            for mask in all_masks(n):
                c = classify_exact(RingDigraph(n, mask))
                if c.case in (CASE_SPLIT, CASE_MULTI_GAP):
                    assert c.closed_form_spectrum is None
                else:
                    assert c.closed_form_spectrum is not None
                    if not c.essentially_cyclic:
                        assert all(z.imag == 0 for z in c.closed_form_spectrum)


class TestClosedFormSpectra:
    def test_bare_cycle_n4(self):
        spec = closed_form_spectrum(RingDigraph(4, (False,) * 4))
        match_multisets([1 + 1j, 2, 1 - 1j, 0], spec, 1e-12)

    def test_single_gap_n3(self):
        spec = closed_form_spectrum(RingDigraph.from_mask_string(3, "110"))
        match_multisets([3, 2, 0], spec, 1e-12)

    def test_single_gap_formula(self):
        # 4cos^2(pi k/(2n+1-(-1)^(k+n))), k = 1..n
        for n in range(3, 241):
            spec = closed_form_spectrum(RingDigraph(n, (True,) * (n - 1) + (False,)))
            expected = [4 * math.cos(math.pi * k / (2 * n + 1 - (-1) ** (k + n))) ** 2
                        for k in range(1, n + 1)]
            assert_real_spectrum(expected, spec, n)

    def test_polar_form_of_bare_cycle(self):
        # modulus 2sin(pi k/n), argument pi(1/2 - k/n)
        for n in range(3, 21):
            spec = closed_form_spectrum(RingDigraph(n, (False,) * n))
            polar = [
                2 * math.sin(math.pi * k / n)
                * cmath.exp(1j * math.pi * (0.5 - k / n))
                for k in range(1, n + 1)
            ]
            match_multisets(polar, spec, 1e-12)
            assert abs(spec[0]) == pytest.approx(2 * math.sin(math.pi / n))

    def test_closed_form_matches_refined_numeric(self):
        for n in range(3, 13):
            for g in (
                RingDigraph(n, (False,) * n),
                RingDigraph(n, (True,) * n),
                RingDigraph(n, tuple([True] * (n - 1) + [False])),
                RingDigraph(n, tuple(
                    [i not in (n // 2 - 1, n - 1) for i in range(n)])),
            ):
                expected = closed_form_spectrum(g)
                if expected is None:
                    continue
                rs = refine_all(spectrum_numeric(g, CFG))
                assert rs.converged
                match_multisets(expected, rs.roots, spectrum_tol(expected))


class TestNumericSpectrum:
    def test_examples(self):
        rs = refine_all(spectrum_numeric(RingDigraph(4, (False,) * 4), CFG))
        match_multisets([0, 2, 1 + 1j, 1 - 1j], rs.roots, 1e-9)
        rs = refine_all(spectrum_numeric(
            RingDigraph.from_mask_string(4, "1010"), CFG))
        match_multisets([0, 1, 2, 3], rs.roots, 1e-9)
        rs = spectrum_numeric(RingDigraph.from_mask_string(4, "0110"), CFG)
        assert max(abs(z.imag) for z in rs.roots) > 0.1  # gaps (1,3): genuine conjugate pair

    def test_rotation_invariance(self):
        mask = "110100101"
        base = None
        for r in range(0, 9, 2):
            g = RingDigraph.from_mask_string(9, mask[r:] + mask[:r])
            rs = refine_all(spectrum_numeric(g, CFG))
            if base is None:
                base = rs.roots
            else:
                match_multisets(base, rs.roots, 1e-9)


def plant_eigvals(monkeypatch, plant) -> None:
    """Make numpy.linalg.eigvals hand ``plant(values)`` on instead of its values."""
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda mat: plant(list(eigvals(mat))))


class TestCertifiedSpectrum:
    def test_every_mask_to_ten_certifies(self):
        worst = 0.0
        for n in range(3, 11):
            for mask in all_masks(n):
                g = RingDigraph(n, mask)
                rs = spectrum_numeric(g)
                assert rs.converged and len(rs.roots) == n, g.mask_string()
                worst = max(worst, rs.max_radius)
                expected = closed_form_spectrum(g)
                if expected is not None:
                    match_multisets(expected, rs.roots, spectrum_tol(expected))
        assert worst < 1e-6

    @pytest.mark.parametrize("mask", ["0" + "1" * 19, "0" * 12, "1111111011111110",
                                      "001011011101"])
    def test_a_duplicated_or_moved_eigenvalue_is_not_certified(self, monkeypatch, mask):
        g = RingDigraph.from_mask_string(len(mask), mask)
        assert spectrum_numeric(g).converged
        for i in range(g.n):
            def duplicated(values, i=i):
                values[i] = values[i - 1]
                return values

            def moved(values, i=i):
                values[i] += 0.1
                return values

            for plant in (duplicated, moved):
                plant_eigvals(monkeypatch, plant)
                rs = spectrum_numeric(g)
                assert not rs.converged and rs.max_radius is None, (plant.__name__, i)
                monkeypatch.undo()

    def test_defective_doubles_given_as_simple_roots_are_not_certified(self, monkeypatch):
        # gaps (7, 8): seven defective double eigenvalues, which eigvals splits
        # by up to 3.4e-8; given once each, as if simple, they certify nothing
        g = RingDigraph.from_mask_string(15, "111111011111110")
        expected = closed_form_spectrum(g)
        distinct = [z for i, z in enumerate(expected)
                    if all(abs(z - w) > 1e-6 for w in expected[:i])]
        assert len(distinct) == 8
        rs = spectrum_numeric(g)
        assert rs.converged and rs.max_radius > 1e-8
        match_multisets(expected, rs.roots, 1e-9)
        plant_eigvals(monkeypatch, lambda values: distinct)
        assert not spectrum_numeric(g).converged
        # padded back to 15 values with a copy of each simple eigenvalue, too
        plant_eigvals(monkeypatch, lambda values: distinct + distinct[:7])
        assert not spectrum_numeric(g).converged

    def test_a_multi_gap_ring_at_eighty_certifies_at_working_precision(self):
        # the first of perfbench's random_multi_gap masks at n = 80, seed 5: two
        # roots 2.6e-12 apart, which eigvals does not resolve into disjoint discs
        mask = "11010000110100001101000100000000110000110110010110101111101100101101110100000111"
        g = RingDigraph.from_mask_string(80, mask)
        assert not spectrum_numeric(g).converged
        cfg = RootFinderConfig(working_dps=110)
        rs = spectrum_numeric(g, cfg)
        assert rs.converged and len(rs.roots) == 80 and rs.max_radius < 1e-30
        # mpmath's Newton method from the working roots, each root proved by
        # a Newton disc (mpmath.polyroots takes 20 s or more at this degree)
        points, radii = newton_roots(rs.source, rs.working)
        assert max(radii) < 1e-60
        match_multisets(map(complex, points), refine_all(rs).roots, 1e-40)

    def test_no_aberth_iteration(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("the numeric spectrum ran an Aberth sweep")

        monkeypatch.setattr(rootfind, "_fixed_aberth", unavailable)
        monkeypatch.setattr(np, "roots", unavailable)
        for mask in ("0" * 8, "1" * 9, "0" + "1" * 9, "0110", "001011011101"):
            g = RingDigraph.from_mask_string(len(mask), mask)
            for cfg in (CFG, RootFinderConfig(working_dps=40)):
                rs = spectrum_numeric(g, cfg)
                assert rs.converged
                match_multisets(rs.roots, refine_all(rs).roots, 2 * rs.max_radius + 1e-14)


class TestScan:
    def test_small_sizes_have_no_disagreements(self):
        for n in (3, 4, 5, 6):
            res = exhaustive_scan(n)
            assert res["instances"] == 2 ** n
            assert res["disagreements"] == []
            assert res["ambiguous"] == []

    def test_one_solve_per_gap_multiset(self, monkeypatch):
        n = 8
        calls = collections.Counter()
        for name in ("certify_roots", "char_poly_exact", "spectral_verdict"):
            def counting(*args, _real=getattr(rootfind, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(rootfind, name, counting)
        multisets = set()
        for mask in all_masks(n):
            absent = [j for j in range(n) if not mask[j]]
            gaps = [(b - a) % n or n for a, b in zip(absent, absent[1:] + absent[:1])]
            multisets.add(tuple(sorted(gaps)))
        classified, products = [], []
        classify, product = ringgraph.classify_exact, ringgraph.char_poly

        def counting_classify(g):
            classified.append(g)
            return classify(g)

        def counting_product(g):
            products.append(g)
            return product(g)

        monkeypatch.setattr(ringgraph, "classify_exact", counting_classify)
        monkeypatch.setattr(ringgraph, "char_poly", counting_product)
        res = exhaustive_scan(n)
        assert calls["spectral_verdict"] == calls["char_poly_exact"] == len(multisets) \
            == res["multisets"]
        assert calls["certify_roots"] == 0 and products == []
        # one decomposition per composition of n, plus K = 0 and K = n
        assert res["decompositions"] == 2 ** (n - 1) + 1
        assert len(classified) == 2 ** (n - 1) + 1
        assert res["disagreements"] == []
        assert res["ambiguous"] == []

    def test_layer_counts_from_three_to_twelve(self, monkeypatch):
        # per n: 2**n decompositions, 2**(n-1) + 1 exact verdicts, and one
        # matrix polynomial and one Sturm verdict per gap multiset
        calls = collections.Counter()
        for module, name in ((ringgraph, "decompose"), (ringgraph, "classify_exact"),
                             (ringgraph, "char_poly"), (rootfind, "certify_roots"),
                             (rootfind, "char_poly_exact"), (rootfind, "spectral_verdict")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        multisets = 0
        for n in range(3, 13):
            res = exhaustive_scan(n)
            assert res["disagreements"] == [] and res["ambiguous"] == []
            multisets += res["multisets"]
        assert multisets == 278
        assert dict(calls) == {"decompose": 8184, "classify_exact": 4102,
                               "char_poly_exact": 278, "spectral_verdict": 278}

    def test_newton_inequalities_decide_most_cyclic_multisets(self, monkeypatch):
        # of the 278 gap multisets over n = 3..12, 248 are cyclic; Newton's
        # inequalities decide 205 of them, so the Sturm count runs 73 times
        newton, verdicts = collections.Counter(), collections.Counter()
        breaks, verdict, remainder = (rootfind._breaks_newton, rootfind.spectral_verdict,
                                      rootfind._pseudo_remainder)
        sturm = []

        def counting_breaks(a):
            newton[result := breaks(a)] += 1
            return result

        def counting_verdict(p):
            sturm.append(False)
            verdicts[result := verdict(p)] += 1
            return result

        def counting_remainder(a, b):
            sturm[-1] = True
            return remainder(a, b)

        monkeypatch.setattr(rootfind, "_breaks_newton", counting_breaks)
        monkeypatch.setattr(rootfind, "spectral_verdict", counting_verdict)
        monkeypatch.setattr(rootfind, "_pseudo_remainder", counting_remainder)
        for n in range(3, 13):
            assert exhaustive_scan(n)["disagreements"] == []
        assert verdicts == {True: 248, False: 30}
        assert newton == {True: 205, False: 73}
        assert sturm.count(True) == 73

    def test_memo_keeps_gap_order(self, monkeypatch):
        # flip the exact verdict of one ordered gap tuple only: the scan must
        # report exactly its masks, not the rotations with the same multiset
        n, flipped = 8, (2, 3, 3)
        classify = ringgraph.classify_exact
        decompose_calls = []
        real_decompose = ringgraph.decompose

        def flipping(g):
            cls = classify(g)
            if g.n == n and g.decomposition.gaps == flipped:
                return Classification(not cls.essentially_cyclic, cls.case,
                                      cls.closed_form_spectrum)
            return cls

        def counting(g):
            decompose_calls.append(g)
            return real_decompose(g)

        expected = sorted(RingDigraph(n, mask).mask_string() for mask in all_masks(n)
                          if decompose(RingDigraph(n, mask)).gaps == flipped)
        rotations = {RingDigraph(n, mask).mask_string() for mask in all_masks(n)
                     if decompose(RingDigraph(n, mask)).gaps in ((3, 2, 3), (3, 3, 2))}
        monkeypatch.setattr(ringgraph, "classify_exact", flipping)
        monkeypatch.setattr(ringgraph, "decompose", counting)
        res = exhaustive_scan(n)
        assert len(expected) == 3 and len(rotations) == 5
        assert res["disagreements"] == expected
        assert not rotations & set(res["disagreements"])
        assert res["ambiguous"] == []
        assert len(decompose_calls) == 2 ** n
        decompose_calls.clear()
        exhaustive_scan(5)
        assert len(decompose_calls) == 2 ** 5

    def test_no_refinement_up_to_twelve(self, monkeypatch):
        # the scan makes no _polish and no certify_roots call
        calls = []
        for name in ("_polish", "certify_roots"):
            def counting(*args, _real=getattr(rootfind, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(rootfind, name, counting)
        res = exhaustive_scan(12)
        assert calls == []
        assert res["disagreements"] == []
        assert res["ambiguous"] == []

    @pytest.mark.parametrize("n", [15, 16])
    def test_symmetric_ring_double_roots_beyond_degree_twelve(self, n):
        # the symmetric ring's eigenvalues are double, apart from 0 (and 4 at even n)
        res = exhaustive_scan(n)
        assert res["instances"] == 2 ** n
        assert res["disagreements"] == []
        assert res["ambiguous"] == []


class TestRecord:
    def test_json_round_trip(self):
        g = RingDigraph.from_mask_string(10, "0111101111")
        rec = classification_record(g)
        text = json.dumps(rec)
        back = json.loads(text)
        assert back["n"] == 10
        assert back["mask"] == "0111101111"
        assert back["K"] == 2
        assert sorted(back["gaps"]) == [5, 5]
        assert back["essentially_cyclic"] is False
        assert back["case"] == CASE_BALANCED
        assert all(isinstance(s, str) for s in back["char_poly"])
        assert len(back["spectrum"]) == 10
        rebuilt = RingDigraph.from_mask_string(back["n"], back["mask"])
        assert rebuilt == g
