"""Tests for the ring-digraph model, exact spectra and classifier."""

from __future__ import annotations

import cmath
import json
import math

import pytest

from ringspec import rootfind
from ringspec.polycore import poly_mul, poly_shift_const, z_poly
from ringspec.ringgraph import (
    CASE_BALANCED,
    CASE_FULL_CYCLE,
    CASE_MULTI_GAP,
    CASE_NEAR_BALANCED,
    CASE_SINGLE_GAP,
    CASE_SPLIT,
    CASE_SYMMETRIC,
    RingDigraph,
    arcs,
    canonical_form,
    char_poly,
    classification_record,
    classify_exact,
    closed_form_spectrum,
    decompose,
    exhaustive_scan,
    laplacian,
    spectrum_numeric,
)
from ringspec.rootfind import RootFinderConfig, char_poly_exact, refine_all
from support import match_multisets, spectrum_tol

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

    def test_gaps_sum_to_n(self):
        for n in (5, 7, 10):
            for mask in all_masks(n):
                dec = decompose(RingDigraph(n, mask))
                if 1 <= dec.K <= n - 1:
                    assert sum(dec.gaps) == n
                    assert len(dec.gaps) == dec.K
                else:
                    assert dec.gaps == ()


class TestCanonicalForm:
    def test_examples(self):
        assert canonical_form(
            RingDigraph.from_mask_string(4, "0110")).mask_string() == "0011"
        g = RingDigraph(5, (True,) * 5)
        assert canonical_form(g) == g
        assert canonical_form(
            RingDigraph.from_mask_string(6, "101101")).mask_string() == "011011"

    def test_rotations_share_canonical_form(self):
        mask = "1101001"
        forms = set()
        for r in range(7):
            rotated = mask[r:] + mask[:r]
            forms.add(canonical_form(
                RingDigraph.from_mask_string(7, rotated)).mask_string())
        assert len(forms) == 1


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
        for fn in (rootfind.char_poly_exact, rootfind._int_mat_mul):
            monkeypatch.setattr(fn, "__code__", unavailable.__code__)
        for n in range(3, 11):
            for mask in all_masks(n):
                coeffs = char_poly(RingDigraph(n, mask)).coefficients
                assert len(coeffs) == n + 1 and coeffs[-1] == 1 and coeffs[0] == 0

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
        assert rs.max_abs_imag() > 0.1  # gaps (1,3): genuine conjugate pair

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


class TestScan:
    def test_small_sizes_have_no_disagreements(self):
        for n in (3, 4, 5, 6):
            res = exhaustive_scan(n)
            assert res["instances"] == 2 ** n
            assert res["disagreements"] == []
            assert res["ambiguous"] == []

    def test_one_solve_per_gap_multiset(self, monkeypatch):
        n = 8
        solves = []
        real_aberth = rootfind.aberth_roots

        def counting_aberth(p, cfg=CFG):
            solves.append(p)
            return real_aberth(p, cfg)

        monkeypatch.setattr(rootfind, "aberth_roots", counting_aberth)
        multisets = set()
        for mask in all_masks(n):
            absent = [j for j in range(n) if not mask[j]]
            gaps = [(b - a) % n or n for a, b in zip(absent, absent[1:] + absent[:1])]
            multisets.add(tuple(sorted(gaps)))
        res = exhaustive_scan(n)
        assert len(solves) == len(multisets)
        assert res["disagreements"] == []
        assert res["ambiguous"] == []

    def test_no_refinement_up_to_twelve(self, monkeypatch):
        # every real spectrum comes out of the solve on the real axis
        calls = []
        refine_root = rootfind.refine_root

        def counting(*args, **kwargs):
            calls.append(args)
            return refine_root(*args, **kwargs)

        monkeypatch.setattr(rootfind, "refine_root", counting)
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
        rec = classification_record(g, cfg=CFG)
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
