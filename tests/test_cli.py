"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import ringspec
from ringspec import arborescence, cli, dynamics, polycore, ringgraph
from ringspec.cli import main
from ringspec.polycore import IntPolynomial
from ringspec.ringgraph import RingDigraph, closed_form_spectrum, laplacian
from ringspec.rootfind import char_poly_exact
from support import match_multisets, spectrum_tol


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_char_poly(monkeypatch) -> list:
    """Record every graph the CLI builds a gap product for (only ringgraph does)."""
    calls = []
    char_poly = ringgraph.char_poly

    def counting(g):
        calls.append(g)
        return char_poly(g)

    monkeypatch.setattr(ringgraph, "char_poly", counting)
    return calls


def unavailable_gap_product(monkeypatch) -> None:
    """Make every name bound to the gap product or its polynomial product raise."""
    def unavailable(*args, **kwargs):
        raise AssertionError("the numeric route called the gap product")

    # replacing the code objects catches every name bound to these functions
    for fn in (ringgraph.char_poly, polycore.poly_product):
        monkeypatch.setattr(fn, "__code__", unavailable.__code__)


def subprocess_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(ringspec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestClassify:
    def test_single_gap_example(self, capsys):
        code, out, _ = run(capsys, "classify", "10", "1111111110")
        assert code == 0
        rec = json.loads(out)
        assert rec["essentially_cyclic"] is False
        assert rec["case"] == "single-gap"
        assert rec["K"] == 1

    def test_classify_decomposes_once(self, capsys, monkeypatch):
        calls = []
        decompose = ringgraph.decompose

        def counting(g):
            calls.append(g)
            return decompose(g)

        monkeypatch.setattr(ringgraph, "decompose", counting)
        mask = "1" * 17 + "0" + "1" * 9 + "0" + "1" * 5 + "0" + "1" * 6
        code, out, _ = run(capsys, "classify", "40", mask)
        rec = json.loads(out)
        assert code == 0
        assert len(calls) == 1
        assert (rec["K"], rec["gaps"], rec["case"]) == (3, [10, 6, 24], "multi-gap")
        assert rec["char_poly"] == ringgraph.char_poly(calls[0]).to_json()

    def test_balanced_example(self, capsys):
        code, out, _ = run(capsys, "classify", "10", "0111101111")
        rec = json.loads(out)
        assert code == 0
        assert rec["case"] == "balanced-gaps"
        assert sorted(rec["gaps"]) == [5, 5]
        assert rec["essentially_cyclic"] is False

    def test_bare_cycle_example(self, capsys):
        code, out, _ = run(capsys, "classify", "6", "000000")
        rec = json.loads(out)
        assert rec["essentially_cyclic"] is True
        assert rec["case"] == "full-cycle"

    def test_numeric_agreement_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "8", "10110100", "--numeric")
        rec = json.loads(out)
        assert code == 0
        assert rec["numeric_agrees"] is True

    def test_numeric_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "spectral_verdict", lambda p: True)
        code, out, err = run(capsys, "classify", "8", "11111111", "--numeric")
        rec = json.loads(out)
        assert code == 1
        assert rec["numeric_essentially_cyclic"] is True
        assert rec["numeric_agrees"] is False
        assert "disagreement" in err

    def test_numeric_symmetric_ring_at_fifteen(self, capsys):
        # its eigenvalues are double, apart from 0
        code, out, _ = run(capsys, "classify", "15", "1" * 15, "--numeric")
        rec = json.loads(out)
        assert code == 0
        assert rec["numeric_essentially_cyclic"] is False
        assert rec["numeric_agrees"] is True

    @pytest.mark.parametrize("n", [30, 40])
    def test_numeric_symmetric_ring_agrees_at_thirty_and_forty(self, capsys, n):
        code, out, _ = run(capsys, "classify", str(n), "1" * n, "--numeric")
        assert code == 0
        rec = json.loads(out)
        assert rec["numeric_essentially_cyclic"] is False
        assert rec["numeric_agrees"] is True

    def test_numeric_split_gaps_at_fifteen_stay_cyclic(self, capsys):
        # its conjugate pair has |Im| = 0.132, the smallest of any
        # essentially cyclic mask with n <= 16: outside the refinement band
        code, out, _ = run(capsys, "classify", "15", "111111111110110", "--numeric")
        rec = json.loads(out)
        assert code == 0
        assert rec["numeric_essentially_cyclic"] is True
        assert rec["numeric_agrees"] is True

    def test_numeric_single_gap_at_twenty_agrees(self, capsys):
        # a real spectrum whose degree-20 monomial coefficients are badly
        # conditioned near the top of the root interval
        code, out, _ = run(capsys, "classify", "20", "0" + "1" * 19, "--numeric")
        assert code == 0
        rec = json.loads(out)
        assert rec["numeric_essentially_cyclic"] is False
        assert rec["numeric_agrees"] is True

    @pytest.mark.parametrize("n, mask", [(30, "0" + "1" * 29), (40, "0" + "1" * 39),
                                         (80, "0" + "1" * 79), (60, "1" * 60), (80, "1" * 80)])
    def test_numeric_verdict_agrees_beyond_double_precision(self, capsys, n, mask):
        # real spectra whose double-precision roots come out off the real axis
        code, out, err = run(capsys, "classify", str(n), mask, "--numeric")
        assert code == 0, err
        rec = json.loads(out)
        assert rec["numeric_essentially_cyclic"] is False
        assert rec["numeric_agrees"] is True

    def test_malformed_mask_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "5", "11x01")
        assert code == 2
        assert "invalid input" in err

    def test_wrong_length_mask_exits_2(self, capsys):
        code, _, _ = run(capsys, "classify", "5", "1101")
        assert code == 2

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "classify", "9", "110101011", "--numeric")
        _, out2, _ = run(capsys, "classify", "9", "110101011", "--numeric")
        assert out1 == out2

    def test_numeric_builds_the_gap_product_once(self, capsys, monkeypatch):
        # the oracle solves the record's own char_poly
        calls = count_char_poly(monkeypatch)
        code, out, _ = run(capsys, "classify", "12", "011011011011", "--numeric")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["char_poly"] == ringgraph.char_poly(calls[0]).to_json()

    def test_coefficients_past_the_int_str_digit_limit(self):
        # CPython refuses to print ints longer than PYTHONINTMAXSTRDIGITS
        # digits (4300 by default, 640 at least); n = 1600 has longer ones
        env = subprocess_env()
        env["PYTHONINTMAXSTRDIGITS"] = "640"
        proc = subprocess.run([sys.executable, "-m", "ringspec", "classify", "1600", "1" * 1600],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        coeffs = json.loads(proc.stdout)["char_poly"]
        assert max(map(len, coeffs)) > 640
        g = RingDigraph.from_mask_string(1600, "1" * 1600)
        assert IntPolynomial.from_json(coeffs) == ringgraph.char_poly(g)


class TestSpectrum:
    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "0000", "--method", "both")
        rec = json.loads(out)
        assert code == 0
        assert len(rec["closed_form"]) == 4
        assert len(rec["numeric"]) == 4
        assert rec["numeric_converged"] is True
        assert 0 <= rec["max_radius"] < 1e-12
        # (x-1)^4 - 1 expanded, ascending, as decimal strings
        assert rec["char_poly"] == ["0", "-4", "6", "-4", "1"]

    @pytest.mark.parametrize("mask", ["0" + "1" * 29, "0" + "1" * 39, "0" + "1" * 79,
                                      "1" * 40, "1" * 80])
    def test_numeric_spectrum_is_certified_at_large_n(self, capsys, mask):
        # double Aberth on the monomial basis reported converged roots off by
        # 0.57, 1.33 and 4.57 for the single gap at n = 30, 40 and 80
        n = len(mask)
        code, out, err = run(capsys, "spectrum", str(n), mask, "--method", "numeric")
        rec = json.loads(out)
        assert code == 0, err
        assert rec["numeric_converged"] is True
        assert 0 <= rec["max_radius"] < 1e-9
        expected = closed_form_spectrum(RingDigraph.from_mask_string(n, mask))
        match_multisets(expected, [complex(*z) for z in rec["numeric"]], spectrum_tol(expected))

    @pytest.mark.parametrize("method", ["numeric", "both"])
    def test_uncertified_spectrum_exits_1(self, capsys, monkeypatch, method):
        eigvals = np.linalg.eigvals

        def one_duplicated(mat):
            values = eigvals(mat)
            values[0] = values[1]
            return values

        monkeypatch.setattr(np.linalg, "eigvals", one_duplicated)
        code, out, err = run(capsys, "spectrum", "12", "0" + "1" * 11, "--method", method)
        assert code == 1
        rec = json.loads(out)  # the record is still printed
        assert rec["numeric_converged"] is False
        assert rec["max_radius"] is None
        assert len(rec["numeric"]) == 12
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize("mask", ["1" * 12, "111111011111110"])
    def test_numeric_repeated_roots_match_the_closed_form(self, capsys, mask):
        code, out, _ = run(capsys, "spectrum", str(len(mask)), mask, "--method", "numeric")
        rec = json.loads(out)
        assert code == 0
        assert rec["numeric_converged"] is True
        g = RingDigraph.from_mask_string(len(mask), mask)
        match_multisets(closed_form_spectrum(g), [complex(*z) for z in rec["numeric"]], 1e-9)

    def test_both_methods_build_no_gap_product(self, capsys, monkeypatch):
        # the numeric spectrum solves the matrix's own polynomial
        calls = count_char_poly(monkeypatch)
        code, out, _ = run(capsys, "spectrum", "12", "011011011011", "--method", "both")
        assert code == 0
        assert calls == []
        g = RingDigraph.from_mask_string(12, "011011011011")
        assert json.loads(out)["char_poly"] == char_poly_exact(laplacian(g)).to_json()

    @pytest.mark.parametrize("method", ["numeric", "both"])
    def test_numeric_route_never_calls_the_gap_product(self, capsys, monkeypatch, method):
        masks = ["0000", "1111", "0110", "011011011011", "0" + "1" * 19]
        expected = [char_poly_exact(laplacian(RingDigraph.from_mask_string(len(m), m)))
                    for m in masks]
        unavailable_gap_product(monkeypatch)
        for mask, poly in zip(masks, expected):
            code, out, err = run(capsys, "spectrum", str(len(mask)), mask, "--method", method)
            assert code == 0, err
            rec = json.loads(out)
            assert rec["char_poly"] == poly.to_json()
            assert len(rec["numeric"]) == len(mask)

    def test_exact_only_absent_for_split_gaps(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "0110", "--method", "exact")
        rec = json.loads(out)
        assert code == 0
        assert rec["closed_form"] is None


class TestScan:
    def test_small_range_message(self, capsys):
        code, out, _ = run(capsys, "scan", "--n-min", "3", "--n-max", "5")
        rec = json.loads(out)
        assert code == 0
        assert rec["instances"] == 8 + 16 + 32
        assert rec["disagreements"] == []
        assert rec["message"] == "0 disagreements over 56 instances"

    def test_counters_per_size(self, capsys):
        code, out, err = run(capsys, "scan", "--n-min", "3", "--n-max", "5")
        rec = json.loads(out)
        assert code == 0
        # 2**(n-1) + 1 gap decompositions and p(n) + 1 gap multisets per size
        assert rec["decompositions"] == 5 + 9 + 17
        assert rec["multisets"] == 4 + 6 + 8
        lines = err.splitlines()
        assert len(lines) == 3
        for line, (n, masks, decs, sets) in zip(lines, [(3, 8, 5, 4), (4, 16, 9, 6),
                                                         (5, 32, 17, 8)]):
            head, ms = line.rsplit(", ", 1)
            assert head == (f"scan n={n}: {masks} masks, {decs} decompositions, "
                            f"{sets} multisets checked")
            assert ms.endswith(" ms") and float(ms[:-3]) >= 0

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "scan", "--n-min", "2", "--n-max", "4")
        assert code == 2


class TestTrees:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "trees", "4", "--i", "2")
        rec = json.loads(out)
        assert code == 0
        assert rec["t"] == 6

    def test_mask_counts(self, capsys):
        code, out, _ = run(capsys, "trees", "4", "1010")
        rec = json.loads(out)
        assert rec["per_root"] == [1, 2, 1, 2]
        assert rec["total"] == 6

    def test_missing_arguments_exit_2(self, capsys):
        code, _, _ = run(capsys, "trees", "4")
        assert code == 2

    def test_mask_and_closed_form_together_exit_2(self, capsys):
        code, out, err = run(capsys, "trees", "5", "11111", "--i", "2")
        assert code == 2
        assert err.startswith("invalid input:")
        assert out == ""

    def test_mask_counts_never_touch_the_dense_laplacian(self, capsys, monkeypatch):
        # the closed form and its O(n) certificate answer; the Bareiss
        # oracle and the dense matrix stay out of the command's path
        def refuse(*args):
            raise AssertionError("the trees command reached the cofactor route")

        monkeypatch.setattr(arborescence, "count_by_cofactor", refuse)
        monkeypatch.setattr(arborescence, "_bareiss_eliminate", refuse)
        laplacian = ringgraph.laplacian
        for module in (ringspec, ringgraph, cli, arborescence, dynamics):
            if getattr(module, "laplacian", None) is laplacian:
                monkeypatch.setattr(module, "laplacian", refuse)
        code, out, _ = run(capsys, "trees", "8", "10110111")
        assert code == 0
        assert json.loads(out)["per_root"] == [4, 5, 1, 2, 3, 1, 2, 3]

    def test_a_hundred_thousand_vertices(self, capsys):
        n = 100_000
        rng = random.Random(100)
        start = time.perf_counter()
        for mask, total in [("1" * n, n * n), ("0" * n, n), (
                "".join(rng.choice("01") for _ in range(n)), None)]:
            code, out, _ = run(capsys, "trees", str(n), mask)
            assert code == 0
            rec = json.loads(out)
            assert len(rec["per_root"]) == n
            assert rec["total"] == (sum(rec["per_root"]) if total is None else total)
        assert time.perf_counter() - start < 5.0


class TestWeighted:
    def test_k3_flat_weights(self, capsys):
        code, out, _ = run(capsys, "weighted", "k3", "--weights",
                           "[1, 1, 1, 0, 0, 0]")
        rec = json.loads(out)
        assert code == 0
        assert rec["discriminant"] == -3
        assert rec["essentially_cyclic"] is True
        assert rec["triangle_criterion"] is True
        assert rec["numeric_essentially_cyclic"] is True

    def test_k3_matrix_weights(self, capsys):
        code, out, _ = run(capsys, "weighted", "k3", "--weights",
                           "[[0, 1, 0], [0, 0, 1], [4, 0, 0]]")
        rec = json.loads(out)
        assert code == 0
        assert rec["essentially_cyclic"] is False

    def test_k3_tiny_weights_keep_their_verdicts(self, capsys):
        # the discriminant is near -8e-600 and the float characteristic
        # polynomial's linear coefficient near 1.1e-599: both underflow
        # unless the weights are scaled first
        verdicts = ("essentially_cyclic", "triangle_criterion", "numeric_essentially_cyclic")
        recs = []
        for weights in ("[1e-300, 2e-300, 3e-300, 0, 0, 0]", "[1, 2, 3, 0, 0, 0]"):
            code, out, err = run(capsys, "weighted", "k3", "--weights", weights)
            assert code == 0, err
            recs.append(json.loads(out))
        assert [recs[0][k] for k in verdicts] == [recs[1][k] for k in verdicts] == [True] * 3
        assert recs[0]["discriminant"] == 0 and recs[1]["discriminant"] == -8

    @pytest.mark.parametrize("weights", ["[1,1e-9,1e-9,0,0,0]", "[1,1e-300,1e-300,0,0,0]"])
    def test_k3_lopsided_cycle_is_not_cyclic(self, capsys, weights):
        # the float characteristic polynomial's constant term came out near
        # -9.4e-18 here instead of 0 and made the numeric verdict true
        code, out, err = run(capsys, "weighted", "k3", "--weights", weights)
        rec = json.loads(out)
        assert code == 0, err
        assert rec["discriminant"] > 0
        assert [rec[k] for k in ("essentially_cyclic", "triangle_criterion",
                                 "numeric_essentially_cyclic")] == [False] * 3

    def test_k3_huge_weights_are_answered(self, capsys):
        # the polynomial and its discriminant fit a double, though M**3 does not
        code, out, err = run(capsys, "weighted", "k3", "--weights",
                             "[1e110,1e110,1e110,0,0,0]")
        rec = json.loads(out)
        assert code == 0, err
        assert rec["discriminant"] == -3e220
        assert [rec[k] for k in ("essentially_cyclic", "triangle_criterion",
                                 "numeric_essentially_cyclic")] == [True] * 3

    def test_k3_discriminant_past_double_range_prints_null(self, capsys):
        # the discriminant is near -3e400; the three verdicts are exact
        code, out, err = run(capsys, "weighted", "k3", "--weights",
                             "[1e200,1e200,1e200,0,0,0]")
        rec = json.loads(out)
        assert code == 0, err
        assert rec["discriminant"] is None
        assert [rec[k] for k in ("essentially_cyclic", "triangle_criterion",
                                 "numeric_essentially_cyclic")] == [True] * 3
        # weights whose Laplacian rows overflow are still refused
        code, out, err = run(capsys, "weighted", "k3", "--weights",
                             "[1e308,1e308,1e308,0,0,0]")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: Laplacian row 0 overflows")

    def test_k3_three_numbers_name_the_accepted_shapes(self, capsys):
        code, out, err = run(capsys, "weighted", "k3", "--weights", "[1,2,3]")
        assert code == 2 and out == ""
        assert err == ("invalid input: k3 weights must be [a,b,c,alpha,beta,gamma] "
                       "or a 3x3 matrix\n")

    def test_k3_bad_weights_exit_2(self, capsys):
        code, _, _ = run(capsys, "weighted", "k3", "--weights", "[1, 2]")
        assert code == 2
        code, _, _ = run(capsys, "weighted", "k3", "--weights", "not json")
        assert code == 2

    def test_chorded_boundary(self, capsys):
        code, out, _ = run(capsys, "weighted", "chorded-c4", "--p", "3")
        rec = json.loads(out)
        assert code == 0
        assert rec["boundary"][0] == pytest.approx(0.266, abs=0.002)
        assert rec["boundary"][1] == pytest.approx(2.441, abs=0.002)

    def test_chorded_boundary_at_small_p(self, capsys):
        code, out, _ = run(capsys, "weighted", "chorded-c4", "--p", "1e-30")
        rec = json.loads(out)
        assert code == 0
        assert rec["boundary"][0] == pytest.approx(3.849e-46, rel=1e-3)
        assert rec["boundary"][1] == math.inf

    def test_chorded_boundary_at_tiny_p(self, capsys):
        # at p = 1e-300 the exact discriminant is already negative at the
        # smallest positive double, so the window is all of y > 0
        code, out, err = run(capsys, "weighted", "chorded-c4", "--p", "1e-300")
        assert code == 0, err
        assert json.loads(out)["boundary"] == [5e-324, math.inf]

    def test_c4_csv(self, capsys):
        code, out, _ = run(capsys, "weighted", "c4", "--a-max", "12",
                           "--x-max", "12", "--steps", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sqrt_a,sqrt_x,discriminant,cyclic,triangle_ok"
        assert len(lines) == 26


class TestSimulate:
    def test_trajectory_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "4", "1111", "--horizon", "0.1",
                           "--x0", "1,0,0,0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_1,x_2,x_3,x_4"
        assert len(lines) == 7

    def test_report(self, capsys):
        code, out, _ = run(capsys, "simulate", "4", "0000", "--report",
                           "--horizon", "30")
        rec = json.loads(out)
        assert code == 0
        assert rec["essentially_cyclic"] is True
        assert rec["measured_frequency"] == pytest.approx(1.0, rel=0.05)

    def test_overflowing_disagreement_keeps_its_rows(self, capsys):
        code, out, _ = run(capsys, "simulate", "3", "000", "--x0", "1e308,-1e308,0")
        assert code == 0
        assert len(out.strip().split("\n")) == 1502

    def test_unstable_step_exits_2(self, capsys):
        code, _, _ = run(capsys, "simulate", "4", "1111", "--step", "0.5")
        assert code == 2

    @pytest.mark.parametrize("mask", [
        "0" + "1" * 22, "0" + "1" * 29, "0" + "1" * 39,  # single gap
        "0" + "1" * 10 + "0" + "1" * 10,  # balanced pair, gaps (11, 11)
        "1" * 43,  # symmetric ring
    ])
    def test_report_of_a_real_spectrum_predicts_no_oscillation(self, capsys, mask):
        # double Aberth on the gap product invented a conjugate pair here
        code, out, err = run(capsys, "simulate", str(len(mask)), mask, "--report")
        assert code == 0, err
        rec = json.loads(out)
        assert rec["essentially_cyclic"] is False
        assert rec["slowest_pair"] is None
        assert rec["predicted_frequency"] is None
        assert rec["relative_deviation"] is None

    def test_report_never_calls_the_gap_product(self, capsys, monkeypatch):
        unavailable_gap_product(monkeypatch)
        for mask, cyclic in [("0000", True), ("0110", True), ("1" * 12, False),
                             ("0" + "1" * 22, False), ("011011011011", True)]:
            code, out, err = run(capsys, "simulate", str(len(mask)), mask, "--report")
            assert code == 0, err
            rec = json.loads(out)
            assert rec["essentially_cyclic"] is cyclic
            assert (rec["slowest_pair"] is not None) is cyclic


@pytest.mark.parametrize("argv", [
    ("weighted", "k3", "--weights", "[1,2,3]"),
    ("weighted", "k3", "--weights", "[[0,1,null],[0,0,1],[1,0,0]]"),
    ("simulate", "3", "000", "--horizon", "inf"),
    ("simulate", "3", "000", "--step", "nan"),
    ("simulate", "3", "000", "--x0", "1,0,nan"),
    ("weighted", "chorded-c4", "--p", "nan"),
    ("weighted", "chorded-c4", "--p", "inf"),
    ("weighted", "c4", "--a-max", "nan", "--steps", "3"),
    ("weighted", "c4", "--x-max", "inf", "--steps", "3"),
    ("weighted", "chorded-c4", "--p", "0"),
    ("weighted", "c4", "--a-max", "1e300", "--steps", "2"),
    ("weighted", "k3", "--weights", "[1e308,1e308,1e308,0,0,0]"),
    # a negative weight among weights whose discriminant passes double range
    ("weighted", "k3", "--weights", "[1e200,1e200,1e200,0,0,-1e200]"),
    ("simulate", "3", "000", "--x0", "1e308,-1e308,0", "--report"),
    ("weighted", "k3", "--weights", "[1,2,3,0,0,true]"),
    ("weighted", "k3", "--weights", "[[0,1,2],[1,0,1],[1,1,false]]"),
    ("weighted", "k3", "--weights", '[["0","1","2"],["1","0","1"],["1","1","0"]]'),
    # a finite JSON integer beyond double range, in either form
    ("weighted", "k3", "--weights", "[" + "1" + "0" * 400 + ",2,3,0,0,0]"),
    ("weighted", "k3", "--weights", "[[0," + "1" + "0" * 400 + ",2],[1,0,1],[1,1,0]]"),
    # finite step and horizon whose step count is not
    ("simulate", "3", "000", "--horizon", "1e308"),
    ("simulate", "3", "000", "--step", "1e-320"),
    # ring digraphs need n >= 3
    ("trees", "2", "--i", "1"),
])
def test_malformed_or_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("invalid input:")
    assert out == ""


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "ringspec", "trees", "4", "1010"],
                          capture_output=True, text=True, env=subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["per_root"] == [1, 2, 1, 2]


def test_importing_the_cli_leaves_mpmath_out():
    # mpmath is a test dependency only: the oracle computes in fixed point
    code = "import sys, ringspec.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_main_module_runs_nothing():
    assert importlib.import_module("ringspec.__main__").main is main
