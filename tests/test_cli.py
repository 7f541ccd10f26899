"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import ringspec
from ringspec import cli
from ringspec.cli import main
from ringspec.ringgraph import RingDigraph, closed_form_spectrum
from ringspec.rootfind import RootFinderConfig
from support import match_multisets


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_single_gap_example(self, capsys):
        code, out, _ = run(capsys, "classify", "10", "1111111110")
        assert code == 0
        rec = json.loads(out)
        assert rec["essentially_cyclic"] is False
        assert rec["case"] == "single-gap"
        assert rec["K"] == 1

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
        monkeypatch.setattr(cli, "spectral_verdict", lambda rs, cfg: True)
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

    def test_numeric_non_convergence_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RootFinderConfig",
                            lambda: RootFinderConfig(max_iterations=1))
        code, _, err = run(capsys, "classify", "9", "110101011", "--numeric")
        assert code == 1
        assert err.startswith("numeric failure:")

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


class TestSpectrum:
    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "0000", "--method", "both")
        rec = json.loads(out)
        assert code == 0
        assert len(rec["closed_form"]) == 4
        assert len(rec["numeric"]) == 4
        assert rec["numeric_converged"] is True
        # (x-1)^4 - 1 expanded, ascending, as decimal strings
        assert rec["char_poly"] == ["0", "-4", "6", "-4", "1"]

    @pytest.mark.parametrize("mask", ["1" * 12, "111111011111110"])
    def test_numeric_repeated_roots_match_the_closed_form(self, capsys, mask):
        code, out, _ = run(capsys, "spectrum", str(len(mask)), mask, "--method", "numeric")
        rec = json.loads(out)
        assert code == 0
        assert rec["numeric_converged"] is True
        g = RingDigraph.from_mask_string(len(mask), mask)
        match_multisets(closed_form_spectrum(g), [complex(*z) for z in rec["numeric"]], 1e-9)

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

    def test_chorded_boundary_not_found_exits_1(self, capsys):
        # at p = 1e-300 the sampled discriminant never changes sign
        code, out, err = run(capsys, "weighted", "chorded-c4", "--p", "1e-300")
        assert code == 1
        assert out == ""
        assert err.startswith("numeric failure:")
        assert err.count("\n") == 1

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
    ("weighted", "chorded-c4", "--p", "1e300"),
    ("weighted", "c4", "--a-max", "1e300", "--steps", "2"),
    ("weighted", "k3", "--weights", "[1e308,1e308,1e308,0,0,0]"),
    ("weighted", "k3", "--weights", "[1e110,1e110,1e110,0,0,0]"),
    ("simulate", "3", "000", "--x0", "1e308,-1e308,0", "--report"),
])
def test_malformed_or_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("invalid input:")
    assert out == ""


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(ringspec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ringspec", "trees", "4", "1010"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["per_root"] == [1, 2, 1, 2]


def test_importing_the_main_module_runs_nothing():
    assert importlib.import_module("ringspec.__main__").main is main
