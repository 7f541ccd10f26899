"""Tests for the consensus simulator and frequency estimation."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from ringspec import ringgraph
from ringspec.dynamics import (
    SimConfig,
    Trajectory,
    disagreement,
    dominant_frequency,
    oscillation_report,
    simulate,
    trajectory_csv,
)
from ringspec.ringgraph import RingDigraph, laplacian


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(step=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=-1)


class TestSimulate:
    def test_single_node_constant(self):
        traj = simulate([[0.0]], SimConfig(step=0.02, horizon=1.0,
                                           initial_state=(3.5,)))
        assert np.allclose(traj.states, 3.5)
        assert np.allclose(traj.observable, 3.5)

    def test_two_node_decay_rate(self):
        cfg = SimConfig(step=0.02, horizon=1.0, initial_state=(1.0, 0.0))
        traj = simulate([[1.0, -1.0], [-1.0, 1.0]], cfg)
        assert traj.observable[-1] == pytest.approx(math.exp(-2.0), rel=1e-6)

    def test_mean_conserved_for_symmetric_laplacian(self):
        g = RingDigraph(6, (True,) * 6)
        cfg = SimConfig(step=0.02, horizon=5.0, seed=3)
        traj = simulate(laplacian(g), cfg)
        means = traj.states.mean(axis=1)
        assert np.max(np.abs(means - means[0])) < 1e-10 * 5.0

    def test_symmetric_disagreement_monotone(self):
        for n in (3, 5, 8):
            for seed in (0, 1, 2):
                g = RingDigraph(n, (True,) * n)
                traj = simulate(laplacian(g), SimConfig(step=0.02, horizon=8.0,
                                                        seed=seed))
                d = disagreement(traj)
                assert np.all(np.diff(d) <= 0), (n, seed)

    def test_step_size_rejected(self):
        g = RingDigraph(4, (True,) * 4)
        with pytest.raises(ValueError):
            simulate(laplacian(g), SimConfig(step=0.05, horizon=1.0))
        # weighted matrices tighten the limit via their diagonal
        heavy = [[50.0, -50.0], [-50.0, 50.0]]
        with pytest.raises(ValueError):
            simulate(heavy, SimConfig(step=0.02, horizon=1.0))
        simulate(heavy, SimConfig(step=0.0009, horizon=0.1))

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            simulate([[1.0, -1.0]], SimConfig())
        with pytest.raises(ValueError):
            simulate([[1.0, 0.0], [0.0, 1.0]], SimConfig())

    def test_initial_state_length_checked(self):
        with pytest.raises(ValueError):
            simulate([[1.0, -1.0], [-1.0, 1.0]],
                     SimConfig(initial_state=(1.0, 2.0, 3.0)))

    def test_seeded_initial_state_deterministic(self):
        g = RingDigraph(5, (True,) * 5)
        t1 = simulate(laplacian(g), SimConfig(step=0.02, horizon=1.0, seed=42))
        t2 = simulate(laplacian(g), SimConfig(step=0.02, horizon=1.0, seed=42))
        assert np.array_equal(t1.states, t2.states)

    def test_fourth_order_convergence(self):
        g = RingDigraph(4, (False,) * 4)
        lap = laplacian(g)
        x0 = (1.0, 0.0, 0.0, 0.0)
        ref = {}
        for h in (0.02, 0.01, 0.005):
            cfg = SimConfig(step=h, horizon=2.0, initial_state=x0)
            ref[h] = simulate(lap, cfg).states[-1]
        e1 = np.linalg.norm(ref[0.02] - ref[0.01])
        e2 = np.linalg.norm(ref[0.01] - ref[0.005])
        assert e1 / e2 >= 8.0

    def test_divergence_reports_its_step(self):
        # a zero-row-sum matrix with a negative diagonal passes the stability
        # check, and x_1 grows by the RK4 factor of dx/dt = x each step until
        # it passes the largest double, with no overflow warning on the way
        h, x0 = 0.02, 1e300
        growth = 1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
        step = math.ceil(math.log(sys.float_info.max / x0) / math.log(growth))
        cfg = SimConfig(step=h, horizon=30.0, initial_state=(x0, 0.0))
        with pytest.raises(FloatingPointError, match=f"at step {step}$"):
            simulate([[-1.0, 1.0], [0.0, 0.0]], cfg)

    def test_matches_stage_by_stage_rk4(self):
        # the one-matrix step against the four classical stages
        rng = np.random.default_rng(5)
        masks = [(n, bits) for n in range(3, 11)
                 for bits in (0, 2 ** n - 1, 2 ** n - 2, int(rng.integers(2 ** n)))]
        for n, bits in masks:
            mat = np.array(laplacian(RingDigraph(n, tuple(bool(bits >> j & 1)
                                                        for j in range(n)))), dtype=float)
            cfg = SimConfig(step=0.02, horizon=30.0, seed=n)
            traj = simulate(mat, cfg)
            x, h = traj.states[0], cfg.step
            expected = [x]
            for _ in range(len(traj.times) - 1):
                k1 = -(mat @ x)
                k2 = -(mat @ (x + 0.5 * h * k1))
                k3 = -(mat @ (x + 0.5 * h * k2))
                k4 = -(mat @ (x + h * k3))
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                expected.append(x)
            assert np.abs(traj.states - np.array(expected)).max() <= 1e-12, (n, bits)

    def test_in_place_steps_equal_the_allocating_loop(self):
        # dominant_frequency reads the exact tail, so the in-place product
        # must reproduce x <- P @ x bit for bit
        for n, bits in [(3, 0), (4, 0b0101), (7, 0b1111111), (8, 0b10110010),
                        (10, 0b1011011101)]:
            mat = np.array(laplacian(RingDigraph(n, tuple(bool(bits >> j & 1)
                                                        for j in range(n)))), dtype=float)
            cfg = SimConfig(step=0.02, horizon=30.0, seed=bits)
            traj = simulate(mat, cfg)
            a, eye = -cfg.step * mat, np.eye(n)
            prop = eye + a @ (eye + a @ (eye / 2 + a @ (eye / 6 + a / 24)))
            x = traj.states[0]
            expected = [x]
            for _ in range(len(traj.times) - 1):
                x = prop @ x
                expected.append(x)
            assert np.array_equal(traj.states, np.array(expected)), (n, bits)


def _crossing_frequency_loop(traj: Trajectory,
                             relative_floor: float = 100 * sys.float_info.epsilon) -> float | None:
    """The per-sample zero-crossing estimate, written out as a loop.

    A crossing counts where |y| on both samples exceeds relative_floor * max|y|;
    relative_floor = 0 counts every sign change between nonzero samples.
    """
    y = traj.observable - traj.observable[-1]
    t = traj.times
    floor = relative_floor * max(abs(v) for v in y)
    crossings = []
    for i in range(len(y) - 1):
        if abs(y[i]) <= floor:
            continue
        if (y[i] > 0) != (y[i + 1] > 0) and abs(y[i + 1]) > floor:
            frac = y[i] / (y[i] - y[i + 1])
            crossings.append(t[i] + frac * (t[i + 1] - t[i]))
    if len(crossings) < 3:
        return None
    return float(np.pi / np.diff(crossings).mean())


class TestDominantFrequency:
    def test_same_crossings_as_the_per_sample_loop(self):
        # bit for bit, including samples that are exactly zero
        t = np.arange(0, 12.0, 0.25)
        y = np.round(np.cos(2.0 * t) * 4) / 4
        trajs = [Trajectory(t, np.zeros((len(t), 1)), y)]
        for n in range(3, 11):
            for bits in (0, 1, 2 ** n - 2):
                g = RingDigraph(n, tuple(bool(bits >> j & 1) for j in range(n)))
                trajs.append(simulate(laplacian(g), SimConfig(seed=n)))
        assert np.count_nonzero(y - y[-1] == 0) > 3
        found = 0
        for traj in trajs:
            freq = dominant_frequency(traj)
            assert freq == _crossing_frequency_loop(traj)
            found += freq is not None
        assert found >= 8

    def test_synthetic_damped_sinusoid(self):
        t = np.arange(0, 12.0, 0.02)
        y = np.exp(-t) * np.cos(2.0 * t)
        traj = Trajectory(t, np.zeros((len(t), 1)), y)
        freq = dominant_frequency(traj)
        assert freq == pytest.approx(2.0, rel=0.02)

    def test_bare_cycle_frequency(self):
        g = RingDigraph(3, (False,) * 3)
        cfg = SimConfig(step=0.02, horizon=30.0,
                        initial_state=(1.0, 0.0, 0.0))
        freq = dominant_frequency(simulate(laplacian(g), cfg))
        assert freq == pytest.approx(math.sin(2 * math.pi / 3), rel=0.05)

    def test_overflowing_observable_is_rejected(self):
        # both states stay finite, their difference x_1 - x_2 does not
        cfg = SimConfig(step=0.02, horizon=1.0, initial_state=(1.79e308, -1.79e308))
        traj = simulate([[1.0, -1.0], [-1.0, 1.0]], cfg)
        assert np.isfinite(traj.states).all()
        assert np.isinf(traj.observable[0])
        with pytest.raises(ValueError, match="overflows"):
            dominant_frequency(traj)

    def test_rounding_noise_crossings_are_not_counted(self):
        # a damped cosine that decays into noise of amplitude 1e-17: the
        # noise's sign changes are no oscillation
        t = np.arange(0, 30.0, 0.02)
        noise = 1e-17 * np.random.default_rng(0).standard_normal(len(t))
        y = np.exp(-2.0 * t) * np.cos(2.0 * t) + noise
        freq = dominant_frequency(Trajectory(t, np.zeros((len(t), 1)), y))
        assert freq == pytest.approx(2.0, rel=0.02)

    def test_small_rings_drop_their_noise_crossings(self):
        # every mask with n = 3..10 whose report simulation (e_1 start, the
        # default step and horizon) has a sign change at rounding-noise
        # amplitude; the report measured that crossing too
        for mask in ["000", "0000", "0001", "0010", "0011", "0100", "1000", "1100",
                     "00111", "01110", "10010", "10011", "10100", "11001", "11100"]:
            g = RingDigraph.from_mask_string(len(mask), mask)
            traj = simulate(laplacian(g), SimConfig(initial_state=(1.0,) + (0.0,) * (g.n - 1)))
            expected = _crossing_frequency_loop(traj)
            assert expected != _crossing_frequency_loop(traj, relative_floor=0.0), mask
            assert oscillation_report(g)["measured_frequency"] == expected, mask

    def test_symmetric_ring_has_no_frequency(self):
        for n in (4, 7):
            g = RingDigraph(n, (True,) * n)
            cfg = SimConfig(step=0.02, horizon=30.0, seed=1)
            assert dominant_frequency(simulate(laplacian(g), cfg)) is None


class TestOscillationReport:
    def test_bare_cycle_n4(self):
        g = RingDigraph(4, (False,) * 4)
        rep = oscillation_report(g, SimConfig(step=0.02, horizon=30.0))
        assert rep["essentially_cyclic"] is True
        assert rep["predicted_frequency"] == pytest.approx(1.0, abs=1e-9)
        assert rep["measured_frequency"] == pytest.approx(1.0, rel=0.05)
        assert rep["relative_deviation"] < 0.05

    def test_bare_cycles(self):
        for n in range(3, 11):
            rep = oscillation_report(RingDigraph(n, (False,) * n))
            target = math.sin(2 * math.pi / n)
            assert rep["predicted_frequency"] == pytest.approx(target, abs=1e-12), n
            assert rep["measured_frequency"] == pytest.approx(target, rel=0.04), n

    def test_balanced_two_gap_has_no_oscillation(self):
        g = RingDigraph.from_mask_string(4, "1010")
        rep = oscillation_report(g, SimConfig(step=0.02, horizon=30.0))
        assert rep["essentially_cyclic"] is False
        assert rep["predicted_frequency"] is None
        assert rep["measured_frequency"] is None

    def test_real_families_report_no_pair(self):
        # symmetric ring, single gap, and the balanced (even n) or
        # near-balanced (odd n) pair, to n = 200; a short horizon, since
        # the pair does not depend on the simulation
        cfg = SimConfig(horizon=0.2)
        for n in list(range(3, 200, 11)) + [157, 200]:
            two_gaps = "0" + "1" * (n // 2 - 1) + "0" + "1" * (n - n // 2 - 1)
            for mask in ("1" * n, "0" + "1" * (n - 1), two_gaps):
                rep = oscillation_report(RingDigraph.from_mask_string(n, mask), cfg)
                assert rep["essentially_cyclic"] is False, mask
                assert rep["slowest_pair"] is None and rep["predicted_frequency"] is None, mask

    def test_split_two_gap_oscillates(self):
        g = RingDigraph.from_mask_string(4, "0110")  # gaps (1, 3)
        rep = oscillation_report(g, SimConfig(step=0.02, horizon=40.0))
        assert rep["essentially_cyclic"] is True
        assert rep["predicted_frequency"] > 0.1
        assert rep["relative_deviation"] < 0.10

    def test_mask_is_decomposed_once(self, monkeypatch):
        calls = []
        decompose = ringgraph.decompose

        def counting_decompose(g):
            calls.append(g.mask_string())
            return decompose(g)

        monkeypatch.setattr(ringgraph, "decompose", counting_decompose)
        g = RingDigraph.from_mask_string(6, "011010")
        rep = oscillation_report(g, SimConfig(step=0.02, horizon=5.0))
        assert calls == ["011010"]
        assert (rep["K"], rep["case"]) == (3, ringgraph.classify_exact(g).case)


class TestCsv:
    def test_header_and_rows(self):
        traj = simulate([[1.0, -1.0], [-1.0, 1.0]],
                        SimConfig(step=0.02, horizon=0.1, initial_state=(1.0, 0.0)))
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x_1,x_2"
        assert len(lines) == 7
        assert float(lines[1].split(",")[1]) == 1.0
