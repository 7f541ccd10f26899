"""Consensus dynamics: integrate dx/dt = -Lx and measure oscillation.

Non-real Laplacian eigenvalues show up as damped oscillations of the agents'
disagreement; completely real spectra give monotone-looking transients.  The
simulator is a classical fixed-step 4th-order Runge-Kutta integrator, and the
frequency estimate comes from zero-crossing spacing of a scalar observable
(the signals decay within a few periods, so crossing spacing is more robust
than spectral fitting at that length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ringgraph import RingDigraph, classify_exact, laplacian

#: step * (spectral-radius bound) must stay below this for the explicit scheme.
STABILITY_MARGIN = 0.1
#: |Im| above which :func:`oscillation_report` takes an eigenvalue for non-real.
IMAG_THRESHOLD = 1e-6
#: |y| at or below this times max|y| is rounding noise to :func:`dominant_frequency`.
NOISE_FLOOR = 100 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SimConfig:
    step: float = 0.02
    horizon: float = 30.0
    #: explicit start vector; when None, a seeded standard-normal draw is used.
    initial_state: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.step, self.horizon)):
            raise ValueError("step and horizon must be finite and positive")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError("horizon / step must be finite")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    observable: np.ndarray  # x_1 - x_2 (x_1 when n == 1)


def _initial_state(cfg: SimConfig, n: int) -> np.ndarray:
    if cfg.initial_state is not None:
        x0 = np.asarray(cfg.initial_state, dtype=np.float64)
        if x0.shape != (n,):
            raise ValueError(f"initial state must have length {n}, got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("initial state must be finite")
        return x0
    return np.random.default_rng(cfg.seed).standard_normal(n)


def simulate(laplacian_matrix, cfg: SimConfig) -> Trajectory:
    """Fixed-step RK4 integration of dx/dt = -Lx.

    For a linear system the four RK4 stages compose to one fixed matrix,
    P = I + a(I + a(I/2 + a(I/6 + a/24))) with a = -hL, so each step is the
    single product x <- P x, written in place into the next row of the
    states.  A state that overflows raises FloatingPointError naming the
    first step that was not finite; the observable is kept as computed,
    infinite where x_1 - x_2 overflows.

    The step is rejected up front unless step * max(4, 2*max(diag)) stays
    within the stability margin (Gershgorin bounds the spectral radius by
    twice the largest diagonal entry; 4 covers every unweighted ring digraph).
    """
    mat = np.asarray(laplacian_matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("Laplacian must be square")
    n = mat.shape[0]
    row_sums = np.abs(mat.sum(axis=1))
    scale = max(1.0, float(np.abs(mat).max()))
    if row_sums.max() > 1e-9 * scale:
        raise ValueError("not a Laplacian: row sums must be zero")
    radius_bound = max(4.0, 2.0 * float(mat.diagonal().max(initial=0.0)))
    if cfg.step * radius_bound > STABILITY_MARGIN + 1e-12:
        raise ValueError(
            f"step {cfg.step} too large for stability: need step <= "
            f"{STABILITY_MARGIN / radius_bound:.6g} for this Laplacian"
        )

    steps = int(round(cfg.horizon / cfg.step))
    states = np.empty((steps + 1, n))
    states[0] = _initial_state(cfg, n)
    h = cfg.step
    a = -h * mat
    eye = np.eye(n)
    prop = eye + a @ (eye + a @ (eye / 2 + a @ (eye / 6 + a / 24)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            np.dot(prop, states[k], out=states[k + 1])
        observable = states[:, 0] - states[:, 1] if n >= 2 else states[:, 0].copy()
    diverged = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if diverged.size:
        raise FloatingPointError(f"state diverged at step {diverged[0]}")

    times = np.arange(steps + 1) * h
    return Trajectory(times, states, observable)


def dominant_frequency(traj: Trajectory) -> float | None:
    """Angular frequency from zero-crossing spacing of the detrended observable.

    Detrending subtracts the final value.  A sign change counts only where
    |y| on both samples exceeds ``NOISE_FLOOR`` * max|y|: below that it is
    rounding noise, not oscillation.  With fewer than 3 counted sign changes
    there is no oscillation to speak of and the result is None.  An
    observable that overflows double precision (a finite state whose x_1 - x_2
    does not fit) raises ValueError.
    """
    if not np.isfinite(traj.observable).all():
        raise ValueError("the observable x_1 - x_2 overflows double precision")
    y = traj.observable - traj.observable[-1]
    t = traj.times
    magnitude = np.abs(y)
    counted = magnitude > NOISE_FLOOR * magnitude.max(initial=0.0)
    y0, y1 = y[:-1], y[1:]
    i = np.flatnonzero(counted[:-1] & counted[1:] & ((y0 > 0) != (y1 > 0)))
    # linear interpolation of the crossing times
    crossings = t[i] + y0[i] / (y0[i] - y1[i]) * (t[i + 1] - t[i])
    if len(crossings) < 3:
        return None
    spacings = np.diff(crossings)
    return float(np.pi / spacings.mean())


def oscillation_report(g: RingDigraph, cfg: SimConfig = SimConfig()) -> dict:
    """Predicted vs measured oscillation for one ring digraph.

    Bundles the exact cyclicity verdict, the slowest-decaying conjugate pair
    of ``numpy.linalg.eigvals`` of the Laplacian the simulation integrates
    (above ``IMAG_THRESHOLD`` in Im, the smallest real part), the measured
    dominant frequency of a simulation started at e_1, and their relative
    deviation.
    """
    cls = classify_exact(g)
    mat = np.array(laplacian(g), dtype=np.float64)
    pair = min((complex(z) for z in np.linalg.eigvals(mat) if z.imag > IMAG_THRESHOLD),
               key=lambda z: (z.real, -z.imag), default=None)
    sim_cfg = cfg
    if cfg.initial_state is None:
        e1 = tuple([1.0] + [0.0] * (g.n - 1))
        sim_cfg = SimConfig(step=cfg.step, horizon=cfg.horizon, initial_state=e1)
    traj = simulate(mat, sim_cfg)
    measured = dominant_frequency(traj)
    predicted = abs(pair.imag) if pair is not None else None
    deviation = None
    if predicted is not None and measured is not None and predicted > 0:
        deviation = abs(measured - predicted) / predicted
    return {
        "n": g.n,
        "mask": g.mask_string(),
        "K": g.decomposition.K,
        "case": cls.case,
        "essentially_cyclic": cls.essentially_cyclic,
        "slowest_pair": [pair.real, pair.imag] if pair is not None else None,
        "predicted_frequency": predicted,
        "measured_frequency": measured,
        "relative_deviation": deviation,
    }


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rows "t,x_1,...,x_n"."""
    n = traj.states.shape[1]
    lines = ["t," + ",".join(f"x_{i + 1}" for i in range(n))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(repr(float(v)) for v in (t, *row)))
    return "\n".join(lines) + "\n"


def disagreement(traj: Trajectory) -> np.ndarray:
    """Squared Euclidean distance of the state from its mean, per sample."""
    centered = traj.states - traj.states.mean(axis=1, keepdims=True)
    return np.einsum("ij,ij->i", centered, centered)
