"""Reference code the tests check roadwatch against, one copy of each.

The general 4x4 Kalman filter (:class:`KalmanState`, :func:`predict`,
:func:`update`) that the tracker's per-axis scalar filter must agree with,
an independent 2x2 block-algebra transcription of the same two steps, the
brute-force assignment optimum and a literal transcription of the paper's
flow check.
"""

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from roadwatch.errors import ValidationError


@dataclass
class KalmanState:
    """Gaussian state estimate: mean (x, y, vx, vy) and 4x4 covariance."""

    mean: np.ndarray
    covariance: np.ndarray


def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition for state order (x, y, vx, vy)."""
    return np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def process_noise(dt: float, q: float) -> np.ndarray:
    """Discrete white-acceleration noise, variance scale ``q`` per axis."""
    dt2 = dt * dt
    a = q * dt2 * dt2 / 4.0
    b = q * dt2 * dt / 2.0
    c = q * dt2
    return np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, c, 0.0],
            [0.0, b, 0.0, c],
        ]
    )


def _transition(state: KalmanState, F: np.ndarray, Q: np.ndarray) -> KalmanState:
    mean = F @ state.mean
    cov = F @ state.covariance @ F.T + Q
    cov = (cov + cov.T) * 0.5
    return KalmanState(mean=mean, covariance=cov)


def predict(state: KalmanState, dt: float, q: float) -> KalmanState:
    """Propagate the state ``dt`` seconds ahead under constant velocity.

    Position integrates velocity; velocity is unchanged; covariance picks up
    the white-acceleration process noise.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    return _transition(state, transition_matrix(dt), process_noise(dt, q))


def update(state: KalmanState, observation: Sequence[float], r: float) -> KalmanState:
    """Fold a position observation (x, y) into the state.

    Standard linear Kalman update with the measurement picking (x, y) and
    isotropic noise ``r`` per axis; the covariance uses the Joseph form to
    stay symmetric PSD.
    """
    if r <= 0:
        raise ValidationError(f"measurement noise r must be > 0, got {r}")
    z = np.asarray(observation, dtype=float).reshape(2)
    if not np.isfinite(z).all():
        raise ValidationError(f"observation must be finite, got {observation}")

    P = state.covariance
    # S = H P H^T + R is the top-left 2x2 block plus r on the diagonal
    s00 = P[0, 0] + r
    s01 = P[0, 1]
    s11 = P[1, 1] + r
    det = s00 * s11 - s01 * s01
    s_inv = np.array([[s11, -s01], [-s01, s00]]) / det
    gain = P[:, :2] @ s_inv

    innovation = z - state.mean[:2]
    mean = state.mean + gain @ innovation
    a = np.eye(4)
    a[:, :2] -= gain
    cov = a @ P @ a.T + r * (gain @ gain.T)
    cov = (cov + cov.T) * 0.5
    return KalmanState(mean=mean, covariance=cov)


# independent closed-form reference, written in 2x2 block algebra rather than
# full-matrix products


def reference_predict(mean, cov, dt, q):
    pos, vel = mean[:2], mean[2:]
    pxx, pxv, pvv = cov[:2, :2], cov[:2, 2:], cov[2:, 2:]
    mean_out = np.concatenate([pos + dt * vel, vel])
    out = np.empty((4, 4))
    out[:2, :2] = pxx + dt * (pxv + pxv.T) + dt * dt * pvv + q * dt**4 / 4.0 * np.eye(2)
    out[:2, 2:] = pxv + dt * pvv + q * dt**3 / 2.0 * np.eye(2)
    out[2:, :2] = out[:2, 2:].T
    out[2:, 2:] = pvv + q * dt**2 * np.eye(2)
    return mean_out, out


def reference_update(mean, cov, z, r):
    s = cov[:2, :2] + r * np.eye(2)
    k = cov[:, :2] @ np.linalg.inv(s)
    mean_out = mean + k @ (np.asarray(z, dtype=float) - mean[:2])
    h = np.zeros((2, 4))
    h[0, 0] = h[1, 1] = 1.0
    return mean_out, (np.eye(4) - k @ h) @ cov


def brute_force_total(costs):
    """The least total cost of a matching of min(n, m) pairs, each sum exactly rounded."""
    n, m = costs.shape
    best = float("inf")
    if n <= m:
        for perm in permutations(range(m), n):
            best = min(best, math.fsum(costs[i, perm[i]] for i in range(n)))
    else:
        for perm in permutations(range(n), m):
            best = min(best, math.fsum(costs[perm[j], j] for j in range(m)))
    return best


def literal_flow_check(timestamps, t_duration=10.0, start=0.0):
    """Ten-line transcription of the debounce rule, used as the trace oracle."""
    warned = []
    t_start = start
    for t_end in timestamps:
        t_diff = t_end - t_start
        if t_diff > t_duration:
            warned.append(t_end)
        t_start = t_end
    return warned
