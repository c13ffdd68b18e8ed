"""Discrete-time LTI control loops driven over a lossy acknowledged link.

Two actuator disciplines are implemented, each as one loop over the T slots
of a block that advances a batch of blocks together: the state, estimate and
burst or delivery counter of every block are arrays with one row per block,
and each slot's acknowledgments are one column of a (B, T) array.

* restless: the actuator only ever applies inputs received from the controller
  (zero input on a failed slot); the block is controllable once v CONSECUTIVE
  transmissions succeed, after which the actuator repeats the pre-stored
  holding input.
* rested: the actuator falls back to local state feedback B^+(I - A) x on a
  failed slot, freezing the state (and the controller's estimate); the block
  is controllable once v TOTAL transmissions succeed.

The controller designs v inputs by a minimum-norm least-squares solve that
drives its estimate to the desired state when all planned inputs are applied.
`design_inputs`, `feedback_input` and `propagate` take one state (n,) or a
batch (B, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "LtiSystem",
    "BlockTrace",
    "minimal_poly_degree",
    "design_inputs",
    "holding_input",
    "feedback_input",
    "propagate",
    "longest_runs",
    "run_block_restless",
    "run_block_rested",
]

PINV_RCOND = 1e-10


def minimal_poly_degree(A: np.ndarray, tol: float = 1e-10) -> int:
    """Degree of the minimal polynomial of A.

    Smallest d such that {I, A, ..., A^d} (flattened) are linearly dependent,
    tested by the smallest singular value of the stacked matrix dropping below
    tol times the largest. Always <= n by Cayley-Hamilton.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    n = A.shape[0]
    powers = [np.eye(n).ravel()]
    current = np.eye(n)
    for d in range(1, n + 1):
        current = current @ A
        powers.append(current.ravel())
        stacked = np.vstack(powers)
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[-1] < tol * svals[0]:
            return d
    return n


class LtiSystem:
    """State/input matrices, target state and controllability horizon.

    Construction verifies the standing assumption that the column space of B
    contains the column space of I - A (needed for the holding and feedback
    inputs to be exact) and that v is at least the minimal polynomial degree.
    """

    def __init__(self, A, B, x_des, v: Optional[int] = None,
                 process_noise_std: float = 0.0, tol: float = 1e-8,
                 require_range: bool = True):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.x_des = np.asarray(x_des, dtype=float).reshape(-1)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B must have as many rows as A")
        if self.x_des.shape[0] != self.A.shape[0]:
            raise ValueError("x_des must have the state dimension")
        if process_noise_std < 0.0:
            raise ValueError("process_noise_std must be >= 0")

        self.n = self.A.shape[0]
        self.m = self.B.shape[1]
        self.process_noise_std = float(process_noise_std)
        self._B_pinv = np.linalg.pinv(self.B, rcond=PINV_RCOND)

        # feedback gain B^+ (I - A) and the holding input it gives at x_des
        i_minus_a = np.eye(self.n) - self.A
        self._feedback_gain = self._B_pinv @ i_minus_a
        self._holding_input = self._feedback_gain @ self.x_des
        self._feedback_gain.flags.writeable = False
        self._holding_input.flags.writeable = False
        residual = i_minus_a - self.B @ self._feedback_gain
        scale = max(1.0, float(np.linalg.norm(i_minus_a)))
        self.range_ok = bool(np.linalg.norm(residual) <= tol * scale)
        if require_range and not self.range_ok:
            raise ValueError(
                "column space of B must contain the column space of I - A"
            )

        v_min = minimal_poly_degree(self.A)
        if v is None:
            v = v_min
        elif v < v_min:
            raise ValueError(f"v={v} is below the minimal polynomial degree {v_min}")
        self.v = int(v)

        # input-to-terminal-state map [A^(v-1) B, ..., B] and its pseudoinverse
        self.Psi = np.hstack([
            np.linalg.matrix_power(self.A, self.v - 1 - j) @ self.B
            for j in range(self.v)
        ])
        self._Psi_pinv = np.linalg.pinv(self.Psi, rcond=PINV_RCOND)
        self._A_pow_v = np.linalg.matrix_power(self.A, self.v)

    def __repr__(self):
        return f"LtiSystem(n={self.n}, m={self.m}, v={self.v})"

    def __eq__(self, other):
        if not isinstance(other, LtiSystem):
            return NotImplemented
        return (
            self.v == other.v
            and self.process_noise_std == other.process_noise_std
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.B, other.B)
            and np.array_equal(self.x_des, other.x_des)
        )


def design_inputs(sys: LtiSystem, x_hat: np.ndarray) -> np.ndarray:
    """Minimum-norm plan of v inputs that moves the estimate to the target.

    An estimate of shape (n,) gives shape (v, m), a batch (B, n) gives
    (B, v, m); applying a plan's rows in order (all acknowledged) drives the
    estimate recursion from x_hat to x_des exactly whenever the target offset
    is reachable.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    stacked = (sys.x_des - x_hat @ sys._A_pow_v.T) @ sys._Psi_pinv.T
    return stacked.reshape(x_hat.shape[:-1] + (sys.v, sys.m))


def holding_input(sys: LtiSystem) -> np.ndarray:
    """Input that keeps the state at the target: B^+ (I - A) x_des."""
    if not sys.range_ok:
        raise ValueError("holding input needs col(I - A) inside col(B)")
    return sys._holding_input


def feedback_input(sys: LtiSystem, x: np.ndarray) -> np.ndarray:
    """Local state feedback B^+ (I - A) x, row-wise for a (B, n) batch;
    freezes the state under zero noise."""
    if not sys.range_ok:
        raise ValueError("state feedback needs col(I - A) inside col(B)")
    return np.asarray(x, dtype=float) @ sys._feedback_gain.T


def _predict(sys: LtiSystem, x, u) -> np.ndarray:
    """Noiseless step A x + B u, row-wise for (B, n) states and (B, m) inputs."""
    return np.asarray(x, dtype=float) @ sys.A.T + np.asarray(u, dtype=float) @ sys.B.T


def propagate(sys: LtiSystem, x, u, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """One step of x(t+1) = A x + B u + w with i.i.d. Gaussian process noise;
    x of shape (n,) or (B, n), u of shape (m,) or (B, m)."""
    nxt = _predict(sys, x, u)
    if sys.process_noise_std > 0.0:
        if rng is None:
            raise ValueError("rng required when process_noise_std > 0")
        nxt = nxt + rng.normal(0.0, sys.process_noise_std, nxt.shape)
    return nxt


def longest_runs(acks) -> np.ndarray:
    """Longest run of nonzero entries in each row of an acknowledgment array
    (a 1-D sequence is one row), in one scan over the columns: each row's
    current run grows by one on a hit and drops to 0 on a miss."""
    hit = np.atleast_2d(np.asarray(acks) != 0)
    run, best = np.zeros((2, hit.shape[0]), dtype=np.int64)
    for column in hit.T:
        run = (run + 1) * column
        np.maximum(best, run, out=best)
    return best


@dataclass
class BlockTrace:
    """Per-slot record of a batch of simulated blocks, one row per block."""

    acks_S: np.ndarray  # (B, T)
    states_x: np.ndarray  # (B, T + 1, n)
    estimates_xhat: np.ndarray  # (B, T + 1, n)
    inputs_applied: np.ndarray  # (B, T, m)
    burst_L_final: np.ndarray  # (B,)
    block_controllable: np.ndarray  # (B,)


def _block_start(sys: LtiSystem, acks, x0):
    """Acknowledgments as (B, T) booleans (a 1-D sequence is one row), the
    start state broadcast to (B, n), and empty state/input records."""
    hit = np.atleast_2d(np.asarray(acks) != 0)
    if hit.ndim != 2 or hit.shape[1] < 1:
        raise ValueError("acks must have shape (B, T) with T >= 1")
    n_blocks, T = hit.shape
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_blocks, sys.n)).copy()
    states = np.empty((n_blocks, T + 1, sys.n))
    estimates = np.empty((n_blocks, T + 1, sys.n))
    states[:, 0] = x
    estimates[:, 0] = x
    return hit, x, x.copy(), states, estimates, np.empty((n_blocks, T, sys.m))


def run_block_restless(
    sys: LtiSystem,
    acks,
    x0,
    rng: Optional[np.random.Generator] = None,
) -> BlockTrace:
    """Execute a batch of restless blocks, one per row of acks (B, T).

    Per block the controller redesigns from its estimate when the burst is
    broken and sends the next planned input while the burst is open; once v
    consecutive successes complete the burst it sends dummy data. The
    actuator applies acknowledged planned inputs until the burst completes,
    the pre-stored holding input afterwards, and zero input on a failed
    slot. The controller starts with the true state x0 ((n,) or (B, n)).

    An idle slot and a failed one act alike (zero input, burst reset,
    estimate A x_hat), so given acknowledgments inside the typical pair's
    access the trajectory depends on the acknowledgments only. A block is
    flagged controllable when its own burst counter completes.
    """
    hit, x, xh, states, estimates, inputs = _block_start(sys, acks, x0)
    n_blocks, T = hit.shape
    rows = np.arange(n_blocks)
    u_bar = holding_input(sys)
    plan = np.zeros((n_blocks, sys.v, sys.m))
    L = np.zeros(n_blocks, dtype=np.int64)

    for t in range(T):
        done = L == sys.v
        send = hit[:, t] & ~done
        redesign = send & (L == 0)
        if redesign.any():
            plan[redesign] = design_inputs(sys, xh[redesign])
        u = np.zeros((n_blocks, sys.m))
        u[send] = plan[rows[send], L[send]]
        u[done] = u_bar
        L = np.where(done, L, send * (L + 1))
        xh = _predict(sys, xh, u)
        x = propagate(sys, x, u, rng)
        inputs[:, t] = u
        states[:, t + 1] = x
        estimates[:, t + 1] = xh

    return BlockTrace(
        acks_S=hit.astype(np.uint8),
        states_x=states,
        estimates_xhat=estimates,
        inputs_applied=inputs,
        burst_L_final=L,
        block_controllable=L == sys.v,
    )


def run_block_rested(
    sys: LtiSystem,
    acks,
    x0,
    rng: Optional[np.random.Generator] = None,
) -> BlockTrace:
    """Execute a batch of rested blocks, one per row of acks (B, T).

    Per block the plan is designed once from the start-of-block estimate
    (the true state x0, (n,) or (B, n)); the controller retransmits the next
    undelivered input until acknowledged and dummy data after v successes.
    The actuator applies delivered inputs and local feedback B^+(I - A) x on
    every other slot (failed, idle or dummy), which freezes the state, so the
    controller's estimate stays put there. A block is flagged controllable
    when its own delivery counter reaches v.
    """
    hit, x, xh, states, estimates, inputs = _block_start(sys, acks, x0)
    n_blocks, T = hit.shape
    rows = np.arange(n_blocks)
    plan = design_inputs(sys, xh)
    Lam = np.zeros(n_blocks, dtype=np.int64)

    for t in range(T):
        deliver = hit[:, t] & (Lam < sys.v)
        u = feedback_input(sys, x)
        u[deliver] = plan[rows[deliver], Lam[deliver]]
        xh = np.where(deliver[:, None], _predict(sys, xh, u), xh)
        x = propagate(sys, x, u, rng)
        Lam += deliver
        inputs[:, t] = u
        states[:, t + 1] = x
        estimates[:, t + 1] = xh

    return BlockTrace(
        acks_S=hit.astype(np.uint8),
        states_x=states,
        estimates_xhat=estimates,
        inputs_applied=inputs,
        burst_L_final=np.minimum(longest_runs(hit), sys.v),
        block_controllable=Lam == sys.v,
    )
