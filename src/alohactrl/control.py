"""Discrete-time LTI control loops driven over a lossy acknowledged link.

Two actuator disciplines are implemented per block of T slots:

* restless: the actuator only ever applies inputs received from the controller
  (zero input on a failed slot); the block is controllable once v CONSECUTIVE
  transmissions succeed, after which the actuator repeats the pre-stored
  holding input.
* rested: the actuator falls back to local state feedback B^+(I - A) x on a
  failed slot, freezing the state (and the controller's estimate); the block
  is controllable once v TOTAL transmissions succeed.

The controller designs v inputs by a minimum-norm least-squares solve that
drives its estimate to the desired state when all planned inputs are applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    "is_block_controllable_restless",
    "is_block_controllable_rested",
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

    Returns shape (v, m); applying the rows in order (all acknowledged) drives
    the estimate recursion from x_hat to x_des exactly whenever the target
    offset is reachable.
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    stacked = sys._Psi_pinv @ (sys.x_des - sys._A_pow_v @ x_hat)
    return stacked.reshape(sys.v, sys.m)


def holding_input(sys: LtiSystem) -> np.ndarray:
    """Input that keeps the state at the target: B^+ (I - A) x_des."""
    if not sys.range_ok:
        raise ValueError("holding input needs col(I - A) inside col(B)")
    return sys._holding_input


def feedback_input(sys: LtiSystem, x: np.ndarray) -> np.ndarray:
    """Local state feedback B^+ (I - A) x; freezes the state under zero noise."""
    if not sys.range_ok:
        raise ValueError("state feedback needs col(I - A) inside col(B)")
    return sys._feedback_gain @ np.asarray(x, dtype=float).reshape(-1)


def propagate(sys: LtiSystem, x, u, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """One step of x(t+1) = A x + B u + w with i.i.d. Gaussian process noise."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    nxt = sys.A @ x + sys.B @ u
    if sys.process_noise_std > 0.0:
        if rng is None:
            raise ValueError("rng required when process_noise_std > 0")
        nxt = nxt + rng.normal(0.0, sys.process_noise_std, sys.n)
    return nxt


def longest_runs(acks) -> np.ndarray:
    """Longest run of nonzero entries in each row of an acknowledgment array.

    A 1-D sequence counts as one row. Each row is padded with a zero on both
    sides, so in the flattened array the nonzero steps alternate between run
    starts and run ends and no run crosses a row.
    """
    hit = np.atleast_2d(np.asarray(acks) != 0)
    rows, width = hit.shape[0], hit.shape[1] + 2
    padded = np.zeros((rows, width), dtype=np.int8)
    padded[:, 1:-1] = hit
    edges = np.flatnonzero(np.diff(padded.ravel()))
    starts, ends = edges[::2], edges[1::2]
    best = np.zeros(rows, dtype=np.int64)
    np.maximum.at(best, starts // width, ends - starts)
    return best


def is_block_controllable_restless(acks: Sequence[int], v: int) -> bool:
    """True iff the acknowledgment sequence contains >= v consecutive ones."""
    if v < 1:
        raise ValueError("v must be >= 1")
    return bool(longest_runs(acks)[0] >= v)


def is_block_controllable_rested(acks: Sequence[int], v: int) -> bool:
    """True iff the acknowledgment sequence contains >= v ones in total."""
    if v < 1:
        raise ValueError("v must be >= 1")
    return np.count_nonzero(acks) >= v


@dataclass
class BlockTrace:
    """Per-slot record of one simulated block."""

    access_C0: np.ndarray
    acks_S: np.ndarray
    states_x: np.ndarray
    estimates_xhat: np.ndarray
    inputs_applied: np.ndarray
    burst_L_final: int
    success_count_Lambda: int
    block_controllable: bool


SuccessOracle = Callable[[int], int]


def run_block_restless(
    sys: LtiSystem,
    T: int,
    access: Sequence[int],
    success_oracle: SuccessOracle,
    x_true,
    x_hat,
    rng: Optional[np.random.Generator] = None,
) -> BlockTrace:
    """Execute one restless block.

    On an active slot the controller redesigns when the burst is broken,
    transmits the next planned input while the burst is open, and dummy data
    (all ones) once v consecutive successes have been achieved. The actuator
    applies acknowledged planned inputs until the burst completes and the
    pre-stored holding input afterwards; failed slots apply zero input.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    access = np.asarray(access, dtype=np.uint8).reshape(-1)
    if access.shape[0] != T:
        raise ValueError("access must have length T")

    x = np.asarray(x_true, dtype=float).reshape(-1).copy()
    xh = np.asarray(x_hat, dtype=float).reshape(-1).copy()
    u_bar = holding_input(sys)
    dummy = np.ones(sys.m)

    states = np.empty((T + 1, sys.n))
    estimates = np.empty((T + 1, sys.n))
    inputs = np.zeros((T, sys.m))
    acks = np.zeros(T, dtype=np.uint8)
    states[0] = x
    estimates[0] = xh

    plan = None
    L = 0
    completed = False

    for t in range(T):
        S = 0
        sent = None
        if access[t]:
            if not completed:
                if L == 0:
                    plan = design_inputs(sys, xh)
                sent = plan[L]
            else:
                sent = dummy
            S = int(success_oracle(t))
            if not completed:
                L = S * (L + 1)
                if L == sys.v:
                    completed = True
        else:
            # a gap breaks the planned consecutive application; force redesign
            if not completed:
                L = 0
        acks[t] = S

        if completed and (not access[t] or sent is dummy):
            # burst already complete before this slot: hold at the target
            u_applied = u_bar
            xh = sys.A @ xh + sys.B @ u_bar
        elif S and sent is not None:
            u_applied = sent
            xh = sys.A @ xh + sys.B @ sent
        else:
            u_applied = np.zeros(sys.m)
            xh = sys.A @ xh

        x = propagate(sys, x, u_applied, rng)
        inputs[t] = u_applied
        states[t + 1] = x
        estimates[t + 1] = xh

    return BlockTrace(
        access_C0=access,
        acks_S=acks,
        states_x=states,
        estimates_xhat=estimates,
        inputs_applied=inputs,
        burst_L_final=L,
        success_count_Lambda=int(acks.sum()),
        block_controllable=is_block_controllable_restless(acks, sys.v),
    )


def run_block_rested(
    sys: LtiSystem,
    T: int,
    access: Sequence[int],
    success_oracle: SuccessOracle,
    x_true,
    x_hat,
    rng: Optional[np.random.Generator] = None,
) -> BlockTrace:
    """Execute one rested block.

    The plan is designed once from the start-of-block estimate; the controller
    retransmits the next undelivered input until acknowledged and dummy data
    after v successes. The actuator applies acknowledged inputs and local
    feedback B^+(I - A) x otherwise, which freezes state and estimate.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    access = np.asarray(access, dtype=np.uint8).reshape(-1)
    if access.shape[0] != T:
        raise ValueError("access must have length T")

    x = np.asarray(x_true, dtype=float).reshape(-1).copy()
    xh = np.asarray(x_hat, dtype=float).reshape(-1).copy()
    dummy = np.ones(sys.m)

    states = np.empty((T + 1, sys.n))
    estimates = np.empty((T + 1, sys.n))
    inputs = np.zeros((T, sys.m))
    acks = np.zeros(T, dtype=np.uint8)
    states[0] = x
    estimates[0] = xh

    plan = design_inputs(sys, xh)
    Lam = 0

    for t in range(T):
        S = 0
        delivered = None
        if access[t]:
            if Lam < sys.v:
                sent = plan[Lam]
                S = int(success_oracle(t))
                if S:
                    delivered = sent
                    Lam += 1
            else:
                S = int(success_oracle(t))  # dummy data; ack still returned
        acks[t] = S

        if delivered is not None:
            u_applied = delivered
            xh = sys.A @ xh + sys.B @ delivered
        else:
            u_applied = feedback_input(sys, x)
            # failed/idle/dummy slot: actuator feedback holds the state, so the
            # controller's estimate stays put
        x = propagate(sys, x, u_applied, rng)
        inputs[t] = u_applied
        states[t + 1] = x
        estimates[t + 1] = xh

    return BlockTrace(
        access_C0=access,
        acks_S=acks,
        states_x=states,
        estimates_xhat=estimates,
        inputs_applied=inputs,
        burst_L_final=min(int(longest_runs(acks)[0]), sys.v),
        success_count_Lambda=int(acks.sum()),
        block_controllable=is_block_controllable_rested(acks, sys.v),
    )

