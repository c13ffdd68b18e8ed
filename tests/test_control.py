import math

import numpy as np
import pytest

from alohactrl.control import (
    LtiSystem,
    design_inputs,
    feedback_input,
    holding_input,
    longest_runs,
    minimal_poly_degree,
    propagate,
    run_block_rested,
    run_block_restless,
)
from alohactrl.montecarlo import default_system_for


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_range_compatible_system(g, n_max=4, m_max=3):
    """A = I - B C keeps col(I - A) inside col(B); start states are drawn in
    the x_des + col(B) affine class, where the design is exact."""
    while True:
        n = int(g.integers(1, n_max + 1))
        m = int(g.integers(1, m_max + 1))
        B = g.normal(size=(n, m))
        C = 0.25 * g.normal(size=(m, n))
        A = np.eye(n) - B @ C
        if np.max(np.abs(np.linalg.eigvals(A))) > 1.4:
            continue
        x_des = g.normal(size=n)
        sys = LtiSystem(A, B, x_des)
        if sys.v > n:  # never happens (Cayley-Hamilton); guard anyway
            continue
        x0 = x_des + B @ g.normal(size=m)
        return sys, x0


class TestMinimalPolyDegree:
    def test_identity(self):
        assert minimal_poly_degree(np.eye(4)) == 1

    def test_distinct_eigenvalues(self):
        assert minimal_poly_degree(np.diag([1.0, 2.0])) == 2

    def test_jordan_block(self):
        # minimal polynomial of a 3x3 Jordan block at 0.5 is (x - 0.5)^3:
        # (A - 0.5 I)^2 != 0 while (A - 0.5 I)^3 == 0
        J = 0.5 * np.eye(3) + np.diag([1.0, 1.0], 1)
        N = J - 0.5 * np.eye(3)
        assert np.any(N @ N != 0.0) and np.all(N @ N @ N == 0.0)
        assert minimal_poly_degree(J) == 3

    def test_never_exceeds_dimension(self):
        g = rng(3)
        for _ in range(50):
            n = int(g.integers(1, 6))
            A = g.normal(size=(n, n))
            assert 1 <= minimal_poly_degree(A) <= n


class TestLtiSystemValidation:
    def test_range_assumption_rejection(self):
        # spec's canonical violation: B = [[1],[0]], A = 0.5 I
        with pytest.raises(ValueError):
            LtiSystem(0.5 * np.eye(2), [[1.0], [0.0]], [1.0, 1.0])

    def test_relaxed_construction_blocks_holding(self):
        sys = LtiSystem(0.5 * np.eye(2), [[1.0], [0.0]], [1.0, 1.0],
                        require_range=False)
        with pytest.raises(ValueError):
            holding_input(sys)
        with pytest.raises(ValueError):
            feedback_input(sys, [1.0, 1.0])

    def test_explicit_v_below_degree_rejected(self):
        with pytest.raises(ValueError):
            LtiSystem(np.diag([1.0, 2.0]), np.eye(2), [0.0, 0.0], v=1)

    def test_default_v_is_minimal_degree(self):
        sys = LtiSystem(np.diag([1.0, 2.0]), np.eye(2), [0.0, 0.0])
        assert sys.v == 2


class TestDesignInputs:
    def test_identity_one_step(self):
        sys = LtiSystem(np.eye(2), np.eye(2), [1.0, 1.0], v=1)
        plan = design_inputs(sys, np.zeros(2))
        assert np.allclose(plan, [[1.0, 1.0]])

    def test_fixed_point(self):
        g = rng(5)
        for _ in range(20):
            sys, _ = random_range_compatible_system(g)
            plan = design_inputs(sys, sys.x_des)
            x_hat = sys.x_des.copy()
            for u in plan:
                x_hat = sys.A @ x_hat + sys.B @ u
            assert np.allclose(x_hat, sys.x_des, atol=1e-8)

    def test_two_step_linear_solve(self):
        # A B u0 + B u1 = x_des, verified by direct substitution
        sys = LtiSystem([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], [1.0, 0.0],
                        v=2, require_range=False)
        plan = design_inputs(sys, np.zeros(2))
        reached = sys.A @ (sys.B @ plan[0]) + sys.B @ plan[1]
        assert np.allclose(reached, sys.x_des, atol=1e-9)
        # independent 2x2 solve: [A B, B] [u0; u1] = x_des
        Psi = np.hstack([sys.A @ sys.B, sys.B])
        expect = np.linalg.solve(Psi, sys.x_des)
        assert np.allclose(plan.ravel(), expect, atol=1e-9)


class TestHoldingAndFeedback:
    def test_identity_dynamics_zero(self):
        sys = LtiSystem(np.eye(2), np.eye(2), [3.0, -1.0])
        assert np.allclose(holding_input(sys), 0.0)
        assert np.allclose(feedback_input(sys, [9.0, 9.0]), 0.0)

    def test_zero_target_zero(self):
        sys = LtiSystem(0.5 * np.eye(2), np.eye(2), [0.0, 0.0])
        assert np.allclose(holding_input(sys), 0.0)

    def test_scalar_feedback(self):
        sys = LtiSystem([[0.9]], [[2.0]], [0.0])
        u = feedback_input(sys, [10.0])
        assert u[0] == pytest.approx(0.5)
        assert 0.9 * 10.0 + 2.0 * u[0] == pytest.approx(10.0)

    def test_feedback_freezes_any_rank(self):
        g = rng(8)
        for _ in range(20):
            sys, x0 = random_range_compatible_system(g)
            frozen = propagate(sys, x0, feedback_input(sys, x0))
            assert np.allclose(frozen, x0, atol=1e-9)


class TestPropagateAndEstimate:
    def test_noiseless_identity(self):
        sys = LtiSystem(np.eye(2), np.eye(2), [0.0, 0.0])
        assert np.allclose(propagate(sys, [0.0, 0.0], [1.0, 1.0]), [1.0, 1.0])

    def test_holding_keeps_target(self):
        g = rng(2)
        for _ in range(20):
            sys, _ = random_range_compatible_system(g)
            nxt = propagate(sys, sys.x_des, holding_input(sys))
            assert np.allclose(nxt, sys.x_des, atol=1e-9)

    def test_noise_mean(self):
        sys = LtiSystem(0.8 * np.eye(2), np.eye(2), [0.0, 0.0], process_noise_std=0.1)
        g = rng(4)
        x, u = np.array([1.0, -2.0]), np.array([0.3, 0.3])
        n = 100_000
        acc = np.zeros(2)
        for _ in range(n):
            acc += propagate(sys, x, u, g)
        want = sys.A @ x + sys.B @ u
        assert np.all(np.abs(acc / n - want) < 3 * 0.1 / math.sqrt(n))


class TestControllabilityFlags:
    """Restless: longest_runs(acks) >= v; rested: count_nonzero(acks) >= v."""

    def test_simple_cases(self):
        assert longest_runs([1, 1, 1])[0] >= 2
        assert not longest_runs([1, 0, 1, 0, 1])[0] >= 2
        assert np.count_nonzero([1, 0, 1, 0]) >= 2
        assert not np.count_nonzero([0, 0, 0]) >= 1

    def test_against_scan_oracle_bulk(self):
        g = rng(10)
        acks = (g.random((100_000, 20)) < 0.35).astype(np.uint8)
        vs = g.integers(1, 7, size=100_000)
        # independent vectorized scan oracle
        runs = np.zeros(100_000, dtype=int)
        best = np.zeros(100_000, dtype=int)
        for t in range(20):
            runs = (runs + 1) * acks[:, t]
            np.maximum(best, runs, out=best)
        totals = acks.sum(axis=1)
        assert np.array_equal(longest_runs(acks), best)
        for i in range(0, 100_000, 997):  # spot-check the scalar ops
            assert (longest_runs(acks[i])[0] >= vs[i]) == (best[i] >= vs[i])
            assert (np.count_nonzero(acks[i]) >= vs[i]) == (totals[i] >= vs[i])
        # implication law on the full batch: run >= v implies total >= v
        assert np.all(totals[best >= vs] >= vs[best >= vs])


class TestRestlessBlock:
    def test_full_success_reaches_and_holds(self):
        g = rng(12)
        for _ in range(10):
            sys, x0 = random_range_compatible_system(g)
            T = sys.v + 4
            trace = run_block_restless(sys, np.ones(T, int), x0)
            assert trace.block_controllable[0]
            # reaches the target right after the v-th success and holds
            for t in range(sys.v, T + 1):
                assert np.allclose(trace.states_x[0, t], sys.x_des, atol=1e-9)

    def test_idle_block(self):
        sys = default_system_for(2)
        x0 = np.array([5.0, -1.0])
        access = np.zeros(6, int)  # idle block: an ack on every slot it would use
        trace = run_block_restless(sys, np.ones(6, int) & access, x0)
        assert not trace.block_controllable[0]
        assert not trace.acks_S.any()
        x = x0.copy()
        for t in range(6):
            x = sys.A @ x
            assert np.allclose(trace.states_x[0, t + 1], x, atol=1e-12)

    def test_forced_pattern_step_through(self):
        # acks 1,1,0,1,1 with v=2: burst completes at slot 2, one design only,
        # holding input applied from slot 2 onwards; dummy acks keep arriving
        sys = default_system_for(2)
        pattern = [1, 1, 0, 1, 1]
        x0 = np.array([2.0, 3.0])
        trace = run_block_restless(sys, pattern, x0)
        assert trace.block_controllable[0]
        assert trace.burst_L_final[0] == 2
        assert list(trace.acks_S[0]) == pattern
        plan = design_inputs(sys, x0)
        assert np.allclose(trace.inputs_applied[0, 0], plan[0], atol=1e-12)
        assert np.allclose(trace.inputs_applied[0, 1], plan[1], atol=1e-12)
        u_bar = holding_input(sys)
        for t in (2, 3, 4):
            assert np.allclose(trace.inputs_applied[0, t], u_bar, atol=1e-12)
        assert np.allclose(trace.states_x[0, 2:], sys.x_des, atol=1e-9)

    def test_partial_burst_resets_and_redesigns(self):
        # failure resets the burst; a fresh design from the current estimate
        # still reaches the target once v consecutive successes occur
        g = rng(14)
        sys, x0 = random_range_compatible_system(g)
        v = sys.v
        pattern = [1] * (v - 1) + [0] + [1] * v if v > 1 else [0, 1]
        T = len(pattern)
        trace = run_block_restless(sys, pattern, x0)
        assert trace.block_controllable[0]
        assert np.allclose(trace.states_x[0, -1], sys.x_des, atol=1e-8)

    def test_estimate_matches_state_random_patterns(self):
        g = rng(16)
        for _ in range(30):
            sys, x0 = random_range_compatible_system(g)
            T = sys.v + 6
            access = (g.random(T) < 0.7).astype(int)
            acks = (g.random(T) < 0.6).astype(int)
            trace = run_block_restless(sys, acks & access, x0)
            assert np.allclose(trace.states_x, trace.estimates_xhat, atol=1e-8)
            assert trace.block_controllable[0] == (longest_runs(trace.acks_S[0])[0] >= sys.v)


class TestRestedBlock:
    def test_scattered_successes_reach_target(self):
        g = rng(18)
        for _ in range(10):
            sys, x0 = random_range_compatible_system(g)
            T = 2 * sys.v + 3
            slots = g.choice(T, size=sys.v, replace=False)
            acks = np.zeros(T, int)
            acks[slots] = 1
            trace = run_block_rested(sys, acks, x0)
            assert trace.block_controllable[0]
            assert np.allclose(trace.states_x[0, -1], sys.x_des, atol=1e-8)

    def test_failure_freezes_state_and_estimate(self):
        g = rng(20)
        sys, x0 = random_range_compatible_system(g)
        T = 5
        trace = run_block_rested(sys, np.zeros(T, int), x0)
        for t in range(T):
            assert np.allclose(trace.states_x[0, t + 1], trace.states_x[0, t], atol=1e-9)
            assert np.allclose(trace.estimates_xhat[0, t + 1], trace.estimates_xhat[0, t],
                               atol=1e-12)

    def test_retransmission_index_sequence(self):
        # acks 0,1,0,1,...: delivered plan rows are 0,1,2,... in order, each
        # retried until acknowledged
        sys = default_system_for(3)
        x0 = np.array([1.0, 2.0, 3.0])
        pattern = [0, 1, 0, 1, 0, 1, 0, 1]
        trace = run_block_rested(sys, pattern, x0)
        plan = design_inputs(sys, x0)
        success_slots = [t for t in range(8) if pattern[t]]
        # first v acks deliver plan rows 0,1,2; the last ack is dummy data and
        # the actuator stays on feedback
        for j, t in enumerate(success_slots[: sys.v]):
            assert np.allclose(trace.inputs_applied[0, t], plan[j], atol=1e-12)
        t_dummy = success_slots[sys.v]
        assert np.allclose(
            trace.inputs_applied[0, t_dummy],
            feedback_input(sys, trace.states_x[0, t_dummy]),
            atol=1e-12,
        )

    def test_estimate_matches_state_random_patterns(self):
        g = rng(22)
        for _ in range(30):
            sys, x0 = random_range_compatible_system(g)
            T = sys.v + 6
            access = (g.random(T) < 0.7).astype(int)
            acks = (g.random(T) < 0.6).astype(int)
            trace = run_block_rested(sys, acks & access, x0)
            assert np.allclose(trace.states_x, trace.estimates_xhat, atol=1e-8)
            assert trace.block_controllable[0] == (np.count_nonzero(trace.acks_S[0]) >= sys.v)

    def test_rested_weaker_than_restless(self):
        g = rng(24)
        for _ in range(200):
            T = int(g.integers(3, 15))
            v = int(g.integers(1, 5))
            acks = (g.random(T) < 0.5).astype(int)
            if longest_runs(acks)[0] >= v:
                assert np.count_nonzero(acks) >= v


def reference_restless(sys, access, acks, x0, w):
    """Per-slot scalar restless block with the typical pair's access draws
    (acks inside access) and process noise w[t]: redesign on an accessed slot
    with the burst at 0, send plan[L] until v consecutive acks, hold with
    u_bar afterwards; an idle slot resets an open burst."""
    x, xh = x0.copy(), x0.copy()
    states, estimates, inputs = [x], [xh], []
    plan, L, completed = None, 0, False
    for t in range(len(acks)):
        held = completed
        sent = None
        if access[t] and not completed:
            if L == 0:
                plan = design_inputs(sys, xh)
            sent = plan[L]
            L = int(acks[t]) * (L + 1)
            completed = L == sys.v
        elif not completed:
            L = 0
        if held:
            u = holding_input(sys)
        elif sent is not None and acks[t]:
            u = sent
        else:
            u = np.zeros(sys.m)
        x = sys.A @ x + sys.B @ u + w[t]
        xh = sys.A @ xh + sys.B @ u
        states.append(x)
        estimates.append(xh)
        inputs.append(u)
    return np.array(states), np.array(estimates), np.array(inputs), L


def reference_rested(sys, access, acks, x0, w):
    """Per-slot scalar rested block with process noise w[t]: one design at
    the start, plan[Lam] on each of the first v acks, state feedback on
    every other slot (the estimate stays put there)."""
    x, xh = x0.copy(), x0.copy()
    states, estimates, inputs = [x], [xh], []
    plan, Lam = design_inputs(sys, xh), 0
    for t in range(len(acks)):
        if access[t] and acks[t] and Lam < sys.v:
            u = plan[Lam]
            Lam += 1
            xh = sys.A @ xh + sys.B @ u
        else:
            u = feedback_input(sys, x)
        x = sys.A @ x + sys.B @ u + w[t]
        states.append(x)
        estimates.append(xh)
        inputs.append(u)
    return np.array(states), np.array(estimates), np.array(inputs), Lam


def scan_runs(acks):
    run = best = 0
    for s in acks:
        run = run + 1 if s else 0
        best = max(best, run)
    return best


class TestBatchedLoopsAgainstReference:
    """The batched loops against the per-slot scalar loops above, on rows that
    mix random, all-zero and all-one acknowledgments and idle slots."""

    @staticmethod
    def cases():
        g = rng(31)
        systems = [random_range_compatible_system(g)[0] for _ in range(40)]
        # v = 1 plants: a scalar Jordan block and A = 0.5 I
        systems += [default_system_for(1), LtiSystem(0.5 * np.eye(2), np.eye(2), [1.0, -2.0])]
        for k, sys in enumerate(systems):
            n_blocks = 1 if k % 5 == 0 else int(g.integers(2, 9))
            T = sys.v + int(g.integers(1, 9))
            access = g.random((n_blocks, T)) < 0.8
            acks = access & (g.random((n_blocks, T)) < 0.6)
            if n_blocks >= 3:
                acks[0], access[1], acks[1] = False, True, True
            x0 = sys.x_des + g.normal(size=(n_blocks, sys.n))
            yield sys, access, acks, x0

    @pytest.mark.parametrize("noise_std", [0.0, 0.05])
    @pytest.mark.parametrize("discipline", ["restless", "rested"])
    def test_matches_scalar_reference(self, discipline, noise_std):
        run, reference = {
            "restless": (run_block_restless, reference_restless),
            "rested": (run_block_rested, reference_rested),
        }[discipline]
        for k, (sys, access, acks, x0) in enumerate(self.cases()):
            sys = LtiSystem(sys.A, sys.B, sys.x_des, v=sys.v, process_noise_std=noise_std)
            n_blocks, T = acks.shape
            # the loop draws one (B, n) noise array per slot, in slot order
            w = rng(100 + k).normal(0.0, noise_std, (T, n_blocks, sys.n))
            trace = run(sys, acks, x0, rng(100 + k))
            assert trace.states_x.shape == (n_blocks, T + 1, sys.n)
            assert trace.inputs_applied.shape == (n_blocks, T, sys.m)
            for b in range(n_blocks):
                states, estimates, inputs, counter = reference(
                    sys, access[b], acks[b], x0[b], w[:, b])
                np.testing.assert_allclose(trace.states_x[b], states, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(trace.estimates_xhat[b], estimates,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(trace.inputs_applied[b], inputs,
                                           rtol=1e-12, atol=1e-12)
                total, longest = int(acks[b].sum()), scan_runs(acks[b])
                assert np.array_equal(trace.acks_S[b], acks[b].astype(np.uint8))
                if discipline == "restless":
                    assert trace.burst_L_final[b] == counter
                    assert trace.block_controllable[b] == (longest >= sys.v)
                else:
                    assert counter == min(total, sys.v)
                    assert trace.burst_L_final[b] == min(longest, sys.v)
                    assert trace.block_controllable[b] == (total >= sys.v)

    @pytest.mark.parametrize("run", [run_block_restless, run_block_rested])
    def test_one_dimensional_acks_is_one_row(self, run):
        sys = default_system_for(3)
        acks = [0, 1, 1, 1, 0, 1, 1, 1]
        x0 = np.array([2.0, -1.0, 0.5])
        one = run(sys, acks, x0)
        two = run(sys, np.array([acks]), x0[None, :])
        assert one.states_x.shape == (1, len(acks) + 1, 3)
        for field in ("acks_S", "states_x", "estimates_xhat", "inputs_applied",
                      "burst_L_final", "block_controllable"):
            assert np.array_equal(getattr(one, field), getattr(two, field))

    def test_row_laws_match_one_state(self):
        g = rng(33)
        sys, _ = random_range_compatible_system(g)
        xs = g.normal(size=(5, sys.n))
        us = g.normal(size=(5, sys.m))
        batch_plan = design_inputs(sys, xs)
        batch_fb = feedback_input(sys, xs)
        batch_next = propagate(sys, xs, us)
        for b in range(5):
            np.testing.assert_allclose(batch_plan[b], design_inputs(sys, xs[b]),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(batch_fb[b], feedback_input(sys, xs[b]),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(batch_next[b], sys.A @ xs[b] + sys.B @ us[b],
                                       rtol=1e-12, atol=1e-12)
