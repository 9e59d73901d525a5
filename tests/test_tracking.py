"""Tracking tests: Kalman oracles, assignment optimality, lifecycle rules."""

import gc
import math
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from roadwatch.detection import CLASSES, Detection, FrameDetections, parse_detection_log
from roadwatch.errors import StreamOrderError, ValidationError
from roadwatch.tracking import (
    INITIAL_VELOCITY_VARIANCE,
    MEASUREMENT_NOISE,
    NEW_VEHICLE,
    PROCESS_NOISE,
    Track,
    TrackerConfig,
    VehicleTracker,
    assign,
    cost_matrix,
    majority,
)

from reference import KalmanState, brute_force_total, predict, reference_predict, reference_update, update


def make_state(mean, cov):
    return KalmanState(mean=np.asarray(mean, dtype=float), covariance=np.asarray(cov, dtype=float))


def random_state(rng, scale=100.0):
    mean = rng.normal(0, scale, 4)
    a = rng.normal(size=(4, 4))
    cov = a @ a.T + 1e-3 * np.eye(4)
    return make_state(mean, cov)


class TestPredict:
    def test_constant_velocity_arithmetic(self):
        state = make_state([100.0, 200.0, -5.0, 0.0], np.eye(4))
        out = predict(state, dt=1.0, q=0.0)
        assert out.mean[:2] == pytest.approx([95.0, 200.0])
        assert out.mean[2:] == pytest.approx([-5.0, 0.0])

    def test_identity_covariance_propagation(self):
        # F P F^T for P = I, dt = 1: var(x) = 2, cov(x, vx) = 1
        state = make_state(np.zeros(4), np.eye(4))
        out = predict(state, dt=1.0, q=0.0)
        assert out.covariance[0, 0] == pytest.approx(2.0)
        assert out.covariance[0, 2] == pytest.approx(1.0)
        assert out.covariance[1, 1] == pytest.approx(2.0)
        assert out.covariance[1, 3] == pytest.approx(1.0)
        assert out.covariance[2, 2] == pytest.approx(1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            state = random_state(rng)
            dt1, dt2 = rng.uniform(0.01, 1.0, 2)
            combined = predict(state, dt1 + dt2, q=0.0)
            stepped = predict(predict(state, dt1, q=0.0), dt2, q=0.0)
            np.testing.assert_allclose(stepped.mean, combined.mean, rtol=0, atol=1e-9)
            np.testing.assert_allclose(
                stepped.covariance, combined.covariance, rtol=1e-9, atol=1e-9
            )

    def test_matches_block_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            state = random_state(rng)
            dt = rng.uniform(0.01, 1.0)
            q = rng.uniform(0.0, 20.0)
            out = predict(state, dt, q)
            ref_mean, ref_cov = reference_predict(state.mean, state.covariance, dt, q)
            np.testing.assert_allclose(out.mean, ref_mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(out.covariance, ref_cov, rtol=1e-9, atol=1e-12)

    def test_nonpositive_dt_rejected(self):
        state = make_state(np.zeros(4), np.eye(4))
        with pytest.raises(ValidationError):
            predict(state, dt=0.0, q=1.0)
        with pytest.raises(ValidationError):
            predict(state, dt=-0.1, q=1.0)


class TestUpdate:
    def test_tiny_noise_pins_to_observation(self):
        state = make_state([10.0, 20.0, 1.0, 1.0], np.eye(4))
        out = update(state, (40.0, 50.0), r=1e-12)
        assert out.mean[:2] == pytest.approx([40.0, 50.0], abs=1e-6)

    def test_scalar_gain_half(self):
        # position variance 1, r = 1: gain 1/2 pulls halfway to the observation
        state = make_state([0.0, 0.0, 0.0, 0.0], np.diag([1.0, 1.0, 10.0, 10.0]))
        out = update(state, (2.0, 0.0), r=1.0)
        assert out.mean[:2] == pytest.approx([1.0, 0.0])

    def test_zero_innovation_keeps_mean_and_shrinks_covariance(self):
        state = make_state([5.0, -3.0, 2.0, 1.0], np.diag([4.0, 4.0, 9.0, 9.0]))
        out = update(state, (5.0, -3.0), r=2.0)
        assert out.mean == pytest.approx(state.mean)
        assert np.trace(out.covariance) < np.trace(state.covariance)

    def test_posterior_between_prediction_and_observation(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            var = rng.uniform(0.1, 10.0, 4)
            state = make_state(rng.normal(0, 50, 4), np.diag(var))
            z = state.mean[:2] + rng.normal(0, 30, 2)
            out = update(state, z, r=rng.uniform(0.1, 10.0))
            for axis in range(2):
                lo, hi = sorted((state.mean[axis], z[axis]))
                assert lo - 1e-9 <= out.mean[axis] <= hi + 1e-9

    def test_matches_block_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            state = random_state(rng)
            z = state.mean[:2] + rng.normal(0, 10, 2)
            r = rng.uniform(0.1, 10.0)
            out = update(state, z, r)
            ref_mean, ref_cov = reference_update(state.mean, state.covariance, z, r)
            np.testing.assert_allclose(out.mean, ref_mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(out.covariance, ref_cov, rtol=1e-9, atol=1e-9)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(41)
        state = random_state(rng)
        for _ in range(500):
            state = predict(state, rng.uniform(0.01, 0.2), q=10.0)
            state = update(state, state.mean[:2] + rng.normal(0, 3, 2), r=4.0)
            sym_err = np.abs(state.covariance - state.covariance.T).max()
            assert sym_err < 1e-9
            assert np.linalg.eigvalsh(state.covariance).min() >= -1e-9

    def test_nonfinite_observation_rejected(self):
        state = make_state(np.zeros(4), np.eye(4))
        with pytest.raises(ValidationError):
            update(state, (np.nan, 0.0), r=1.0)
        with pytest.raises(ValidationError):
            update(state, (np.inf, 0.0), r=1.0)


class TestCostMatrix:
    def test_three_four_five(self):
        costs = cost_matrix([(0.0, 0.0)], [(3.0, 4.0)])
        assert costs[0, 0] == pytest.approx(5.0)

    def test_identical_points(self):
        assert cost_matrix([(7.0, 7.0)], [(7.0, 7.0)])[0, 0] == 0.0

    def test_elementwise_against_manual(self):
        rng = np.random.default_rng(43)
        preds = rng.uniform(0, 1000, (4, 2))
        dets = rng.uniform(0, 1000, (6, 2))
        costs = cost_matrix(preds, dets)
        assert costs.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                dx = preds[i, 0] - dets[j, 0]
                dy = preds[i, 1] - dets[j, 1]
                assert costs[i, j] == pytest.approx((dx * dx + dy * dy) ** 0.5, rel=1e-12)

    def test_empty_inputs(self):
        assert cost_matrix([], [(1.0, 2.0)]).shape == (0, 1)
        assert cost_matrix([(1.0, 2.0)], []).shape == (1, 0)


class TestAssign:
    def test_unique_optimum(self):
        matches, unmatched_t, unmatched_d = assign(np.array([[1.0, 2.0], [2.0, 1.0]]), 10.0)
        assert matches == [(0, 0), (1, 1)]
        assert unmatched_t == [] and unmatched_d == []

    def test_gate_rejects(self):
        matches, unmatched_t, unmatched_d = assign(np.array([[100.0]]), 50.0)
        assert matches == []
        assert unmatched_t == [0] and unmatched_d == [0]

    def test_empty_matrix(self):
        matches, unmatched_t, unmatched_d = assign(np.zeros((0, 3)), 10.0)
        assert matches == [] and unmatched_t == [] and unmatched_d == [0, 1, 2]

    def test_optimal_against_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n, m = rng.integers(1, 5, 2)
            costs = rng.uniform(0, 100, (n, m))
            matches, _, _ = assign(costs, float("inf"))
            total = sum(costs[r, c] for r, c in matches)
            assert len(matches) == min(n, m)
            assert total == pytest.approx(brute_force_total(costs), rel=1e-12)

    def test_gated_pairs_never_matched(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            costs = rng.uniform(0, 100, (4, 4))
            gate = rng.uniform(10, 90)
            matches, _, _ = assign(costs, gate)
            assert all(costs[r, c] <= gate for r, c in matches)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValidationError):
            assign(np.array([[-1.0]]), 10.0)


def association_outcome(solve, predicted, centers, gate):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return solve(predicted, centers, gate)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


def scipy_association(predicted, centers, gate):
    return assign(cost_matrix(predicted, centers), gate)


def tracker_association(predicted, centers, gate):
    """``_associate``'s partner lists as ``assign``'s triple."""
    from roadwatch.tracking import _associate

    track_partner, det_partner = _associate(predicted, centers, gate)
    assert len(track_partner) == len(predicted) and len(det_partner) == len(centers)
    matches = [(i, j) for i, j in enumerate(track_partner) if j >= 0]
    # the two lists name the same pairs
    assert sorted((i, j) for j, i in enumerate(det_partner) if i >= 0) == matches
    return (
        matches,
        [i for i, j in enumerate(track_partner) if j < 0],
        [j for j, i in enumerate(det_partner) if i < 0],
    )


def with_sentinel(costs, gate):
    """``costs`` with its out-of-gate entries masked as ``assign`` masks them."""
    gated = costs > gate
    if not gated.any():
        return costs
    valid_max = costs[~gated].max() if (~gated).any() else 1.0
    return np.where(gated, (max(valid_max, 1.0) + 1.0) * (min(costs.shape) + 1), costs)


class TestSolverPort:
    """The tracker's plain-Python solver against scipy's, called directly."""

    def test_same_rows_and_columns_as_scipy(self):
        from scipy.optimize import linear_sum_assignment

        from roadwatch.tracking import _linear_sum_assignment

        rng = np.random.default_rng(67)

        def lattice(k):
            # points on a 3 x 4 px lattice: distances full of exact ties
            return np.column_stack([3.0 * rng.integers(0, 4, k), 4.0 * rng.integers(0, 3, k)])

        kinds = {
            "lattice": lambda n, m: cost_matrix(lattice(n), lattice(m)),
            "small integers": lambda n, m: rng.integers(0, 4, (n, m)).astype(float),
            "uniform": lambda n, m: rng.uniform(0, 100, (n, m)),
        }
        gated = 0
        for n in range(1, 11):
            for m in range(1, 11):
                for kind, draw in kinds.items():
                    for _ in range(5):
                        costs = draw(n, m)
                        masked = with_sentinel(costs, float(rng.choice(costs.ravel())))
                        gated += masked is not costs
                        for work in (costs, masked):
                            rows, cols = linear_sum_assignment(work)
                            expected = list(zip(rows.tolist(), cols.tolist()))
                            assert _linear_sum_assignment(work.tolist()) == expected, (kind, work)
        assert gated > 500

    def test_free_column_rows_stop_at_the_first_search(self):
        # rows 0-2 of the transpose find their cheapest column free; row 3
        # searches, and rounding leaves v[1] at about +2.8e-17, so the raw
        # minimum of the all-0.1 row 4 is no longer its reduced minimum
        from scipy.optimize import linear_sum_assignment

        from roadwatch.tracking import _linear_sum_assignment

        costs = np.array([[0.3, 0.1, 0.2, 0.3, 0.1], [0.2, 0.1, 0.1, 0.3, 0.1], [0.2, 0.0, 0.1, 0.2, 0.1],
                          [0.3, 0.1, 0.2, 0.3, 0.1], [0.2, 0.0, 0.1, 0.2, 0.1], [0.2, 0.1, 0.2, 0.3, 0.1]])
        for work in (costs, costs.T):
            rows, cols = linear_sum_assignment(work)
            assert _linear_sum_assignment(work.tolist()) == list(zip(rows.tolist(), cols.tolist()))


class TestAssociate:
    """The tracker's association helper against ``assign(cost_matrix(...))``."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        """Shapes of the matrices sent to ``assign`` and to the port, and of
        the frames that the closed form decided."""
        import roadwatch.tracking as tracking

        calls = {"assign": [], "closed": [], "port": []}
        port = tracking._linear_sum_assignment
        clear_cheapest = tracking._clear_cheapest

        def counted_assign(costs, gate):
            calls["assign"].append(costs.shape)
            return assign(costs, gate)

        def counted_clear_cheapest(costs, n_tracks, n_dets):
            partners = clear_cheapest(costs, n_tracks, n_dets)
            if partners is not None:
                calls["closed"].append((n_tracks, n_dets))
            return partners

        def counted_port(costs):
            calls["port"].append((len(costs), len(costs[0])))
            return port(costs)

        monkeypatch.setattr(tracking, "assign", counted_assign)
        monkeypatch.setattr(tracking, "_clear_cheapest", counted_clear_cheapest)
        monkeypatch.setattr(tracking, "_linear_sum_assignment", counted_port)
        return calls

    def check(self, predicted, centers, gate):
        got = association_outcome(tracker_association, predicted, centers, gate)
        expected = association_outcome(scipy_association, predicted, centers, gate)
        assert got == expected, (predicted, centers, gate)
        return got

    def path(self, solver_calls, predicted, centers, gate):
        """Check one frame; return the path that decided it, "greedy" (no
        conflict), "closed" (the closed form) or "port", and the result."""
        before = len(solver_calls["closed"]), len(solver_calls["port"])
        got = self.check(predicted, centers, gate)
        closed, port = len(solver_calls["closed"]) - before[0], len(solver_calls["port"]) - before[1]
        assert closed + port <= 1
        return "closed" if closed else "port" if port else "greedy", got

    def test_random_small_frames(self, solver_calls):
        # points on a 3 x 4 px lattice: many exact ties and many distances
        # of exactly 3, 4 or 5 px, equal to the gates below
        rng = np.random.default_rng(59)
        paths, greedy_matches = Counter(), 0
        for _ in range(3000):
            n, m = rng.integers(0, 5, 2)
            predicted = [(3.0 * rng.integers(0, 4), 4.0 * rng.integers(0, 3)) for _ in range(n)]
            centers = [(3.0 * rng.integers(0, 4), 4.0 * rng.integers(0, 3)) for _ in range(m)]
            gate = float(rng.choice([2.0, 3.0, 4.0, 5.0, 9.0, np.inf]))
            path, (matches, _, _) = self.path(solver_calls, predicted, centers, gate)
            paths[path] += 1
            greedy_matches += path == "greedy" and bool(matches)
        # all three paths ran many times, the greedy one on frames with
        # matches and the port on the tie frames the closed form leaves to
        # it; no frame reaches assign
        assert greedy_matches > 300
        assert paths["closed"] > 100
        assert paths["port"] > 300
        assert solver_calls["assign"] == []

    def test_small_in_gate_frames(self, solver_calls):
        # frames of up to 4 x 4 with every pair in gate, the closed form's
        # domain: exact ties go to the port, near ties go to the port or
        # agree with it, and huge distances change neither
        rng = np.random.default_rng(73)

        def lattice(k):
            return [(3.0 * rng.integers(0, 4), 4.0 * rng.integers(0, 3)) for _ in range(k)]

        def nudged(points):
            # each coordinate moved by 0 or by +-1e-12 to +-1e-6
            return [tuple(c + rng.choice([0.0, -1.0, 1.0]) * 10.0 ** rng.uniform(-12, -6) for c in p)
                    for p in points]

        def huge(k):
            # distances near 1e154, the largest a center distance gets before
            # its square overflows and puts the pair out of gate
            return [tuple(rng.uniform(-4e153, 4e153, 2).tolist()) for _ in range(k)]

        draws = {
            "co-located": (lambda k: [(640.0, 360.0)] * k, 75.0),
            "lattice": (lattice, 75.0),
            "near ties": (lambda k: nudged(lattice(k)), 75.0),
            "huge gate": (huge, 1e308),
        }
        paths = {kind: Counter() for kind in draws}
        for kind, (draw, gate) in draws.items():
            for _ in range(1500):
                n, m = rng.integers(1, 5, 2)
                paths[kind][self.path(solver_calls, draw(n), draw(m), gate)[0]] += 1
        # every co-located conflict is an exact tie, left to the port
        assert paths["co-located"]["closed"] == 0
        assert paths["co-located"]["port"] > 1000
        for kind in ("lattice", "near ties", "huge gate"):
            assert paths[kind]["closed"] > 300, (kind, paths[kind])
        for kind in ("lattice", "near ties"):
            assert paths[kind]["port"] > 100, (kind, paths[kind])
        # every shape that can conflict was decided in closed form; 1 x 1 cannot
        assert set(solver_calls["closed"]) == {(n, m) for n in range(1, 5) for m in range(1, 5)} - {(1, 1)}
        assert solver_calls["assign"] == []

    def test_closed_form_leaves_overflow_and_nan_to_the_port(self):
        # in-gate distances cannot reach these sums (see huge above), so the
        # rule is held on the cost lists themselves
        from roadwatch.tracking import _clear_cheapest

        big = 1e308
        assert _clear_cheapest([0.0, 1.0, 1.0, 0.0], 2, 2) == ((0, 1), (0, 1))
        assert _clear_cheapest([1.0, 0.0, 0.0, 1.0], 2, 2) == ((1, 0), (1, 0))
        assert _clear_cheapest([big, big, big, 0.0], 2, 2) is None  # one sum is infinite
        assert _clear_cheapest([0.0, big, big, 0.0, big, big, big, big, big], 3, 3) is None
        assert _clear_cheapest([2.0, 0.0, 5.0], 1, 3) == ((1,), (-1, 0, -1))
        assert _clear_cheapest([0.0, 1.0, np.inf], 1, 3) is None
        assert _clear_cheapest([np.nan, 1.0, 1.0, 0.0], 2, 2) is None
        assert _clear_cheapest([0.0, np.nan, 1.0, 1.0, 1.0, 0.0], 2, 3) is None
        # a clear minimum by more than the margin, and one within it
        assert _clear_cheapest([0.0, 1.0, 1.0, 2.0 - 1e-6], 2, 2) == ((0, 1), (0, 1))
        assert _clear_cheapest([0.0, 1.0, 1.0, 2.0 - 1e-12], 2, 2) is None

        def frame(n_tracks, n_dets, cheap, fill=1.0):
            """Row-major costs: ``cheap`` maps (track, detection) to a cost, every other pair costs ``fill``."""
            return [cheap.get((i, j), fill) for i in range(n_tracks) for j in range(n_dets)]

        # 4 x 4 and 4 x 3, each with one matching of cost 0 and every other pair at cost 1
        for n_dets, best in [(4, ((2, 0, 3, 1), (1, 3, 0, 2))), (3, ((2, 0, -1, 1), (1, 3, 0)))]:
            cheap = {(i, j): 0.0 for i, j in enumerate(best[0]) if j >= 0}
            assert _clear_cheapest(frame(4, n_dets, cheap), 4, n_dets) == best
            assert _clear_cheapest(frame(4, n_dets, cheap, big), 4, n_dets) is None  # some sums are infinite
            assert _clear_cheapest(frame(4, n_dets, {**cheap, (3, 0): np.nan}), 4, n_dets) is None
            # swapping the partners of tracks 0 and 1 costs 1e-6, or 1e-12, more
            for extra, partners in [(1e-6, best), (1e-12, None)]:
                close = {**cheap, (0, 0): extra / 2, (1, 2): extra / 2}
                assert _clear_cheapest(frame(4, n_dets, close), 4, n_dets) == partners, extra

    def test_large_frames(self, solver_calls):
        # criterion 7's lattice: 50 tracks, 20 detections, each in the gate
        # of one track only, then every point doubled
        rng = np.random.default_rng(61)
        slots = [(64.0 + 128 * i, 72.0 + 144 * j) for i in range(10) for j in range(5)]
        centers = [
            (slots[k][0] + rng.uniform(-3, 3), slots[k][1] + rng.uniform(-3, 3))
            for k in rng.choice(len(slots), 20, replace=False)
        ]
        matches, _, _ = self.check(slots, centers, 75.0)
        assert len(matches) == 20
        self.check(slots * 2, centers * 2, 75.0)
        # uniform points with every pair in the gate: the port's worst case
        for n, m in [(20, 50), (50, 20), (50, 50)]:
            predicted = [tuple(p) for p in rng.uniform(0, 100, (n, 2)).tolist()]
            centers = [tuple(p) for p in rng.uniform(0, 100, (m, 2)).tolist()]
            matches, _, _ = self.check(predicted, centers, 200.0)
            assert len(matches) == min(n, m)
        assert solver_calls == {"assign": [], "closed": [], "port": [(100, 40), (20, 50), (50, 20), (50, 50)]}

    def test_co_located_tracks_and_detections(self):
        point = (640.0, 360.0)
        for n in range(4):
            for m in range(4):
                self.check([point] * n, [point] * m, 75.0)

    def test_distance_equal_to_gate(self):
        assert self.check([(0.0, 0.0)], [(3.0, 4.0)], 5.0)[0] == [(0, 0)]
        assert self.check([(0.0, 0.0)], [(3.0, 4.0)], np.nextafter(5.0, 0.0))[0] == []
        self.check([(0.0, 0.0), (6.0, 8.0)], [(3.0, 4.0)], 5.0)
        self.check([(0.0, 0.0), (100.0, 0.0)], [(3.0, 4.0), (100.0, 5.0)], 5.0)

    def test_empty_lists(self):
        assert self.check([], [], 75.0) == ([], [], [])
        assert self.check([(1.0, 2.0)], [], 75.0) == ([], [0], [])
        assert self.check([], [(1.0, 2.0), (3.0, 4.0)], 75.0) == ([], [], [0, 1])

    def test_empty_side_calls_no_solver(self, solver_calls):
        # the early return must give assign's triple, even for points whose
        # distances would not be finite
        points = [(1.0, 2.0), (np.nan, 0.0), (np.inf, 1e200)]
        for n in range(4):
            assert self.check(points[:n], [], 75.0) == ([], list(range(n)), [])
            assert self.check([], points[:n], 75.0) == ([], [], list(range(n)))
        assert solver_calls == {"assign": [], "closed": [], "port": []}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("gate", [75.0, 600.0])
    def test_non_finite_distance_rejected(self, bad, gate):
        # a NaN or overflowed distance is out of gate: the frame is decided
        # as assign decides it with that point moved far away, where assign
        # itself rejects the frame
        def cases(x):
            return [
                ([(x, 0.0)], [(0.0, 0.0)]),
                ([(0.0, 0.0)], [(0.0, x)]),
                # in conflict at the 600 px gate
                ([(0.0, 0.0), (500.0, 0.0)], [(500.0, 0.0), (x, x)]),
                ([(0.0, 0.0), (0.0, 0.0)], [(0.0, 0.0), (0.0, x)]),
                # a conflict comes first: the full solve meets the distance
                ([(0.0, 0.0), (0.0, 0.0), (x, 0.0)], [(0.0, 0.0)]),
            ]

        for (predicted, centers), far in zip(cases(bad), cases(1e6)):
            assert association_outcome(scipy_association, predicted, centers, gate) == (
                "ValidationError",
                "costs must be finite and non-negative",
            )
            assert association_outcome(tracker_association, predicted, centers, gate) == \
                association_outcome(scipy_association, *far, gate)


def det(cx, cy, cls="vehicle", frame_index=0):
    confs = tuple(0.9 if c == cls else 0.05 for c in CLASSES)
    return Detection(
        frame_index=frame_index,
        cx=float(cx),
        cy=float(cy),
        width=30.0,
        height=20.0,
        objectness=0.95,
        class_confidences=confs,
        combined_score=0.95 * 0.9,
        best_class=cls,
    )


def frame(k, centers, camera="front", fps=30.0, classes=None):
    classes = classes or ["vehicle"] * len(centers)
    return FrameDetections(
        frame_index=k,
        timestamp=round(k * 1000.0 / fps) / 1000.0,
        camera=camera,
        detections=[det(cx, cy, cls, k) for (cx, cy), cls in zip(centers, classes)],
    )


class TestMajority:
    """``majority`` keeps the rule of the Counter and recency dict it replaced."""

    @staticmethod
    def counted(values):
        # the old rule: the highest count, a tie to the latest last sighting
        counts, recency = Counter(), {}
        for i, value in enumerate(values):
            counts[value] += 1
            recency[value] = i
        return max(counts, key=lambda key: (counts[key], recency[key]))

    def test_every_short_sequence_of_classes(self):
        sequences = [list(seq) for n in range(1, 5) for seq in product(CLASSES, repeat=n)]
        assert len(sequences) == 120
        for values in sequences:
            assert majority(values) == self.counted(values), values

    def test_tie_with_an_unlabelled_hit(self):
        # majority takes any values; None among them is counted like the rest
        cases = [([7, None], None), ([None, 7], 7), ([None, 7, 7, None], None), ([7, None, None, 7], 7)]
        for values, expected in cases:
            assert majority(values) == expected == self.counted(values), values


class TestTrackerLifecycle:
    def test_empty_frame_empty_tracker(self):
        tracker = VehicleTracker("front")
        assert tracker.step(frame(0, [])) == []
        assert tracker.tracks == []

    def test_confirmation_emits_exactly_once(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2))
        events = tracker.step(frame(0, [(100, 100)]))
        assert events == []
        assert tracker.tracks[0].confirmed_at is None
        events = tracker.step(frame(1, [(100, 100)]))
        assert [e.kind for e in events] == [NEW_VEHICLE]
        assert events[0].track_id == 1
        assert events[0].camera == "front"
        assert tracker.tracks[0].confirmed_at == events[0].timestamp
        for k in range(2, 6):
            assert tracker.step(frame(k, [(100, 100)])) == []

    @pytest.mark.parametrize("field, value, message", [
        *(pytest.param(field, value, f"{field} must be an int, got {value!r}", id=f"{value}-{field}")
          for value in (2.5, 2.0, True, "2") for field in ("confirm_hits", "max_misses")),
        pytest.param("gate_distance", True, "gate_distance must be > 0 and finite, got True",
                     id="True-gate_distance"),
    ])
    def test_hit_and_miss_counts_are_ints(self, field, value, message):
        # confirm_hits=2.5 once confirmed a track at its third hit, and True at its first;
        # gate_distance=True once gated at 1 px
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TrackerConfig(**{field: value})

    def test_confirm_hits_one_fires_at_spawn(self):
        tracker = VehicleTracker("rear", TrackerConfig(confirm_hits=1))
        events = tracker.step(frame(0, [(10, 10)], camera="rear"))
        assert [e.kind for e in events] == [NEW_VEHICLE]

    def test_tentative_dies_on_first_miss_silently(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=3))
        tracker.step(frame(0, [(100, 100)]))
        events = tracker.step(frame(1, []))
        assert events == []
        assert tracker.tracks == []
        assert tracker.archive[1].confirmed_at is None
        assert 1 - tracker.archive[1].ticks[-1] == 1

    def test_active_track_survives_then_terminates(self):
        config = TrackerConfig(confirm_hits=2, max_misses=3)
        tracker = VehicleTracker("front", config)
        tracker.step(frame(0, [(100, 100)]))
        tracker.step(frame(1, [(100, 100)]))
        assert tracker.step(frame(2, [])) == []
        assert tracker.step(frame(3, [])) == []
        assert [t.track_id for t in tracker.tracks] == [1]
        # the third miss deletes the track silently
        assert tracker.step(frame(4, [])) == []
        assert tracker.tracks == []
        assert 4 - tracker.archive[1].ticks[-1] == 3

    def test_miss_then_reacquire_resets_counters(self):
        config = TrackerConfig(confirm_hits=2, max_misses=3)
        tracker = VehicleTracker("front", config)
        tracker.step(frame(0, [(100, 100)]))
        tracker.step(frame(1, [(100, 100)]))
        tracker.step(frame(2, []))
        track = tracker.tracks[0]
        assert 2 - track.ticks[-1] == 1 and list(track.ticks) == [0, 1]
        tracker.step(frame(3, [(100, 100)]))
        assert tracker.tracks == [track]
        assert 3 - track.ticks[-1] == 0 and list(track.ticks) == [0, 1, 3]

    def test_skipped_index_is_a_miss(self):
        # a log need not hold its empty frames: a confirmed track survives a
        # one-frame gap, and a tentative one dies across it
        lines = [
            f'{{"camera":"front","frame":{k},"t":{k / 30:.3f},"dets":[{{"cx":{cx},"cy":100.0,"w":40.0,"h":30.0,'
            f'"cls":"vehicle","obj":0.95,"conf":[0.05,0.9,0.05]}}]}}'
            for k, cx in [(0, 100.0), (1, 100.0), (3, 100.0), (10, 600.0), (12, 600.0), (13, 600.0)]
        ]
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=3))
        events = [e for f in parse_detection_log(lines) for e in tracker.step(f)]
        assert [(e.track_id, e.timestamp) for e in events] == [(1, 0.033), (3, 0.433)]
        assert {i: list(t.ticks) for i, t in tracker.archive.items()} == {1: [0, 1, 3], 2: [10], 3: [12, 13]}
        assert tracker.tracks == [tracker.archive[3]]

    def test_hits_misses_never_both_positive(self):
        rng = np.random.default_rng(59)
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=3))
        for k in range(200):
            centers = [(100 + rng.uniform(-3, 3), 100 + rng.uniform(-3, 3))] if rng.uniform() < 0.7 else []
            tracker.step(frame(k, centers))
            for track in tracker.tracks:
                # a live track has missed fewer frames than its limit, and a
                # live tentative track has hit every frame since its first
                assert k - track.ticks[-1] < (1 if track.confirmed_at is None else 3)
                if track.confirmed_at is None:
                    assert list(track.ticks) == list(range(k + 1 - len(track.ticks), k + 1))

    def test_two_lanes_no_identity_switch(self):
        rng = np.random.default_rng(61)
        config = TrackerConfig(gate_distance=50.0, confirm_hits=2, max_misses=3)
        tracker = VehicleTracker("front", config)
        lane_y = (100.0, 300.0)
        for k in range(30):
            centers = [
                (50.0 + 10.0 * k + rng.normal(0, 2), lane_y[0] + rng.normal(0, 2)),
                (50.0 + 10.0 * k + rng.normal(0, 2), lane_y[1] + rng.normal(0, 2)),
            ]
            tracker.step(frame(k, centers))
        assert len(tracker.tracks) == 2
        for track in tracker.tracks:
            lane = min(lane_y, key=lambda y: abs(track.history[0][1][1] - y))
            assert len(track.history) == 30
            for _, (cx, cy) in track.history:
                assert abs(cy - lane) < 50.0

    def test_history_frame_indices_strictly_increase(self):
        rng = np.random.default_rng(67)
        tracker = VehicleTracker("front")
        for k in range(100):
            centers = [(200 + rng.normal(0, 2), 200 + rng.normal(0, 2))] if rng.uniform() < 0.8 else []
            tracker.step(frame(k, centers))
        for track in list(tracker.tracks) + list(tracker.archive.values()):
            indices = [fi for fi, _ in track.history]
            assert indices == sorted(set(indices))

    def test_majority_class_ties_prefer_recent(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=4))
        tracker.step(frame(0, [(100, 100)], classes=["truck"]))
        tracker.step(frame(1, [(100, 100)], classes=["vehicle"]))
        track = tracker.tracks[0]
        assert track.classes == ["truck", "vehicle"]
        assert majority(track.classes) == "vehicle"
        tracker.step(frame(2, [(100, 100)], classes=["truck"]))
        assert track.classes == ["truck", "vehicle", "truck"]
        assert majority(track.classes) == "truck"

    def test_new_vehicle_event_class_is_majority(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=3))
        tracker.step(frame(0, [(100, 100)], classes=["truck"]))
        tracker.step(frame(1, [(100, 100)], classes=["truck"]))
        events = tracker.step(frame(2, [(100, 100)], classes=["vehicle"]))
        assert events[0].kind == NEW_VEHICLE
        assert events[0].object_class == "truck"

    def test_stream_order_enforced(self):
        tracker = VehicleTracker("front")
        tracker.step(frame(1, []))
        with pytest.raises(StreamOrderError):
            tracker.step(frame(1, []))

    def test_wrong_camera_rejected(self):
        tracker = VehicleTracker("front")
        with pytest.raises(ValidationError):
            tracker.step(frame(0, [], camera="rear"))

    def test_deterministic_event_stream(self):
        def run():
            rng = np.random.default_rng(71)
            tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=2))
            events = []
            for k in range(300):
                centers = []
                if rng.uniform() < 0.6:
                    centers.append((300 + rng.normal(0, 2), 150 + rng.normal(0, 2)))
                if rng.uniform() < 0.3:
                    centers.append((700 + rng.normal(0, 2), 500 + rng.normal(0, 2)))
                events.extend(tracker.step(frame(k, centers)))
            return events

        first, second = run(), run()
        assert first == second
        assert first  # the stream actually produced events

    def test_step_emits_only_new_vehicle_events(self):
        # two lanes with dropouts and clutter: confirmed tracks die at
        # their third miss in a row, tentative ones at their first, and
        # neither death is an event
        rng = np.random.default_rng(89)
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=3))
        kinds, confirmed_deaths = Counter(), 0
        for k in range(600):
            centers = [(x + rng.normal(0, 2), y + rng.normal(0, 2))
                       for x, y in [(300.0, 150.0), (700.0, 500.0)] if rng.uniform() < 0.5]
            if rng.uniform() < 0.2:
                centers.append((rng.uniform(0, 1280), rng.uniform(0, 720)))
            confirmed = {t.track_id for t in tracker.tracks if t.confirmed_at is not None}
            kinds.update(e.kind for e in tracker.step(frame(k, centers)))
            confirmed_deaths += len(confirmed - {t.track_id for t in tracker.tracks})
        live = {t.track_id for t in tracker.tracks}
        tentative_deaths = sum(t.confirmed_at is None and t.track_id not in live for t in tracker.archive.values())
        assert kinds.keys() == {NEW_VEHICLE}
        assert kinds[NEW_VEHICLE] > 20 and confirmed_deaths > 20 and tentative_deaths > 20, (
            kinds, confirmed_deaths, tentative_deaths)

    def test_class_votes_stop_at_confirmation(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2))
        classes = ["truck", "vehicle", "vehicle", "vehicle", "pedestrian"]
        for k, cls in enumerate(classes):
            events = tracker.step(frame(k, [(100.0, 100.0)], classes=[cls]))
            if k == 1:
                # a 1-1 tie goes to the confirming hit
                assert [(e.kind, e.object_class) for e in events] == [(NEW_VEHICLE, "vehicle")]
        (track,) = tracker.tracks
        assert len(track.ticks) == len(classes)
        assert track.classes == ["truck", "vehicle"]
        assert majority(track.classes) == "vehicle"

    def test_new_vehicle_fires_at_most_once_per_track(self):
        rng = np.random.default_rng(73)
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=2))
        seen = set()
        for k in range(500):
            centers = [(rng.uniform(0, 1280), rng.uniform(0, 720))] if rng.uniform() < 0.5 else []
            for event in tracker.step(frame(k, centers)):
                if event.kind == NEW_VEHICLE:
                    assert event.track_id not in seen
                    seen.add(event.track_id)


class TestHitStorage:
    """A track keeps each hit in typed arrays and rebuilds its history on read."""

    def test_history_round_trips_bit_for_bit(self):
        hits = [
            (0, (-0.0, 0.0)),
            (1, (5e-324, -5e-324)),
            (7, (1.7976931348623157e308, -1.7976931348623157e308)),
            (2**62, (640.0, -0.0)),
            (2**63 - 1, (0.1, 1.0 - 2**-53)),
        ]
        track = Track(track_id=1, x=0.0, y=0.0, p_pos=MEASUREMENT_NOISE, p_vel=INITIAL_VELOCITY_VARIANCE)
        # written as the step writes a hit
        for k, (cx, cy) in hits:
            track.ticks.append(k)
            track.centers.append(cx)
            track.centers.append(cy)
        history = track.history
        assert [(type(k), type(cx), type(cy)) for k, (cx, cy) in history] == [(int, float, float)] * len(hits)
        assert [(k, (cx.hex(), cy.hex())) for k, (cx, cy) in history] == [
            (k, (cx.hex(), cy.hex())) for k, (cx, cy) in hits
        ]
        with pytest.raises(AttributeError):
            track.history = []

    def test_step_records_each_hit_and_its_class(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=9))
        classes = ["truck", "vehicle", "vehicle", "truck", "vehicle"]
        for k, cls in enumerate(classes):
            tracker.step(frame(k, [(100.0 + k, 100.0)], classes=[cls]))
        (track,) = tracker.tracks
        assert track.history == [(k, (100.0 + k, 100.0)) for k in range(len(classes))]
        assert track.classes == classes

    def test_archive_keeps_at_most_32_bytes_a_hit(self):
        # 8 bytes of frame index and 16 of center; a list of
        # (frame index, (cx, cy)) tuples of fresh floats kept about 200 bytes
        # per hit. A full collection empties the interpreter's free lists,
        # which would otherwise count as kept.
        n = 20_000
        tracker = VehicleTracker("front")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(n):
                tracker.step(frame(k, [(640.0 + (k % 7) * 0.1, 360.0 - (k % 5) * 0.1)]))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [len(t.history) for t in tracker.archive.values()] == [n]
        assert kept / n <= 32, f"{kept / n:.1f} bytes a hit"

    @pytest.mark.parametrize("bad, timestamp, error, message", [
        *((bad, 1.0, ValidationError, "frame index must be an int") for bad in (2**63, 2**64, -1, 2.0)),
        # not after the last index, at a later time
        (1, 1.0, StreamOrderError, "frame 1 at 1.000 not after frame 1 at 0.033"),
        # a NaN time once gave the confirmed track NaN state, so its vehicle
        # confirmed a second track, and let the next frame skip the order check
        *((2, t, ValidationError, f"timestamp must be finite, got {t}") for t in (math.nan, math.inf, -math.inf)),
    ], ids=[str(2**63), str(2**64), "-1", "2.0", "1", "nan", "inf", "-inf"])
    def test_bad_frame_index_rejected_before_any_change(self, bad, timestamp, error, message):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2))
        tracker.step(frame(0, [(100, 100)]))
        assert len(tracker.step(frame(1, [(100, 100)]))) == 1

        def state():
            return tracker._last_timestamp, tracker._last_index, tracker._next_id, [
                (t.track_id, t.confirmed_at, t.x, t.vx, t.p_pos, t.history, list(t.classes))
                for t in tracker.tracks
            ]

        before = state()
        bad_frame = frame(bad, [(100, 100), (600, 600)])
        bad_frame.timestamp = timestamp
        with pytest.raises(error, match=message):
            tracker.step(bad_frame)
        assert state() == before
        late = frame(2, [(100, 100)])
        late.timestamp = 0.02
        with pytest.raises(StreamOrderError, match="frame 2 at 0.020 not after frame 1 at 0.033"):
            tracker.step(late)
        assert tracker.step(frame(2, [(100, 100)])) == []
        assert tracker.tracks[0].history[-1] == (2, (100.0, 100.0))


def random_track(rng, scale=100.0):
    """A Track with a random mean and a random PSD per-axis covariance block."""
    x, y, vx, vy = rng.normal(0, scale, 4)
    a = rng.normal(size=(2, 2))
    block = a @ a.T + 1e-3 * np.eye(2)
    return Track(
        track_id=1, x=x, y=y, vx=vx, vy=vy,
        p_pos=block[0, 0], p_cross=block[0, 1], p_vel=block[1, 1],
    )


def track_state(track):
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[1, 1] = track.p_pos
    cov[0, 2] = cov[2, 0] = cov[1, 3] = cov[3, 1] = track.p_cross
    cov[2, 2] = cov[3, 3] = track.p_vel
    return make_state([track.x, track.y, track.vx, track.vy], cov)


def stepped_once(track, dt, center, gate=75.0):
    """The tracker that holds ``track``, confirmed and hit at frame 0 and t = 0, alone, after a
    step to frame 1 at ``dt`` with one detection at ``center``."""
    tracker = VehicleTracker("front", TrackerConfig(gate_distance=gate))
    track.confirmed_at = 0.0
    track.ticks.append(0)
    track.centers.extend((track.x, track.y))
    tracker.tracks = [track]
    tracker._last_timestamp = 0.0
    tracker._last_index = 0
    tracker.step(FrameDetections(frame_index=1, timestamp=dt, camera="front", detections=[det(*center)]))
    return tracker


class TestFusedStep:
    """``VehicleTracker.step`` runs the filter inline on each track's scalars
    (it replaced ``Track.predict``/``Track.update``, and before them a
    batched numpy filter); one step must agree with the reference ops."""

    def test_step_without_a_match_predicts(self):
        rng = np.random.default_rng(79)
        tracks = [random_track(rng) for _ in range(40)]
        dt, q = 1.0 / 30.0, PROCESS_NOISE
        for track in tracks:
            expected = predict(track_state(track), dt, q)
            # a detection far outside the gate: the track only predicts
            tracker = stepped_once(track, dt, (track.x + 1e6, track.y))
            got = track_state(track)
            # one miss: no hit at frame 1, and still live
            assert list(track.ticks) == [0] and tracker.tracks[0] is track
            np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.covariance, expected.covariance, rtol=1e-12, atol=1e-12)

    def test_step_with_a_match_predicts_then_updates(self):
        rng = np.random.default_rng(83)
        tracks = [random_track(rng) for _ in range(40)]
        dt, q, r = 1.0 / 30.0, PROCESS_NOISE, MEASUREMENT_NOISE
        for track in tracks:
            predicted = predict(track_state(track), dt, q)
            obs = predicted.mean[:2] + rng.normal(0, 5, 2)
            expected = update(predicted, obs, r)
            tracker = stepped_once(track, dt, tuple(obs), gate=1e9)
            got = track_state(track)
            assert tracker.tracks[0] is track and list(track.ticks) == [0, 1]
            assert track.history[-1] == (1, (obs[0], obs[1]))
            np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.covariance, expected.covariance, rtol=1e-12, atol=1e-12)


class TestScalarFilter:
    """The tracker's per-axis scalar filter must agree with the reference ops."""

    def test_live_tracks_match_predict_update(self):
        cfg = TrackerConfig(confirm_hits=2, max_misses=3)
        q, r, v0 = PROCESS_NOISE, MEASUREMENT_NOISE, INITIAL_VELOCITY_VARIANCE
        rng = np.random.default_rng(79)
        tracker = VehicleTracker("front", cfg)
        # two vehicles with dropouts (misses) and a clutter point (short tracks)
        starts = [np.array([100.0, 200.0]), np.array([900.0, 500.0])]
        velocities = [np.array([150.0, 20.0]), np.array([-120.0, -10.0])]
        reference: dict[int, KalmanState] = {}
        t, last_t = 0.0, None
        saw_miss = False
        for k in range(300):
            t = round(t + rng.choice([1 / 30, 1 / 15, 0.1, 0.0417]), 3)  # irregular dt
            centers = [
                tuple(s + v * t + rng.normal(0, 1.5, 2))
                for s, v in zip(starts, velocities)
                if rng.uniform() > 0.15
            ]
            if rng.uniform() < 0.1:
                centers.append((rng.uniform(0, 1280), rng.uniform(0, 720)))
            tracker.step(
                FrameDetections(
                    frame_index=k,
                    timestamp=t,
                    camera="front",
                    detections=[det(cx, cy, frame_index=k) for cx, cy in centers],
                )
            )
            for track in tracker.tracks:
                saw_miss = saw_miss or k - track.ticks[-1] > 0
                frame_index, (zx, zy) = track.history[-1]
                if track.track_id not in reference:
                    reference[track.track_id] = make_state(
                        [zx, zy, 0.0, 0.0], np.diag([r, r, v0, v0])
                    )
                else:
                    state = predict(reference[track.track_id], t - last_t, q)
                    if frame_index == k:
                        state = update(state, (zx, zy), r)
                    reference[track.track_id] = state
                expected = reference[track.track_id]
                got = track_state(track)
                np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    got.covariance, expected.covariance, rtol=1e-12, atol=1e-12
                )
            last_t = t
        assert saw_miss
        assert len(tracker.archive) > 2

