import numpy as np
import pytest

from helpers import K2, random_connected_graph
from oracles import adjoint_check, h_at
from waveplan.costate import integrate_h, projected_coefficients, terminal_costate
from waveplan.errors import ContractError
from waveplan.graph import WeightedGraph, build_laplacian, project, spectral_decompose
from waveplan.problem import Objective

SEVEN_P = np.array([0.03, 0.02, 0.10, 1.00, 0.06, 0.07, 0.01])


class TestTerminalCostate:
    def test_linear_is_p_exactly(self):
        obj = Objective(kind="linear", p=SEVEN_P)
        lam = terminal_costate(obj)
        assert np.array_equal(lam, SEVEN_P)

    def test_sigmoid_at_threshold(self):
        # z = 1 at the threshold, so lam = p * alpha / 4.
        obj = Objective(
            kind="sigmoid",
            p=np.array([0.2, 0.8]),
            alpha=np.array([2.0, 4.0]),
            theta=np.array([1.0, -1.0]),
        )
        lam = terminal_costate(obj, xT=obj.theta)
        assert np.allclose(lam, obj.p * obj.alpha / 4.0, atol=1e-15)

    def test_sigmoid_saturation(self):
        obj = Objective(
            kind="sigmoid",
            p=np.array([1.0]),
            alpha=np.array([2.0]),
            theta=np.array([0.0]),
        )
        lam = terminal_costate(obj, xT=np.array([50.0 / 2.0]))
        assert lam[0] < 1e-20

    def test_returns_read_only_arrays(self):
        linear = Objective(kind="linear", p=SEVEN_P)
        sigmoid = Objective(
            kind="sigmoid", p=np.array([0.2, 0.8]), alpha=np.array([2.0, 4.0]), theta=np.array([1.0, -1.0])
        )
        for lam in (terminal_costate(linear), terminal_costate(sigmoid, xT=np.zeros(2))):
            assert type(lam) is np.ndarray and lam.dtype == np.float64
            assert not lam.flags.writeable

    def test_sigmoid_requires_xT(self):
        obj = Objective(
            kind="sigmoid", p=np.array([1.0]), alpha=np.array([1.0]), theta=np.array([0.0])
        )
        with pytest.raises(ContractError, match="terminal state"):
            terminal_costate(obj)


def _row(sd, lam, b):
    """One channel's profile: its row of group coefficients, zeros included."""
    return projected_coefficients(sd, np.asarray(lam, dtype=np.float64), project(sd, np.asarray(b)[None, :]))[0]


class TestProfileRow:
    def test_k2_worked_coefficients(self):
        sd = spectral_decompose(build_laplacian(K2))
        lam = np.array([0.0, 1.0])
        row = _row(sd, lam, np.array([1.0, 0.0]))
        assert sd.group_rates.tolist() == [0.0, 2.0]
        assert row[0] == pytest.approx(0.5, abs=1e-14)
        assert row[1] == pytest.approx(-0.5, abs=1e-14)

    def test_uniform_costate_keeps_only_constant_mode(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 6)
        sd = spectral_decompose(build_laplacian(g))
        lam = np.full(6, 0.7)
        b = rng.uniform(-1, 1, 6)
        row = _row(sd, lam, b)
        assert sd.group_rates[row != 0.0].tolist() == [0.0]
        assert np.count_nonzero(row == 0.0) == sd.group_starts.size - 1
        assert row[0] == pytest.approx(0.7 * np.sum(b), abs=1e-12)

    def test_orthogonal_gain_drops_group(self):
        sd = spectral_decompose(build_laplacian(K2))
        lam = np.array([0.3, 0.9])
        row = _row(sd, lam, np.array([1.0, 1.0]))
        assert sd.group_rates[row != 0.0].tolist() == [0.0]

    def test_coefficients_below_tolerance_are_zero(self):
        rng = np.random.default_rng(3)
        sd = spectral_decompose(build_laplacian(random_connected_graph(rng, 6)))
        for lam in (np.full(6, 0.7), rng.uniform(0, 1, 6)):
            b = rng.uniform(-1, 1, 6)
            coeffs = _row(sd, lam, b)
            assert coeffs.shape == sd.group_rates.shape
            tol = 1e-10 * max(1.0, np.linalg.norm(lam) * np.linalg.norm(b))
            assert not np.any((0.0 < np.abs(coeffs)) & (np.abs(coeffs) <= tol))

    def test_constant_coefficient_matches_reach_product(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 8)
        sd = spectral_decompose(build_laplacian(g))
        lam_vec = rng.uniform(0, 1, 8)
        b = rng.uniform(-1, 1, 8)
        row = _row(sd, lam_vec, b)
        expected = np.sum(lam_vec) * np.sum(b) / 8.0
        assert sd.group_rates[0] == 0.0
        assert row[0] == pytest.approx(expected, abs=1e-10)


class TestEvalH:
    def _k2_h(self, T=1.0):
        """h of the worked K2 channel as a function of t."""
        sd = spectral_decompose(build_laplacian(K2))
        row = _row(sd, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        return lambda t: h_at(sd.group_rates, row, T, t)

    def test_terminal_anchor(self):
        h = self._k2_h()
        assert h(1.0) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 7)
        sd = spectral_decompose(build_laplacian(g))
        lam_vec = rng.uniform(0, 1, 7)
        b = rng.uniform(-1, 1, 7)
        row = _row(sd, lam_vec, b)
        assert h_at(sd.group_rates, row, 2.0, 2.0) == pytest.approx(float(lam_vec @ b), abs=1e-12)

    def test_k2_at_zero(self):
        # h(0) = 1/2 - (1/2) e^{-2}, evaluated by hand.
        assert self._k2_h()(0.0) == pytest.approx(0.43233235838169365, abs=1e-12)

    def test_early_limit_is_total_reach_term(self):
        assert self._k2_h(T=40.0)(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        h = self._k2_h()
        ts = np.linspace(0, 1, 17)
        vec = h(ts)
        assert vec.shape == (17,)
        for i, t in enumerate(ts):
            assert vec[i] == pytest.approx(h(float(t)), abs=0.0)

    def test_uniform_linear_weights_give_flat_h(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 6)
        sd = spectral_decompose(build_laplacian(g))
        row = _row(sd, np.full(6, 0.25), rng.uniform(-1, 1, 6))
        vals = h_at(sd.group_rates, row, 1.0, np.linspace(0, 1.0, 64))
        assert np.max(np.abs(vals - vals[0])) <= 1e-12

    def test_positivity_propagation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(rng, n)
            sd = spectral_decompose(build_laplacian(g))
            lam_vec = rng.uniform(0, 1, n)
            b = rng.uniform(0, 1, n)
            row = _row(sd, lam_vec, b)
            vals = h_at(sd.group_rates, row, 1.0, np.linspace(0, 1, 128))
            assert np.min(vals) >= -1e-10


class TestIntegrateH:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 5)
        sd = spectral_decompose(build_laplacian(g))
        row = _row(sd, rng.uniform(0, 1, 5), rng.uniform(-1, 1, 5))
        ts = np.linspace(0.2, 0.9, 20001)
        vals = h_at(sd.group_rates, row, 1.0, ts)
        trapz = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)))  # trapezoid rule
        assert integrate_h(sd.group_rates, row, 1.0, 0.2, 0.9) == pytest.approx(trapz, abs=1e-9)

    def test_cell_array_equals_scalar_loop(self):
        # The oracle's cell gains: one array call, for one channel's row or for
        # every channel's rows at once, against one scalar call per row and cell.
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            sd = spectral_decompose(build_laplacian(random_connected_graph(rng, n)))
            lam = rng.uniform(0.05, 1.0, n)
            T = float(rng.choice([0.3, 1.0, 2.9, 10.0]))
            rates = sd.group_rates
            coeffs = np.array([_row(sd, lam, rng.uniform(-1.0, 1.0, n)) for _ in range(int(rng.integers(1, 4)))])
            for g in range(2, 17):
                edges = np.linspace(0.0, T, g + 1)
                loop = [[integrate_h(rates, row, T, edges[c], edges[c + 1]) for c in range(g)] for row in coeffs]
                assert np.array_equal(integrate_h(rates, coeffs[0], T, edges[:-1], edges[1:]), loop[0])
                every = integrate_h(rates, coeffs[:, None, :], T, edges[:-1], edges[1:])
                assert every.shape == (coeffs.shape[0], g)
                for got, want in zip(every.ravel().tolist(), sum(loop, [])):
                    assert got.hex() == want.hex()

    def test_modes_added_left_to_right_from_zero(self):
        rng = np.random.default_rng(9)
        sd = spectral_decompose(build_laplacian(random_connected_graph(rng, 7)))
        row = _row(sd, rng.uniform(0, 1, 7), rng.uniform(-1, 1, 7))
        for a, b in np.sort(rng.uniform(0.0, 2.0, (50, 2)), axis=1):
            total = 0.0
            for rate, d in zip(sd.group_rates.tolist(), row.tolist()):
                # e^{-rate (T - b)} (-expm1(-rate (b - a)) / rate), or b - a on the zero rate.
                phi = b - a if rate == 0.0 else -np.expm1(-rate * (b - a)) / rate
                total += d * (np.exp(-rate * (2.0 - b)) * phi)
            assert integrate_h(sd.group_rates, row, 2.0, a, b) == total

    def test_zero_entries_leave_the_bits_unchanged(self):
        # On a path graph with palindromic weights, a palindromic gain vector
        # is orthogonal to every antisymmetric mode, so about half of every
        # row is zero. Integrating the whole row must give the bits of
        # integrating its nonzero entries, for scalar and array endpoints.
        rng = np.random.default_rng(17)
        zeros = 0
        for n in range(2, 24):
            half_w = rng.uniform(0.5, 1.5, n // 2)
            weights = np.concatenate((half_w, half_w[: (n - 1) // 2][::-1]))
            graph = WeightedGraph(n=n, edges=tuple((i + 1, i + 2, float(w)) for i, w in enumerate(weights)))
            sd = spectral_decompose(build_laplacian(graph))
            for _ in range(4):
                half = rng.uniform(-1.0, 1.0, (n + 1) // 2)
                b = np.concatenate((half, half[: n // 2][::-1]))
                row = _row(sd, rng.uniform(0.0, 1.0, n), b)
                keep = row != 0.0
                zeros += np.count_nonzero(~keep)
                T = float(rng.choice([0.3, 1.0, 2.9, 10.0]))
                ends = np.sort(rng.uniform(0.0, T, (2, 9)), axis=0)
                full = integrate_h(sd.group_rates, row, T, ends[0], ends[1])
                kept = integrate_h(sd.group_rates[keep], row[keep], T, ends[0], ends[1])
                assert np.array_equal(full, kept)
                for a, b in ends.T.tolist():
                    scalar = integrate_h(sd.group_rates, row, T, a, b)
                    assert np.array_equal(scalar, integrate_h(sd.group_rates[keep], row[keep], T, a, b))
        assert zeros >= 200


class TestAdjointCheck:
    def test_k2_matrix_exponential_by_hand(self):
        # exp(-L s) on K2 averages the two components with weight (1 -/+ e^{-2s})/2.
        lap = build_laplacian(K2)
        grid = np.linspace(0.0, 1.0, 513)
        traj = adjoint_check(lap, np.array([1.0, 0.0]), grid)
        s = 1.0 - grid
        expected = np.stack([(1 + np.exp(-2 * s)) / 2, (1 - np.exp(-2 * s)) / 2], axis=1)
        assert np.max(np.abs(traj - expected)) <= 1e-10

    def test_uniform_costate_constant(self):
        lap = build_laplacian(K2)
        traj = adjoint_check(lap, np.array([0.4, 0.4]), np.linspace(0, 1, 65))
        assert np.max(np.abs(traj - 0.4)) <= 1e-13

    def test_agrees_with_spectral_h(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            g = random_connected_graph(rng, n)
            lap = build_laplacian(g)
            sd = spectral_decompose(lap)
            lam_vec = rng.uniform(0, 1, n)
            b = rng.uniform(-1, 1, n)
            grid = np.linspace(0.0, 1.0, 1025)
            traj = adjoint_check(lap, lam_vec, grid)
            row = _row(sd, lam_vec, b)
            assert np.max(np.abs(traj @ b - h_at(sd.group_rates, row, 1.0, grid))) <= 1e-8


class TestEmptyProfile:
    def test_eval_and_integrate_are_zero(self):
        rates, row = np.array([]), np.array([])
        assert h_at(rates, row, 1.0, 0.5) == 0.0
        assert np.array_equal(h_at(rates, row, 1.0, np.linspace(0, 1, 5)), np.zeros(5))
        assert integrate_h(rates, row, 1.0, 0.0, 1.0) == 0.0
        assert np.array_equal(integrate_h(rates, row, 1.0, np.zeros(3), np.ones(3)), np.zeros(3))
