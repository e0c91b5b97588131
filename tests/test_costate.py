import numpy as np
import pytest

from helpers import K2, random_connected_graph
from waveplan.costate import (
    TerminalCostate,
    adjoint_check,
    channel_profile,
    eval_h,
    integrate_h,
    terminal_costate,
)
from waveplan.errors import ContractError
from waveplan.graph import build_laplacian, spectral_decompose
from waveplan.problem import Objective

SEVEN_P = np.array([0.03, 0.02, 0.10, 1.00, 0.06, 0.07, 0.01])


class TestTerminalCostate:
    def test_linear_is_p_exactly(self):
        obj = Objective(kind="linear", p=SEVEN_P)
        lam = terminal_costate(obj)
        assert np.array_equal(lam.lam, SEVEN_P)

    def test_sigmoid_at_threshold(self):
        # z = 1 at the threshold, so lam = p * alpha / 4.
        obj = Objective(
            kind="sigmoid",
            p=np.array([0.2, 0.8]),
            alpha=np.array([2.0, 4.0]),
            theta=np.array([1.0, -1.0]),
        )
        lam = terminal_costate(obj, xT=obj.theta)
        assert np.allclose(lam.lam, obj.p * obj.alpha / 4.0, atol=1e-15)

    def test_sigmoid_saturation(self):
        obj = Objective(
            kind="sigmoid",
            p=np.array([1.0]),
            alpha=np.array([2.0]),
            theta=np.array([0.0]),
        )
        lam = terminal_costate(obj, xT=np.array([50.0 / 2.0]))
        assert lam.lam[0] < 1e-20

    def test_sigmoid_requires_xT(self):
        obj = Objective(
            kind="sigmoid", p=np.array([1.0]), alpha=np.array([1.0]), theta=np.array([0.0])
        )
        with pytest.raises(ContractError, match="terminal state"):
            terminal_costate(obj)


class TestChannelProfile:
    def test_k2_worked_coefficients(self):
        sd = spectral_decompose(build_laplacian(K2))
        lam = TerminalCostate(lam=np.array([0.0, 1.0]))
        prof = channel_profile(sd, lam, np.array([1.0, 0.0]), horizon=1.0)
        assert prof.rates == (0.0, 2.0)
        assert prof.coeffs[0] == pytest.approx(0.5, abs=1e-14)
        assert prof.coeffs[1] == pytest.approx(-0.5, abs=1e-14)

    def test_uniform_costate_keeps_only_constant_mode(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 6)
        sd = spectral_decompose(build_laplacian(g))
        lam = TerminalCostate(lam=np.full(6, 0.7))
        b = rng.uniform(-1, 1, 6)
        prof = channel_profile(sd, lam, b, horizon=1.0)
        assert prof.rates == (0.0,)
        assert prof.dropped == len(sd.groups) - 1
        assert prof.coeffs[0] == pytest.approx(0.7 * np.sum(b), abs=1e-12)

    def test_orthogonal_gain_drops_group(self):
        sd = spectral_decompose(build_laplacian(K2))
        lam = TerminalCostate(lam=np.array([0.3, 0.9]))
        prof = channel_profile(sd, lam, np.array([1.0, 1.0]), horizon=1.0)
        assert prof.rates == (0.0,)

    def test_constant_coefficient_matches_reach_product(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 8)
        sd = spectral_decompose(build_laplacian(g))
        lam_vec = rng.uniform(0, 1, 8)
        b = rng.uniform(-1, 1, 8)
        prof = channel_profile(sd, TerminalCostate(lam=lam_vec), b, horizon=1.0)
        expected = np.sum(lam_vec) * np.sum(b) / 8.0
        assert prof.rates[0] == 0.0
        assert prof.coeffs[0] == pytest.approx(expected, abs=1e-10)


class TestEvalH:
    def _k2_profile(self, T=1.0):
        sd = spectral_decompose(build_laplacian(K2))
        lam = TerminalCostate(lam=np.array([0.0, 1.0]))
        return channel_profile(sd, lam, np.array([1.0, 0.0]), horizon=T)

    def test_terminal_anchor(self):
        prof = self._k2_profile()
        assert eval_h(prof, 1.0) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 7)
        sd = spectral_decompose(build_laplacian(g))
        lam_vec = rng.uniform(0, 1, 7)
        b = rng.uniform(-1, 1, 7)
        prof2 = channel_profile(sd, TerminalCostate(lam=lam_vec), b, horizon=2.0)
        assert eval_h(prof2, 2.0) == pytest.approx(float(lam_vec @ b), abs=1e-12)

    def test_k2_at_zero(self):
        # h(0) = 1/2 - (1/2) e^{-2}, evaluated by hand.
        prof = self._k2_profile()
        assert eval_h(prof, 0.0) == pytest.approx(0.43233235838169365, abs=1e-12)

    def test_early_limit_is_total_reach_term(self):
        prof = self._k2_profile(T=40.0)
        assert eval_h(prof, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        prof = self._k2_profile()
        ts = np.linspace(0, 1, 17)
        vec = eval_h(prof, ts)
        assert vec.shape == (17,)
        for i, t in enumerate(ts):
            assert vec[i] == pytest.approx(eval_h(prof, float(t)), abs=0.0)

    def test_uniform_linear_weights_give_flat_h(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 6)
        sd = spectral_decompose(build_laplacian(g))
        prof = channel_profile(
            sd, TerminalCostate(lam=np.full(6, 0.25)), rng.uniform(-1, 1, 6), horizon=1.0
        )
        ts = np.linspace(0, 1.0, 64)
        vals = eval_h(prof, ts)
        assert np.max(np.abs(vals - vals[0])) <= 1e-12

    def test_positivity_propagation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(rng, n)
            sd = spectral_decompose(build_laplacian(g))
            lam_vec = rng.uniform(0, 1, n)
            b = rng.uniform(0, 1, n)
            prof = channel_profile(sd, TerminalCostate(lam=lam_vec), b, horizon=1.0)
            vals = eval_h(prof, np.linspace(0, 1, 128))
            assert np.min(vals) >= -1e-10


class TestIntegrateH:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 5)
        sd = spectral_decompose(build_laplacian(g))
        prof = channel_profile(
            sd, TerminalCostate(lam=rng.uniform(0, 1, 5)), rng.uniform(-1, 1, 5), horizon=1.0
        )
        ts = np.linspace(0.2, 0.9, 20001)
        trapz = np.trapezoid(eval_h(prof, ts), ts)
        assert integrate_h(prof, 0.2, 0.9) == pytest.approx(trapz, abs=1e-9)

    def test_cell_array_equals_scalar_loop(self):
        # The oracle's cell gains: one array call against one scalar call per cell.
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            sd = spectral_decompose(build_laplacian(random_connected_graph(rng, n)))
            lam = TerminalCostate(lam=rng.uniform(0.05, 1.0, n))
            T = float(rng.choice([0.3, 1.0, 2.9, 10.0]))
            prof = channel_profile(sd, lam, rng.uniform(-1.0, 1.0, n), horizon=T)
            for g in range(2, 17):
                edges = np.linspace(0.0, T, g + 1)
                loop = np.array([integrate_h(prof, edges[c], edges[c + 1]) for c in range(g)])
                assert np.array_equal(integrate_h(prof, edges[:-1], edges[1:]), loop)


class TestAdjointCheck:
    def test_k2_matrix_exponential_by_hand(self):
        # exp(-L s) on K2 averages the two components with weight (1 -/+ e^{-2s})/2.
        lap = build_laplacian(K2)
        lamT = TerminalCostate(lam=np.array([1.0, 0.0]))
        grid = np.linspace(0.0, 1.0, 513)
        traj = adjoint_check(lap, lamT, grid)
        s = 1.0 - grid
        expected = np.stack([(1 + np.exp(-2 * s)) / 2, (1 - np.exp(-2 * s)) / 2], axis=1)
        assert np.max(np.abs(traj - expected)) <= 1e-10

    def test_uniform_costate_constant(self):
        lap = build_laplacian(K2)
        traj = adjoint_check(lap, TerminalCostate(lam=np.array([0.4, 0.4])), np.linspace(0, 1, 65))
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
            traj = adjoint_check(lap, TerminalCostate(lam=lam_vec), grid)
            prof = channel_profile(sd, TerminalCostate(lam=lam_vec), b, horizon=1.0)
            assert np.max(np.abs(traj @ b - eval_h(prof, grid))) <= 1e-8


class TestEmptyProfile:
    def test_eval_and_integrate_are_zero(self):
        from waveplan.costate import ChannelProfile

        prof = ChannelProfile(horizon=1.0, rates=(), coeffs=())
        assert eval_h(prof, 0.5) == 0.0
        assert np.array_equal(eval_h(prof, np.linspace(0, 1, 5)), np.zeros(5))
        assert integrate_h(prof, 0.0, 1.0) == 0.0
        assert np.array_equal(integrate_h(prof, np.zeros(3), np.ones(3)), np.zeros(3))
