import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import K2, P3, random_connected_graph
from oracles import count_exp_poly_zeros
from waveplan.bounds import _sign_variations, _variation_bounds, linear_bounds, support_bound
from waveplan.costate import projected_coefficients
from waveplan.errors import ContractError
from waveplan.graph import build_laplacian, group_support, project, spectral_decompose


@pytest.fixture(scope="module")
def k2_sd():
    return spectral_decompose(build_laplacian(K2))


def _groups(sd, b):
    """The number of eigenvalue groups that gain vector b projects onto."""
    return np.count_nonzero(group_support(sd, project(sd, b[None, :])))


def _row(sd, p, b):
    """Gain vector b's row of group coefficients against costate p."""
    return projected_coefficients(sd, p, project(sd, b[None, :]))[0]


class TestBoundGeneral:
    def test_uniform_gain_gives_zero(self, k2_sd):
        assert support_bound(_groups(k2_sd, np.array([1.0, 1.0]))) == 0

    def test_single_agent_gain_gives_one(self, k2_sd):
        assert support_bound(_groups(k2_sd, np.array([1.0, 0.0]))) == 1

    def test_zero_vector_gives_zero(self, k2_sd):
        assert support_bound(_groups(k2_sd, np.zeros(2))) == 0

    def test_never_exceeds_n_minus_1(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            sd = spectral_decompose(build_laplacian(random_connected_graph(rng, n)))
            assert support_bound(_groups(sd, rng.uniform(-1, 1, n))) <= n - 1


class TestBoundLinear:
    def test_k2_shifted_worked_example(self, k2_sd):
        # Coefficients (1/2, -1/2); partial sums minus 0.316 are (+0.184, -0.316).
        # Any level strictly between 0 and 1/2 gives the same single variation.
        p = np.array([0.0, 1.0])
        b = np.array([1.0, 0.0])
        assert linear_bounds(_row(k2_sd, p, b), 0.316) == (1, 1)

    def test_k2_unshifted_is_zero(self, k2_sd):
        # Partial sums (1/2, 0): the trailing zero is skipped, no variation at
        # level 0; the sup is reached at the midpoint 1/4.
        assert linear_bounds(_row(k2_sd, np.array([0.0, 1.0]), np.array([1.0, 0.0])), 0.0) == (0, 1)

    def test_uniform_p_gives_zero(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 7)
        sd = spectral_decompose(build_laplacian(g))
        assert linear_bounds(_row(sd, np.ones(7), rng.uniform(-1, 1, 7)), 0.0)[0] == 0

    def test_sup_dominates_specific_shifts(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            sd = spectral_decompose(build_laplacian(random_connected_graph(rng, n)))
            p = rng.uniform(0, 1, n)
            b = rng.uniform(-1, 1, n)
            row = _row(sd, p, b)
            _, sup = linear_bounds(row, 0.0)
            for s in rng.uniform(0, 2, 8):
                at, sup_again = linear_bounds(row, float(s))
                assert at <= sup
                assert sup_again == sup  # the sup does not depend on the shift
            assert sup <= n - 1

    def test_counts_only_the_profile_modes(self):
        # On P3 (rates 0, 1, 3), b has a rate-1 coefficient of 3e-11: above
        # 1e-12 of scale, below 1e-10. The profile drops that mode, and so do
        # the bounds; counting it would raise the sup from 1 to 2.
        sd = spectral_decompose(build_laplacian(P3))
        # b's expansion is fixed against columns with a positive first entry,
        # whatever signs the eigensolver returned.
        q = sd.vectors * np.sign(sd.vectors[0])
        p = np.array([1.0, 0.0, 0.0])
        b = q[:, 0] + 3e-11 / q[0, 1] * q[:, 1] - 2.0 * q[:, 2]
        scale = np.linalg.norm(p) * np.linalg.norm(b)
        raw = np.add.reduceat((q.T @ p) * (q.T @ b), sd.group_starts)
        assert 1e-12 * scale < abs(raw[1]) < 1e-10 * scale
        row = _row(sd, p, b)
        kept = row[row != 0.0]
        assert row.size - kept.size == 1
        stol = 1e-12 * max(1.0, float(np.sum(np.abs(kept))))
        for s in (0.0, float(raw[0] + 0.5 * raw[1]), 0.1):
            assert linear_bounds(row, s) == _variation_bounds(np.cumsum(kept), s, stol)
        assert linear_bounds(row, 0.0) == (1, 1)
        assert _variation_bounds(np.cumsum(raw), 0.0, stol)[1] == 2

    def test_rejects_negative_shift(self, k2_sd):
        with pytest.raises(ContractError):
            linear_bounds(_row(k2_sd, np.array([0.0, 1.0]), np.array([1.0, 0.0])), -0.1)


def _reference_variations(values, tol):
    signs = [1 if v > tol else -1 for v in values if abs(v) > tol]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _candidate_levels(partial):
    """Level 0, the nonnegative midpoints between distinct partial sums, and one level beyond them."""
    vals = np.unique(partial)
    candidates = [0.0]
    candidates.extend(
        0.5 * (lo + hi) for lo, hi in zip(vals[:-1], vals[1:]) if 0.5 * (lo + hi) >= 0.0
    )
    beyond = float(vals[-1]) + max(1.0, abs(float(vals[-1])))
    if beyond >= 0.0:
        candidates.append(beyond)
    return candidates


def _reference_sup(partial, tol):
    """The candidate-by-candidate loop the vectorized sup bound replaced."""
    return max(_reference_variations(partial - s, tol) for s in _candidate_levels(partial))


def _partial_sums(sd, p, b):
    coeffs = _row(sd, p, b)  # modes within 1e-10 of scale already 0.0
    return np.cumsum(coeffs), 1e-12 * max(1.0, float(np.sum(np.abs(coeffs))))


class TestSupMatchesReferenceLoop:
    def test_random_graphs(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            sd = spectral_decompose(build_laplacian(random_connected_graph(rng, n)))
            p = rng.uniform(0, 1, n)
            b = rng.uniform(-1, 1, n) * (rng.random(n) < 0.5)
            if not np.any(b):
                b[0] = 1.0
            partial, stol = _partial_sums(sd, p, b)
            sup = _reference_sup(partial, stol)
            for s in (0.0, float(rng.uniform(0, 1)), abs(float(partial[-1]))):
                assert linear_bounds(_row(sd, p, b), s) == (_reference_variations(partial - s, stol), sup)

    @pytest.mark.parametrize(
        "partial",
        [
            [0.3, 0.3, 0.3, -0.2, -0.2, 0.3],  # ties between partial sums
            [0.0, 1e-13, -1e-13, 0.5, 2e-13, 0.5],  # partial sums within tolerance of zero
            [0.2, 0.2 + 1e-13, 0.2 - 1e-13, -0.1, 0.2],  # distinct sums closer than the tolerance
            [-0.4, -0.1, -0.3, -0.2],  # every midpoint negative
            [0.0],
            [1.0, -1.0, 1.0, -1.0, 1.0],
        ],
    )
    def test_crafted_sequences(self, partial):
        partial = np.array(partial)
        sup = _reference_sup(partial, 1e-12)
        levels = np.unique(np.concatenate(([0.0], np.abs(partial), np.abs(partial) + 1e-13)))
        expected = [_reference_variations(partial - s, 1e-12) for s in levels]
        assert _sign_variations(partial, levels, 1e-12).tolist() == expected
        for s, at in zip(levels, expected):
            assert _variation_bounds(partial, s, 1e-12) == (at, sup)

    def test_many_groups_cross_block_boundaries(self):
        rng = np.random.default_rng(3)
        partial = np.round(np.cumsum(rng.normal(size=700)), 1)  # long, with many ties
        at, sup = _variation_bounds(partial, 2.5, 1e-12)
        assert at == _reference_variations(partial - 2.5, 1e-12)
        assert sup == _reference_sup(partial, 1e-12)


def _per_level_bounds(partial, shift, tol):
    """Both bounds with every level counted on its own by _sign_variations."""
    count = lambda s: int(_sign_variations(partial, np.array([s]), tol)[0])
    return count(shift), max(count(s) for s in _candidate_levels(partial))


@st.composite
def _variation_case(draw):
    tol = draw(st.sampled_from([1e-12, 1e-3, 0.05]))
    step = st.one_of(
        st.sampled_from([0.0, tol, -tol, 2.0 * tol, -0.5 * tol]),  # coefficients at and near the tolerance
        st.integers(-20, 20).map(lambda k: k / 10.0),  # repeated partial sums
        st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
    )
    partial = np.cumsum(draw(st.lists(step, min_size=1, max_size=30)))
    if draw(st.booleans()):
        partial = -np.abs(partial) - draw(st.sampled_from([0.0, tol, 0.1]))  # all negative (or zero)
    anchor = abs(float(partial[draw(st.integers(0, partial.size - 1))]))
    shift = draw(
        st.one_of(
            st.sampled_from([0.0, anchor, anchor + tol, anchor + 0.5 * tol, max(0.0, anchor - tol)]),
            st.floats(0.0, 3.0, allow_subnormal=False),
        )
    )
    return partial, shift, tol


class TestVariationBoundsMatchPerLevelCount:
    @settings(max_examples=400, deadline=None)
    @given(_variation_case())
    def test_sorted_counts_equal_per_level_recount(self, case):
        partial, shift, tol = case
        assert _variation_bounds(partial, shift, tol) == _per_level_bounds(partial, shift, tol)

    def test_single_group(self):
        for partial in ([0.0], [0.7], [-0.7]):
            for shift in (0.0, 0.7, 2.0):
                assert _variation_bounds(np.array(partial), shift, 1e-12) == (0, 0)


class TestCountExpPolyZeros:
    def test_monotone_single_crossing(self):
        assert count_exp_poly_zeros([0.0, 2.0], [1.0, -1.0], (-10.0, 10.0)) == 1

    def test_constant_has_no_zeros(self):
        assert count_exp_poly_zeros([0.0], [1.0], (-10.0, 10.0)) == 0

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ContractError, match="zero"):
            count_exp_poly_zeros([0.0, 1.0], [0.0, 0.0], (-1.0, 1.0))

    def test_tangential_zero_counted_twice(self):
        # f(t) = (1 - e^t)^2 = 1 - 2 e^t + e^{2t} touches zero at t = 0.
        assert count_exp_poly_zeros([0.0, 1.0, 2.0], [1.0, -2.0, 1.0], (-5.0, 5.0)) == 2

    def test_two_crossings(self):
        # f(t) = 1 - 3 e^t + e^{2t}: quadratic in e^t with two positive roots.
        assert count_exp_poly_zeros([0.0, 1.0, 2.0], [1.0, -3.0, 1.0], (-8.0, 8.0)) == 2

    def test_randomized_lemma_oracles(self):
        # Zeros of sum d_g e^{+rate t} on t < 0 are bounded by the sign
        # variations of the running coefficient sums (rates ascending) and by
        # the nonzero-rate count minus one.
        rng = np.random.default_rng(99)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            rates = np.sort(rng.uniform(0.0, 5.0, size=k))
            while k > 1 and np.min(np.diff(rates)) < 1e-3:
                rates = np.sort(rng.uniform(0.0, 5.0, size=k))
            if rng.random() < 0.5:
                rates[0] = 0.0
            coeffs = rng.normal(size=k)
            zeros = count_exp_poly_zeros(rates, coeffs, (-12.0, 0.0), resolution=2048)
            partial = np.cumsum(coeffs)
            signs = [1 if v > 0 else -1 for v in partial if abs(v) > 1e-12]
            variation_bound = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert zeros <= variation_bound
            assert zeros <= k - 1

