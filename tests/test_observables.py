import math

import numpy as np
import pytest

from ringwalk import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    LocalEnvironment,
    NonlocalEnvironment,
    NumericsError,
    PureState,
    WalkModel,
    apply_cp_map,
    evolve,
    init_state,
    kraus_completeness_defect,
    kraus_generators,
    make_local_gate,
    page_entropy,
    position_mixedness,
    reduce_to_position_coin,
    rng_stream,
    sample_environment_pair,
)
from ringwalk.core import _unchecked_state
from ringwalk.envgen import GateAngles, matrix_from_json, matrix_to_json
from oracles import (
    distance_to_uniform,
    eigenvalues,
    maximally_mixed,
    random_state_vector,
    reduce_to_position,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)


def random_nonlocal_model(d_s, d_e, seed):
    e0, e1 = sample_environment_pair(d_e, 1.0, rng_stream(seed))
    return WalkModel(d_s=d_s, environment=NonlocalEnvironment(e0, e1), seed=seed)


def random_walk_state(d_s, d_e, seed, steps=25):
    return evolve(random_nonlocal_model(d_s, d_e, seed), steps)


def random_density(dim, rng):
    v = random_state_vector(dim * 3, rng).reshape(dim, 3)
    return DensityMatrix(dim, v @ v.conj().T)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NumericsError):
            DensityMatrix(2, m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NumericsError):
            DensityMatrix(2, np.eye(2, dtype=complex))

    @pytest.mark.parametrize("entries", [np.eye(2) / 2, np.full(3, 1.0 / 3)],
                             ids=["2x2", "vector"])
    def test_rejects_wrong_shape(self, entries):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(3, entries)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("nan", [np.nan, complex(0.0, np.nan)])
    def test_rejects_nan(self, entry, nan):
        m = np.eye(2, dtype=complex) / 2
        m[entry] = m[entry[::-1]] = nan
        with pytest.raises(NumericsError):
            DensityMatrix(2, m)

    def test_eigenvalue_floor_on_walk_states(self):
        for seed in range(4):
            rho = reduce_to_position(random_walk_state(7, 3, seed))
            assert eigenvalues(rho).min() >= -1e-10

    def test_json_round_trip(self):
        rho = random_density(4, np.random.default_rng(0))
        back = matrix_from_json(matrix_to_json(rho.entries))
        assert np.array_equal(back, rho.entries)


class TestReductions:
    def test_product_state_gives_projector(self):
        model = random_nonlocal_model(5, 3, seed=1)
        rho = reduce_to_position(init_state(model))
        expected = np.zeros((5, 5))
        expected[model.initial_site, model.initial_site] = 1.0
        assert np.abs(rho.entries - expected).max() < 1e-12

    def test_maximally_entangled_pair(self):
        # (|0>_S |c=0,e=0> + |1>_S |c=1,e=1>) / sqrt(2) on a 3-site ring.
        amps = np.zeros(3 * 2 * 2, dtype=complex)
        amps[0] = 1 / np.sqrt(2)  # s=0, c=0, e=0
        amps[2 * (1 + 2 * 1) + 1] = 1 / np.sqrt(2)  # s=1, c=1, e=1
        rho = reduce_to_position(PureState(3, 2, amps))
        assert np.abs(np.diag(rho.entries)[:2] - 0.5).max() < 1e-14
        assert abs(rho.entries[0, 1]) < 1e-14

    def test_trace_one(self):
        for seed in range(3):
            rho = reduce_to_position(random_walk_state(9, 4, seed))
            assert abs(rho.entries.trace() - 1.0) < 1e-12

    def test_position_coin_reduction_consistent(self):
        state = random_walk_state(5, 4, seed=2)
        rho_sc = reduce_to_position_coin(state)
        # Tracing the coin out of the position-coin reduction gives the
        # position reduction.
        folded = rho_sc.entries.reshape(5, 2, 5, 2)
        rho_s = np.trace(folded, axis1=1, axis2=3)
        assert np.abs(rho_s - reduce_to_position(state).entries).max() < 1e-12


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(4, np.random.default_rng(1))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        p0 = np.zeros((2, 2), dtype=complex)
        p0[0, 0] = 1.0
        p1 = np.zeros((2, 2), dtype=complex)
        p1[1, 1] = 1.0
        assert trace_distance(DensityMatrix(2, p0), DensityMatrix(2, p1)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_localized_to_uniform(self):
        proj = np.zeros((51, 51), dtype=complex)
        proj[7, 7] = 1.0
        d = trace_distance(DensityMatrix(51, proj), maximally_mixed(51))
        assert d == pytest.approx(50.0 / 51.0, abs=1e-12)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (random_density(5, rng) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab == dba
            assert 0.0 <= dab <= 1.0
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(maximally_mixed(3), maximally_mixed(4))


class TestDistanceToUniform:
    def test_uniform_is_zero(self):
        assert distance_to_uniform(maximally_mixed(7)) == pytest.approx(0.0, abs=1e-14)

    def test_localized_start(self):
        model = random_nonlocal_model(51, 2, seed=3)
        rho = reduce_to_position(init_state(model))
        assert distance_to_uniform(rho) == pytest.approx(50.0 / 51.0, abs=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        proj = np.zeros((4, 4), dtype=complex)
        proj[2, 2] = 1.0
        assert von_neumann_entropy(DensityMatrix(4, proj)) == 0.0

    def test_uniform_is_log_dim(self):
        assert von_neumann_entropy(maximally_mixed(51)) == pytest.approx(
            math.log(51), abs=1e-12
        )

    def test_two_equal_eigenvalues(self):
        rho = DensityMatrix(2, np.eye(2, dtype=complex) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(2), abs=1e-14)

    def test_negative_eigenvalue_rejected(self):
        bad = DensityMatrix(2, np.diag([1.2, -0.2]).astype(complex))
        with pytest.raises(NumericsError):
            von_neumann_entropy(bad)

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density(6, rng)
            assert 0.0 <= von_neumann_entropy(rho) <= math.log(6) + 1e-9

    def test_shannon_entropy(self):
        assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
        assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-14)
        with pytest.raises(DomainError):
            shannon_entropy(np.array([1.5, -0.5]))


class TestBasisConsistency:
    def test_site_permutation_invariance(self):
        state = random_walk_state(7, 4, seed=5)
        rho = reduce_to_position(state)
        perm = np.random.default_rng(5).permutation(7)
        permuted = DensityMatrix(7, rho.entries[np.ix_(perm, perm)])
        assert von_neumann_entropy(permuted) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )
        assert distance_to_uniform(permuted) == pytest.approx(
            distance_to_uniform(rho), abs=1e-12
        )

    def test_fast_path_matches_componentwise_operations(self):
        for seed in range(4):
            state = random_walk_state(9, 5, seed, steps=30)
            d_fast, h_fast = position_mixedness(state)
            rho = reduce_to_position(state)
            assert d_fast == pytest.approx(distance_to_uniform(rho), abs=1e-12)
            assert h_fast == pytest.approx(von_neumann_entropy(rho), abs=1e-12)

    @pytest.mark.parametrize("d_s,d_e", [(5, 1), (11, 2), (11, 5), (51, 8)])
    def test_small_gram_side_matches_oracles(self, d_s, d_e):
        # 2 d_e < d_s: the observer diagonalizes a^H a and pads the spectrum with zeros.
        for seed in range(3):
            state = random_walk_state(d_s, d_e, seed, steps=40)
            d_fast, h_fast = position_mixedness(state)
            rho = reduce_to_position(state)
            assert d_fast == pytest.approx(distance_to_uniform(rho), abs=1e-12)
            assert h_fast == pytest.approx(von_neumann_entropy(rho), abs=1e-12)

    @pytest.mark.parametrize("d_s,d_e", [(11, 2), (5, 4)], ids=["small-gram", "full-gram"])
    def test_norm_drift_rejected_on_both_sides(self, d_s, d_e):
        amps = random_walk_state(d_s, d_e, seed=2).amplitudes * (1.0 + 1e-9)
        with pytest.raises(NumericsError, match="squared state norm"):
            position_mixedness(_unchecked_state(d_s, amps))


class TestKraus:
    def test_trivial_environment_is_unitary(self):
        model = WalkModel(d_s=5, environment=NonlocalEnvironment(np.eye(1), np.eye(1)))
        for t in (1, 7):
            kraus = kraus_generators(model, t)
            assert len(kraus) == 1
            x = kraus[0]
            assert np.linalg.norm(x.conj().T @ x - np.eye(10), 2) < 1e-12

    def test_zero_steps(self):
        # A complex initial environment catches conjugation mistakes.
        env0 = random_state_vector(4, np.random.default_rng(6))
        e0, e1 = sample_environment_pair(4, 1.0, rng_stream(6))
        model = WalkModel(
            d_s=3, environment=NonlocalEnvironment(e0, e1), initial_env=env0
        )
        kraus = kraus_generators(model, 0)
        for e, x in enumerate(kraus):
            assert np.abs(x - env0[e] * np.eye(6)).max() < 1e-14
        assert kraus_completeness_defect(kraus) < 1e-12

    @pytest.mark.parametrize("t", [0, 1, 5, 10, 50])
    def test_completeness_nonlocal(self, t):
        model = random_nonlocal_model(5, 4, seed=7)
        assert kraus_completeness_defect(kraus_generators(model, t)) < 1e-8

    @pytest.mark.parametrize("t", [0, 1, 5, 10, 50])
    def test_completeness_local(self, t):
        g0 = make_local_gate(GateAngles(0.6, 0.0))
        g1 = make_local_gate(GateAngles(0.6, np.pi / 2))
        model = WalkModel(d_s=5, environment=LocalEnvironment(g0, g1))
        assert kraus_completeness_defect(kraus_generators(model, t)) < 1e-8

    def test_channel_matches_direct_evolution(self):
        model = random_nonlocal_model(5, 4, seed=8)
        t = 10
        kraus = kraus_generators(model, t)
        rho0 = reduce_to_position_coin(init_state(model))
        via_map = apply_cp_map(kraus, rho0)
        direct = reduce_to_position_coin(evolve(model, t))
        assert np.abs(via_map.entries - direct.entries).max() < 1e-9

    def test_identity_channel(self):
        rho = random_density(4, np.random.default_rng(9))
        out = apply_cp_map([np.eye(4, dtype=complex)], rho)
        assert np.abs(out.entries - rho.entries).max() < 1e-14

    def test_trace_preserved(self):
        model = random_nonlocal_model(3, 3, seed=10)
        kraus = kraus_generators(model, 6)
        rho = random_density(6, np.random.default_rng(10))
        assert abs(apply_cp_map(kraus, rho).entries.trace() - 1.0) < 1e-9

    def test_size_guard(self):
        g = np.eye(2)
        model = WalkModel(d_s=11, environment=LocalEnvironment(g, g))
        with pytest.raises(DomainError):
            kraus_generators(model, 1)  # 2 * 11 * 2**11 far beyond the dense cap

    def test_rejects_negative_steps(self):
        model = WalkModel(d_s=3, environment=NonlocalEnvironment(np.eye(1), np.eye(1)))
        with pytest.raises(DomainError):
            kraus_generators(model, -1)

    def test_completeness_of_empty_set_rejected(self):
        with pytest.raises(DomainError):
            kraus_completeness_defect([])

    def test_dimension_mismatch(self):
        rho = random_density(3, np.random.default_rng(11))
        with pytest.raises(DimensionMismatchError):
            apply_cp_map([np.eye(4, dtype=complex)], rho)


class TestPageEntropy:
    def test_trivial_subsystem(self):
        assert page_entropy(1, 5) == 0.0

    def test_two_by_two(self):
        assert page_entropy(2, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_large_bath_approaches_log(self):
        assert page_entropy(51, 10**6) == pytest.approx(math.log(51), abs=1e-3)

    def test_rejects_swapped_dimensions(self):
        with pytest.raises(DomainError):
            page_entropy(8, 4)

    @pytest.mark.parametrize("d_s, d_b", [(0, 4), (-1, 4), (1, 0)])
    def test_rejects_nonpositive_dimensions(self, d_s, d_b):
        with pytest.raises(DomainError):
            page_entropy(d_s, d_b)
