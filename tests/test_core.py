import numpy as np
import pytest

from ringwalk import (
    HADAMARD,
    PLUS_I_COIN,
    ConfigurationError,
    DimensionMismatchError,
    LocalEnvironment,
    NonlocalEnvironment,
    NumericsError,
    PureState,
    WalkModel,
    evolve,
    init_state,
    position_distribution,
    read_snapshot,
    rng_stream,
    sample_environment_pair,
    step,
    walk_series,
    write_snapshot,
)
from ringwalk.core import _local_step_plan, step_local, step_nonlocal
from oracles import (
    dense_local_step,
    dense_nonlocal_step,
    per_site_local_step,
    random_state_vector,
    random_unitary,
    spatial_distribution,
)

IDENTITY_ENV = NonlocalEnvironment(np.eye(1), np.eye(1))


def bare_model(d_s, initial_coin=None, initial_site=0):
    kwargs = {} if initial_coin is None else {"initial_coin": initial_coin}
    return WalkModel(
        d_s=d_s, environment=IDENTITY_ENV, initial_site=initial_site, **kwargs
    )


def random_nonlocal_model(d_s, d_e, seed, **kwargs):
    e0, e1 = sample_environment_pair(d_e, 1.0, rng_stream(seed))
    return WalkModel(
        d_s=d_s, environment=NonlocalEnvironment(e0, e1), seed=seed, **kwargs
    )


def random_pure_state(d_s, d_e, rng):
    return PureState(d_s, d_e, random_state_vector(d_s * 2 * d_e, rng))


class TestPureState:
    def test_flat_layout_and_views(self):
        rng = np.random.default_rng(0)
        state = random_pure_state(5, 3, rng)
        tens = state.tensor()
        # flat index e + d_e * (c + 2 s)
        assert tens[2, 1, 1] == state.amplitudes[1 + 3 * (1 + 2 * 2)]

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            PureState(3, 2, np.ones(11, dtype=complex) / np.sqrt(11))

    def test_rejects_unnormalized(self):
        with pytest.raises(ConfigurationError):
            PureState(3, 1, np.ones(6, dtype=complex))

    def test_rejects_nan_norm(self):
        amps = np.zeros(3 * 2, dtype=complex)
        amps[0] = np.nan
        with pytest.raises(ConfigurationError):
            PureState(3, 1, amps)

    def test_rejects_even_sites(self):
        amps = np.zeros(4 * 2, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ConfigurationError):
            PureState(4, 1, amps)

    def test_rejects_one_site(self):
        with pytest.raises(ConfigurationError):
            PureState(1, 1, np.array([1.0, 0.0], dtype=complex))

    @pytest.mark.parametrize("d_e", [0, -1])
    def test_rejects_empty_environment(self, d_e):
        with pytest.raises(ConfigurationError):
            PureState(3, d_e, [])

    def test_amplitudes_read_only(self):
        state = init_state(bare_model(3))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("kind", ["local", "nonlocal"])
    def test_kernel_outputs_read_only(self, kind):
        if kind == "local":
            model = WalkModel(d_s=3, environment=LocalEnvironment(np.eye(2), np.eye(2)))
        else:
            model = random_nonlocal_model(5, 2, seed=3)
        for state in (step(init_state(model), model), evolve(model, 4)):
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0

    def test_callers_arrays_stay_writeable(self):
        # Each input is already contiguous complex128, so the cast returns the caller's array.
        amps = np.zeros(20, dtype=np.complex128)
        amps[0] = 1.0
        phases = np.exp(1j * np.arange(4.0))
        u, coin, icoin = random_unitary(4, rng_stream(7)), HADAMARD.copy(), PLUS_I_COIN.copy()
        ienv = amps[:4].copy()
        state = PureState(5, 2, amps)
        diag, dense = NonlocalEnvironment(phases, u), NonlocalEnvironment(u, u.copy())
        local = LocalEnvironment(coin, coin.copy())
        model = WalkModel(5, diag, coin=coin, initial_coin=icoin, initial_env=ienv)
        stored = [state.amplitudes, diag.e0, diag.e1, dense.e0, local.g0,
                  model.coin, model.initial_coin, model.initial_env]
        for given in (amps, phases, u, coin, icoin, ienv):
            assert given.flags.writeable
        for array in stored:
            assert not array.flags.writeable
        amps[0], u[0, 0], coin[0, 0] = 0.0, 0.0, 0.0  # the caller reuses its buffers
        assert state.amplitudes[0] == 1.0 and dense.e0[0, 0] != 0.0
        assert model.coin[0, 0] == HADAMARD[0, 0] and local.g0[0, 0] == HADAMARD[0, 0]


class TestWalkModel:
    def test_rejects_even_sites(self):
        with pytest.raises(ConfigurationError):
            WalkModel(d_s=4, environment=IDENTITY_ENV)

    def test_rejects_one_site(self):
        with pytest.raises(ConfigurationError):
            WalkModel(d_s=1, environment=IDENTITY_ENV)

    def test_rejects_nonunitary_coin(self):
        with pytest.raises(ConfigurationError):
            WalkModel(d_s=3, environment=IDENTITY_ENV, coin=np.eye(2) * 1.5)

    def test_rejects_nonunitary_environment(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 0] = 0.5
        with pytest.raises(ConfigurationError):
            NonlocalEnvironment(bad, np.eye(3))

    def test_rejects_nonunit_initial_vectors(self):
        with pytest.raises(ConfigurationError):
            WalkModel(d_s=3, environment=IDENTITY_ENV, initial_coin=np.array([1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            WalkModel(
                d_s=3, environment=IDENTITY_ENV, initial_env=np.array([0.5], dtype=complex)
            )

    def test_local_site_guard(self):
        env = LocalEnvironment(np.eye(2), np.eye(2))
        with pytest.raises(ConfigurationError):
            WalkModel(d_s=15, environment=env)

    @pytest.mark.parametrize("build", [
        lambda: WalkModel(d_s=3, environment=np.eye(2)),
        lambda: LocalEnvironment(np.eye(3), np.eye(2)),
        lambda: NonlocalEnvironment(np.ones((2, 3)), np.eye(2)),
    ], ids=["not-an-environment", "local-gate-3x3", "nonlocal-not-square"])
    def test_rejects_malformed_environment(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_local_dims(self):
        model = WalkModel(d_s=3, environment=LocalEnvironment(np.eye(2), np.eye(2)))
        assert model.d_e == 8


class TestInitState:
    def test_basis_product_state(self):
        model = WalkModel(
            d_s=3,
            environment=IDENTITY_ENV,
            initial_coin=np.array([1.0, 0.0]),
        )
        state = init_state(model)
        expected = np.zeros(6, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_superposed_coin_amplitudes(self):
        model = bare_model(51, initial_coin=PLUS_I_COIN, initial_site=25)
        state = init_state(model)
        nonzero = np.nonzero(state.amplitudes)[0]
        assert list(nonzero) == [2 * 25, 2 * 25 + 1]
        assert state.amplitudes[50] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert state.amplitudes[51] == pytest.approx(1j / np.sqrt(2), abs=1e-15)

    def test_norm_one(self):
        model = random_nonlocal_model(7, 5, seed=3)
        assert abs(init_state(model).norm() - 1.0) < 1e-12


class TestStepNonlocal:
    def test_single_hadamard_step(self):
        model = bare_model(5, initial_coin=np.array([1.0, 0.0]))
        state = step(init_state(model), model)
        tens = state.tensor()
        assert abs(tens[4, 0, 0]) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert abs(tens[1, 1, 0]) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert np.abs(tens[[0, 2, 3]]).max() == 0.0

    def test_two_hadamard_steps(self):
        # Hand expansion: psi = (|3,0> + |0,0> + |0,1> - |2,1>) / 2.
        model = bare_model(5, initial_coin=np.array([1.0, 0.0]))
        state = init_state(model)
        for _ in range(2):
            state = step(state, model)
        dist = position_distribution(state)
        assert dist[3] == pytest.approx(0.25, abs=1e-14)
        assert dist[0] == pytest.approx(0.5, abs=1e-14)
        assert dist[2] == pytest.approx(0.25, abs=1e-14)

    def test_commuting_environment_matches_bare_walk_until_wrap(self):
        # With e1 = e0 @ e0 the branch matrices commute and the spatial
        # distribution matches the environment-free walk exactly until
        # paths whose winding numbers differ by two can interfere, which
        # first happens at t = d_s + 1.
        d_s = 5
        e0, _ = sample_environment_pair(4, 1.0, rng_stream(23))
        model = WalkModel(d_s=d_s, environment=NonlocalEnvironment(e0, e0 @ e0))
        free = bare_model(d_s)
        a, b = init_state(model), init_state(free)
        for _ in range(d_s):
            a, b = step(a, model), step(b, free)
            dev = np.abs(position_distribution(a) - position_distribution(b)).max()
            assert dev < 1e-12
        a, b = step(a, model), step(b, free)
        onset = np.abs(position_distribution(a) - position_distribution(b)).max()
        assert onset > 1e-10

    def test_dimension_mismatch(self):
        state = init_state(bare_model(3))
        with pytest.raises(DimensionMismatchError):
            step_nonlocal(state, np.asarray(HADAMARD), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("e0,e1", [
        (np.ones((4, 5)), np.eye(4)),
        (np.eye(4), np.ones((4, 5))),
        (np.ones(5), np.eye(4)),
        (np.eye(4), np.ones(3)),
        (np.ones((4, 4, 1)), np.ones(4)),
        (np.ones((5, 5)), np.ones(4)),
    ], ids=["wide-e0", "wide-e1", "long-diagonal", "short-diagonal", "3d", "large-square"])
    def test_rejects_branch_shapes(self, e0, e1):
        state = random_pure_state(3, 4, np.random.default_rng(1))
        with pytest.raises(DimensionMismatchError):
            step_nonlocal(state, np.asarray(HADAMARD), e0, e1)


class TestDiagonalBranch:
    PHASES = np.exp(1j * np.array([0.3, 1.9, -2.4, 0.0]))

    def test_accepted_and_stored_read_only(self):
        env = NonlocalEnvironment(self.PHASES, random_unitary(4, rng_stream(61)))
        assert env.d_e == 4 and env.e0.shape == (4,)
        assert not env.e0.flags.writeable
        both = NonlocalEnvironment(self.PHASES, self.PHASES[::-1])
        assert both.e1.shape == (4,)

    @pytest.mark.parametrize("e0,e1", [
        (np.array([1.0, 1.0, 0.5, 1.0]), np.eye(4)),
        (np.array([1.0, 1.0 + 1e-9, 1.0, 1.0]), np.eye(4)),
        (np.array([1.0, np.nan, 1.0, 1.0]), np.eye(4)),
        (np.eye(4), np.array([1.0, 1.0, 1.0, np.nan + 1j])),
        (PHASES, np.eye(3)),
        (PHASES[:3], np.eye(4)),
        (PHASES, PHASES[:3]),
    ], ids=["non-unit", "beyond-tolerance", "nan-e0", "nan-e1", "e1-smaller",
            "e0-smaller", "diagonals-differ"])
    def test_rejected(self, e0, e1):
        with pytest.raises(ConfigurationError):
            NonlocalEnvironment(e0, e1)


class TestStepLocal:
    def test_identity_gates_match_bare_walk(self):
        d_s = 5
        model = WalkModel(d_s=d_s, environment=LocalEnvironment(np.eye(2), np.eye(2)))
        free = bare_model(d_s)
        a, b = init_state(model), init_state(free)
        for _ in range(40):
            a, b = step(a, model), step(b, free)
            dev = np.abs(position_distribution(a) - position_distribution(b)).max()
            assert dev < 1e-10

    def test_norm_preserved_ten_thousand_steps(self):
        from ringwalk import GateAngles, make_local_gate

        g0 = make_local_gate(GateAngles(np.pi / 4, 0.0))
        g1 = make_local_gate(GateAngles(np.pi / 4, np.pi / 2))
        model = WalkModel(d_s=5, environment=LocalEnvironment(g0, g1))
        final = evolve(model, 10_000)
        assert abs(final.norm() - 1.0) < 1e-10

    def test_rejects_wrong_environment_dimension(self):
        state = init_state(bare_model(3))  # d_e = 1 != 2**3
        with pytest.raises(DimensionMismatchError):
            step_local(state, np.asarray(HADAMARD), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("g0,g1", [(np.eye(3), np.eye(2)), (np.eye(2), np.ones(2))],
                             ids=["g0-3x3", "g1-vector"])
    def test_rejects_wrong_gate_shape(self, g0, g1):
        state = random_pure_state(3, 8, np.random.default_rng(2))
        with pytest.raises(DimensionMismatchError):
            step_local(state, np.asarray(HADAMARD), g0, g1)


class TestDenseOracle:
    @pytest.mark.parametrize("d_s,d_e", [(3, 1), (3, 2), (3, 4), (5, 2), (5, 4)])
    def test_nonlocal_matches_dense_matrix(self, d_s, d_e):
        rng = rng_stream(11, d_s, d_e)
        e0, e1 = sample_environment_pair(d_e, 1.0, rng)
        model = WalkModel(d_s=d_s, environment=NonlocalEnvironment(e0, e1))
        dense = dense_nonlocal_step(d_s, np.asarray(HADAMARD), e0, e1)
        for _ in range(5):
            state = random_pure_state(d_s, d_e, rng)
            out = step(state, model)
            assert np.abs(out.amplitudes - dense @ state.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("diagonal", ["e0", "e1", "both"])
    @pytest.mark.parametrize("d_s,d_e", [(3, 2), (3, 4), (5, 1), (5, 3), (5, 4)])
    def test_diagonal_branch_matches_dense_matrix(self, d_s, d_e, diagonal):
        rng = rng_stream(59, d_s, d_e)
        coin = random_unitary(2, rng)
        phases = [np.exp(1j * rng.uniform(-np.pi, np.pi, d_e)) for _ in range(2)]
        dense_branches = [random_unitary(d_e, rng) for _ in range(2)]
        branches = [
            phases[b] if diagonal in (name, "both") else dense_branches[b]
            for b, name in enumerate(("e0", "e1"))
        ]
        as_matrices = [np.diag(u) if u.ndim == 1 else u for u in branches]
        dense = dense_nonlocal_step(d_s, coin, *as_matrices)
        for _ in range(5):
            state = random_pure_state(d_s, d_e, rng)
            out = step_nonlocal(state, coin, *branches)
            assert np.abs(out.amplitudes - dense @ state.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("d_s", [3, 5])
    def test_local_matches_dense_matrix(self, d_s):
        from ringwalk import GateAngles, make_local_gate

        rng = rng_stream(13, d_s)
        g0 = make_local_gate(GateAngles(0.7, 0.3))
        g1 = make_local_gate(GateAngles(0.4, 2.1))
        model = WalkModel(d_s=d_s, environment=LocalEnvironment(g0, g1))
        dense = dense_local_step(d_s, np.asarray(HADAMARD), g0, g1)
        for _ in range(5):
            state = random_pure_state(d_s, 1 << d_s, rng)
            out = step(state, model)
            assert np.abs(out.amplitudes - dense @ state.amplitudes).max() < 1e-10
            per_site = per_site_local_step(d_s, np.asarray(HADAMARD), g0, g1, state.amplitudes)
            assert np.abs(per_site - dense @ state.amplitudes).max() < 1e-10


class TestLocalKernel:
    """The vectorized local step against the per-site reference, at sizes
    where the dense oracle cannot be built."""

    @pytest.mark.parametrize("d_s", [3, 9, 13])
    def test_matches_per_site_oracle(self, d_s):
        rng = rng_stream(43, d_s)
        coin, g0, g1 = (random_unitary(2, rng) for _ in range(3))
        state = random_pure_state(d_s, 1 << d_s, rng)
        ref = state.amplitudes
        for _ in range(20):
            state = step_local(state, coin, g0, g1)
            ref = per_site_local_step(d_s, coin, g0, g1, ref)
            assert np.abs(state.amplitudes - ref).max() <= 1e-12

    def test_tables_are_read_only_and_shared_across_gates(self):
        d_s = 5
        key = np.stack((np.eye(2), np.eye(2)), dtype=np.complex128).tobytes()
        keep, flip, sources = _local_step_plan(d_s, key)
        assert _local_step_plan(d_s, key)[2] is sources
        for table in (keep, flip, sources):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0
        # The gather indices depend on d_s only: plans for other gates at the
        # same d_s hold the same sources and still give their own dynamics.
        rng = rng_stream(47)
        state = random_pure_state(d_s, 1 << d_s, rng)
        for _ in range(2):
            g0, g1 = random_unitary(2, rng), random_unitary(2, rng)
            out = step_local(state, np.asarray(HADAMARD), g0, g1)
            ref = per_site_local_step(d_s, np.asarray(HADAMARD), g0, g1, state.amplitudes)
            assert np.abs(out.amplitudes - ref).max() <= 1e-12
            other = _local_step_plan(d_s, np.stack((g0, g1), dtype=np.complex128).tobytes())
            assert np.array_equal(other[2], sources)

    def test_gate_coefficients_follow_the_gates(self):
        # The step plan is keyed on d_s and the gate values: stepping with gates
        # A, then B, then A again gives each pair its own dynamics, and the two
        # A steps agree to the bit.
        d_s = 7
        rng = rng_stream(53)
        coin = random_unitary(2, rng)
        gates_a = random_unitary(2, rng), random_unitary(2, rng)
        gates_b = random_unitary(2, rng), random_unitary(2, rng)
        state = random_pure_state(d_s, 1 << d_s, rng)
        outs = []
        for g0, g1 in (gates_a, gates_b, gates_a):
            out = step_local(state, coin, g0, g1)
            ref = per_site_local_step(d_s, coin, g0, g1, state.amplitudes)
            assert np.abs(out.amplitudes - ref).max() <= 1e-12
            outs.append(out.amplitudes)
        assert np.array_equal(outs[0], outs[2])
        assert not np.array_equal(outs[0], outs[1])
        key = np.stack(gates_a, dtype=np.complex128).tobytes()
        keep, flip, sources = _local_step_plan(d_s, key)
        assert sources.shape == (2, d_s, 2, 1 << d_s)
        for table in (keep, flip, sources[0], sources[1]):
            assert table.shape == (d_s, 2, 1 << d_s)
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0


class TestStepProperties:
    def test_linearity_nonlocal(self):
        # step(a psi1 + b psi2) == a step(psi1) + b step(psi2), checked on
        # a normalized combination.
        d_s, d_e = 5, 3
        rng = rng_stream(17)
        model = random_nonlocal_model(d_s, d_e, seed=17)
        psi1 = random_pure_state(d_s, d_e, rng)
        psi2 = random_pure_state(d_s, d_e, rng)
        a, b = 0.3 + 0.4j, -0.7 + 0.2j
        combo = a * psi1.amplitudes + b * psi2.amplitudes
        scale = np.linalg.norm(combo)
        stepped_combo = step(PureState(d_s, d_e, combo / scale), model)
        expected = a * step(psi1, model).amplitudes + b * step(psi2, model).amplitudes
        assert np.abs(scale * stepped_combo.amplitudes - expected).max() < 1e-12

    def test_linearity_local(self):
        d_s = 3
        d_e = 1 << d_s
        rng = rng_stream(19)
        from ringwalk import GateAngles, make_local_gate

        g0 = make_local_gate(GateAngles(0.9, 1.0))
        g1 = make_local_gate(GateAngles(0.2, 4.0))
        model = WalkModel(d_s=d_s, environment=LocalEnvironment(g0, g1))
        psi1 = random_pure_state(d_s, d_e, rng)
        psi2 = random_pure_state(d_s, d_e, rng)
        a, b = 0.6 - 0.1j, 0.5 + 0.5j
        combo = a * psi1.amplitudes + b * psi2.amplitudes
        scale = np.linalg.norm(combo)
        stepped_combo = step(PureState(d_s, d_e, combo / scale), model)
        expected = a * step(psi1, model).amplitudes + b * step(psi2, model).amplitudes
        assert np.abs(scale * stepped_combo.amplitudes - expected).max() < 1e-12

    def test_translation_covariance(self):
        d_s, d_e, shift = 7, 3, 2
        e0, e1 = sample_environment_pair(d_e, 1.0, rng_stream(29))
        env = NonlocalEnvironment(e0, e1)
        m0 = WalkModel(d_s=d_s, environment=env, initial_site=1)
        m1 = WalkModel(d_s=d_s, environment=env, initial_site=1 + shift)
        a, b = init_state(m0), init_state(m1)
        for _ in range(40):
            a, b = step(a, m0), step(b, m1)
            rolled = np.roll(position_distribution(a), shift)
            assert np.abs(rolled - position_distribution(b)).max() < 1e-12


class TestEvolve:
    def test_zero_steps_returns_initial_state(self):
        model = random_nonlocal_model(5, 2, seed=5)
        assert np.array_equal(evolve(model, 0).amplitudes, init_state(model).amplitudes)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            evolve(bare_model(3), -1)
        with pytest.raises(ConfigurationError):
            walk_series(bare_model(3), -1)

    def test_validates_one_state_per_run(self, monkeypatch):
        calls = []
        validate = PureState.__post_init__

        def counted(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(PureState, "__post_init__", counted)
        evolve(random_nonlocal_model(5, 2, seed=13), 50)
        assert len(calls) == 1

    def drifting_model(self):
        # e0 passes the 1e-10 unitarity check, but the walk gains norm at every step.
        e0, e1 = sample_environment_pair(4, 1.0, rng_stream(5))
        return WalkModel(d_s=7, environment=NonlocalEnvironment(e0 * (1 + 3e-11), e1))

    def test_norm_drift_fails_the_run(self):
        with pytest.raises(NumericsError, match="final state"):
            evolve(self.drifting_model(), 60)

    def test_norm_drift_stops_the_series_at_its_step(self, monkeypatch):
        import ringwalk.analysis

        model = self.drifting_model()
        drifts = []
        observe = ringwalk.analysis.position_mixedness

        def recorded(state):
            drifts.append(abs(state.norm() ** 2 - 1.0))
            return observe(state)

        monkeypatch.setattr(ringwalk.analysis, "position_mixedness", recorded)
        with pytest.raises(NumericsError, match="squared state norm"):
            walk_series(model, 60)
        assert len(drifts) < 61
        assert drifts[-1] > 2e-10 and max(drifts[:-1]) < 2e-10

    def test_observer_called_every_step_including_zero(self):
        seen = []
        evolve(bare_model(5), 7, lambda t, state: seen.append(t))
        assert seen == list(range(8))

    def test_observer_failure_propagates(self):
        def boom(t, state):
            if t == 3:
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            evolve(bare_model(5), 10, boom)

    def test_norm_after_ten_thousand_steps(self):
        model = random_nonlocal_model(51, 32, seed=7)
        final = evolve(model, 10_000)
        assert abs(final.norm() - 1.0) < 1e-10

    def test_norm_drift_hundred_thousand_steps(self):
        model = random_nonlocal_model(5, 2, seed=31)
        final = evolve(model, 100_000)
        assert abs(final.norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("kind", ["local", "nonlocal"])
    def test_equals_repeated_step(self, kind):
        if kind == "local":
            rng = rng_stream(53)
            model = WalkModel(
                d_s=5, environment=LocalEnvironment(random_unitary(2, rng), random_unitary(2, rng))
            )
        else:
            model = random_nonlocal_model(7, 3, seed=53)
        state = init_state(model)
        for _ in range(25):
            state = step(state, model)
        assert np.array_equal(evolve(model, 25).amplitudes, state.amplitudes)

    def test_deterministic_series(self):
        model = random_nonlocal_model(9, 4, seed=41)
        s1 = walk_series(model, 200)
        s2 = walk_series(model, 200)
        assert np.array_equal(s1.d_omega, s2.d_omega)
        assert np.array_equal(s1.entropy, s2.entropy)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        state = evolve(random_nonlocal_model(5, 3, seed=2), 17)
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        back = read_snapshot(path)
        assert back.d_s == 5 and back.d_e == 3
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_header_is_json_line(self, tmp_path):
        import json

        state = init_state(bare_model(3))
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header == {"d_S": 3, "d_E": 1, "layout": "e+d_E*(c+2s)"}

    def test_write_makes_missing_directory(self, tmp_path):
        state = init_state(bare_model(3))
        path = tmp_path / "new" / "state.snap"
        write_snapshot(state, path)
        assert np.array_equal(read_snapshot(path).amplitudes, state.amplitudes)

    def test_failed_write_leaves_old_file_intact(self, tmp_path, full_disk):
        path = tmp_path / "state.snap"
        path.write_bytes(b"old snapshot\n")
        with pytest.raises(OSError):
            write_snapshot(init_state(bare_model(3)), path)
        assert path.read_bytes() == b"old snapshot\n"
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left

    def test_truncated_payload_rejected(self, tmp_path):
        state = init_state(bare_model(3))
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DimensionMismatchError):
            read_snapshot(path)

    @pytest.mark.parametrize("header", [
        b"notjson",
        b'{"d_E": 1, "layout": "e+d_E*(c+2s)"}',
        b'{"d_S": "three", "d_E": 1, "layout": "e+d_E*(c+2s)"}',
        b"[3, 1]",
        b'{"d_S": 3.5, "d_E": 1, "layout": "e+d_E*(c+2s)"}',
        b'{"d_S": 3, "d_E": true, "layout": "e+d_E*(c+2s)"}',
    ], ids=["not-json", "no-d_S", "non-integer-d_S", "not-an-object", "float-d_S", "bool-d_E"])
    def test_malformed_header_rejected(self, tmp_path, header):
        state = init_state(bare_model(3))
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        payload = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(ConfigurationError):
            read_snapshot(path)


def test_spatial_distribution_helper_agrees_with_oracle():
    rng = np.random.default_rng(3)
    state = random_pure_state(5, 4, rng)
    assert np.abs(
        position_distribution(state) - spatial_distribution(state.amplitudes, 5)
    ).max() < 1e-14
