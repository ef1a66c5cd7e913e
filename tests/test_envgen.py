import json
import warnings

import numpy as np
import pytest

from ringwalk import (
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    GateAngles,
    angles_for_gamma,
    commutator_norm,
    load_environment,
    make_local_gate,
    matrix_from_json,
    rng_stream,
    sample_environment_pair,
    save_environment,
)
from ringwalk import envgen
from ringwalk.envgen import matrix_to_json, sample_hermitian
from oracles import exponentiate_hermitian, taylor_expm_neg_i


class TestSampleHermitian:
    def test_scalar_case(self):
        h = sample_hermitian(1, 0.5, rng_stream(1))
        assert h.shape == (1, 1)
        assert h[0, 0].imag == 0.0
        assert abs(h[0, 0].real) <= 0.5

    def test_exactly_hermitian(self):
        h = sample_hermitian(7, 1.0, rng_stream(2))
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_entries_within_spread(self):
        spread = 0.3
        h = sample_hermitian(6, spread, rng_stream(3))
        assert np.abs(h.real).max() <= spread
        assert np.abs(h.imag).max() <= spread
        assert np.abs(np.diag(h).imag).max() == 0.0

    def test_deterministic_given_stream(self):
        a = sample_hermitian(5, 1.0, rng_stream(9, 4))
        b = sample_hermitian(5, 1.0, rng_stream(9, 4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d_e", [1, 2, 5, 64])
    def test_same_draw_as_the_index_construction(self, d_e):
        # The construction through triu_indices and an h + h^H copy, written out.
        rng = rng_stream(12, d_e)
        expected = np.zeros((d_e, d_e), dtype=np.complex128)
        upper = np.triu_indices(d_e, k=1)
        n_off = upper[0].size
        if n_off:
            expected[upper] = rng.uniform(-1.5, 1.5, n_off) + 1j * rng.uniform(-1.5, 1.5, n_off)
            expected += expected.conj().T
        expected[np.diag_indices(d_e)] = rng.uniform(-1.5, 1.5, d_e)
        assert np.array_equal(sample_hermitian(d_e, 1.5, rng_stream(12, d_e)), expected)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            sample_hermitian(0, 1.0, rng_stream(0))
        with pytest.raises(DomainError):
            sample_hermitian(3, 0.0, rng_stream(0))


class TestExponentiateHermitian:
    def test_zero_matrix_gives_identity(self):
        assert np.abs(exponentiate_hermitian(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15

    def test_scalar_pi(self):
        e = exponentiate_hermitian(np.array([[np.pi]]))
        assert e[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_unitary_output(self):
        h = sample_hermitian(8, 1.0, rng_stream(5))
        e = exponentiate_hermitian(h)
        assert np.linalg.norm(e.conj().T @ e - np.eye(8), 2) < 1e-10
        assert np.linalg.norm(e @ e.conj().T - np.eye(8), 2) < 1e-10

    def test_matches_taylor_series(self):
        for k in range(5):
            h = sample_hermitian(6, 1.0, rng_stream(6, k))
            assert np.abs(exponentiate_hermitian(h) - taylor_expm_neg_i(h)).max() < 1e-9

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            exponentiate_hermitian(m)

    @pytest.mark.parametrize("shape", [(2, 3), (3,)], ids=["2x3", "vector"])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DomainError):
            exponentiate_hermitian(np.zeros(shape))


class TestLocalGate:
    def test_theta_zero_is_identity(self):
        for phi in (0.0, 1.3, 5.0):
            assert np.abs(make_local_gate(GateAngles(0.0, phi)) - np.eye(2)).max() < 1e-15

    def test_quarter_turn_phi_zero(self):
        g = make_local_gate(GateAngles(np.pi / 2, 0.0))
        assert np.abs(g - np.array([[0, -1], [1, 0]])).max() < 1e-15

    def test_quarter_turn_phi_quarter(self):
        g = make_local_gate(GateAngles(np.pi / 2, np.pi / 2))
        assert np.abs(g - np.array([[0, 1j], [1j, 0]])).max() < 1e-15

    def test_always_unitary(self):
        rng = rng_stream(7)
        for _ in range(20):
            theta, phi = rng.uniform(-10, 10, 2)
            g = make_local_gate(GateAngles(theta, phi))
            assert np.linalg.norm(g.conj().T @ g - np.eye(2), 2) < 1e-14


class TestGateAngles:
    def test_angles_kept_as_given(self):
        a = GateAngles(-0.5, -1.0)
        assert (a.theta, a.phi) == (-0.5, -1.0)
        # The gate cannot tell (theta, phi) from (2*pi - theta, phi + pi).
        for theta, phi in [(-0.5, -1.0), (0.3, 1.2), (2.0, 0.5), (4.0, 1.0), (7.5, -2.0)]:
            mirrored = GateAngles(2 * np.pi - theta, phi + np.pi)
            gap = np.abs(make_local_gate(mirrored) - make_local_gate(GateAngles(theta, phi)))
            assert gap.max() <= 1e-15

    def test_canonicalization_preserves_gate(self):
        rng = rng_stream(8)
        for _ in range(30):
            theta, phi = rng.uniform(-12, 12, 2)
            canonical = GateAngles(theta, phi)
            direct = np.array(
                [
                    [np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                    [np.exp(1j * phi) * np.sin(theta), np.cos(theta)],
                ]
            )
            assert np.abs(make_local_gate(canonical) - direct).max() < 1e-12

    def test_rejects_non_finite(self):
        from ringwalk import ConfigurationError

        with pytest.raises(ConfigurationError):
            GateAngles(np.nan, 0.0)


class TestCommutatorNorm:
    def test_self_commutator_zero(self):
        e0, _ = sample_environment_pair(4, 1.0, rng_stream(10))
        assert commutator_norm(e0, e0) < 1e-14

    def test_diagonal_pair_commutes(self):
        a = np.diag(np.exp(1j * np.array([0.1, 0.7, 2.0])))
        b = np.diag(np.exp(1j * np.array([1.1, 0.2, 0.4])))
        assert commutator_norm(a, b) < 1e-15

    def test_hand_computed_two_by_two(self):
        a = np.array([[0, -1], [1, 0]], dtype=complex)
        b = np.array([[0, 1j], [1j, 0]])
        # [a, b] = diag(-2i, 2i)
        assert commutator_norm(a, b) == pytest.approx(2.0, abs=1e-14)

    def test_independent_draws_noncommuting(self):
        degenerate = 0
        for k in range(100):
            e0, e1 = sample_environment_pair(3, 1.0, rng_stream(12, k))
            if commutator_norm(e0, e1) <= 1e-6:
                degenerate += 1
        if degenerate:
            warnings.warn(f"{degenerate} degenerate environment draws out of 100")
        assert degenerate <= 2

    def test_generated_unitaries_within_tolerance(self):
        for k in range(20):
            e0, e1 = sample_environment_pair(5, 1.0, rng_stream(14, k))
            for e in (e0, e1):
                assert np.linalg.norm(e.conj().T @ e - np.eye(5), 2) < 1e-10

    def test_pair_unpacks_to_the_dense_branches(self):
        rng = rng_stream(16)
        draws = [sample_hermitian(5, 1.0, rng) for _ in range(2)]
        pair = sample_environment_pair(5, 1.0, rng_stream(16))
        # e0 from the stream's first Hermitian draw, e1 from its second.
        for eigen, h in zip((pair.e0_eigen, pair.e1_eigen), draws):
            assert all(map(np.array_equal, eigen, envgen._exp_eigensystem(h)))
        for dense, h in zip(pair, draws):
            assert np.abs(dense - taylor_expm_neg_i(h)).max() < 1e-9
        for dense, (phases, basis) in zip(pair, (pair.e0_eigen, pair.e1_eigen)):
            assert np.array_equal(dense, (basis * phases) @ basis.conj().T)
            assert np.abs(np.abs(phases) - 1.0).max() < 1e-15
            assert np.abs(basis.conj().T @ basis - np.eye(5)).max() < 1e-13

    def test_conjugation_invariance(self):
        rng = rng_stream(15)
        a, b = sample_environment_pair(6, 1.0, rng)
        w = exponentiate_hermitian(sample_hermitian(6, 1.0, rng))
        wa = w @ a @ w.conj().T
        wb = w @ b @ w.conj().T
        assert commutator_norm(wa, wb) == pytest.approx(commutator_norm(a, b), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.eye(2), np.eye(3))


class TestAnglesForGamma:
    @pytest.mark.parametrize("gamma", [1e-3, 0.0135, 0.135, 1.0, 2.0])
    def test_achieves_target(self, gamma):
        a0, a1 = angles_for_gamma(gamma)
        g0, g1 = make_local_gate(a0), make_local_gate(a1)
        assert commutator_norm(g0, g1) == pytest.approx(gamma, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            angles_for_gamma(2.5)


class TestStreams:
    def test_same_path_same_stream(self):
        assert rng_stream(3, 1, 4).integers(1 << 62) == rng_stream(3, 1, 4).integers(1 << 62)

    def test_distinct_paths_differ(self):
        draws = {rng_stream(3, k).integers(1 << 62) for k in range(32)}
        assert len(draws) == 32


class TestMatrixJson:
    def test_round_trip(self):
        m = sample_hermitian(4, 1.0, rng_stream(20))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_row_major_pairs(self):
        doc = matrix_to_json(np.array([[1 + 2j, 3.0], [0.0, -1j]]))
        assert doc["shape"] == [2, 2]
        assert doc["entries"][1] == [3.0, 0.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            matrix_from_json({"shape": [2, 2], "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("shape", [[-1, -1], [-2, 3], [2, -1]], ids=["-1x-1", "-2x3", "2x-1"])
    def test_negative_dimension_rejected(self, shape):
        # [-1, -1] has one entry by the pair count, so only the sign check stops it.
        n = max(1, abs(int(np.prod(shape))))
        with pytest.raises(ConfigurationError, match="must not be negative"):
            matrix_from_json({"shape": shape, "entries": [[1.0, 0.0]] * n})

    @pytest.mark.parametrize("shape, n", [([2.7, 2], 4), ([True, True], 1), ("22", 4)],
                             ids=["float", "bool", "string"])
    def test_non_integer_shape_rejected(self, shape, n):
        with pytest.raises(ConfigurationError, match="must be a list of integers"):
            matrix_from_json({"shape": shape, "entries": [[1.0, 0.0]] * n})

    def test_environment_file_round_trip(self, tmp_path):
        e0, e1 = sample_environment_pair(3, 1.0, rng_stream(21))
        path = tmp_path / "env.json"
        save_environment(path, e0, e1)
        with open(path) as fh:
            json.load(fh)  # valid JSON document
        back0, back1 = load_environment(path)
        assert np.array_equal(back0, e0)
        assert np.array_equal(back1, e1)

    def test_environment_file_write_makes_missing_directory(self, tmp_path):
        e0, e1 = sample_environment_pair(3, 1.0, rng_stream(21))
        path = tmp_path / "new" / "env.json"
        save_environment(path, e0, e1)
        assert np.array_equal(load_environment(path)[1], e1)

    def test_failed_environment_write_leaves_old_file_intact(self, tmp_path, full_disk):
        e0, e1 = sample_environment_pair(3, 1.0, rng_stream(21))
        path = tmp_path / "env.json"
        path.write_text("old environment\n")
        with pytest.raises(OSError):
            save_environment(path, e0, e1)
        assert path.read_text() == "old environment\n"
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left

    @pytest.mark.parametrize("text", [
        '{"e0": {"shape": [1, 1], "entries": [[1.0, 0.0]]}, "e1": ',
        "{}",
        '{"e0": {"shape": [1, 1], "entries": [[1.0, 0.0]]}}',
        "[1, 2]",
    ], ids=["truncated", "empty-object", "no-e1", "not-an-object"])
    def test_malformed_environment_file_rejected(self, tmp_path, text):
        path = tmp_path / "env.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_environment(path)
