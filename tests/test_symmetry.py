"""Exact symmetries of the walk at paper size.

Each transformation relabels sites, coin states or bath states, so it maps
the walk onto a copy of itself and leaves the distance-to-uniform series
unchanged up to rounding.  The dense-operator oracles stop at a few sites;
these gates check the step kernels and the observer together where the
paper's runs are made.  The coin is random and not symmetric, and the
initial coin is not the default, so a mis-applied coin does not go unseen.
"""

from dataclasses import replace

import numpy as np
import pytest

from ringwalk import (
    LocalEnvironment,
    NonlocalEnvironment,
    WalkModel,
    rng_stream,
    sample_environment_pair,
    walk_series,
)
from oracles import random_state_vector, random_unitary

TOL = 1e-12
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def d_omega(model, steps):
    return walk_series(model, steps).d_omega


def mirrored(model, environment):
    """The walk seen in a mirror: site s -> -s, coin c -> 1 - c, branches swapped."""
    return replace(
        model,
        environment=environment,
        coin=X @ model.coin @ X,
        initial_coin=X @ model.initial_coin,
        initial_site=(-model.initial_site) % model.d_s,
    )


def random_coin(rng):
    coin = random_unitary(2, rng)
    assert np.abs(coin - coin.T).max() > 0.1  # a transposed coin would show
    return coin


class TestNonlocalSymmetries:
    D_S, D_E, STEPS = 51, 320, 150

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(2014)
        e0, e1 = sample_environment_pair(self.D_E, 1.0, rng_stream(13))
        model = WalkModel(
            d_s=self.D_S,
            environment=NonlocalEnvironment(e0, e1),
            coin=random_coin(rng),
            initial_site=3,
            initial_coin=random_state_vector(2, rng),
        )
        return model, d_omega(model, self.STEPS)

    def test_translation(self, case):
        model, base = case
        moved = replace(model, initial_site=(model.initial_site + 20) % self.D_S)
        assert np.abs(d_omega(moved, self.STEPS) - base).max() <= TOL

    def test_mirror(self, case):
        model, base = case
        env = model.environment
        mirror = mirrored(model, NonlocalEnvironment(env.e1, env.e0))
        assert np.abs(d_omega(mirror, self.STEPS) - base).max() <= TOL

    def test_bath_basis_change(self, case):
        model, base = case
        w = random_unitary(self.D_E, np.random.default_rng(2016))
        env = model.environment
        rotated = replace(
            model,
            environment=NonlocalEnvironment(w @ env.e0 @ w.conj().T, w @ env.e1 @ w.conj().T),
            initial_env=w[:, 0],
        )
        assert np.abs(d_omega(rotated, self.STEPS) - base).max() <= TOL

    def test_common_phase(self, case):
        model, base = case
        phase = np.exp(0.7j)
        env = model.environment
        shifted = replace(model, environment=NonlocalEnvironment(phase * env.e0, phase * env.e1))
        assert np.abs(d_omega(shifted, self.STEPS) - base).max() <= TOL

    def test_coin_basis_phase(self, case):
        # The shift and the branch unitaries are diagonal in the coin, so a
        # diagonal coin unitary D commutes with them: coin -> D coin D^dag,
        # initial coin -> D initial coin.  A transposed coin breaks this one.
        model, base = case
        d = np.diag([1.0, np.exp(1.1j)])
        rephased = replace(
            model, coin=d @ model.coin @ d.conj().T, initial_coin=d @ model.initial_coin
        )
        assert np.abs(d_omega(rephased, self.STEPS) - base).max() <= TOL


class TestLocalSymmetries:
    D_S, STEPS = 9, 300

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(2015)
        model = WalkModel(
            d_s=self.D_S,
            environment=LocalEnvironment(random_unitary(2, rng), random_unitary(2, rng)),
            coin=random_coin(rng),
            initial_site=2,
            initial_coin=random_state_vector(2, rng),
        )
        return model, d_omega(model, self.STEPS)

    def test_translation(self, case):
        model, base = case
        moved = replace(model, initial_site=(model.initial_site + 4) % self.D_S)
        assert np.abs(d_omega(moved, self.STEPS) - base).max() <= TOL

    def test_mirror(self, case):
        model, base = case
        env = model.environment
        mirror = mirrored(model, LocalEnvironment(env.g1, env.g0))
        assert np.abs(d_omega(mirror, self.STEPS) - base).max() <= TOL
