"""BiSBM internals: the O(k)-per-move ΔL formula against brute-force
likelihood recomputation, and statistics consistency after moves."""
import numpy as np
import pytest

from repro.baselines.bisbm import _State, bisbm_kl_baseline, bisbm_mcmc_baseline
from repro.metrics import accuracy
from repro.synth_data import bipartite_sbm


@pytest.fixture()
def state():
    ds = bipartite_sbm(n_u=40, n_v=30, n_edges=300, k=3, noise=0.2, seed=3,
                       weighted=True)
    rng = np.random.default_rng(0)
    return ds, _State(ds, 3, rng)


class TestDeltaFormula:
    @pytest.mark.parametrize("side, step", [(0, 7), (1, 5)], ids=["u", "v"])
    def test_delta_matches_brute_force(self, state, side, step):
        _, st = state
        base = st.loglik()
        for i in range(0, st.n[side], step):
            delta = st.delta(side, i)
            r_old = st.g[side][i]
            for r_new in range(st.k):
                st.move(side, i, r_new)
                got = st.loglik() - base
                st.move(side, i, r_old)
                assert delta[r_new] == pytest.approx(got, abs=1e-8)

    def test_delta_zero_at_current_block(self, state):
        _, st = state
        for side in (0, 1):
            assert st.delta(side, 0)[st.g[side][0]] == 0.0


class TestMoveConsistency:
    def test_stats_match_rebuild_after_moves(self, state):
        _, st = state
        rng = np.random.default_rng(1)
        for _ in range(50):
            side = int(rng.random() >= 0.5)
            st.move(side, int(rng.integers(st.n[side])),
                    int(rng.integers(st.k)))
        m, ku, kv = st.m.copy(), st.kappa[0].copy(), st.kappa[1].copy()
        st._rebuild()
        np.testing.assert_allclose(m, st.m, atol=1e-9)
        np.testing.assert_allclose(ku, st.kappa[0], atol=1e-9)
        np.testing.assert_allclose(kv, st.kappa[1], atol=1e-9)

    def test_block_mass_conserved(self, state):
        _, st = state
        total = st.m.sum()
        st.move(0, 0, (st.g[0][0] + 1) % st.k)
        assert st.m.sum() == pytest.approx(total)
        assert st.kappa[0].sum() == pytest.approx(st.deg[0].sum())


class TestLikelihoodAscent:
    def test_kl_sweeps_never_decrease_loglik(self):
        ds = bipartite_sbm(n_u=100, n_v=80, n_edges=1200, k=3, noise=0.1,
                           seed=5)
        rng = np.random.default_rng(0)
        st = _State(ds, 3, rng)
        prev = st.loglik()
        from repro.baselines.bisbm import _greedy_sweeps
        for _ in range(3):
            _greedy_sweeps(st, rng, 1)
            cur = st.loglik()
            assert cur >= prev - 1e-9
            prev = cur


class TestEndToEnd:
    def test_kl_recovers_planted(self):
        ds = bipartite_sbm(n_u=200, n_v=150, n_edges=3000, k=3, noise=0.05,
                           seed=7)
        lab = bisbm_kl_baseline(ds, 3, seed=1)
        assert accuracy(ds.labels_u, lab) > 0.85

    def test_mcmc_beats_random(self):
        ds = bipartite_sbm(n_u=150, n_v=100, n_edges=2500, k=3, noise=0.05,
                           seed=8)
        lab = bisbm_mcmc_baseline(ds, 3, seed=1, n_sweeps=15)
        assert accuracy(ds.labels_u, lab) > 0.5
