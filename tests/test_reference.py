"""Numerical verification of the paper's analysis on the numpy reference:
Lemma 2.2, Lemma 3.1, Theorem 3.2 and the Figure-5 behaviour."""
import numpy as np
import pytest

from repro.core.reference import (
    build_pq,
    exact_f_series,
    exact_hop_matrix,
    hop_embedding_ref,
    hope_ref,
    hopeplus_ref,
)
from repro.metrics import accuracy
from repro.sparsela import SparseCOO, svd_left
from repro.synth_data import bipartite_sbm, make_dataset


@pytest.fixture(scope="module")
def tiny():
    ds = bipartite_sbm(n_u=60, n_v=40, n_edges=600, k=3, noise=0.15, seed=5)
    P, Q = build_pq(ds.edges["u"].to_numpy(), ds.edges["v"].to_numpy(),
                    ds.edges["w"].to_numpy(), ds.n_u, ds.n_v)
    return ds, P, Q


class TestTransitionMatrices:
    def test_p_rows_stochastic(self, tiny):
        _, P, _ = tiny
        rs = P.row_sums()
        active = rs > 0
        np.testing.assert_allclose(rs[active], 1.0, atol=1e-12)

    def test_q_largest_singular_value_leq_one(self, tiny):
        # Part of Lemma 3.1's proof: sigma_1(Q) <= 1.
        _, _, Q = tiny
        s = np.linalg.svd(Q.to_dense(), compute_uv=False)
        assert s[0] <= 1.0 + 1e-10

    def test_qqt_psd(self, tiny):
        _, _, Q = tiny
        Qd = Q.to_dense()
        w = np.linalg.eigvalsh(Qd @ Qd.T)
        assert w.min() >= -1e-10


class TestLemma31ClosedForm:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8])
    def test_series_equals_closed_form(self, tiny, alpha):
        _, P, Q = tiny
        F_series = exact_f_series(P, Q, alpha, n_terms=400)
        Qd = Q.to_dense()
        U, s, _ = np.linalg.svd(Qd, full_matrices=False)
        lam = (1 - alpha) / (1 - alpha * np.minimum(s, 1.0) ** 2)
        F_closed = P.to_dense() @ (U * lam[None, :]) @ U.T
        np.testing.assert_allclose(F_series, F_closed, atol=1e-8)


class TestLemma22Bounds:
    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_f_nonnegative_and_bounded(self, tiny, alpha):
        _, P, Q = tiny
        F = exact_f_series(P, Q, alpha, n_terms=300)
        assert F.min() >= -1e-9
        assert F.max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_lemma22_entrywise_claim_fails_empirically(self, tiny, alpha):
        # DISCREPANCY (recorded in EXPERIMENTS.md): Lemma 2.2 claims
        # F_{i,j} <= P_{i,j}, but F is strictly positive on pairs where
        # P_{i,j} = 0 (the walk reaches v_j through the WPG without u_i
        # being adjacent to it), so the entrywise claim cannot hold.  The
        # proof's step (P Δ^{1/2} Ω^λ Δ^{-1/2})_{i,j} <= P_{i,j} does not
        # survive the Δ-conjugation.  The parts that matter downstream
        # (convergence, F in [0,1]) do hold — tested above.
        _, P, Q = tiny
        F = exact_f_series(P, Q, alpha, n_terms=300)
        Pd = P.to_dense()
        violated = (F > Pd + 1e-9)
        assert violated.any(), "if this starts holding, restore Lemma 2.2"


class TestHopMatrix:
    def test_h_rows_unit_norm(self, tiny):
        _, P, Q = tiny
        H = exact_hop_matrix(P, Q, 0.3)
        norms = np.linalg.norm(H, axis=1)
        active = norms > 0
        np.testing.assert_allclose(norms[active], 1.0, atol=1e-10)

    def test_embedding_rows_unit_norm(self, tiny):
        _, P, Q = tiny
        X, _ = hop_embedding_ref(P, Q, 0.3, 10, seed=0)
        norms = np.linalg.norm(X, axis=1)
        active = norms > 0
        np.testing.assert_allclose(norms[active], 1.0, atol=1e-10)

    def test_full_rank_embedding_recovers_h_gram(self, tiny):
        # With beta = |V|, X X^T = H H^T exactly (Lemma 3.1 + Thm 3.2).
        ds, P, Q = tiny
        H = exact_hop_matrix(P, Q, 0.3)
        X, _ = hop_embedding_ref(P, Q, 0.3, ds.n_v, seed=0, n_iter=15)
        np.testing.assert_allclose(X @ X.T, H @ H.T, atol=1e-5)


class TestEmbeddingWithoutP:
    def test_row_normalisation_cancels_p(self):
        # P = D_U^{-1} A scales each row of A, and X's row normalisation
        # undoes it: X = rownorm(A U_Q Λ) with the raw weights, so the
        # embedding never needs P, only Q's SVD.
        ds = make_dataset("CORA", seed=0, size_factor=0.3)
        u, v, w = (ds.edges[c].to_numpy() for c in ("u", "v", "w"))
        P, Q = build_pq(u, v, w, ds.n_u, ds.n_v)
        alpha, beta = 0.3, 5 * ds.k
        X, s = hop_embedding_ref(P, Q, alpha, beta, seed=0)
        U, s_again = svd_left(Q, beta, n_iter=8, seed=0)
        np.testing.assert_array_equal(s, s_again)
        lam = (1 - alpha) / (1 - alpha * np.minimum(s, 1.0) ** 2)
        Y = SparseCOO.from_edges(u, v, w, ds.n_u, ds.n_v).matmat(
            U * lam[None, :])
        Y /= np.maximum(np.linalg.norm(Y, axis=1, keepdims=True), 1e-300)
        np.testing.assert_allclose(Y, X, rtol=0, atol=1e-14)


class TestFigure5ApproxError:
    def test_error_decreases_with_beta(self, tiny):
        # epsilon_a = mean |  ||X_i-X_j||^2 - ||H_i-H_j||^2 | shrinks in
        # beta — the Figure-5 curve.
        ds, P, Q = tiny
        H = exact_hop_matrix(P, Q, 0.3)
        Dh = 2 * (1 - H @ H.T)
        errs = []
        for beta in (4, 12, ds.n_v):
            X, _ = hop_embedding_ref(P, Q, 0.3, beta, seed=0, n_iter=15)
            Dx = 2 * (1 - X @ X.T)
            errs.append(np.abs(Dx - Dh).mean())
        assert errs[0] > errs[-1]
        assert errs[1] >= errs[-1] - 1e-9
        assert errs[-1] < 1e-4


class TestTheorem32Bound:
    def test_sigma_bound_holds(self, tiny):
        # sigma = ((1-a)/(1-a sbar_{b+1}^2))^2 bounds the Gram error
        # ||F F^T - Xhat Xhat^T||_max (the inequality chain in the proof).
        ds, P, Q = tiny
        alpha, beta = 0.3, 8
        Qd = Q.to_dense()
        U, s, _ = np.linalg.svd(Qd, full_matrices=False)
        lam = (1 - alpha) / (1 - alpha * np.minimum(s, 1.0) ** 2)
        F = P.to_dense() @ (U * lam[None, :]) @ U.T
        Xh = P.to_dense() @ (U[:, :beta] * lam[None, :beta])
        sigma = ((1 - alpha) / (1 - alpha * min(s[beta], 1.0) ** 2)) ** 2
        gap = np.abs(F @ F.T - Xh @ Xh.T).max()
        assert gap <= sigma + 1e-9


class TestReferenceClustering:
    def test_hope_ref_recovers_planted(self, tiny):
        ds, P, Q = tiny
        lab = hope_ref(P, Q, ds.k, seed=0)
        assert accuracy(ds.labels_u, lab) > 0.9

    @pytest.mark.parametrize("urt", ["snem", "fnem"])
    def test_hopeplus_ref_recovers_planted(self, tiny, urt):
        ds, P, Q = tiny
        lab = hopeplus_ref(P, Q, ds.k, urt=urt, seed=0)
        assert accuracy(ds.labels_u, lab) > 0.9

    @pytest.mark.parametrize("method", [hope_ref, hopeplus_ref])
    def test_k_above_embedding_rank_raises(self, method):
        # The numpy twin of the Spark tests: 20 U vertices cannot make 25
        # clusters, nor can 12 V vertices make 13 (Q, |V| x |U|, has rank
        # at most 12), and the SVD pads no zero singular value to hide it.
        for n_u, n_v, n_edges, k in ((20, 15, 120, 25), (200, 12, 800, 13)):
            ds = bipartite_sbm(n_u=n_u, n_v=n_v, n_edges=n_edges, k=2,
                               noise=0.1, seed=4)
            P, Q = build_pq(ds.edges["u"].to_numpy(),
                            ds.edges["v"].to_numpy(),
                            ds.edges["w"].to_numpy(), ds.n_u, ds.n_v)
            with pytest.raises(ValueError, match=rf"k={k} exceeds the "
                                                 r"embedding rank \d+"):
                method(P, Q, k, seed=1)

    def test_isolated_vertices_tolerated(self):
        # u=5..9 isolated (no edges).
        ds = bipartite_sbm(n_u=30, n_v=20, n_edges=200, k=2, seed=1)
        P, Q = build_pq(ds.edges["u"].to_numpy(), ds.edges["v"].to_numpy(),
                        ds.edges["w"].to_numpy(), ds.n_u + 10, ds.n_v)
        lab = hope_ref(P, Q, 2, seed=0)
        assert len(lab) == ds.n_u + 10
