"""Numerical verification of the rounding lemmas (4.4 and 4.5), of the
stage-1 Gram trick against numpy's SVD, and of the behaviour of
Algorithm 3 as ``core.hopeplus.rounding`` runs it for Spark and the
reference alike."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hopeplus as hp
from repro.core import reference
from repro.core.hopeplus import fnem_update, rounding, snem_update, stage1


def random_orthogonal(rng, k):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q


def rounding_labels(L, k, *, urt, t_max=100):
    """The labels argmax_j (L T)_{i,j} of the T that Alg. 3 returns."""
    return (L @ rounding(L, k, urt=urt, t_max=t_max)).argmax(axis=1)


def make_lc(seed, n=40, k=3):
    rng = np.random.default_rng(seed)
    L, _ = np.linalg.qr(rng.standard_normal((n, k)))
    labels = rng.integers(0, k, n)
    C = np.zeros((n, k))
    C[np.arange(n), labels] = 1.0
    C /= np.maximum(np.sqrt(C.sum(axis=0)), 1.0)[None, :]
    return rng, L, C


class TestStage1:
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 10))
        L, B, s = stage1(X, 3)
        U, sv, _ = np.linalg.svd(X, full_matrices=False)
        np.testing.assert_allclose(s, sv[:3], rtol=1e-10)
        for j in range(3):
            sign = np.sign(L[:, j] @ U[:, j])
            np.testing.assert_allclose(L[:, j], sign * U[:, j], atol=1e-10)
        np.testing.assert_allclose(L, X @ B, atol=1e-12)
        top = L[np.abs(L).argmax(axis=0), np.arange(3)]
        assert (top > 0).all()


class TestLemma44Procrustes:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_fnem_t_beats_random_rotations(self, seed):
        rng, L, C = make_lc(seed)
        T_star = fnem_update(L.T @ C)
        best = np.linalg.norm(L @ T_star - C, "fro")
        for _ in range(20):
            T = random_orthogonal(rng, 3)
            assert best <= np.linalg.norm(L @ T - C, "fro") + 1e-9

    def test_fnem_t_is_orthogonal(self):
        _, L, C = make_lc(0)
        T = fnem_update(L.T @ C)
        np.testing.assert_allclose(T @ T.T, np.eye(3), atol=1e-10)

    def test_fnem_exact_recovery(self):
        # If C = L R for an orthogonal R, Procrustes must find it.
        rng = np.random.default_rng(1)
        L, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        R = random_orthogonal(rng, 3)
        T = fnem_update(L.T @ (L @ R))
        np.testing.assert_allclose(T, R, atol=1e-10)


class TestLemma45Snem:
    def test_snem_t_formula(self):
        _, L, C = make_lc(2)
        np.testing.assert_allclose(snem_update(L.T @ C), L.T @ C)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_snem_t_minimises_spectral_norm(self, seed):
        # Lemma 4.5: T* = L^T C minimises ||L T - C||_2 over all T
        # (unconstrained minimiser = projection onto span(L)).
        rng, L, C = make_lc(seed)
        T_star = L.T @ C
        best = np.linalg.norm(L @ T_star - C, 2)
        for _ in range(20):
            T = T_star + 0.3 * rng.standard_normal(T_star.shape)
            assert best <= np.linalg.norm(L @ T - C, 2) + 1e-9


class TestRoundingBehaviour:
    def test_converges_on_wellseparated(self):
        # Three orthogonal direction bundles -> rounding is stable and
        # perfectly recovers the groups.
        rng = np.random.default_rng(3)
        base = np.eye(3)
        labels = np.repeat([0, 1, 2], 20)
        L = base[labels] + 0.01 * rng.standard_normal((60, 3))
        for urt in ("snem", "fnem"):
            got = rounding_labels(L, 3, urt=urt)
            # perfect grouping up to label permutation
            for g in range(3):
                seg = got[labels == g]
                assert len(np.unique(seg)) == 1
            assert len(np.unique(got)) == 3

    def test_trace_objective_not_degraded(self):
        # Rounding should not leave the VCMI trace objective below the
        # naive argmax seeding's value.
        rng = np.random.default_rng(4)
        L, _ = np.linalg.qr(rng.standard_normal((50, 4)))

        def trace_obj(labels):
            C = np.zeros((50, 4))
            C[np.arange(50), labels] = 1.0
            C /= np.maximum(np.sqrt(C.sum(axis=0)), 1.0)[None, :]
            M = L.T @ C
            return np.trace(M @ M.T)  # Tr(C^T LL^T C)

        seed_labels = L.argmax(axis=1)
        for urt in ("snem", "fnem"):
            got = rounding_labels(L, 4, urt=urt)
            assert trace_obj(got) >= trace_obj(seed_labels) - 1e-9

    def test_handles_empty_cluster(self):
        # All rows pointing at the same corner: rounding must not crash.
        L = np.tile(np.array([[1.0, 0.0]]), (10, 1))
        got = rounding_labels(L, 2, urt="snem")
        assert len(got) == 10

    def test_max_iterations_respected(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((30, 3))
        got = rounding_labels(L, 3, urt="snem", t_max=1)
        assert len(got) == 30

    #: SNEM alternates between two labelings of the last-but-one row.
    CYCLE_L = np.array([[1, .25], [.5, 1], [-.25, .75], [.75, 1], [.25, 1],
                        [-.5, -.25], [.25, .25], [1, .5]])

    def test_unknown_urt_refused(self, monkeypatch):
        # 'FNEM' is not 'fnem': rounding refuses it instead of running
        # SNEM, and hopeplus_ref refuses it before its SVD.
        with pytest.raises(ValueError, match="urt"):
            rounding(self.CYCLE_L, 2, urt="FNEM", t_max=100)

        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD ran")

        monkeypatch.setattr(reference, "svd_left", no_svd)
        with pytest.raises(ValueError, match="urt"):
            reference.hopeplus_ref(None, None, 2, urt="FNEM")

    @pytest.mark.parametrize("urt, calls, labels", [
        ("snem", 3, [0, 1, 1, 1, 1, 1, 0, 0]),
        ("fnem", 2, [0, 1, 1, 1, 1, 1, 0, 0]),
    ])
    def test_stops_on_a_repeated_step(self, monkeypatch, urt, calls, labels):
        # SNEM cycles [.., 0, 0] -> [.., 1, 0] -> [.., 0, 0]: the third step
        # repeats the first one's statistics and stops the loop, with T of
        # the labeling the cycle started from.  FNEM reaches a fixed point,
        # which the second step's repeat of the first detects.
        step, seen = hp._rounding_step, []

        def counted(l, t):
            seen.append(t)
            return step(l, t)

        monkeypatch.setattr(hp, "_rounding_step", counted)
        got = rounding_labels(self.CYCLE_L, 2, urt=urt)
        assert len(seen) == calls
        np.testing.assert_array_equal(got, labels)
