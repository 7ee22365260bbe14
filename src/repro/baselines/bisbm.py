"""BiSBM baselines: degree-corrected bipartite stochastic block models.

Both optimise the degree-corrected bipartite SBM profile log-likelihood
(Larremore et al. [32], Yen & Larremore [67]):

    L = Σ_rs f(m_rs) − Σ_r f(κ^U_r) − Σ_s f(κ^V_s),   f(x) = x·ln x

where m_rs is the total edge weight between U-block r and V-block s and
κ are block degree sums.  Bipartite structure is enforced by assigning U
vertices only to U-blocks and V vertices only to V-blocks (k each).

* **BiSBM-KL** — Kernighan–Lin-style greedy sweeps: each vertex moves to
  the block with the best positive ΔL; repeat until a sweep makes no move.
* **BiSBM-MCMC** — Metropolis–Hastings single-vertex moves with a
  geometric annealing schedule, then a final greedy sweep (zero-
  temperature polish), mirroring the MCMC sampler's maximum-a-posteriori
  use in the paper's experiments.

Per-vertex move evaluation is O(k + deg) with numpy, so a sweep costs
O(|E| + (|U|+|V|)·k).
"""
from __future__ import annotations

import numpy as np

from ..synth_data import BipartiteDataset


def _f(x):
    """x ln x with f(0) = 0, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


class _State:
    """Mutable block-membership state with O(k²) sufficient statistics.

    Everything per vertex is indexed by side, 0 for U and 1 for V: ``g``
    (block of each vertex), ``kappa`` (block degree sums), ``deg``, and
    the CSR-style incidence lists ``order`` / ``ptr``.  ``m`` is the
    U-block x V-block edge weight, which side 1 sees as ``m.T``."""

    def __init__(self, ds: BipartiteDataset, k: int, rng: np.random.Generator):
        e = ds.edges
        self.k = k
        #: the endpoint of every edge on each side
        self.ends = (e["u"].to_numpy(), e["v"].to_numpy())
        self.w = e["w"].to_numpy().astype(np.float64)
        self.n = (ds.n_u, ds.n_v)
        self.deg = [np.bincount(x, weights=self.w, minlength=n)
                    for x, n in zip(self.ends, self.n)]
        self.g = [rng.integers(0, k, n) for n in self.n]
        # incidence lists: for each vertex, the slice of its edges
        self.order = [np.argsort(x, kind="stable") for x in self.ends]
        self.ptr = [np.searchsorted(x[o], np.arange(n + 1))
                    for x, o, n in zip(self.ends, self.order, self.n)]
        self._rebuild()

    def _rebuild(self):
        self.m = np.zeros((self.k, self.k))
        np.add.at(self.m, (self.g[0][self.ends[0]], self.g[1][self.ends[1]]),
                  self.w)
        self.kappa = [np.bincount(g, weights=d, minlength=self.k)
                      for g, d in zip(self.g, self.deg)]

    def loglik(self) -> float:
        return float(_f(self.m).sum() - _f(self.kappa[0]).sum()
                     - _f(self.kappa[1]).sum())

    def _blocks(self, side: int) -> np.ndarray:
        """m with this side's blocks as rows (a view)."""
        return self.m if side == 0 else self.m.T

    # -- move evaluation ----------------------------------------------------
    def _edge_profile(self, side: int, i: int) -> np.ndarray:
        """e[s] = weight from vertex i of ``side`` to block s of the
        other side."""
        sl = self.order[side][self.ptr[side][i]:self.ptr[side][i + 1]]
        other = 1 - side
        return np.bincount(self.g[other][self.ends[other][sl]],
                           weights=self.w[sl], minlength=self.k)

    def delta(self, side: int, i: int) -> np.ndarray:
        """ΔL of moving vertex i of ``side`` from its block r to every
        candidate block (0 at r).

        With d its degree and e its edge profile,
        Δ(Σ f(m))   = Σ_s [f(m_{r,s}−e_s) − f(m_{r,s})]
                    + Σ_s [f(m_{r',s}+e_s) − f(m_{r',s})]      (r' ≠ r)
        Δ(−Σ f(κ))  = −[f(κ_r−d) − f(κ_r)] − [f(κ_{r'}+d) − f(κ_{r'})]
        Rows r and r' are disjoint for r' ≠ r so the two row updates
        commute and can be evaluated independently.  The row sums run
        over a C-contiguous ``m`` (a copy for side 1), so both sides sum
        in the same order.
        """
        m_rows = np.ascontiguousarray(self._blocks(side))
        kappa = self.kappa[side]
        r = int(self.g[side][i])
        d = float(self.deg[side][i])
        e = self._edge_profile(side, i)
        base_r = (_f(m_rows[r] - e) - _f(m_rows[r])).sum()
        gain = (_f(m_rows + e[None, :]) - _f(m_rows)).sum(axis=1)
        f_kr = _f(np.array([kappa[r], kappa[r] - d]))
        dk = -(f_kr[1] - f_kr[0]) - (_f(kappa + d) - _f(kappa))
        out = base_r + gain + dk
        out[r] = 0.0
        return out

    def move(self, side: int, i: int, r_new: int):
        r = self.g[side][i]
        if r == r_new:
            return
        e = self._edge_profile(side, i)
        d = self.deg[side][i]
        m_rows = self._blocks(side)
        m_rows[r] -= e
        m_rows[r_new] += e
        self.kappa[side][r] -= d
        self.kappa[side][r_new] += d
        self.g[side][i] = r_new


def _greedy_sweeps(st: _State, rng: np.random.Generator, max_sweeps: int) -> None:
    for _ in range(max_sweeps):
        moved = 0
        for side in (0, 1):
            for i in rng.permutation(st.n[side]):
                delta = st.delta(side, i)
                b = int(delta.argmax())
                if delta[b] > 1e-9:
                    st.move(side, i, b)
                    moved += 1
        if moved == 0:
            break


def bisbm_kl_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0,
                      max_sweeps: int = 20) -> np.ndarray:
    rng = np.random.default_rng(seed)
    st = _State(ds, k, rng)
    _greedy_sweeps(st, rng, max_sweeps)
    return st.g[0].copy()


def bisbm_mcmc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0,
                        n_sweeps: int = 30, t_start: float = 2.0,
                        t_end: float = 0.05) -> np.ndarray:
    rng = np.random.default_rng(seed)
    st = _State(ds, k, rng)
    temps = np.geomspace(t_start, t_end, n_sweeps)
    for temp in temps:
        for side in (0, 1):
            for i in rng.permutation(st.n[side]):
                cand = int(rng.integers(k))
                delta = st.delta(side, i)[cand]
                if delta > 0 or rng.random() < np.exp(delta / temp):
                    st.move(side, i, cand)
    _greedy_sweeps(st, rng, 5)  # zero-temperature polish (MAP estimate)
    return st.g[0].copy()
