"""One-sided Jacobi SVD.

Rotates column pairs of a working copy until all pairs are numerically
orthogonal; column norms are then the singular values, normalized columns
the left singular vectors, and the accumulated rotations the right ones.
Slower than bidiagonalization-based routines but accurate to a few ulps on
the small and strongly rank-deficient inputs this package cares about, and
free of LAPACK version drift.

Pairs are visited in round-robin rounds (the all-play-all tournament
schedule). Every pair still appears exactly once per sweep, but each round's
pairs are disjoint, so the rotations of a round vectorize across columns.
"""

from __future__ import annotations

import numpy as np


class ConvergenceError(RuntimeError):
    """The Jacobi SVD used up its sweeps with column pairs still not orthogonal."""

    def __init__(self, sweeps, worst, tol):
        super().__init__(
            f"Jacobi SVD did not converge in {sweeps} sweeps: "
            f"worst pair residual {worst:.3e} > tol {tol:.1e}"
        )
        self.sweeps = sweeps
        self.worst = worst


def _round_robin_rounds(n):
    """Tournament schedule for n columns.

    Returns a list of (ia, ja) integer-array pairs. Each round pairs
    disjoint columns; across rounds every unordered pair occurs once.
    """
    players = list(range(n))
    if n % 2 == 1:
        players.append(-1)  # bye slot
    k = len(players)
    rounds = []
    for _ in range(k - 1):
        ia, ja = [], []
        for i in range(k // 2):
            a, b = players[i], players[k - 1 - i]
            if a != -1 and b != -1:
                ia.append(min(a, b))
                ja.append(max(a, b))
        rounds.append((np.asarray(ia), np.asarray(ja)))
        # rotate all but the first slot
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def _complete_basis(u, start):
    """Fill u[:, start:] with orthonormal columns via Gram-Schmidt.

    Deterministic: candidates are the standard basis vectors in order.
    Assumes u[:, :start] already has orthonormal columns.
    """
    m = u.shape[0]
    col = start
    for i in range(m):
        if col >= u.shape[1]:
            break
        cand = np.zeros(m)
        cand[i] = 1.0
        cand -= u[:, :col] @ (u[:, :col].T @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 0.5:  # e_i nearly inside the current span, try the next one
            u[:, col] = cand / nrm
            col += 1
    if col < u.shape[1]:
        raise RuntimeError("failed to complete orthonormal basis")
    return u


def _fix_signs(u, v):
    """Force the largest-magnitude entry of each u column non-negative."""
    idx = np.argmax(np.abs(u), axis=0)
    flip = u[idx, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    if v is not None:
        v[:, flip] *= -1.0


def jacobi_svd(a, tol=1e-13, max_sweeps=60, want_uv=True):
    """Thin SVD of `a` by one-sided Jacobi rotations.

    Parameters
    ----------
    a : ndarray, shape (m, n)
    tol : float
        Convergence threshold on max |<g_i, g_j>| / (|g_i| |g_j|).
    max_sweeps : int
        Hard cap on full sweeps; convergence is quadratic in the tail so
        the default is never reached on finite input. A last sweep that
        still finds a pair above `tol` raises ConvergenceError.
    want_uv : bool
        When False, skip accumulating V and return only the singular
        values. Roughly halves the work; used by rank computations.

    Returns
    -------
    (u, s, v) with ``a = u @ diag(s) @ v.T``, s non-increasing, u and v
    having orthonormal columns. With ``want_uv=False``, returns s alone.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        # rotate over the smaller column count; swap roles on the way out
        res = jacobi_svd(a.T, tol=tol, max_sweeps=max_sweeps, want_uv=want_uv)
        if not want_uv:
            return res
        u, s, v = res
        return v, s, u

    g = a.copy()
    v = np.eye(n) if want_uv else None
    if n > 1:
        rounds = _round_robin_rounds(n)
        for _ in range(max_sweeps):
            worst = 0.0
            for ia, ja in rounds:
                gia = g[:, ia]
                gja = g[:, ja]
                alpha = np.einsum("ij,ij->j", gia, gia)
                gamma = np.einsum("ij,ij->j", gja, gja)
                beta = np.einsum("ij,ij->j", gia, gja)
                # sqrt before multiplying: alpha * gamma overflows near 1e308
                denom = np.sqrt(alpha) * np.sqrt(gamma)
                live = denom > 0.0
                if not live.any():
                    continue
                rel = np.zeros_like(beta)
                rel[live] = np.abs(beta[live]) / denom[live]
                worst = max(worst, float(rel.max()))
                rot = rel > tol
                if not rot.any():
                    continue
                ii, jj = ia[rot], ja[rot]
                ar, gr, br = alpha[rot], gamma[rot], beta[rot]
                with np.errstate(over="ignore"):  # huge tau degrades to t ~ 0, which is correct
                    tau = (gr - ar) / (2.0 * br)
                    t = np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
                t[tau == 0.0] = 1.0  # equal norms: rotate by 45 degrees
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ = c * t
                gi = g[:, ii].copy()
                gj = g[:, jj]
                g[:, ii] = c * gi - s_ * gj
                g[:, jj] = s_ * gi + c * gj
                if v is not None:
                    vi = v[:, ii].copy()
                    vj = v[:, jj]
                    v[:, ii] = c * vi - s_ * vj
                    v[:, jj] = s_ * vi + c * vj
            if worst <= tol:
                break
        else:
            raise ConvergenceError(max_sweeps, worst, tol)

    norms = np.sqrt(np.einsum("ij,ij->j", g, g))
    order = np.argsort(-norms, kind="stable")
    s = norms[order]
    if not want_uv:
        return s

    g = g[:, order]
    v = v[:, order]
    u = np.empty((m, n))
    nz = int(np.count_nonzero(s > 0.0))
    u[:, :nz] = g[:, :nz] / s[:nz]
    if nz < n:
        u[:, nz:] = 0.0
        _complete_basis(u, nz)
    _fix_signs(u, v)
    return u, s, v
