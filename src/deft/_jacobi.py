"""One-sided Jacobi SVD, the factorization behind the tsvd and lrmf backends.

Rotates column pairs of a working copy until all pairs are numerically
orthogonal; column norms are then the singular values, normalized columns
the left singular vectors, and the accumulated rotations the right ones.
Slower than bidiagonalization-based routines but accurate to a few ulps on
the small and strongly rank-deficient inputs this package cares about, and
free of LAPACK version drift, so tsvd/lrmf factors are the same bits on
every platform. Rank counting does not need factors or that accuracy and
uses LAPACK's singular values instead (see ``deft.matcore.numerical_rank``).

The working copy is the input times a power of two that brings its largest
entry into [0.5, 1). The scaling is exact, and it keeps the sums of squares
below from overflowing or underflowing at any input scale; the singular
values are scaled back at the end.

Pairs are visited in round-robin rounds (the all-play-all tournament
schedule). Every pair still appears exactly once per sweep, but each round's
pairs are disjoint, so the rotations of a round vectorize across columns.
"""

from __future__ import annotations

import numpy as np

from deft.matcore import unit_exponent


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

    Deterministic: each new column comes from the standard basis vector
    e_i with the largest residual against the columns so far (lowest i on
    ties). With col orthonormal columns the squared residuals
    1 - |u[i, :col]|^2 sum to m - col, so the pick's residual is at least
    sqrt((m - col) / m) and never degenerate. Assumes u[:, :start] already
    has orthonormal columns.
    """
    for col in range(start, u.shape[1]):
        basis = u[:, :col]
        i = int(np.argmin(np.einsum("ij,ij->i", basis, basis)))
        cand = -(basis @ basis[i])
        cand[i] += 1.0
        cand -= basis @ (basis.T @ cand)  # second pass restores orthogonality lost to rounding
        u[:, col] = cand / np.linalg.norm(cand)
    return u


def _fix_signs(u, v):
    """Force the largest-magnitude entry of each u column non-negative."""
    idx = np.argmax(np.abs(u), axis=0)
    flip = u[idx, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    if v is not None:
        v[:, flip] *= -1.0


def jacobi_svd(a, tol=1e-13, max_sweeps=60):
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

    Returns
    -------
    (u, s, v) with ``a = u @ diag(s) @ v.T``, s non-increasing, u and v
    having orthonormal columns.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        # rotate over the smaller column count; swap roles on the way out
        u, s, v = jacobi_svd(a.T, tol=tol, max_sweeps=max_sweeps)
        return v, s, u

    shift = unit_exponent(a)
    g = a.copy()  # C-ordered even for a transposed view; the order fixes einsum's rounding
    np.ldexp(g, -shift, out=g)
    v = np.eye(n)
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
    norms = norms[order]
    g = g[:, order]
    v = v[:, order]
    u = np.empty((m, n))
    nz = int(np.count_nonzero(norms > 0.0))
    u[:, :nz] = g[:, :nz] / norms[:nz]
    if nz < n:
        u[:, nz:] = 0.0
        _complete_basis(u, nz)
    _fix_signs(u, v)
    return u, np.ldexp(norms, shift), v
