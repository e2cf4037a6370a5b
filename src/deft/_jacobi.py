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

On small inputs the cost is per round, not per flop, so a round does as few
numpy calls as it can. A cold call (no guess of v, below) runs this loop:

- The schedule is built once per column count and cached. Each round holds
  one read-only index array of its i columns followed by its j columns in
  mirrored order, so the partner of position p is at position -1 - p.
- The working copy g sits on top of the accumulated rotations v in one
  (m + n) x n array. A round gathers its columns from it once: the first m
  rows give all the dot products (two einsums), and the whole block is
  rotated and written back in one step, g and v together.
- The per-pair scalars are Python floats. Python's + - * / and sqrt round
  exactly as numpy's do, but ``math.hypot`` differs from ``np.hypot`` in the
  last bit on some inputs, so hypot stays one numpy call per round.
- The rotation is ``blk * [c, c mirrored] + blk[:, ::-1] * [-s, s mirrored]``,
  which is ``c*gi - s*gj`` and ``s*gi + c*gj`` exactly, because x - y is
  x + (-y) and addition commutes. It runs in place in the gathered block
  with one temporary: two more block-sized temporaries per round made a
  3072 x 8 call about twice as slow in a fresh process.
- A pair at or below `tol` is never rotated, not even by the identity: that
  would turn a -0.0 into 0.0. A round where only some pairs rotate gathers
  just their columns for the rotation.

These bits are the reference: they do not depend on the BLAS library, a
golden digest in the tests pins them, and every factor that is stored or
rebuilt from stored bytes (``load_adapter``, a training run's final loss)
is cold.

A call may start warm, from a guess of v such as the v of a slightly
different matrix (training refactorizes a latent that each SGD step moves
a little). The working copy is then a @ v, nearly column-orthogonal, so the
quadratic tail of the convergence starts at once. One Newton-Schulz step
re-orthonormalizes the guess first, so a chain of warm starts does not
drift from orthogonality. A warm call with at most `_GRAM_MAX_COLS` (24)
columns, after the swap for a wide input, runs its own loop, which reads
all of a round's dots from one product instead of a gather and two einsums
(the cosines that decide convergence are those of the current columns, as
one-sided Jacobi needs; Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
1992):

- Each round forms the Gram matrix g^T g of the current columns and reads
  it as Python floats. The round rotates its pairs above `tol` with the
  same formulas as the cold loop (hypot from ``math``). A round whose pairs
  are all within `tol` checks every other pair in the same Gram, and the
  call stops there when they are within `tol` too, so the sweep that
  confirms convergence costs one product, not a full sweep of rounds;
  when they are not, the next round reuses that Gram.
- The rotations apply to the whole of [g; v] as one product with J, the
  identity carrying the round's 2 x 2 rotations. Pairs of the round within
  `tol`, and columns outside it, are multiplied by the identity, which may
  turn a -0.0 into 0.0. That is acceptable only because warm bits already
  depend on the start and on the BLAS library, and nothing stores them.

This loop relies on a small column count. Its Gram and J products cost
about 4 m n^2 flops a round, where the einsum loop's gathers cost O(m n),
so it wins only while the fixed cost of a round's numpy calls dominates.
Time of a warm call from a nearby matrix's v, warm loop over einsum loop
from the same start (best of 5, one BLAS thread, 2 vCPUs):

    columns n     n x n     4n x n    1024 x n   4096 x n
        4         0.52      0.55      0.54       0.62
        8         0.49      0.40      0.44       0.49
       16         0.64      0.54      0.43       0.54
       24         0.77      0.84      0.57       0.60
       32         1.41      1.16      0.72       0.50
       40         1.26      1.42      0.95       0.83
       56         2.05      1.72      1.32       1.11

Above 24 columns a warm call therefore runs the einsum loop from its
start. On the 32 x 32 reference training task (rank 4) a warm call takes
2.3 sweeps, counting the confirming one; run from the same starts, the
einsum loop takes 3.1. A warm 32 x 4 call costs about 55 us instead of 110
(2 vCPUs, OpenBLAS 0.3).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from deft.matcore import unit_exponent


# Widest column count that runs the warm loop (module docstring: the loop needs few columns).
_GRAM_MAX_COLS = 24


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


@functools.lru_cache(maxsize=None)
def _schedule(n):
    """_round_robin_rounds(n), built once per n: one index array per round.

    Each array is ``ia + ja[::-1]`` and read-only: the round's i columns,
    then its j columns mirrored, so the partner of position p is at -1 - p.
    """
    rounds = []
    for ia, ja in _round_robin_rounds(n):
        cols = np.concatenate([ia, ja[::-1]])
        cols.flags.writeable = False
        rounds.append(cols)
    return tuple(rounds)


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
    n = u.shape[1]
    idx = np.argmax(np.abs(u), axis=0)  # each column's row of largest magnitude
    idx *= n
    idx += np.arange(n)  # its entry's index in the flattened u
    flip = u.take(idx) < 0.0
    if not flip.any():
        return
    u[:, flip] *= -1.0
    if v is not None:
        v[:, flip] *= -1.0


def _newton_schulz(v):
    """One Newton-Schulz step toward the nearest orthogonal matrix: v (1.5 I - 0.5 v^T v).

    A v with |v^T v - I| = e comes back with an error of about 1.5 e^2
    (Higham, Functions of Matrices, 2008, section 8.3), so a v that is
    orthogonal to rounding stays so however often the step is chained.
    Raises ValueError when v is too far from orthogonal for one step.
    """
    eye = np.eye(len(v))
    gram = v.T @ v
    dev = np.abs(gram - eye).max()
    if not dev <= 1e-8:
        raise ValueError(f"start is not orthogonal: |v^T v - I| reaches {dev:.3e} > 1e-8")
    return v @ (1.5 * eye - 0.5 * gram)


def _cosine(alpha, gamma, beta):
    """|beta| / (|g_i| |g_j|) of a pair with squared norms alpha, gamma and dot beta.

    0.0 when a column is zero: such a pair is never rotated.
    """
    # sqrt before multiplying: alpha * gamma overflows near 1e308
    denom = math.sqrt(alpha) * math.sqrt(gamma)
    return abs(beta) / denom if denom > 0.0 else 0.0


def _rotation(tau, h):
    """The (c, s) that make a pair orthogonal.

    tau = (gamma - alpha) / (2 beta) and h = hypot(1, tau); the caller
    computes h, since np.hypot and math.hypot may differ in the last bit.
    """
    if tau == 0.0:
        t = 1.0  # equal norms: rotate by 45 degrees
    else:
        # a huge tau overflows to inf, giving t = 0, which is correct
        t = (1.0 if tau > 0.0 else -1.0) / (abs(tau) + h)
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, c * t


def _cold_sweeps(w, m, tol, max_sweeps):
    """Rotate w = [g; v] in place, round by round, until every pair is within `tol`.

    Returns (w, sweeps, worst): w itself, the sweep that found every pair
    within `tol` and the largest cosine it saw, or max_sweeps and a worst
    above `tol`.
    """
    rounds = _schedule(w.shape[1])
    for sweeps in range(1, max_sweeps + 1):
        worst = 0.0
        for cols in rounds:
            k = len(cols) // 2
            blk = w[:, cols]
            top = blk[:m]
            norms2 = np.einsum("ij,ij->j", top, top).tolist()
            betas = np.einsum("ij,ij->j", top[:, :k], top[:, ::-1][:, :k]).tolist()
            rot, taus = [], []
            for p in range(k):
                alpha, gamma, beta = norms2[p], norms2[-1 - p], betas[p]
                rel = _cosine(alpha, gamma, beta)
                worst = max(worst, rel)
                if rel > tol:
                    rot.append(p)
                    taus.append((gamma - alpha) / (2.0 * beta))
            if not rot:
                continue
            cs, ss = [], []
            for tau, h in zip(taus, np.hypot(1.0, taus).tolist()):
                c, s = _rotation(tau, h)
                cs.append(c)
                ss.append(s)
            if len(rot) < k:
                sel = rot + [2 * k - 1 - p for p in reversed(rot)]
                blk, cols = blk[:, sel], cols[sel]
            # each column's partner sits at the mirrored position: c*gi - s*gj, s*gi + c*gj
            rest = blk[:, ::-1] * ([-s for s in ss] + ss[::-1])
            blk *= cs + cs[::-1]
            blk += rest
            w[:, cols] = blk
        if worst <= tol:
            break
    return w, sweeps, worst


@functools.lru_cache(maxsize=None)
def _gram_schedule(n):
    """_round_robin_rounds(n) for the warm loop: each round's (i, j) pairs and their places in J.

    The read-only index array holds the flat positions in an n x n J of
    the pairs' (i, i) entries, then (j, j), (i, j) and (j, i): where c, c,
    s and -s go. The tuple after it holds the identity's entries there.
    """
    rounds = []
    for ia, ja in _round_robin_rounds(n):
        ia, ja = ia.tolist(), ja.tolist()
        flat = np.array([i * n + i for i in ia] + [j * n + j for j in ja]
                        + [i * n + j for i, j in zip(ia, ja)] + [j * n + i for i, j in zip(ia, ja)])
        flat.flags.writeable = False
        rounds.append((tuple(zip(ia, ja)), flat, (1.0,) * (2 * len(ia)) + (0.0,) * (2 * len(ia))))
    return tuple(rounds)


def _worst(gram):
    """The largest cosine of any column pair, from a Gram matrix given as lists."""
    n = len(gram)
    return max(_cosine(gram[i][i], gram[j][j], gram[i][j])
               for i in range(n) for j in range(i + 1, n))


def _gram_sweeps(w, m, tol, max_sweeps):
    """Rotate w = [g; v] round by round, reading every dot from one Gram product of the current columns.

    Returns (w, sweeps, worst) as _cold_sweeps does, but w may be a new
    array: each round multiplies the whole block by J. A round whose own
    pairs are all within `tol` checks all the others in its Gram and stops
    the run if they are too; otherwise the next round reuses that Gram,
    since nothing moved.
    """
    n = w.shape[1]
    prod = np.empty((n, n))
    j = np.eye(n)
    spare = np.empty_like(w)
    stale = True
    for sweeps in range(1, max_sweeps + 1):
        for pairs, flat, identity in _gram_schedule(n):
            if stale:
                g = w[:m]
                np.matmul(g.T, g, out=prod)
                gram = prod.tolist()
                stale = False
            rotate = False
            cs, ss = [], []
            for i, k in pairs:
                alpha, gamma, beta = gram[i][i], gram[k][k], gram[i][k]
                c, s = 1.0, 0.0  # a pair within tol keeps the identity
                if _cosine(alpha, gamma, beta) > tol:
                    tau = (gamma - alpha) / (2.0 * beta)
                    c, s = _rotation(tau, math.hypot(1.0, tau))
                    rotate = True
                cs.append(c)
                ss.append(s)
            if not rotate:
                worst = _worst(gram)
                if worst <= tol:
                    return w, sweeps, worst
                continue
            j.put(flat, cs + cs + ss + [-s for s in ss])
            np.matmul(w, j, out=spare)
            j.put(flat, identity)  # J is the identity again for the next round
            w, spare = spare, w
            stale = True
    return w, max_sweeps, _worst(gram)


def jacobi_svd(a, tol=1e-13, max_sweeps=60, start=None, stats=None):
    """Thin SVD of `a` by one-sided Jacobi rotations.

    Parameters
    ----------
    a : ndarray, shape (m, n)
    tol : float
        Convergence threshold on max |<g_i, g_j>| / (|g_i| |g_j|).
    max_sweeps : int
        Hard cap on full sweeps, at least 1 (ValueError otherwise);
        convergence is quadratic in the tail so the default is never
        reached on finite input. A last sweep that still finds a pair
        above `tol` raises ConvergenceError.
    start : ndarray, shape (n, n), optional
        A guess of v, such as the v of a nearby matrix; it must be
        orthogonal to 1e-8 (ValueError otherwise). The rotations then
        start from ``a @ start``, re-orthonormalized by one Newton-Schulz
        step, instead of from `a` and the identity. Up to 24 columns
        they run the warm loop (module docstring): every round reads its
        dots from one Gram product of the current columns and applies its
        rotations as one matrix product; wider inputs run the einsum
        loop. Near a's v that start is nearly column-orthogonal, so the
        quadratic tail begins at once and fewer rounds run. The result
        agrees with the cold one to rounding, in the same order and sign
        convention, but its bits depend on `start` and on the BLAS
        library. For a wide input the roles swap: `start` is an m x m
        guess of u.
    stats : dict, optional
        Receives ``"sweeps"``: the sweeps the converged run took, the
        one that found every pair within `tol` included.

    Returns
    -------
    (u, s, v) with ``a = u @ diag(s) @ v.T``, s non-increasing, u and v
    having orthonormal columns.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        # rotate over the smaller column count; swap roles on the way out
        u, s, v = jacobi_svd(a.T, tol=tol, max_sweeps=max_sweeps, start=start, stats=stats)
        return v, s, u

    shift = unit_exponent(a)
    # g (the scaled input) on top of v, so one gather and one write per round serve both.
    # w and the blocks gathered from it are C-ordered even for a transposed input; the
    # order fixes einsum's rounding.
    w = np.empty((m + n, n))
    if start is None:
        np.ldexp(a, -shift, out=w[:m])
        w[m:] = np.eye(n)
    else:
        if np.shape(start) != (n, n):
            raise ValueError(f"start has shape {np.shape(start)}, expected {(n, n)}")
        w[m:] = _newton_schulz(np.asarray(start, dtype=np.float64))
        np.matmul(np.ldexp(a, -shift), w[m:], out=w[:m])
    sweeps = 0
    if n > 1:
        sweep_loop = _gram_sweeps if start is not None and n <= _GRAM_MAX_COLS else _cold_sweeps
        w, sweeps, worst = sweep_loop(w, m, tol, max_sweeps)
        if not worst <= tol:
            raise ConvergenceError(max_sweeps, worst, tol)
    if stats is not None:
        stats["sweeps"] = sweeps

    g = w[:m]
    norms = np.sqrt(np.einsum("ij,ij->j", g, g))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    g = g[:, order]
    v = w[m:, order]
    u = np.empty((m, n))
    nz = int(np.count_nonzero(norms > 0.0))
    u[:, :nz] = g[:, :nz] / norms[:nz]
    if nz < n:
        u[:, nz:] = 0.0
        _complete_basis(u, nz)
    _fix_signs(u, v)
    return u, np.ldexp(norms, shift), v
