"""The in-house SVD kernel, checked against numpy's LAPACK-backed routines.

The Jacobi SVD shares no code with LAPACK, so LAPACK serves here as an
independent oracle, even though the library itself calls it for eig, for
rank counting and for every adapter's tsvd/lrmf factor.
"""

import hashlib

import numpy as np
import pytest

from deft import _jacobi
from deft._jacobi import ConvergenceError, _complete_basis, _fix_signs, _schedule, jacobi_svd
from deft.adapters import AdapterConfig, AdapterState, merge, refresh
from deft.decompose import Backend, decompose
from deft.matcore import make_rng


def test_round_robin_covers_all_pairs_once():
    for n in (2, 3, 6, 9):
        seen = set()
        for cols in _schedule(n):
            # disjoint within a round
            cols = cols.tolist()
            assert len(cols) % 2 == 0 and len(cols) == len(set(cols))
            # i side, then j side mirrored: each column's partner is at -1 - p
            for p in range(len(cols) // 2):
                a, b = cols[p], cols[-1 - p]
                assert a < b
                seen.add((a, b))
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}


def test_reconstruction_and_orthogonality():
    rng = make_rng(0)
    for shape in ((8, 8), (12, 5), (5, 12), (30, 7), (1, 4), (6, 1)):
        a = rng.normal(size=shape)
        u, s, v = jacobi_svd(a)
        k = min(shape)
        assert u.shape == (shape[0], k) and v.shape == (shape[1], k)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-12 * max(1.0, np.abs(a).max())
        assert np.abs(u.T @ u - np.eye(k)).max() < 1e-12
        assert np.abs(v.T @ v - np.eye(k)).max() < 1e-12
        assert (np.diff(s) <= 1e-15).all()


def test_equal_norm_columns_rotate_by_45_degrees():
    # both columns have norm 5, so the pair's tau is exactly 0
    a = np.array([[3.0, 4.0], [4.0, 3.0]])
    u, s, v = jacobi_svd(a)
    assert np.abs(s - [7.0, 1.0]).max() < 1e-14
    assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-14
    assert np.abs(u.T @ u - np.eye(2)).max() < 1e-15
    assert np.abs(v.T @ v - np.eye(2)).max() < 1e-15


def test_singular_values_match_lapack():
    rng = make_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 20))
        a = rng.normal(size=(m, n))
        s = jacobi_svd(a)[1]
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(s - ref).max() < 1e-11 * max(1.0, ref[0])


def test_rank_deficient_input():
    rng = make_rng(3)
    base = rng.normal(size=(10, 3))
    a = base @ rng.normal(size=(3, 8))
    u, s, v = jacobi_svd(a)
    assert (s[3:] < 1e-12 * s[0]).all()
    assert np.abs(u.T @ u - np.eye(8)).max() < 1e-10  # completed columns stay orthonormal
    assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-11


def test_zero_matrix():
    u, s, v = jacobi_svd(np.zeros((5, 3)))
    assert np.array_equal(s, np.zeros(3))
    assert np.abs(u.T @ u - np.eye(3)).max() < 1e-15


def test_sign_convention_is_deterministic():
    a = make_rng(4).normal(size=(7, 4))
    u1, s1, v1 = jacobi_svd(a)
    u2, s2, v2 = jacobi_svd(a.copy())
    assert np.array_equal(u1, u2) and np.array_equal(s1, s2) and np.array_equal(v1, v2)
    peaks = u1[np.argmax(np.abs(u1), axis=0), np.arange(u1.shape[1])]
    assert (peaks >= 0).all()


def test_extreme_scale_columns():
    # norm ratios around 1e150 stress the rotation formulas, at the middle and
    # at both ends of the float range (whole-matrix scales 1e300 and 1e-300)
    b = make_rng(5).normal(size=(3, 3))
    for scale in (1.0, 1e150, 1e-150):
        a = np.diag([scale * 1e150, scale, scale * 1e-150]) @ b
        u, s, v = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(s - ref).max() < 1e-11 * ref[0], scale
        assert np.isfinite(u).all() and np.isfinite(v).all()


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
@pytest.mark.parametrize("shape", [(9, 6), (6, 9)])
def test_whole_matrix_scale(scale, shape):
    # the sums of squares would underflow or overflow without the rescaling
    b = make_rng(6).normal(size=shape)
    u, s, v = jacobi_svd(scale * b)
    ref = np.linalg.svd(scale * b, compute_uv=False)
    assert np.abs(s - ref).max() <= 1e-13 * ref[0]
    # scaling by a power of two is exact, so the factors come out bit for bit the same
    exp = int(np.round(np.log2(scale)))
    u2, s2, v2 = jacobi_svd(np.ldexp(b, exp))
    u1, s1, v1 = jacobi_svd(b)
    assert np.array_equal(u2, u1) and np.array_equal(v2, v1)
    assert np.array_equal(s2, np.ldexp(s1, exp))


@pytest.mark.parametrize("shape,zero_cols", [((33, 33), [0]), ((12, 12), [2, 5, 9]),
                                             ((20, 8), [1, 2, 3, 4, 5, 6]), ((8, 20), [0, 19])])
def test_zero_columns_complete_an_orthonormal_basis(shape, zero_cols):
    a = make_rng(7).normal(size=shape)
    a[:, zero_cols] = 0.0
    u, s, v = jacobi_svd(a)
    k = min(shape)
    assert np.abs(u.T @ u - np.eye(k)).max() < 1e-12
    assert np.abs(v.T @ v - np.eye(k)).max() < 1e-12
    assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-12


def test_complete_basis_from_a_spread_direction():
    # the missing direction is (1, ..., 1) / sqrt(m): every e_i has residual 1/sqrt(m)
    m = 40
    q, _ = np.linalg.qr(np.hstack([np.ones((m, 1)), make_rng(8).normal(size=(m, m - 1))]))
    u = np.hstack([q[:, 1:], np.zeros((m, 1))])
    _complete_basis(u, m - 1)
    assert np.abs(u.T @ u - np.eye(m)).max() < 1e-14
    assert np.isclose(abs(u[:, -1] @ q[:, 0]), 1.0, atol=1e-14)


@pytest.mark.parametrize("shape", [(40, 30), (30, 40)])
def test_sweep_cap_raises_instead_of_returning_unconverged_values(shape, monkeypatch):
    a = make_rng(11).normal(size=shape)
    monkeypatch.setattr(_jacobi, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="in 1 sweeps") as exc:
        jacobi_svd(a)
    monkeypatch.undo()
    assert exc.value.sweeps == 1
    assert exc.value.worst > 1e-13
    np.testing.assert_allclose(jacobi_svd(a)[1], np.linalg.svd(a, compute_uv=False),
                               rtol=1e-12)


def _golden_corpus():
    rng = make_rng(2024)
    # random sets up to 29 x 29 at scales 1e-100..1e100; odd ones low rank,
    # every fifth with a zero column
    for k in range(400):
        m, n = (int(x) for x in rng.integers(1, 30, size=2))
        if k % 2:
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        else:
            a = rng.normal(size=(m, n))
        a *= 10.0 ** rng.uniform(-100.0, 100.0)
        if k % 5 == 0:
            a[:, int(rng.integers(n))] = 0.0
        yield a
    for shape in ((32, 4), (64, 8), (1024, 8), (3072, 8)):
        yield rng.normal(size=shape)
    b = rng.normal(size=(12, 5))
    yield b[:, [0, 1, 1, 2, 0, 3, 4]]  # duplicate columns
    c = rng.normal(size=(9, 6))
    c[c < -0.5] = -0.0
    c[:, 2] = -0.0
    yield c
    yield rng.normal(size=(5, 17))  # wide
    d = rng.normal(size=(10, 4))
    d[:5, 0] = 0.0
    d[5:, 3] = 0.0
    yield d  # columns 0 and 3 are orthogonal: the first round rotates only (1, 2)


def test_golden_digest_pins_the_bits():
    # one hash over every factor of the corpus: any change to the rounding of
    # the sweep loop, however small, shows here
    h = hashlib.sha256()
    for a in _golden_corpus():
        for part in jacobi_svd(a):
            h.update(repr(part.shape).encode())
            h.update(part.tobytes())
    assert h.hexdigest() == "b814bfbe916f4e2cd22e6a4a22070496c7f29707ea4444a0c8982bdacf3316bb"


def test_fix_signs_keeps_the_bytes_of_unflipped_columns():
    u = np.array([[1.0, -0.5], [-0.25, 2.0], [-0.0, 0.0]])
    v = np.array([[-3.0, 1.0], [1.0, -0.0]])
    u_before, v_before = u.copy(), v.copy()
    _fix_signs(u, v)
    assert u.tobytes() == u_before.tobytes() and v.tobytes() == v_before.tobytes()
    u[:, 1] *= -1.0
    _fix_signs(u, v)
    assert np.array_equal(u, u_before) and np.array_equal(v[:, 1], -v_before[:, 1])


def test_fix_signs_keeps_the_first_row_on_a_tie():
    # column 0's first peak is +0.5: kept; column 1's is -0.5: flipped; column 2 is all
    # zero, -0.0 first, and never flips
    u = np.array([[0.5, -0.5, -0.0], [-0.5, 0.5, 0.0]])
    v = np.eye(3)
    _fix_signs(u, v)
    assert u.tobytes() == np.array([[0.5, 0.5, -0.0], [-0.5, -0.5, 0.0]]).tobytes()
    assert v.tobytes() == np.array([[1.0, -0.0, 0.0], [0.0, -1.0, 0.0],
                                    [0.0, -0.0, 1.0]]).tobytes()


def _fix_signs_by_columns(u, v):
    """The sign convention as a boolean gather and scatter of the flipped columns.

    This is how _fix_signs once flipped them; it stays here as the bits to match.
    """
    n = u.shape[1]
    idx = np.argmax(np.abs(u), axis=0)
    idx *= n
    idx += np.arange(n)
    flip = u.take(idx) < 0.0
    if not flip.any():
        return
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0


def _sign_cases(shape):
    """(u, r) pairs for `shape`: v is passed as r.T, a transposed view, as _qr passes it."""
    rng = make_rng(21)
    n = shape[1]
    plain = rng.normal(size=shape)
    flips = plain.copy()
    flips[:, ::2] = -np.abs(flips[:, ::2])  # every other column's peak is negative
    ties = plain.copy()
    ties[:, 0] = 0.0
    ties[:2, 0] = (-2.5, 2.5)  # the first row of the tie wins: a flip
    ties[:, 1] = 0.0
    ties[-2:, 1] = (2.5, -2.5)  # the first row is positive: no flip
    zeros = -np.abs(plain)
    zeros[zeros < -0.8] = -0.0
    zeros[0, :] = -0.1  # each column keeps a negative entry
    zeros[:, 0] = 0.0  # an all-zero column never flips
    zeros[:, -1] = -0.0  # nor does an all -0.0 column
    for u in (plain, flips, ties, zeros):
        r = rng.normal(size=(n, n))
        r[r < -1.0] = -0.0
        yield u, r


@pytest.mark.parametrize("shape", [(32, 4), (3072, 8), (4, 32)])
def test_fix_signs_matches_the_column_flip_bits(shape):
    flipped = []
    for u, r in _sign_cases(shape):
        u_ref, r_ref = u.copy(), r.copy()
        _fix_signs_by_columns(u_ref, r_ref.T)
        before = u.copy()
        _fix_signs(u, r.T)
        assert u.tobytes() == u_ref.tobytes() and r.tobytes() == r_ref.tobytes()
        flipped.append(np.signbit(u) != np.signbit(before))
    _, flips, ties, zeros = (f.any(axis=0) for f in flipped)
    assert flips[::2].all()
    assert ties[0] and not ties[1]
    assert not zeros[0] and not zeros[-1] and zeros[1:-1].all()  # -0.0 turns into 0.0


def test_stats_count_the_sweeps_of_the_run(monkeypatch):
    a = make_rng(15).normal(size=(20, 6))
    stats = {}
    jacobi_svd(a, stats=stats)
    monkeypatch.setattr(_jacobi, "_MAX_SWEEPS", stats["sweeps"] - 1)
    with pytest.raises(ConvergenceError):
        jacobi_svd(a)  # the last sweep only confirms
    monkeypatch.setattr(_jacobi, "_MAX_SWEEPS", stats["sweeps"])
    jacobi_svd(a)
    one_column = {}
    jacobi_svd(a[:, :1], stats=one_column)
    assert one_column == {"sweeps": 0}


# An adapter's refresh factors a tsvd/lrmf latent with LAPACK's thin SVD (decompose's
# portable=False), also after a pass kept another latent's factor on the state. The tests below
# hold that path to this kernel's run on the same latent.


def _sgd_walk(seed, shape, steps, size=1e-3):
    """A seeded matrix and `steps` small random moves of it, like a latent under SGD."""
    rng = make_rng(seed)
    return rng.normal(size=shape), size * rng.normal(size=(steps, *shape))


@pytest.mark.parametrize("shape", [(32, 4), (12, 5), (4, 9)])
def test_lapack_factor_of_an_sgd_walk_matches_jacobi(shape):
    a, moves = _sgd_walk(13, shape, 30)
    for move in moves:
        a += move
        jac = jacobi_svd(a)
        lapack = decompose(a, Backend("tsvd"), portable=False)
        assert lapack.stats == {}  # no Jacobi sweep ran
        # entrywise: the same order and sign convention
        for c, w in zip(jac, (lapack.p_factor, lapack.aux["s"], lapack.aux["v"])):
            assert np.abs(c - w).max() <= 1e-12


def _degenerate_latents():
    rng = make_rng(19)
    zero = rng.normal(size=(12, 5))
    zero[:, 2] = 0.0
    equal = rng.normal(size=(12, 5))
    equal[:, 3] = equal[:, 1]
    q1 = np.linalg.qr(rng.normal(size=(12, 5)))[0]
    q2 = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    graded = (q1 * np.logspace(0.0, -12.0, 5)) @ q2.T
    wide = rng.normal(size=(4, 9))
    return {"zero column": zero, "equal columns": equal, "graded": graded, "wide": wide}


@pytest.mark.parametrize("name", ["zero column", "equal columns", "graded", "wide"])
@pytest.mark.parametrize("start_from", ["nearby matrix", "random rotation"])
def test_refresh_of_degenerate_latents(name, start_from):
    # the refresh of a degenerate latent, after a pass kept the factor of a nearby matrix or
    # of a random rotation of the latent (same singular values, other vectors)
    a = _degenerate_latents()[name]
    k = min(a.shape)
    rng = make_rng(20)
    if start_from == "nearby matrix":
        before = a + 1e-3 * rng.normal(size=a.shape)
    else:
        before = a @ np.linalg.qr(rng.normal(size=(a.shape[1], a.shape[1])))[0]
    # the latent is `a` itself; w0 and r take the factor's shapes, so that merge runs
    cfg = AdapterConfig("deft", k, backend=Backend("tsvd"))
    state = AdapterState(cfg=cfg, w0=np.zeros(a.shape), p_latent=before,
                         r=np.zeros((k, a.shape[1])))
    merge(state)
    state.p_latent = a.copy()
    got = decompose(a, Backend("tsvd"), k, portable=False)
    # nothing of the earlier factor carries over to either reader: refresh, or the next pass
    assert refresh(state).tobytes() == got.p_factor.tobytes()
    merge(state)
    assert state.p.tobytes() == got.p_factor.tobytes()
    u, s, v = got.p_factor, got.aux["s"], got.aux["v"]
    jac = jacobi_svd(a)
    # where singular values (nearly) coincide only the span is defined, so u and v are
    # checked as bases, not entrywise against the Jacobi ones
    assert np.abs(s - jac[1]).max() <= 1e-12 * jac[1][0]
    assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-12 * jac[1][0]
    # the dependent directions are filled: u and v are whole orthonormal bases
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12
