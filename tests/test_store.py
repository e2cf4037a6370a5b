import hashlib
import struct

import numpy as np
import pytest

from deft.adapters import AdapterConfig, forward, init_adapter, refresh
from deft.decompose import Backend
from deft.matcore import freeze, make_rng
from deft.store import (
    FormatError,
    PairingError,
    load_adapter,
    load_matrix,
    matrix_bytes,
    matrix_hash,
    parse_config,
    read_config,
    save_adapter,
    save_csv,
    save_matrix,
    state_hash,
)


class TestMatrixFormat:
    def test_exact_bytes_small_case(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        blob = matrix_bytes(m)
        assert blob[:4] == b"MAT1"
        assert struct.unpack("<QQ", blob[4:20]) == (2, 2)
        assert blob[20:] == struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        assert len(blob) == 20 + 8 * 4

    def test_round_trip_bit_exact(self, tmp_path):
        rng = make_rng(0)
        for trial in range(10):
            m = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
            path = tmp_path / f"m{trial}.mat"
            save_matrix(m, path)
            back = load_matrix(path)
            assert back.dtype == np.float64
            assert np.array_equal(back, m)
            assert (back == m).all() and back.tobytes() == m.tobytes()

    def test_special_values_survive(self, tmp_path):
        # denormals and negative zero round-trip; hash separates -0.0 from 0.0
        m = np.array([[5e-324, -0.0], [1e308, -1e-308]])
        path = tmp_path / "edge.mat"
        save_matrix(m, path)
        assert load_matrix(path).tobytes() == m.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path)

    def test_truncated_data(self, tmp_path):
        m = np.ones((3, 3))
        path = tmp_path / "trunc.mat"
        save_matrix(m, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        m = np.ones((2, 2))
        path = tmp_path / "trail.mat"
        save_matrix(m, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_matrix(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "zero.mat"
        path.write_bytes(b"MAT1" + struct.pack("<QQ", 0, 3))
        with pytest.raises(FormatError, match="dims"):
            load_matrix(path)


class TestHashes:
    def test_matrix_hash_definition(self):
        m = np.array([[1.0, -2.0]])
        payload = struct.pack("<QQ", 1, 2) + struct.pack("<2d", 1.0, -2.0)
        assert matrix_hash(m) == hashlib.sha256(payload).digest()

    def test_hash_sensitive_to_shape(self):
        flat = np.arange(6.0)
        assert matrix_hash(flat.reshape(2, 3)) != matrix_hash(flat.reshape(3, 2))

    def test_hash_sensitive_to_sign_of_zero(self):
        assert matrix_hash(np.array([[0.0]])) != matrix_hash(np.array([[-0.0]]))

    def test_state_hash_covers_all_trainables(self):
        w0 = make_rng(1).normal(size=(6, 4))
        state = init_adapter(w0, AdapterConfig("deft", 2, init_stddev=0.3, seed=2))
        before = state_hash(state)
        state.r[0, 0] = 1.0
        assert state_hash(state) != before


def payload_copy(m):
    """The MAT1 payload as one bytes object: the hash input, built the copying way."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    return struct.pack("<QQ", *m.shape) + m.astype("<f8", copy=False).tobytes(order="C")


def hash_layouts():
    """One 7 x 5 matrix's values in every memory layout the hashes must see through."""
    base = make_rng(70).normal(size=(7, 5))
    wide = make_rng(72).normal(size=(14, 15))
    return {
        "c_order": base,
        "fortran": np.asfortranarray(base),
        "strided_view": wide[::2, 1::3],
        "big_endian": base.astype(">f8"),
        "float32": base.astype(np.float32),
        "read_only": freeze(base),
    }


# sha-256 of make_rng(70).normal(size=(7, 5))'s MAT1 payload; an ADPT1 file
# stores this digest of its base weight at bytes 71-103.
SEEDED_7X5_DIGEST = "ed821697494c46694d69c8301c8be3f1e8408d661fc581881b15e7a6e5d18406"

# An ADPT1 file written by an earlier save_adapter: para, rank 1, relax backend,
# init_stddev 0.5, seed 71, over make_rng(70).normal(size=(7, 5)).
PINNED_PARA_ADPT1 = bytes.fromhex(
    "414450543101050100000000000000000000000000f03ffca9f1d24d62503f7b14ae47e1"
    "7a843f000000000000e03f47000000000000000f000000000000008dedb5a0f7c6b03eed"
    "821697494c46694d69c8301c8be3f1e8408d661fc581881b15e7a6e5d184060100000000"
    "0000000800000000000000715f6c6174656e744d41543107000000000000000100000000"
    "000000d7d7f302814fb13fa469d6e7e856d2bf5e0a41a78a1addbf92f405f362b6b33f6e"
    "b0e90b16f6d73f80c80f950535adbf318c56da207da2bf"
)


class TestHashDigestsPinned:
    """The digests are fixed bytes: ADPT1 pairing compares them across versions."""

    @pytest.mark.parametrize("layout", list(hash_layouts()))
    def test_matrix_hash_is_sha256_of_the_payload(self, layout):
        m = hash_layouts()[layout]
        assert matrix_hash(m) == hashlib.sha256(payload_copy(m)).digest()

    @pytest.mark.parametrize("layout", list(hash_layouts()))
    def test_state_hash_is_sha256_of_names_and_payloads(self, layout):
        w0 = make_rng(73).normal(size=(7, 5))
        state = init_adapter(w0, AdapterConfig("deft", 2, init_stddev=0.3, seed=74))
        state.p_latent = hash_layouts()[layout][:, :2]
        state.r = hash_layouts()[layout][:2, :]
        want = hashlib.sha256()
        for name in ("p_latent", "r"):
            want.update(name.encode() + payload_copy(getattr(state, name)))
        assert state_hash(state) == want.hexdigest()

    def test_seeded_digest_literal(self):
        layouts = hash_layouts()
        for name in ("c_order", "fortran", "big_endian", "read_only"):  # the same values
            assert matrix_hash(layouts[name]).hex() == SEEDED_7X5_DIGEST, name

    def test_pinned_checkpoint_loads_against_its_w0(self, tmp_path):
        w0 = make_rng(70).normal(size=(7, 5))
        path = tmp_path / "pinned.adpt"
        path.write_bytes(PINNED_PARA_ADPT1)
        state = load_adapter(path, w0)
        assert state.cfg == AdapterConfig("para", 1, backend=Backend("relax"),
                                          init_stddev=0.5, seed=71)
        fresh = init_adapter(w0, state.cfg)
        assert np.array_equal(state.q_latent, fresh.q_latent)
        save_adapter(fresh, path)
        assert path.read_bytes() == PINNED_PARA_ADPT1


def trained_state(method, seed, m=8, n=6, backend_kind="qr"):
    rng = make_rng(seed)
    w0 = rng.normal(size=(m, n))
    backend = None if method == "lora" else Backend(backend_kind)
    cfg = AdapterConfig(method, 2, backend=backend, init_stddev=0.4, seed=seed)
    state = init_adapter(w0, cfg)
    # scribble on the zero-initialized parts so the files carry real data
    if method == "lora":
        state.b_lo = rng.normal(size=(m, 2))
    elif method == "deft":
        state.r = rng.normal(size=(2, n))
    return w0, state


class TestAdapterCheckpoints:
    def test_round_trip_identical_forward(self, tmp_path):
        for method in ("lora", "para", "deft"):
            w0, state = trained_state(method, seed=3)
            path = tmp_path / f"{method}.adpt"
            save_adapter(state, path)
            back = load_adapter(path, w0)
            x = make_rng(4).normal(size=(6, 5))
            assert np.array_equal(forward(back, x), forward(state, x)), method
            assert state_hash(back) == state_hash(state), method
            assert back.cfg == state.cfg, method

    def test_wrong_base_weight_rejected(self, tmp_path):
        w0, state = trained_state("deft", seed=5)
        path = tmp_path / "a.adpt"
        save_adapter(state, path)
        other = w0.copy()
        other[0, 0] += 1e-12  # one ulp-scale nudge is enough
        with pytest.raises(PairingError, match="different base weight"):
            load_adapter(path, other)

    def test_header_fields(self, tmp_path):
        w0, state = trained_state("deft", seed=6, backend_kind="tsvd")
        path = tmp_path / "h.adpt"
        save_adapter(state, path)
        buf = path.read_bytes()
        assert buf[:5] == b"ADPT1"
        assert buf[5] == 2  # deft
        assert buf[6] == 1  # tsvd
        assert struct.unpack_from("<Q", buf, 7)[0] == 2  # rank
        assert buf[71:103] == matrix_hash(w0)
        assert struct.unpack_from("<Q", buf, 103)[0] == 2  # two sections

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.adpt"
        path.write_bytes(b"NOPE!" + b"\x00" * 120)
        with pytest.raises(FormatError, match="magic"):
            load_adapter(path, np.ones((2, 2)))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.adpt"
        path.write_bytes(b"ADPT1" + b"\x00" * 20)
        with pytest.raises(FormatError, match="truncated"):
            load_adapter(path, np.ones((2, 2)))

    def test_unknown_method_tag(self, tmp_path):
        w0, state = trained_state("para", seed=7)
        path = tmp_path / "tag.adpt"
        save_adapter(state, path)
        buf = bytearray(path.read_bytes())
        buf[5] = 9
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match="method tag"):
            load_adapter(path, w0)

    @pytest.mark.parametrize("offset, fmt, value, name", [
        (6, "<B", 3, "backend tag"), (6, "<B", 255, "backend tag"),
        (55, "<Q", 15, "nmf_iters"), (63, "<d", 1e-6, "nmf_tol"),
    ], ids=["tag-3", "tag-255", "nmf_iters", "nmf_tol"])
    def test_lora_refuses_nonzero_backend_fields(self, tmp_path, offset, fmt, value, name):
        w0, state = trained_state("lora", seed=11)
        path = tmp_path / "lora.adpt"
        save_adapter(state, path)
        buf = bytearray(path.read_bytes())
        size = struct.calcsize(fmt)
        assert buf[offset:offset + size] == bytes(size)  # save_adapter writes zeros
        struct.pack_into(fmt, buf, offset, value)
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError) as info:
            load_adapter(path, w0)
        assert str(info.value) == (f"{path}: lora takes no backend, so its {name} must be 0, "
                                   f"got {value}")

    @pytest.mark.parametrize("method", ["para", "deft"])
    def test_unknown_backend_tag(self, tmp_path, method):
        w0, state = trained_state(method, seed=12)
        path = tmp_path / "tag.adpt"
        save_adapter(state, path)
        buf = bytearray(path.read_bytes())
        buf[6] = 7
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match="unsupported backend tag 7"):
            load_adapter(path, w0)

    def test_corrupt_config_reported_as_format_error(self, tmp_path):
        w0, state = trained_state("deft", seed=8)
        path = tmp_path / "cfg.adpt"
        save_adapter(state, path)
        buf = bytearray(path.read_bytes())
        struct.pack_into("<Q", buf, 7, 0)  # rank 0 is never valid
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match="invalid stored config"):
            load_adapter(path, w0)

    def test_section_tampering_detected(self, tmp_path):
        w0, state = trained_state("deft", seed=9)
        path = tmp_path / "sec.adpt"
        save_adapter(state, path)
        buf = path.read_bytes()
        path.write_bytes(buf[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_adapter(path, w0)
        path.write_bytes(buf + b"\x01\x02")
        with pytest.raises(FormatError, match="trailing"):
            load_adapter(path, w0)

    def test_loaded_state_refactorizes_its_latent(self, tmp_path):
        # a pass's factor and coefficient are never persisted, only the latents
        w0, state = trained_state("para", seed=10)
        p = refresh(state)
        path = tmp_path / "st.adpt"
        save_adapter(state, path)
        back = load_adapter(path, w0)
        assert back.p is None and back.z is None  # before any pass
        assert refresh(back).tobytes() == p.tobytes()
        forward(back, np.eye(w0.shape[1]))
        assert back.p.tobytes() == p.tobytes()  # the pass's factor is the reload's refresh


def hand_built_adpt1(w0, method_tag, backend_tag, sections, alpha=None, rank=2):
    """ADPT1 bytes written field by field, independent of save_adapter; alpha defaults to rank."""
    alpha = float(rank) if alpha is None else alpha
    iters, tol = (0, 0.0) if method_tag == 0 else (15, 1e-6)
    buf = b"ADPT1" + struct.pack("<BBQddddQQd", method_tag, backend_tag, rank, alpha,
                                 1e-3, 1e-2, 0.01, 0, iters, tol)
    buf += matrix_hash(w0) + struct.pack("<Q", len(sections))
    for name, mat in sections:
        buf += struct.pack("<Q", len(name)) + name.encode() + matrix_bytes(mat)
    return buf


class TestLiteralTags:
    """The on-disk tags are fixed numbers: reordering METHODS or KINDS breaks these."""

    w0 = make_rng(30).normal(size=(5, 4))

    @pytest.mark.parametrize("tag, method, sections", [
        (0, "lora", [("a", (2, 4)), ("b_lo", (5, 2))]),
        (1, "para", [("q_latent", (5, 2))]),
        (2, "deft", [("p_latent", (5, 2)), ("r", (2, 4))]),
    ])
    def test_method_tag(self, tmp_path, tag, method, sections):
        mats = [(name, make_rng(31).normal(size=shape)) for name, shape in sections]
        path = tmp_path / "m.adpt"
        path.write_bytes(hand_built_adpt1(self.w0, tag, 0, mats))
        state = load_adapter(path, self.w0)
        assert state.cfg.method == method
        for name, mat in mats:
            assert np.array_equal(getattr(state, name), mat)

    @pytest.mark.parametrize("tag, kind", list(enumerate(
        ["qr", "tsvd", "lrmf", "nmf", "eig", "relax", "relax_nmf"])))
    def test_backend_tag(self, tmp_path, tag, kind):
        rng = make_rng(32)
        mats = [("p_latent", rng.normal(size=(5, 2))), ("r", rng.normal(size=(2, 4)))]
        path = tmp_path / "b.adpt"
        path.write_bytes(hand_built_adpt1(self.w0, 2, tag, mats))
        assert load_adapter(path, self.w0).cfg.backend == Backend(kind)

    @pytest.mark.parametrize("sections, message", [
        ([("p_latent", (5, 2))], "holds 1 sections, expected 2: ('p_latent', 'r')"),
        ([("p_latent", (5, 2)), ("r", (2, 4)), ("r", (2, 4))],
         "holds 3 sections, expected 2: ('p_latent', 'r')"),
        ([("q_latent", (5, 2)), ("r", (2, 4))], "section 0 is missing or misnamed, expected 'p_latent'"),
        ([("p_latent", (5, 2)), ("R", (2, 4))], "section 1 is missing or misnamed, expected 'r'"),
        ([("r", (2, 4)), ("p_latent", (5, 2))], "section 0 is missing or misnamed, expected 'p_latent'"),
    ], ids=["too_few", "too_many", "misnamed_p", "misnamed_r", "swapped"])
    def test_sections_must_be_those_the_header_implies(self, tmp_path, sections, message):
        mats = [(name, make_rng(34).normal(size=shape)) for name, shape in sections]
        path = tmp_path / "s.adpt"
        path.write_bytes(hand_built_adpt1(self.w0, 2, 0, mats))
        with pytest.raises(FormatError) as info:
            load_adapter(path, self.w0)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("m, n", [(8, 2), (2, 8)], ids=["tall", "wide"])
    @pytest.mark.parametrize("tag, sections", [
        (0, [("a", "rank", "n"), ("b_lo", "m", "rank")]),
        (1, [("q_latent", "m", "rank")]),
        (2, [("p_latent", "m", "rank"), ("r", "rank", "n")]),
    ], ids=["lora", "para", "deft"])
    def test_rank_above_min_dim_rejected(self, tmp_path, m, n, tag, sections):
        # well-formed sections of the shapes a rank-3 header implies; only the rank rule fails
        dims = {"m": m, "n": n, "rank": 3}
        w0 = make_rng(35).normal(size=(m, n))
        mats = [(name, make_rng(36).normal(size=(dims[r], dims[c]))) for name, r, c in sections]
        path = tmp_path / "over.adpt"
        path.write_bytes(hand_built_adpt1(w0, tag, 5 if tag else 0, mats, rank=3))  # lora: 0
        with pytest.raises(FormatError) as info:
            load_adapter(path, w0)
        assert str(info.value) == (f"{path}: invalid stored config: rank 3 exceeds min(m, n) = 2 "
                                   f"for shape ({m}, {n})")
        with pytest.raises(PairingError):  # the pairing is checked first
            load_adapter(path, w0 + 1.0)

    def test_nan_alpha_rejected(self, tmp_path):
        mats = [("q_latent", make_rng(33).normal(size=(5, 2)))]
        path = tmp_path / "nan.adpt"
        path.write_bytes(hand_built_adpt1(self.w0, 1, 0, mats, alpha=float("nan")))
        with pytest.raises(FormatError, match="alpha must be finite"):
            load_adapter(path, self.w0)


class TestConfigText:
    def test_minimal(self):
        cfg = parse_config("method = deft\nrank = 4\n")
        assert cfg.method == "deft" and cfg.rank == 4
        assert cfg.backend == Backend("qr")
        assert cfg.alpha == 4.0

    def test_full(self):
        text = """
        # training setup
        method = deft
        rank = 3
        backend = nmf
        lr_p = 0.001
        lr_r = 0.01
        init_stddev = 0.2
        seed = 42
        nmf_iters = 25
        nmf_tol = 1e-7
        """
        cfg = parse_config(text)
        assert cfg.backend.kind == "nmf"
        assert cfg.backend.nmf_iters == 25
        assert cfg.backend.nmf_tol == 1e-7
        assert cfg.alpha == 3.0 and cfg.seed == 42

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n\nmethod = para\n   \nrank = 2\n# tail\n")
        assert cfg.method == "para"

    def test_unknown_key(self):
        with pytest.raises(FormatError, match="line 2.*unknown key"):
            parse_config("method = deft\ndropout = 0.5\nrank = 2")

    def test_duplicate_key(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_config("method = deft\nrank = 2\nrank = 3")

    def test_missing_required(self):
        with pytest.raises(FormatError, match="method"):
            parse_config("rank = 2")
        with pytest.raises(FormatError, match="rank"):
            parse_config("method = deft")

    def test_malformed_line(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_config("method: deft\nrank = 2")

    def test_empty_value(self):
        with pytest.raises(FormatError, match="empty value"):
            parse_config("method =\nrank = 2")

    def test_bad_number(self):
        with pytest.raises(FormatError, match="bad value for 'rank'"):
            parse_config("method = deft\nrank = four")

    def test_nmf_knobs_need_backend(self):
        with pytest.raises(FormatError, match="without a backend"):
            parse_config("method = deft\nrank = 2\nnmf_iters = 30")

    def test_invalid_combination_surfaces(self):
        with pytest.raises(FormatError, match="invalid config"):
            parse_config("method = deft\nrank = 2\nlr_p = 0.1\nlr_r = 0.01")

    def test_read_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method = lora\nrank = 8\nalpha = 16\n", encoding="utf-8")
        cfg = read_config(path)
        assert cfg.method == "lora" and cfg.alpha == 16.0 and cfg.backend is None

    def test_read_config_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"method = lora\nrank = \xd9\n")
        with pytest.raises(FormatError, match="not UTF-8 text"):
            read_config(path)


def _reference_csv_row(row):
    """A CSV line by the rule save_csv documents, one isinstance chain per cell."""
    cells = []
    for value in row:
        if isinstance(value, (float, np.floating)):
            cells.append(repr(float(value)))
        elif isinstance(value, (bool, np.bool_)):
            cells.append(str(value).lower())
        else:
            cells.append("" if value is None else str(value))
    return ",".join(cells)


def test_csv_cells_keep_their_bytes(tmp_path):
    rows = [
        (0, -0.0, 5e-324, 1e300),  # Python ints and floats only
        (1, 0.1, -2.5e-310, 2**70, -7, float("inf")),
        (np.float64(0.1), np.float32(0.1), np.float64(-0.0), np.float32(5e-40)),
        (True, np.bool_(False), False, np.bool_(True)),
        (2, 1.5, None, None),
        (np.int64(3), 1.25, True, "text"),
        (None,),
        (),
    ]
    header = ("a", "b", "c")
    path = tmp_path / "cells.csv"
    save_csv(path, header, rows)
    lines = [",".join(header)] + [_reference_csv_row(row) for row in rows]
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode("utf-8")
    assert lines[1] == "0,-0.0,5e-324,1e+300"
