"""Bit-exact persistence: matrix files, adapter checkpoints, config files.

Matrix file (MAT1), little-endian throughout::

    offset  size  field
    0       4     magic b"MAT1"
    4       8     rows, u64
    12      8     cols, u64
    20      8rc   entries, f64, row-major

Total length is exactly 20 + 8 * rows * cols bytes, and every entry is
finite.

Adapter checkpoint (ADPT1)::

    offset  size  field
    0       5     magic b"ADPT1"
    5       1     method tag, u8: index into adapters.METHODS
                  (0 lora, 1 para, 2 deft)
    6       1     backend tag, u8: index into decompose.KINDS (0 qr,
                  1 tsvd, 2 lrmf, 3 nmf, 4 eig, 5 relax, 6 relax_nmf;
                  0 for lora)
    7       8     rank, u64
    15      8     alpha, f64
    23      8     lr_p, f64
    31      8     lr_r, f64
    39      8     init_stddev, f64
    47      8     seed, u64
    55      8     nmf_iters, u64 (0 for lora)
    63      8     nmf_tol, f64 (0 for lora)
    71      32    sha-256 of the base weight (see below)
    103     8     section count, u64
    111     ...   sections: name length u64, name utf-8, embedded MAT1

The tags are tuple positions, so METHODS and KINDS may only grow at the
end. The two nmf fields hold Backend's defaults for every backend kind but
nmf. lora takes no backend: its backend tag and both nmf fields must be 0.
alpha and lr_r hold their defaults for a method that does not read them
(see adapters.AdapterConfig). The sections are the method's trainables
in the order and shapes of adapters.trainable_shapes, which also refuses
a stored rank above min(m, n) of the paired base weight (the CLI exits 3).

The header carries the full adapter configuration, not just the method
tags, because reloading must reproduce the original forward pass bit for
bit and the latent factorization depends on every one of those knobs.

The base-weight hash is sha-256 over (rows u64 LE || cols u64 LE ||
row-major f64 LE entries), i.e. over the MAT1 payload without the magic.
Loading a checkpoint against a base weight whose hash differs is refused:
adapter trainables are meaningless away from the exact weights they were
trained against.

Config files are UTF-8 text, one ``key = value`` per line; blank lines and
lines starting with ``#`` are ignored. The keys are the ten flat fields of
an adapter (``CONFIG_KEYS``): method, rank, alpha, backend, lr_p, lr_r,
init_stddev, seed, nmf_iters, nmf_tol. Unknown or duplicate keys are
errors. A config file, an ADPT1 header and ``deft adapt-init`` flags all
become an AdapterConfig through ``adapters.config_from_fields``, so one
rule holds for all three: nmf_iters and nmf_tol need a backend, every
backend kind but nmf holds their defaults, a field the method does not
read (alpha but for lora, lr_r for para) holds its default, and a backend
kind may be spelled with ``-`` or ``_``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from deft.adapters import (METHODS, AdapterState, ConfigError, config_from_fields,
                           trainable_shapes, trainables)
from deft.decompose import KINDS
from deft.matcore import ShapeError, as_matrix, freeze

MAT_MAGIC = b"MAT1"
ADPT_MAGIC = b"ADPT1"
# The ADPT1 header, bytes 0-110 in the table above, as one fixed struct.
_ADPT_HEADER = struct.Struct("<5sBBQddddQQd32sQ")

# config key -> the type its value text converts to
_CONFIG_TYPES = {"method": str, "rank": int, "alpha": float, "backend": str, "lr_p": float,
                 "lr_r": float, "init_stddev": float, "seed": int, "nmf_iters": int,
                 "nmf_tol": float}
CONFIG_KEYS = tuple(_CONFIG_TYPES)


class FormatError(ValueError):
    """File contents violate the declared format."""


class PairingError(ValueError):
    """Checkpoint does not belong to the supplied base weight."""


def _mat_payload(m):
    """The MAT1 payload of `m`: its u64 shape header and its entries as row-major f8 LE."""
    m = np.ascontiguousarray(m, dtype="<f8")
    return struct.pack("<QQ", *m.shape), m


def matrix_bytes(m):
    """Full MAT1 blob for matrix `m`."""
    head, data = _mat_payload(m)
    return MAT_MAGIC + head + data.tobytes()


def _hash_payload(h, m):
    head, data = _mat_payload(m)
    h.update(head)
    h.update(memoryview(data).cast("B"))


def matrix_hash(m):
    """sha-256 digest (32 bytes) of a matrix's MAT1 payload.

    The entries are read from the array's own buffer, so a C-ordered
    float64 matrix is hashed without a copy; any other layout or dtype is
    converted once. The digest is that of the payload bytes in any case.
    """
    h = hashlib.sha256()
    _hash_payload(h, m)
    return h.digest()


def state_hash(state):
    """sha-256 hex digest over all trainable matrices of an adapter state."""
    h = hashlib.sha256()
    for name, mat in trainables(state).items():
        h.update(name.encode())
        _hash_payload(h, mat)
    return h.hexdigest()


def save_matrix(m, path):
    """Write `m` to `path` in MAT1 format."""
    m = as_matrix(m, "matrix")
    with open(path, "wb") as f:
        f.write(matrix_bytes(m))


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    return "" if value is None else str(value)


def _write_lines(path, lines):
    """Write the CSV lines as UTF-8 text, each ending CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def save_csv(path, header, rows):
    """Write a CSV report: the header, then one line per row, each ending CRLF.

    Each row is a sequence of cells. A float cell is its repr, a bool cell
    true or false, a None cell empty.
    """
    _write_lines(path, [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)])


def _parse_matrix(buf, offset, label):
    """Decode one embedded MAT1 blob starting at `offset`; return (matrix, end)."""
    if len(buf) < offset + 20:
        raise FormatError(
            f"{label}: header truncated, need {offset + 20} bytes, file has {len(buf)}"
        )
    magic = buf[offset:offset + 4]
    if magic != MAT_MAGIC:
        raise FormatError(f"{label}: bad magic {magic!r}, expected {MAT_MAGIC!r}")
    rows, cols = struct.unpack_from("<QQ", buf, offset + 4)
    if rows < 1 or cols < 1:
        raise FormatError(f"{label}: invalid dims {rows}x{cols}")
    end = offset + 20 + 8 * rows * cols
    if len(buf) < end:
        raise FormatError(
            f"{label}: data truncated, need {end} bytes, file has {len(buf)}"
        )
    data = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=offset + 20)
    if not np.isfinite(data).all():
        raise FormatError(f"{label}: contains non-finite entries")
    return data.reshape(rows, cols).copy(), end


def load_matrix(path):
    """Read a MAT1 file; errors name the failing field."""
    with open(path, "rb") as f:
        buf = f.read()
    m, end = _parse_matrix(buf, 0, str(path))
    if len(buf) != end:
        raise FormatError(f"{path}: trailing bytes, expected {end}, file has {len(buf)}")
    return m


def _section_tag(name):
    """The bytes an ADPT1 section starts with: the name's length as a u64, then the name."""
    raw = name.encode()
    return struct.pack("<Q", len(raw)) + raw


def save_adapter(state, path):
    """Write an ADPT1 checkpoint; first refuse a state that load_adapter would not read back.

    cfg must fit w0 (a ConfigError), and each trainable must be a finite matrix of its shape.
    """
    cfg = state.cfg
    mats = {}
    for name, shape in trainable_shapes(cfg, *state.w0.shape).items():
        mat = getattr(state, name)
        if np.shape(mat) != shape:  # a missing trainable, None, has shape ()
            raise ShapeError(f"{name} has shape {np.shape(mat)}, expected {shape}")
        mats[name] = as_matrix(mat, name)
    if cfg.backend is None:
        backend_tag, nmf_iters, nmf_tol = 0, 0, 0.0
    else:
        backend_tag = KINDS.index(cfg.backend.kind)
        nmf_iters, nmf_tol = cfg.backend.nmf_iters, cfg.backend.nmf_tol
    parts = [_ADPT_HEADER.pack(
        ADPT_MAGIC, METHODS.index(cfg.method), backend_tag, cfg.rank, cfg.alpha,
        cfg.lr_p, cfg.lr_r, cfg.init_stddev, cfg.seed, nmf_iters, nmf_tol,
        matrix_hash(state.w0), len(mats))]
    for name, mat in mats.items():
        parts += [_section_tag(name), matrix_bytes(mat)]
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_adapter(path, w0):
    """Load an ADPT1 checkpoint and rebind it to `w0`.

    The stored base-weight hash must match `w0` exactly; a mismatch raises
    PairingError because the checkpoint was trained against a different
    base weight. The stored config must then fit w0, or FormatError, and the
    sections must be exactly those it implies, in order (adapters.trainable_shapes).
    """
    with open(path, "rb") as f:
        buf = f.read()
    label = str(path)
    if len(buf) < _ADPT_HEADER.size:
        raise FormatError(
            f"{label}: header truncated, need {_ADPT_HEADER.size} bytes, file has {len(buf)}")
    (magic, method_tag, backend_tag, rank, alpha, lr_p, lr_r, init_stddev, seed,
     nmf_iters, nmf_tol, stored_hash, count) = _ADPT_HEADER.unpack_from(buf)
    if magic != ADPT_MAGIC:
        raise FormatError(f"{label}: bad magic {magic!r}, expected {ADPT_MAGIC!r}")
    if method_tag >= len(METHODS):
        raise FormatError(f"{label}: unsupported method tag {method_tag}")

    method = METHODS[method_tag]
    backend = {}
    if method == "lora":  # save_adapter writes zeros: lora takes no backend
        for name, value in (("backend tag", backend_tag), ("nmf_iters", nmf_iters),
                            ("nmf_tol", nmf_tol)):
            if value != 0:
                raise FormatError(f"{label}: lora takes no backend, so its {name} must be 0, "
                                  f"got {value}")
    else:
        if backend_tag >= len(KINDS):
            raise FormatError(f"{label}: unsupported backend tag {backend_tag}")
        backend = dict(backend=KINDS[backend_tag], nmf_iters=nmf_iters, nmf_tol=nmf_tol)
    try:  # the config's own rules, then the pairing, then whether the config fits w0
        cfg = config_from_fields(method, rank, alpha=alpha, lr_p=lr_p, lr_r=lr_r,
                                 init_stddev=init_stddev, seed=seed, **backend)
        w0 = freeze(as_matrix(w0, "w0"))
        if matrix_hash(w0) != stored_hash:
            raise PairingError(
                f"{label}: checkpoint was trained against a different base weight "
                "(stored hash does not match the supplied w0)"
            )
        shapes = trainable_shapes(cfg, *w0.shape)
    except ConfigError as exc:
        raise FormatError(f"{label}: invalid stored config: {exc}") from exc
    if count != len(shapes):
        raise FormatError(f"{label}: holds {count} sections, expected {len(shapes)}: "
                          f"{tuple(shapes)}")
    mats = {}
    offset = _ADPT_HEADER.size
    for i, (name, shape) in enumerate(shapes.items()):
        tag = _section_tag(name)
        if buf[offset:offset + len(tag)] != tag:
            raise FormatError(f"{label}: section {i} is missing or misnamed, expected {name!r}")
        mat, offset = _parse_matrix(buf, offset + len(tag), f"{label}: section {name!r}")
        if mat.shape != shape:
            raise FormatError(f"{label}: section {name!r} has shape {mat.shape}, expected {shape}")
        mats[name] = mat
    if len(buf) != offset:
        raise FormatError(f"{label}: trailing bytes, expected {offset}, file has {len(buf)}")
    return AdapterState(cfg, w0, **mats)


def parse_config(text):
    """Parse ``key = value`` config text into an AdapterConfig.

    Unknown keys, duplicate keys, malformed lines and values that do not
    convert fail fast; the fields then go through config_from_fields.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_TYPES:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise FormatError(f"line {lineno}: empty value for {key!r}")
        try:
            fields[key] = _CONFIG_TYPES[key](value)
        except ValueError:
            raise FormatError(f"line {lineno}: bad value for {key!r}: {value!r}") from None

    for req in ("method", "rank"):
        if req not in fields:
            raise FormatError(f"missing required config key {req!r}")
    try:
        return config_from_fields(**fields)
    except ConfigError as exc:
        raise FormatError(f"invalid config: {exc}") from exc


def read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: config is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_config(text)
