"""Property-based fuzzing of the three parsers in deft.store.

Every input, valid or not, must either round-trip or fail closed with the
module's own error types; no other exception may escape. Valid files are
mutated (truncated, overwritten, extended) so the examples reach past the
magic and header checks. Runs are derandomized and bounded so the suite
stays deterministic and fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deft.adapters import METHODS, AdapterConfig, ConfigError, init_adapter, trainables
from deft.decompose import KINDS, Backend
from deft.matcore import make_rng
from deft.store import (
    CONFIG_KEYS,
    FormatError,
    PairingError,
    _parse_matrix,
    load_adapter,
    matrix_bytes,
    parse_config,
    save_adapter,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def mutated(draw, seeds):
    """One of `seeds`, truncated, partly overwritten or extended at random."""
    blob = bytearray(draw(st.sampled_from(seeds)))
    op = draw(st.sampled_from(("truncate", "overwrite", "extend", "keep")))
    if op == "truncate":
        del blob[draw(st.integers(0, len(blob))):]
    elif op == "overwrite":
        at = draw(st.integers(0, len(blob) - 1))
        patch = draw(st.binary(min_size=1, max_size=16))
        blob[at:at + len(patch)] = patch
    elif op == "extend":
        blob += draw(st.binary(min_size=1, max_size=16))
    return bytes(blob)


_rng = make_rng(0)
MATRICES = [matrix_bytes(_rng.normal(size=shape)) for shape in ((1, 1), (2, 3), (4, 1))] + [
    matrix_bytes(np.array([[0.0, -0.0, 5e-324, -1.7976931348623157e308]])),
]


@FUZZ
@given(buf=st.one_of(st.binary(max_size=64), mutated(MATRICES)), offset=st.integers(0, 8))
def test_parse_matrix_round_trips_or_raises_format_error(buf, offset):
    buf = bytes(offset) + buf
    try:
        mat, end = _parse_matrix(buf, offset, "blob")
    except FormatError:
        return
    assert matrix_bytes(mat) == buf[offset:end]


W0 = make_rng(1).normal(size=(5, 4))


@pytest.fixture(scope="module")
def adapter_dir(tmp_path_factory):
    """A directory holding one valid checkpoint per method over W0."""
    out = tmp_path_factory.mktemp("adapters")
    for i, (method, kind) in enumerate((("lora", None), ("para", "nmf"), ("deft", "relax"))):
        backend = None if kind is None else Backend(kind)
        state = init_adapter(W0, AdapterConfig(method, 2, backend=backend, init_stddev=0.3, seed=i))
        for mat in list(trainables(state).values())[1:]:
            mat[...] = make_rng(10 + i).normal(size=mat.shape)
        save_adapter(state, out / f"{method}.adpt")
    return out


@FUZZ
@given(data=st.data())
def test_load_adapter_round_trips_or_fails_closed(adapter_dir, data):
    seeds = [(adapter_dir / f"{method}.adpt").read_bytes() for method in METHODS]
    path = adapter_dir / "fuzz.adpt"
    path.write_bytes(data.draw(st.one_of(st.binary(max_size=160), mutated(seeds))))
    try:
        state = load_adapter(path, W0)
    except (FormatError, PairingError):
        return
    save_adapter(state, adapter_dir / "resaved.adpt")
    back = load_adapter(adapter_dir / "resaved.adpt", W0)
    assert back.cfg == state.cfg
    assert [(name, mat.tobytes()) for name, mat in trainables(back).items()] == [
        (name, mat.tobytes()) for name, mat in trainables(state).items()
    ]


def config_text(cfg):
    """Config-file text that describes `cfg` exactly, naming only the fields its method reads."""
    fields = {"method": cfg.method, "rank": cfg.rank, "lr_p": repr(cfg.lr_p),
              "init_stddev": repr(cfg.init_stddev), "seed": cfg.seed}
    if cfg.method == "lora":
        fields["alpha"] = repr(cfg.alpha)
    if cfg.method != "para":
        fields["lr_r"] = repr(cfg.lr_r)
    if cfg.backend is not None:
        fields.update(backend=cfg.backend.kind, nmf_iters=cfg.backend.nmf_iters,
                      nmf_tol=repr(cfg.backend.nmf_tol))
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


_values = st.one_of(
    st.sampled_from(METHODS + KINDS + tuple(k.replace("_", "-") for k in KINDS)),
    st.integers(-3, 10).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=12),
)
_lines = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), _values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
    st.just("# comment"),
    st.just(""),
)


@FUZZ
@given(text=st.one_of(st.text(), st.lists(_lines, max_size=12).map("\n".join)))
def test_parse_config_round_trips_or_fails_closed(text):
    try:
        cfg = parse_config(text)
    except (FormatError, ConfigError):
        return
    assert parse_config(config_text(cfg)) == cfg
