"""The three doors into an adapter configuration build the same AdapterConfig.

A config file (`parse_config`, `deft train --config`), the `deft adapt-init`
flags and an ADPT1 header carry the same flat fields. For every generated
valid field set the three must give one config; for every generated invalid
set each door must fail closed and write nothing. Runs are derandomized and
bounded so the suite stays deterministic and fast.
"""

import contextlib
import io
import math
import os
import shutil
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deft import store
from deft.adapters import _TRAINABLES, METHODS, config_from_fields, init_adapter
from deft.cli import main
from deft.decompose import KINDS
from deft.matcore import make_rng
from deft.store import FormatError, load_adapter, parse_config, save_adapter

DOORS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
W0 = make_rng(3).normal(size=(8, 6))

# flag of each optional field; method and rank are always given
FLAGS = {"backend": "--backend", "nmf_iters": "--nmf-iters", "nmf_tol": "--nmf-tol",
         "alpha": "--alpha", "lr_p": "--lr-p", "lr_r": "--lr-r",
         "init_stddev": "--init-stddev", "seed": "--seed"}


@st.composite
def valid_fields(draw):
    """A valid flat field set; a key left out takes its default.

    alpha is drawn only for lora and lr_r only for lora and deft: a method
    holds the default of a field it does not read.
    """
    method = draw(st.sampled_from(METHODS))
    fields = {"method": method, "rank": draw(st.integers(1, 4))}
    optional = {
        "alpha": st.floats(1e-3, 1e3),
        "lr_p": st.floats(1e-6, 1e-2),  # at most lr_r's default
        "lr_r": st.floats(1e-2, 1.0),  # at least lr_p's default
        "init_stddev": st.floats(0.0, 1.0),
        "seed": st.integers(0, 2**64 - 1),
    }
    if method != "lora":
        del optional["alpha"]
    if method == "para":  # no r-side trainable, so no lr_r to stay below
        del optional["lr_r"]
        optional["lr_p"] = st.floats(1e-6, 1.0)
    if fields["method"] != "lora" and draw(st.booleans()):  # lora takes no backend
        kind = draw(st.sampled_from(KINDS))
        fields["backend"] = kind.replace("_", "-") if draw(st.booleans()) else kind
        if kind == "nmf":  # every other kind holds the knobs' defaults
            optional.update(nmf_iters=st.integers(1, 50), nmf_tol=st.floats(0.0, 1e-2))
    for key, values in optional.items():
        if draw(st.booleans()):
            fields[key] = draw(values)
    return fields


@st.composite
def invalid_fields(draw):
    """A valid field set with one defect; returns (fields, defect)."""
    fields = draw(valid_fields())
    defect = draw(st.sampled_from(("knobs_without_backend", "knobs_on_another_kind",
                                   "lr_r_below_lr_p", "unread_field", "unknown_kind",
                                   "non_finite", "lora_with_backend", "past_u64")))
    if defect == "knobs_without_backend":
        fields.pop("backend", None)
        fields[draw(st.sampled_from(("nmf_iters", "nmf_tol")))] = 5
    elif defect == "knobs_on_another_kind":
        fields.update(method=draw(st.sampled_from(("para", "deft"))),
                      backend=draw(st.sampled_from([k for k in KINDS if k != "nmf"])))
        fields[draw(st.sampled_from(("nmf_iters", "nmf_tol")))] = 5
    elif defect == "lr_r_below_lr_p":  # only a method with an r-side trainable reads lr_r
        if fields["method"] == "para":
            fields["method"] = "deft"
        fields.update(lr_p=0.5, lr_r=0.1)
    elif defect == "unread_field":  # alpha but on lora, lr_r on para: off its default
        key = draw(st.sampled_from(("alpha", "lr_r")))
        if key == "lr_r":
            fields["method"] = "para"
        elif fields["method"] == "lora":
            fields["method"] = draw(st.sampled_from(("para", "deft")))
        fields[key] = draw(st.sampled_from((0.5, 5.0)))
    elif defect == "unknown_kind":
        fields["backend"] = draw(st.sampled_from(("cholesky", "relax__nmf", "QR")))
    elif defect == "lora_with_backend":
        fields.update(method="lora", backend=draw(st.sampled_from(KINDS)))
    elif defect == "past_u64":  # fields an ADPT1 header stores as u64
        key = "seed" if fields["method"] == "lora" else draw(st.sampled_from(("seed", "nmf_iters")))
        if key == "nmf_iters":
            fields.setdefault("backend", "nmf")
        fields[key] = draw(st.sampled_from((2**64, 2**64 + 1, 2**70)))
    else:
        key = draw(st.sampled_from(("alpha", "lr_p", "lr_r", "init_stddev", "nmf_tol")))
        if key == "nmf_tol":
            fields.setdefault("backend", "nmf")
        fields[key] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    return fields, defect


def config_text(fields):
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in fields.items())


def adapt_init_argv(fields):
    argv = ["adapt-init", "--w0", "w0.mat", "--method", fields["method"],
            "--rank", str(fields["rank"]), "--out", "a.adpt"]
    for key, flag in FLAGS.items():
        if key in fields:
            value = fields[key]
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


def header_bytes(fields):
    """An ADPT1 header, written field by field, holding `fields` and no sections.

    A lora header without a backend holds zeros in the backend fields, as
    save_adapter writes it.
    """
    method_tag = METHODS.index(fields["method"])
    if fields["method"] == "lora" and "backend" not in fields:
        backend_tag, iters, tol = 0, 0, 0.0
    else:
        kind = fields.get("backend", "qr").replace("-", "_")
        backend_tag = KINDS.index(kind) if kind in KINDS else len(KINDS)
        iters, tol = fields.get("nmf_iters", 15), fields.get("nmf_tol", 1e-6)
    return b"ADPT1" + struct.pack(
        "<BBQddddQQd", method_tag, backend_tag, fields["rank"],
        fields.get("alpha", float(fields["rank"])), fields.get("lr_p", 1e-3),
        fields.get("lr_r", 1e-2), fields.get("init_stddev", 0.01), fields.get("seed", 0),
        iters, tol,
    ) + store.matrix_hash(W0) + struct.pack("<Q", 0)


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("doors")
    store.save_matrix(W0, path / "w0.mat")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        mp.delenv("DEFT_SEED", raising=False)
        yield path


@DOORS
@given(fields=valid_fields())
@example(fields={"method": "deft", "rank": 2, "backend": "relax_nmf", "seed": 5})
@example(fields={"method": "para", "rank": 3, "backend": "relax-nmf", "lr_p": 1e-4})
@example(fields={"method": "para", "rank": 3, "backend": "nmf", "nmf_iters": 5, "nmf_tol": 1e-4})
@example(fields={"method": "lora", "rank": 1, "seed": 2**64 - 1})
@example(fields={"method": "para", "rank": 2, "lr_p": 0.05})
def test_valid_fields_give_one_config_at_every_door(workdir, fields):
    from_text = parse_config(config_text(fields))
    assert from_text == config_from_fields(**fields)

    assert run_cli(adapt_init_argv(fields))[0] == 0
    from_flags = load_adapter("a.adpt", W0).cfg
    os.remove("a.adpt")
    assert from_flags == from_text

    save_adapter(init_adapter(W0, from_text), "round.adpt")
    assert load_adapter("round.adpt", W0).cfg == from_text
    os.remove("round.adpt")


@DOORS
@given(case=invalid_fields())
@example(case=({"method": "deft", "rank": 2, "nmf_iters": 5}, "knobs_without_backend"))
@example(case=({"method": "deft", "rank": 2, "backend": "relax_nmf", "nmf_iters": 5},
               "knobs_on_another_kind"))
@example(case=({"method": "para", "rank": 3, "backend": "relax-nmf", "nmf_tol": 1e-4},
               "knobs_on_another_kind"))
@example(case=({"method": "deft", "rank": 2, "lr_p": 0.5, "lr_r": 0.1}, "lr_r_below_lr_p"))
@example(case=({"method": "deft", "rank": 2, "alpha": 9.0}, "unread_field"))
@example(case=({"method": "para", "rank": 2, "lr_r": 5.0}, "unread_field"))
@example(case=({"method": "deft", "rank": 2, "backend": "cholesky"}, "unknown_kind"))
@example(case=({"method": "lora", "rank": 2, "alpha": math.inf}, "non_finite"))
@example(case=({"method": "lora", "rank": 2, "backend": "nmf", "nmf_iters": 5},
               "lora_with_backend"))
@example(case=({"method": "deft", "rank": 2, "seed": 2**64}, "past_u64"))
@example(case=({"method": "para", "rank": 2, "backend": "nmf", "nmf_iters": 2**64}, "past_u64"))
def test_invalid_fields_fail_closed_at_every_door(workdir, case):
    fields, defect = case
    with pytest.raises(FormatError, match="invalid config"):
        parse_config(config_text(fields))

    with open("bad.cfg", "w", encoding="utf-8") as f:
        f.write(config_text(fields))
    assert run_cli(["train", "--w0", "w0.mat", "--config", "bad.cfg", "--steps", "1",
                    "--out", "t"])[0] == 3
    os.remove("bad.cfg")

    code, err = run_cli(adapt_init_argv(fields))
    assert code == 2, err

    # an ADPT1 header always holds a backend tag, and a u64 field cannot hold a value past u64
    if defect not in ("knobs_without_backend", "past_u64"):
        with open("bad.adpt", "wb") as f:
            f.write(header_bytes(fields))
        with pytest.raises(FormatError, match="invalid stored config|unsupported backend tag|"
                                              "lora takes no backend"):
            load_adapter("bad.adpt", W0)
        os.remove("bad.adpt")
    assert sorted(os.listdir()) == ["w0.mat"]  # nothing written


def test_nmf_knobs_without_backend_exit_2(workdir):
    code, err = run_cli(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                         "--nmf-iters", "5", "--out", "a.adpt"])
    assert code == 2
    assert err == "usage error: nmf_iters/nmf_tol given without a backend\n"
    assert sorted(os.listdir()) == ["w0.mat"]


@pytest.mark.parametrize("door", ["adapt-init", "config", "header"])
def test_nmf_knobs_on_another_kind_are_refused_at_every_door(workdir, door):
    fields = {"method": "deft", "rank": 2, "backend": "qr", "nmf_iters": 3}
    if door == "adapt-init":
        assert run_cli(adapt_init_argv(fields))[0] == 2
    elif door == "config":
        with open("bad.cfg", "w", encoding="utf-8") as f:
            f.write(config_text(fields))
        assert run_cli(["train", "--w0", "w0.mat", "--config", "bad.cfg", "--steps", "1",
                        "--out", "t"])[0] == 3
        os.remove("bad.cfg")
    else:
        with open("bad.adpt", "wb") as f:
            f.write(header_bytes(fields))
        code, err = run_cli(["displacement", "--state", "bad.adpt", "--w0", "w0.mat",
                             "--out", "d.csv"])
        assert code == 3 and "invalid stored config: qr takes the default nmf_iters" in err
        os.remove("bad.adpt")
    assert sorted(os.listdir()) == ["w0.mat"]


def checkpoint_bytes(fields):
    """header_bytes(fields), then the method's sections over W0, drawn from a fixed seed."""
    dims = dict(zip("mn", W0.shape), rank=fields["rank"])
    sections = _TRAINABLES[fields["method"]]
    buf = header_bytes(fields)[:-8] + struct.pack("<Q", len(sections))
    for name, rows, cols in sections:
        buf += store._section_tag(name) + store.matrix_bytes(
            make_rng(4).normal(size=(dims[rows], dims[cols])))
    return buf


def run_door(door, fields):
    """(exit code, stderr) of the config door `door` given `fields`; each writes into t/."""
    if door == "adapt-init":
        argv = adapt_init_argv(fields)
        argv[argv.index("a.adpt")] = "t/a.adpt"
        os.makedirs("t")
    elif door == "config":
        with open("run.cfg", "w", encoding="utf-8") as f:
            f.write(config_text(fields))
        argv = ["train", "--w0", "w0.mat", "--config", "run.cfg", "--steps", "2", "--out", "t"]
    else:
        with open("run.adpt", "wb") as f:
            f.write(checkpoint_bytes(fields))
        os.makedirs("t")
        argv = ["displacement", "--state", "run.adpt", "--w0", "w0.mat", "--out", "t/d.csv"]
    code, err = run_cli(argv)
    for path in ("run.cfg", "run.adpt"):
        if os.path.exists(path):
            os.remove(path)
    written = sorted(os.listdir("t")) if os.path.isdir("t") else []
    shutil.rmtree("t", ignore_errors=True)
    assert sorted(os.listdir()) == ["w0.mat"]
    return code, err, written


DOOR_NAMES = ["adapt-init", "config", "header"]


@pytest.mark.parametrize("door", DOOR_NAMES)
def test_para_lr_p_is_not_capped_by_the_unread_lr_r_at_any_door(workdir, door):
    code, err, written = run_door(door, {"method": "para", "rank": 2, "lr_p": 0.05})
    assert (code, err) == (0, "")
    assert written == {"adapt-init": ["a.adpt"], "config": ["adapter.adpt", "report.csv"],
                       "header": ["d.csv"]}[door]


@pytest.mark.parametrize("door", DOOR_NAMES)
@pytest.mark.parametrize("fields, message", [
    ({"method": "deft", "rank": 2, "alpha": 9.0}, "deft does not read alpha: it must hold its "
                                                  "default 2.0, got 9.0"),
    ({"method": "para", "rank": 3, "alpha": 6.0}, "para does not read alpha: it must hold its "
                                                  "default 3.0, got 6.0"),
    ({"method": "para", "rank": 2, "lr_r": 5.0}, "para does not read lr_r: it must hold its "
                                                 "default 0.01, got 5.0"),
], ids=["deft-alpha", "para-alpha", "para-lr_r"])
def test_unread_fields_off_their_defaults_are_refused_at_every_door(workdir, door, fields,
                                                                    message):
    code, err, written = run_door(door, fields)
    assert written == []
    if door == "adapt-init":
        assert (code, err) == (2, f"usage error: {message}\n")
    elif door == "config":
        assert (code, err) == (3, f"io error: invalid config: {message}\n")
    else:
        assert (code, err) == (3, f"io error: run.adpt: invalid stored config: {message}\n")


def test_lora_backend_bytes_are_refused_through_the_cli(workdir):
    state = init_adapter(W0, config_from_fields("lora", 2, init_stddev=0.3))
    save_adapter(state, "lora.adpt")
    with open("lora.adpt", "r+b") as f:  # backend tag 3 (nmf), nmf_iters 15, nmf_tol 1e-6
        f.seek(6)
        f.write(b"\x03")
        f.seek(55)
        f.write(struct.pack("<Qd", 15, 1e-6))
    code, err = run_cli(["displacement", "--state", "lora.adpt", "--w0", "w0.mat",
                         "--out", "d.csv"])
    os.remove("lora.adpt")
    assert (code, err) == (3, "io error: lora.adpt: lora takes no backend, so its backend tag "
                              "must be 0, got 3\n")
    assert sorted(os.listdir()) == ["w0.mat"]


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoints_with_default_knobs_still_load(workdir, kind):
    state = init_adapter(W0, config_from_fields("deft", 2, backend=kind, init_stddev=0.3))
    save_adapter(state, "a.adpt")
    loaded = load_adapter("a.adpt", W0)
    os.remove("a.adpt")
    assert loaded.cfg == state.cfg and store.state_hash(loaded) == store.state_hash(state)


@pytest.mark.parametrize("argv", [
    ["decompose", "--in", "w0.mat", "--out", "f", "--method"],
    ["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2", "--out", "f.adpt",
     "--backend"],
    ["verify", "--trials", "1", "--rank", "3", "--out", "f.csv", "--backend"],
], ids=["decompose", "adapt-init", "verify"])
def test_kind_flags_take_both_spellings(workdir, argv):
    outputs = []
    for spelling in ("relax-nmf", "relax_nmf"):
        assert run_cli(argv + [spelling])[0] == 0
        written = sorted(p for p in os.listdir() if p.startswith("f"))
        outputs.append([(p, open(p, "rb").read()) for p in written])
        for p in written:
            os.remove(p)
    assert outputs[0] == outputs[1] and outputs[0]


def test_bench_takes_both_spellings(workdir):
    assert run_cli(["bench", "--dim", "8", "--rank", "2", "--iters", "1",
                    "--backends", "relax-nmf,relax_nmf", "--out", "b.csv"])[0] == 0
    with open("b.csv", "rb") as f:
        rows = f.read().decode().split("\r\n")[1:-1]
    os.remove("b.csv")
    assert [r.split(",")[0] for r in rows] == ["relax-nmf", "relax_nmf"]
