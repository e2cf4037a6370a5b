import functools
import struct
import sys

import numpy as np
import pytest

from deft import store
from deft._jacobi import jacobi_svd
from deft.cli import main
from deft.matcore import make_rng


def _failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_mat(path, seed=0, m=8, n=6):
    w0 = make_rng(seed).normal(size=(m, n))
    store.save_matrix(w0, path)
    return w0


class TestDecompose:
    def test_unconverged_svd_exits_1_without_traceback(self, in_tmp, capsys, monkeypatch):
        write_mat("b.mat", seed=5, m=40, n=30)
        monkeypatch.setattr(sys.modules["deft.decompose"], "jacobi_svd",
                            functools.partial(jacobi_svd, max_sweeps=1))
        assert main(["decompose", "--in", "b.mat", "--method", "tsvd",
                     "--rank", "4", "--out", "fac"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Jacobi SVD did not converge in 1 sweeps")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tsvd_writes_factors(self, in_tmp, capsys):
        write_mat("b.mat", seed=1)
        assert main(["decompose", "--in", "b.mat", "--method", "tsvd",
                     "--rank", "2", "--out", "fac"]) == 0
        out = capsys.readouterr().out
        assert "reconstruction_error=" in out and "wrote fac.p.mat" in out
        p = store.load_matrix("fac.p.mat")
        assert p.shape == (8, 2)
        assert np.abs(p.T @ p - np.eye(2)).max() < 1e-10
        assert store.load_matrix("fac.s.mat").shape == (2, 1)
        assert store.load_matrix("fac.v.mat").shape == (6, 2)

    def test_qr_defaults_to_column_count(self, in_tmp, capsys):
        write_mat("b.mat", seed=2, m=6, n=3)
        assert main(["decompose", "--in", "b.mat", "--method", "qr", "--out", "q"]) == 0
        assert store.load_matrix("q.p.mat").shape == (6, 3)
        assert store.load_matrix("q.rtri.mat").shape == (3, 3)

    def test_qr_wrong_rank_is_usage_error(self, in_tmp, capsys):
        write_mat("b.mat", seed=3, m=6, n=3)
        assert main(["decompose", "--in", "b.mat", "--method", "qr",
                     "--rank", "2", "--out", "q"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, in_tmp, capsys):
        assert main(["decompose", "--in", "nope.mat", "--method", "qr", "--out", "q"]) == 3
        assert "io error" in capsys.readouterr().err

    def test_nmf_clamp_warning_surfaces(self, in_tmp, capsys):
        write_mat("b.mat", seed=4)  # signed entries
        assert main(["decompose", "--in", "b.mat", "--method", "nmf",
                     "--rank", "2", "--nmf-iters", "10", "--out", "w"]) == 0
        captured = capsys.readouterr()
        assert "clamping" in captured.err
        assert store.load_matrix("w.h.mat").shape == (2, 6)
        assert store.load_matrix("w.errtrace.mat").shape[1] == 1

    @pytest.mark.parametrize("method", ["eig", "nmf"])
    def test_non_finite_factor_fails_closed(self, in_tmp, capsys, method):
        # at 1e300, eig's lambda = s**2 and nmf's update products overflow
        store.save_matrix(1e300 * make_rng(7).normal(size=(12, 8)), "b.mat")
        assert main(["decompose", "--in", "b.mat", "--method", method,
                     "--rank", "3", "--out", "f"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {method} produced non-finite entries for f.")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["b.mat"]

    @pytest.mark.parametrize("method", ["tsvd", "lrmf"])
    def test_square_input_with_zero_column(self, in_tmp, capsys, method):
        b = make_rng(6).normal(size=(33, 33))
        b[:, 7] = 0.0
        store.save_matrix(b, "b.mat")
        assert main(["decompose", "--in", "b.mat", "--method", method, "--out", "f"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        p = store.load_matrix("f.p.mat")
        s = store.load_matrix("f.s.mat")[:, 0]
        assert s[-1] == 0.0
        if method == "tsvd":
            assert np.abs(p.T @ p - np.eye(33)).max() < 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_tsvd_at_extreme_scale(self, in_tmp, capsys, scale):
        b = scale * make_rng(7).normal(size=(12, 8))
        store.save_matrix(b, "b.mat")
        assert main(["decompose", "--in", "b.mat", "--method", "tsvd", "--out", "f"]) == 0
        out = capsys.readouterr().out
        err = float(out.split("reconstruction_error=")[1].split()[0])
        assert err < 1e-13
        s = store.load_matrix("f.s.mat")[:, 0]
        ref = np.linalg.svd(b, compute_uv=False)
        assert np.abs(s - ref).max() <= 1e-13 * ref[0]

    def test_lapack_failure_exits_1_without_traceback(self, in_tmp, capsys, monkeypatch):
        write_mat("b.mat", seed=8)
        monkeypatch.setattr(np.linalg, "svd", _failing_svd)
        assert main(["decompose", "--in", "b.mat", "--method", "eig",
                     "--rank", "2", "--out", "fac"]) == 1
        err = capsys.readouterr().err
        assert err == "error: SVD did not converge\n"

    def test_relax_nmf_hyphen_accepted(self, in_tmp):
        write_mat("b.mat", seed=5, m=5, n=2)
        assert main(["decompose", "--in", "b.mat", "--method", "relax-nmf",
                     "--out", "r"]) == 0
        p = store.load_matrix("r.p.mat")
        assert (p >= 0).all()


class TestAdaptInit:
    def test_checkpoint_round_trip(self, in_tmp, capsys):
        w0 = write_mat("w0.mat", seed=6)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--backend", "relax-nmf", "--init-stddev", "0.3",
                     "--out", "a.adpt"]) == 0
        assert "params=" in capsys.readouterr().out
        state = store.load_adapter("a.adpt", w0)
        assert state.cfg.method == "deft"
        assert state.cfg.backend.kind == "relax_nmf"
        assert state.cfg.init_stddev == 0.3

    def test_rank_too_large(self, in_tmp, capsys):
        write_mat("w0.mat", seed=7, m=4, n=3)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "para",
                     "--rank", "4", "--out", "a.adpt"]) == 2

    def test_seed_env_default(self, in_tmp, monkeypatch):
        write_mat("w0.mat", seed=8)
        monkeypatch.setenv("DEFT_SEED", "17")
        main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
              "--out", "env.adpt"])
        monkeypatch.delenv("DEFT_SEED")
        main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
              "--seed", "17", "--out", "flag.adpt"])
        with open("env.adpt", "rb") as f1, open("flag.adpt", "rb") as f2:
            assert f1.read() == f2.read()

    def test_bad_seed_env(self, in_tmp, monkeypatch, capsys):
        write_mat("w0.mat", seed=9)
        monkeypatch.setenv("DEFT_SEED", "banana")
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--out", "a.adpt"]) == 2
        assert "DEFT_SEED" in capsys.readouterr().err


def write_config(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


class TestTrain:
    def test_happy_path(self, in_tmp, capsys):
        w0 = write_mat("w0.mat", seed=10, m=8, n=8)
        write_config("run.cfg", [
            "method = deft", "rank = 2", "backend = relax",
            "lr_p = 1e-3", "lr_r = 1e-2", "init_stddev = 0.1", "seed = 11",
        ])
        assert main(["train", "--w0", "w0.mat", "--config", "run.cfg",
                     "--steps", "60", "--input-scale", "16", "--out", "run"]) == 0
        out = capsys.readouterr().out
        assert "w0_frozen=true" in out and "final_loss=" in out
        with open("run/report.csv", "rb") as f:
            text = f.read().decode()
        lines = text.split("\r\n")
        assert lines[0] == "step,loss,grad_norm_p,grad_norm_r"
        assert len(lines) == 63  # header + 61 loss rows + trailing newline
        losses = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert losses[-1] < losses[0]
        state = store.load_adapter("run/adapter.adpt", w0)
        assert state.cfg.seed == 11

    def test_deterministic_outputs(self, in_tmp):
        write_mat("w0.mat", seed=12, m=6, n=6)
        write_config("run.cfg", [
            "method = para", "rank = 2", "backend = qr",
            "lr_p = 1e-4", "lr_r = 1e-4", "init_stddev = 0.2", "seed = 13",
        ])
        argv = ["train", "--w0", "w0.mat", "--config", "run.cfg",
                "--steps", "20", "--input-scale", "8", "--out", None]
        blobs = []
        for out in ("r1", "r2"):
            argv[-1] = out
            assert main(argv) == 0
            with open(f"{out}/report.csv", "rb") as f1, open(f"{out}/adapter.adpt", "rb") as f2:
                blobs.append((f1.read(), f2.read()))
        assert blobs[0] == blobs[1]

    def test_divergence_exits_one(self, in_tmp, capsys):
        write_mat("w0.mat", seed=14, m=6, n=6)
        write_config("hot.cfg", [
            "method = deft", "rank = 2", "backend = relax",
            "lr_p = 1e6", "lr_r = 1e6", "init_stddev = 0.5", "seed = 15",
        ])
        assert main(["train", "--w0", "w0.mat", "--config", "hot.cfg",
                     "--steps", "100", "--out", "boom"]) == 1
        # the overflows on the way to inf arrive as warning lines, then one error line
        *warned, last = capsys.readouterr().err.splitlines()
        assert warned and all(line.startswith("warning: ") for line in warned)
        assert not any("RuntimeWarning" in line for line in warned)
        assert last.startswith("error: loss diverged")

    def test_bad_config_is_io_error(self, in_tmp, capsys):
        write_mat("w0.mat", seed=16)
        write_config("bad.cfg", ["method = deft", "rank = 2", "dropout = 0.5"])
        assert main(["train", "--w0", "w0.mat", "--config", "bad.cfg",
                     "--steps", "5", "--out", "x"]) == 3
        assert "unknown key" in capsys.readouterr().err

    def test_binary_config_is_io_error(self, in_tmp, capsys):
        write_mat("w0.mat", seed=16)
        assert main(["train", "--w0", "w0.mat", "--config", "w0.mat",
                     "--steps", "5", "--out", "x"]) == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_nan_alpha_in_config_is_io_error(self, in_tmp, capsys):
        write_mat("w0.mat", seed=16)
        write_config("nan.cfg", ["method = deft", "rank = 2", "alpha = nan"])
        assert main(["train", "--w0", "w0.mat", "--config", "nan.cfg",
                     "--steps", "5", "--out", "x"]) == 3
        assert "alpha must be finite" in capsys.readouterr().err

    def test_noise_task_runs(self, in_tmp):
        write_mat("w0.mat", seed=17, m=6, n=6)
        write_config("n.cfg", [
            "method = lora", "rank = 2", "lr_p = 1e-3", "lr_r = 1e-3", "seed = 18",
        ])
        assert main(["train", "--w0", "w0.mat", "--config", "n.cfg", "--task",
                     "teacher-noise", "--steps", "10", "--out", "noise"]) == 0


class TestVerify:
    def test_default_passes(self, in_tmp, capsys):
        assert main(["verify", "--trials", "2", "--rank", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 2 trials" in out
        with open("verify_report.csv", "rb") as f:
            lines = f.read().decode().split("\r\n")
        assert lines[0].startswith("trial,identity_residual,")
        assert len(lines) == 4  # header + 2 trials + trailing newline
        for row in lines[1:3]:
            assert ",true,true,true,true," in row

    def test_explicit_w0_and_backend(self, in_tmp, capsys):
        write_mat("w0.mat", seed=19, m=16, n=12)
        assert main(["verify", "--w0", "w0.mat", "--rank", "3", "--backend", "relax",
                     "--trials", "1", "--out", "v.csv"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_rank_too_large(self, in_tmp, capsys):
        write_mat("w0.mat", seed=20, m=6, n=4)
        assert main(["verify", "--w0", "w0.mat", "--rank", "5", "--trials", "1"]) == 2

    def test_tiny_w0_keeps_its_rank(self, in_tmp, capsys):
        store.save_matrix(1e-300 * make_rng(22).normal(size=(64, 48)), "w0.mat")
        assert main(["verify", "--w0", "w0.mat", "--trials", "1", "--out", "v.csv"]) == 0
        assert "PASS" in capsys.readouterr().out
        with open("v.csv", "rb") as f:
            header, row = f.read().decode().split("\r\n")[:2]
        assert dict(zip(header.split(","), row.split(",")))["rank_w0"] == "48"

    @pytest.mark.parametrize("backend", ["qr", "relax"])
    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e-8, 1e300])
    def test_containment_at_any_w0_scale(self, in_tmp, capsys, scale, backend):
        store.save_matrix(scale * make_rng(3).normal(size=(64, 48)), "w0.mat")
        assert main(["verify", "--w0", "w0.mat", "--backend", backend, "--out", "v.csv"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 3 trials" in out and "containment=false" not in out

    def test_lapack_failure_exits_1_without_traceback(self, in_tmp, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", _failing_svd)
        assert main(["verify", "--trials", "1", "--out", "v.csv"]) == 1
        err = capsys.readouterr().err
        assert err == "error: SVD did not converge\n"


class TestWarningLines:
    def test_nmf_clamp_is_one_line(self, in_tmp, capsys):
        # the clamp is raised on every step and every trial, and printed once
        clamp = "warning: nmf input has negative entries; clamping to zero\n"
        write_mat("w0.mat", seed=30, m=8, n=6)
        write_config("nmf.cfg", ["method = deft", "rank = 2", "backend = nmf",
                                 "lr_p = 1e-4", "lr_r = 1e-4", "seed = 31"])
        assert main(["train", "--w0", "w0.mat", "--config", "nmf.cfg", "--steps", "20",
                     "--input-scale", "8", "--out", "t"]) == 0
        assert capsys.readouterr().err == clamp
        assert main(["verify", "--backend", "nmf", "--out", "v.csv"]) == 0
        assert capsys.readouterr().err == clamp


class TestDisplacement:
    def test_default_probe(self, in_tmp, capsys):
        assert main(["displacement", "--grid-n", "5", "--out", "d.csv"]) == 0
        out = capsys.readouterr().out
        assert "mean_full=" in out
        with open("d.csv", "rb") as f:
            lines = f.read().decode().split("\r\n")
        assert lines[0] == "x0,x1,full_0,full_1,nonneg_0,nonneg_1"
        assert len(lines) == 27  # header + 25 grid points + trailing newline

    def test_state_requires_w0(self, in_tmp, capsys):
        assert main(["displacement", "--state", "a.adpt"]) == 2
        assert "requires --w0" in capsys.readouterr().err

    def test_saved_state(self, in_tmp):
        write_mat("w0.mat", seed=21, m=4, n=4)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "para", "--rank", "2",
                     "--init-stddev", "0.4", "--out", "p.adpt"]) == 0
        assert main(["displacement", "--state", "p.adpt", "--w0", "w0.mat",
                     "--grid-n", "3", "--out", "dp.csv"]) == 0
        with open("dp.csv", "rb") as f:
            assert len(f.read().decode().split("\r\n")) == 11  # header + 9 points + trailing


class TestMalformedFiles:
    """Bad file contents exit 3 with a message naming the place, never a traceback."""

    def test_nonfinite_matrix_entry(self, in_tmp, capsys):
        entries = np.array([[1.0, np.nan], [np.inf, 2.0]])
        with open("bad.mat", "wb") as f:
            f.write(b"MAT1" + struct.pack("<QQ", 2, 2) + entries.astype("<f8").tobytes())
        assert main(["decompose", "--in", "bad.mat", "--method", "qr", "--out", "f"]) == 3
        assert "bad.mat: contains non-finite entries" in capsys.readouterr().err

    def _checkpoint(self):
        write_mat("w0.mat", seed=22, m=4, n=4)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--out", "a.adpt"]) == 0
        with open("a.adpt", "rb") as f:
            return bytearray(f.read())

    def _displacement(self, buf):
        with open("a.adpt", "wb") as f:
            f.write(bytes(buf))
        return main(["displacement", "--state", "a.adpt", "--w0", "w0.mat", "--out", "d.csv"])

    def test_nonfinite_section_entry(self, in_tmp, capsys):
        buf = self._checkpoint()
        buf[-8:] = struct.pack("<d", np.nan)  # last entry of the last section, r
        assert self._displacement(buf) == 3
        assert "section 'r': contains non-finite entries" in capsys.readouterr().err

    def test_non_utf8_section_name(self, in_tmp, capsys):
        buf = self._checkpoint()
        buf[119] = 0xFF  # first byte of the first section name
        assert self._displacement(buf) == 3
        assert "section 0 name is not valid UTF-8" in capsys.readouterr().err


class TestBench:
    def test_small_run(self, in_tmp, capsys):
        assert main(["bench", "--dim", "32", "--rank", "4", "--iters", "3",
                     "--backends", "qr,relax", "--out", "b.csv"]) == 0
        out = capsys.readouterr().out
        assert "qr: median=" in out and "relax: median=" in out
        with open("b.csv", "rb") as f:
            lines = f.read().decode().split("\r\n")
        assert lines[0] == "backend,median_ms,min_ms,max_ms"
        assert lines[1].startswith("qr,") and lines[2].startswith("relax,")

    def test_default_times_every_backend(self, in_tmp):
        assert main(["bench", "--dim", "16", "--rank", "2", "--iters", "1",
                     "--out", "all.csv"]) == 0
        with open("all.csv", "rb") as f:
            rows = f.read().decode().split("\r\n")[1:-1]
        assert [r.split(",")[0] for r in rows] == [
            "qr", "tsvd", "lrmf", "nmf", "eig", "relax", "relax-nmf"]

    def test_unknown_backend(self, in_tmp, capsys):
        assert main(["bench", "--backends", "qr,cholesky"]) == 2
        assert "unknown backend" in capsys.readouterr().err


class TestParamCount:
    def test_values(self, in_tmp, capsys):
        assert main(["param-count", "--method", "deft", "--rank", "4",
                     "--m", "32", "--n", "16"]) == 0
        assert "params=192" in capsys.readouterr().out
        assert main(["param-count", "--method", "para", "--rank", "4",
                     "--m", "32", "--n", "16"]) == 0
        assert "params=128" in capsys.readouterr().out


class TestFloatFlags:
    """Every float flag fails closed with exit 2 and a message naming it."""

    TRAIN = ["train", "--w0", "w0.mat", "--config", "run.cfg", "--steps", "2", "--out", "t"]
    CASES = [
        (["decompose", "--in", "w0.mat", "--method", "nmf", "--out", "f"], "--nmf-tol",
         ["nan", "inf", "-1"]),
        (["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
          "--backend", "nmf", "--out", "a.adpt"], "--nmf-tol", ["nan", "inf", "-1"]),
        (["adapt-init", "--w0", "w0.mat", "--method", "lora", "--rank", "2",
          "--out", "a.adpt"], "--alpha", ["nan", "inf"]),
        (["adapt-init", "--w0", "w0.mat", "--method", "lora", "--rank", "2",
          "--out", "a.adpt"], "--lr-p", ["nan", "-inf"]),
        (["adapt-init", "--w0", "w0.mat", "--method", "lora", "--rank", "2",
          "--out", "a.adpt"], "--lr-r", ["nan", "inf"]),
        (["adapt-init", "--w0", "w0.mat", "--method", "lora", "--rank", "2",
          "--out", "a.adpt"], "--init-stddev", ["nan", "inf", "-1"]),
        (TRAIN, "--input-scale", ["nan", "inf"]),
        (TRAIN, "--shift-scale", ["nan", "inf"]),
        (TRAIN + ["--task", "teacher-noise"], "--noise-stddev", ["nan", "inf", "-1"]),
        (["displacement", "--out", "d.csv"], "--grid-lo", ["nan", "-inf"]),
        (["displacement", "--out", "d.csv"], "--grid-hi", ["nan", "inf"]),
    ]

    @pytest.mark.parametrize("argv,flag,value", [
        pytest.param(argv, flag, value, id=f"{argv[0]}{flag}={value}")
        for argv, flag, values in CASES for value in values
    ])
    def test_bad_value_is_usage_error(self, in_tmp, capsys, argv, flag, value):
        write_mat("w0.mat", seed=23)
        write_config("run.cfg", ["method = deft", "rank = 2", "backend = relax"])
        before = set(in_tmp.iterdir())
        assert main(argv + [f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be finite" in err and "Traceback" not in err
        assert set(in_tmp.iterdir()) == before  # nothing written

    def test_param_count_rank_above_min_dim(self, capsys):
        assert main(["param-count", "--method", "para", "--rank", "9",
                     "--m", "3", "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert "rank 9 exceeds min(m, n) = 3" in captured.err and "params=" not in captured.out


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_bad_flag_value(self, capsys):
        assert main(["bench", "--iters", "0"]) == 2
