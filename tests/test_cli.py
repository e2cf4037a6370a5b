import dataclasses
import functools
import os
import struct
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import deft.cli
from deft import adapters, store, subspace
from deft.cli import _warning_lines, main
from deft.decompose import _KINDS, KINDS, Backend
from deft.matcore import ShapeError, make_rng


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
        monkeypatch.setattr(sys.modules["deft._jacobi"], "_MAX_SWEEPS", 1)
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

    @pytest.mark.parametrize("method", ["eig"])
    def test_non_finite_factor_fails_closed(self, in_tmp, capsys, method):
        # at 1e300, eig's lambda = s**2 overflows
        store.save_matrix(1e300 * make_rng(7).normal(size=(12, 8)), "b.mat")
        assert main(["decompose", "--in", "b.mat", "--method", method,
                     "--rank", "3", "--out", "f"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {method} produced non-finite entries for f.")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["b.mat"]

    def test_nmf_factors_a_huge_input(self, in_tmp, capsys):
        # the squared norm of a 1e300 input overflows; nmf factors it at unit scale
        b = make_rng(7).normal(size=(12, 8))
        errors = []
        for name, scale in (("unit", 1.0), ("huge", 1e300)):
            store.save_matrix(scale * b, f"{name}.mat")
            assert main(["decompose", "--in", f"{name}.mat", "--method", "nmf",
                         "--rank", "3", "--out", name]) == 0
            errors.append(float(capsys.readouterr().out.split("reconstruction_error=")[1].split()[0]))
        for stem in ("p", "h", "errtrace"):
            assert np.isfinite(store.load_matrix(f"huge.{stem}.mat")).all()
        assert errors[1] == pytest.approx(errors[0], rel=1e-5)

    AUX_STEMS = {"qr": ["rtri"], "tsvd": ["s", "v"], "lrmf": ["s", "v"], "nmf": ["h", "errtrace"],
                 "eig": ["lam"], "relax": [], "relax_nmf": []}

    @pytest.mark.parametrize("kind", AUX_STEMS)
    def test_writes_the_aux_files_of_its_kind(self, in_tmp, capsys, kind):
        stems = self.AUX_STEMS[kind]
        assert list(_KINDS[kind].aux_stems.values()) == stems
        store.save_matrix(np.abs(make_rng(9).normal(size=(8, 6))), "b.mat")
        rank = [] if _KINDS[kind].intrinsic_rank else ["--rank", "3"]
        assert main(["decompose", "--in", "b.mat", "--method", kind.replace("_", "-"),
                     "--out", "f", *rank]) == 0
        written = sorted(p.name for p in in_tmp.iterdir() if p.name != "b.mat")
        assert written == sorted(["f.p.mat", *(f"f.{stem}.mat" for stem in stems)])
        out = capsys.readouterr().out
        for name in written:
            assert f"wrote {name}\n" in out
            store.load_matrix(name)

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

    @pytest.mark.parametrize("knob", [["--nmf-iters", "3"], ["--nmf-tol", "1e-4"]],
                             ids=["nmf-iters", "nmf-tol"])
    def test_nmf_knobs_on_another_kind_exit_2(self, in_tmp, capsys, knob):
        write_mat("w0.mat", seed=5)
        assert main(["decompose", "--in", "w0.mat", "--method", "qr", *knob, "--out", "f"]) == 2
        assert capsys.readouterr().err.startswith(
            "usage error: qr takes the default nmf_iters, nmf_tol; got (")
        assert [p.name for p in in_tmp.iterdir()] == ["w0.mat"]

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

    def test_zero_alpha_is_usage_error(self, in_tmp, capsys):
        write_mat("w0.mat", seed=8)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "lora", "--rank", "2",
                     "--alpha", "0", "--out", "a.adpt"]) == 2
        assert capsys.readouterr().err == "usage error: alpha must be positive, got 0.0\n"
        assert sorted(p.name for p in in_tmp.iterdir()) == ["w0.mat"]

    @pytest.mark.parametrize("method", ["deft", "lora"])
    def test_overflowing_init_draw_is_usage_error(self, in_tmp, capsys, method):
        # stddev 1e308 takes some of the 32 p-side entries past float64's range
        store.save_matrix(np.eye(8), "w0.mat")
        backend = ["--backend", "relax"] if method == "deft" else []
        assert main(["adapt-init", "--w0", "w0.mat", "--method", method, "--rank", "4",
                     *backend, "--init-stddev", "1e308", "--out", "a.adpt"]) == 2
        name = "p_latent" if method == "deft" else "a"
        assert capsys.readouterr().err == (
            f"usage error: init_stddev 1e+308 overflows float64 in the initial {name} draw\n")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["w0.mat"]


def write_config(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def run_bytes(out):
    """The bytes of the report.csv and adapter.adpt that a `deft train` run wrote to out."""
    with open(f"{out}/report.csv", "rb") as f1, open(f"{out}/adapter.adpt", "rb") as f2:
        return f1.read(), f2.read()


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
            "lr_p = 1e-4", "init_stddev = 0.2", "seed = 13",
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

    def test_zero_alpha_in_config_is_io_error(self, in_tmp, capsys):
        write_mat("w0.mat", seed=10, m=8, n=8)
        write_config("run.cfg", ["method = deft", "rank = 2", "backend = relax", "alpha = 0"])
        assert main(["train", "--w0", "w0.mat", "--config", "run.cfg",
                     "--steps", "3", "--out", "run"]) == 3
        assert capsys.readouterr().err == (
            "io error: invalid config: alpha must be positive, got 0.0\n")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["run.cfg", "w0.mat"]

    def test_diverging_c08_lrmf_run_prints_one_line(self, in_tmp, capsys):
        # the benchmark's c08 deft/lrmf job: its sums of squares overflow on the way to
        # inf, and none of them may add a warning line before the error
        store.save_matrix(make_rng(6000).normal(size=(32, 32)), "w0.mat")
        write_config("lrmf.cfg", ["method = deft", "rank = 4", "backend = lrmf",
                                  "lr_p = 0.001", "lr_r = 0.01", "init_stddev = 0.1",
                                  "seed = 0"])
        assert main(["train", "--w0", "w0.mat", "--config", "lrmf.cfg", "--steps", "2000",
                     "--task-seed", "1", "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: loss diverged to a non-finite value at step 12;")

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

    @pytest.mark.parametrize("steps", [5, 1])  # at 1, the final loss's refresh meets it
    @pytest.mark.parametrize("kind", _KINDS)
    def test_overflowed_latent_is_divergence(self, in_tmp, capsys, kind, steps):
        # step 0 at rate 1e308 takes the p-side latent past float64's range, and the next
        # refactorization refuses it
        store.save_matrix(1e6 * np.random.default_rng(0).normal(size=(8, 8)), "w0.mat")
        write_config("hot.cfg", ["method = deft", "rank = 2", f"backend = {kind}",
                                 "lr_p = 1e308", "lr_r = 1e308", "init_stddev = 1"])
        assert main(["train", "--w0", "w0.mat", "--config", "hot.cfg",
                     "--steps", str(steps), "--out", "boom"]) == 1
        *warned, last = capsys.readouterr().err.splitlines()
        assert all(line.startswith("warning: ") for line in warned)
        assert last.startswith("error: loss diverged to a non-finite value at step 1;")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["hot.cfg", "w0.mat"]

    def test_overflowing_init_draw_is_usage_error(self, in_tmp, capsys):
        store.save_matrix(np.eye(8), "w0.mat")
        write_config("wide.cfg", ["method = deft", "rank = 4", "backend = relax",
                                  "init_stddev = 1e308"])
        assert main(["train", "--w0", "w0.mat", "--config", "wide.cfg",
                     "--steps", "2", "--out", "run"]) == 2
        assert capsys.readouterr().err.startswith("usage error: init_stddev 1e+308 overflows")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["w0.mat", "wide.cfg"]

    @pytest.mark.parametrize("config,flags,named", [
        ("backend = qr", ["--input-scale", "1e300"], "--input-scale 1e+300"),
        (None, ["--shift-scale", "1e308"], "--shift-scale 1e+308"),
        ("backend = qr", ["--task", "teacher-noise", "--noise-stddev", "1e300"],
         "--noise-stddev 1e+300"),
    ], ids=["input-scale", "shift-scale", "noise-stddev"])
    def test_task_out_of_range_is_usage_error(self, in_tmp, capsys, config, flags, named):
        # the loss overflows before any step has run: the task, not training, is at fault
        write_mat("w0.mat", seed=17)
        method = ["method = lora"] if config is None else ["method = deft", config]
        write_config("run.cfg", [*method, "rank = 2"])
        assert main(["train", "--w0", "w0.mat", "--config", "run.cfg",
                     "--steps", "3", "--out", "run", *flags]) == 2
        *warned, last = capsys.readouterr().err.splitlines()
        assert all(line.startswith("warning: ") for line in warned)
        assert last.startswith("usage error: --task ") and named in last
        assert "--input-scale" in last and "W0's max |entry| " in last
        assert sorted(p.name for p in in_tmp.iterdir()) == ["run.cfg", "w0.mat"]

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

    def test_noise_task_at_its_builders_defaults_converges(self, in_tmp, capsys):
        # --input-scale once defaulted to teacher-shift's 64 for every task; teacher-noise's
        # Gaussian inputs at 64 diverged at step 108 of this run
        store.save_matrix(np.random.default_rng(0).normal(size=(8, 8)), "w0.mat")
        write_config("qr.cfg", ["method = deft", "rank = 2", "backend = qr"])
        argv = ["train", "--w0", "w0.mat", "--config", "qr.cfg", "--task", "teacher-noise",
                "--task-seed", "0", "--steps", "200"]
        assert main([*argv, "--out", "run"]) == 0
        assert "steps=200 final_loss=2.297307e+00 " in capsys.readouterr().out
        # a flag the task takes no scale of is ignored; the builder's defaults, spelled out
        assert main([*argv, "--shift-scale", "5", "--out", "shift5"]) == 0
        assert main([*argv, "--noise-stddev", "0.01", "--input-scale", "1", "--out", "own"]) == 0
        assert run_bytes("shift5") == run_bytes("run") == run_bytes("own")

    def test_shift_task_at_its_builders_defaults_keeps_its_bytes(self, in_tmp):
        write_mat("w0.mat", seed=20, m=8, n=8)
        write_config("qr.cfg", ["method = deft", "rank = 2", "backend = qr"])
        argv = ["train", "--w0", "w0.mat", "--config", "qr.cfg", "--task-seed", "1",
                "--steps", "20"]
        assert main([*argv, "--out", "run"]) == 0
        assert main([*argv, "--shift-scale", "1", "--input-scale", "64", "--out", "own"]) == 0
        assert main([*argv, "--noise-stddev", "5", "--out", "noise5"]) == 0
        assert run_bytes("own") == run_bytes("run") == run_bytes("noise5")

    def test_help_names_each_tasks_scale_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse would wrap at a hyphen
        assert main(["train", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--shift-scale SHIFT_SCALE default: teacher-shift 1; ignored by teacher-noise" in out
        assert "--input-scale INPUT_SCALE default: teacher-shift 64, teacher-noise 1 " in out
        assert "--noise-stddev NOISE_STDDEV default: teacher-noise 0.01; ignored by teacher-shift" in out

        # the numbers are read off the builders when the (cached) parser is built
        def noise_task(w0, seed, noise_stddev=0.25, input_scale=2.5):
            raise AssertionError("help builds no task")

        monkeypatch.setattr(deft.train, "make_teacher_noise_task", noise_task)
        deft.cli._build_parser.cache_clear()
        try:
            assert main(["train", "--help"]) == 0
        finally:
            deft.cli._build_parser.cache_clear()  # the next test rebuilds it from the real builder
        out = " ".join(capsys.readouterr().out.split())
        assert "default: teacher-shift 64, teacher-noise 2.5 " in out
        assert "default: teacher-noise 0.25; ignored by teacher-shift" in out

    def test_default_task_stream_is_not_the_initial_latents(self, in_tmp, monkeypatch):
        # without --task-seed the task's Philox key is derived from the config seed; the
        # config seed's own stream draws the initial latent, whose first m entries would
        # otherwise be init_stddev times the teacher's raw shift direction
        w0 = make_rng(21).normal(size=(32, 32))
        store.save_matrix(w0, "w0.mat")
        write_config("qr.cfg", ["method = deft", "rank = 4", "backend = qr",
                                "init_stddev = 0.1", "seed = 0"])
        build, seeds = deft.train.make_teacher_shift_task, []

        @functools.wraps(build)
        def recording(w0, seed, **scales):
            seeds.append(seed)
            return build(w0, seed, **scales)

        monkeypatch.setattr(deft.train, "make_teacher_shift_task", recording)
        assert main(["train", "--w0", "w0.mat", "--config", "qr.cfg", "--steps", "1",
                     "--out", "run"]) == 0
        derived = np.random.SeedSequence(0).spawn(1)[0].generate_state(1, np.uint64)[0]
        assert seeds == [int(derived)]
        head = adapters.init_adapter(w0, store.read_config("qr.cfg")).p_latent.ravel()[:32]
        assert np.array_equal(head, 0.1 * make_rng(0).normal(size=32))
        assert not np.array_equal(head, 0.1 * make_rng(seeds[0]).normal(size=32))

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

    @pytest.mark.parametrize("backend", ["qr", "relax"])
    def test_adapter_latent_is_drawn_apart_from_w0(self, in_tmp, capsys, monkeypatch, backend):
        states = []
        merge = deft.cli.adapters.merge
        monkeypatch.setattr(deft.cli.adapters, "merge", lambda s: states.append(s) or merge(s))
        assert main(["verify", "--seed", "5", "--backend", backend, "--trials", "2"]) == 0
        assert len(states) == 2
        for state in states:
            # the same seed's generator gives w0's entries; no latent entry may be one of them
            assert np.intersect1d(state.p_latent / 0.5, state.w0).size == 0

    def test_rank_too_large(self, in_tmp, capsys):
        write_mat("w0.mat", seed=20, m=6, n=4)
        assert main(["verify", "--w0", "w0.mat", "--rank", "5", "--trials", "1"]) == 2

    @pytest.mark.parametrize("rank", ["49", "100000000000"])
    def test_rank_checked_against_w0_before_any_draw(self, in_tmp, capsys, monkeypatch, rank):
        def no_draw(*args):
            raise AssertionError("verify drew before checking --rank")

        monkeypatch.setattr(deft.cli, "gaussian", no_draw)
        assert main(["verify", "--rank", rank, "--out", "v.csv"]) == 2
        assert capsys.readouterr() == ("", f"usage error: --rank {rank} exceeds min(m, n) = 48 "
                                           "for W0's shape (64, 48)\n")
        assert list(in_tmp.iterdir()) == []

    def test_extension_witness_is_checked_once_per_process(self, tmp_path):
        # counted in a fresh process, since an earlier verify in this one may have run it
        script = textwrap.dedent("""
            import contextlib, io
            from deft import subspace
            calls = []
            ranks = subspace.extension_ranks
            subspace.extension_ranks = lambda *a, **k: calls.append(1) or ranks(*a, **k)
            from deft.cli import main
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                codes = [main(["verify", "--trials", "1", "--seed", str(s), "--out", f"v{s}.csv"])
                         for s in range(3)]
            print(codes, len(calls), sink.getvalue().count("witness=true"))
        """)
        src = os.path.dirname(os.path.dirname(deft.cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "DEFT_SEED"}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[0, 0, 0] 1 3"]

    def test_tiny_w0_keeps_its_rank(self, in_tmp, capsys):
        store.save_matrix(1e-300 * make_rng(22).normal(size=(64, 48)), "w0.mat")
        assert main(["verify", "--w0", "w0.mat", "--trials", "1", "--out", "v.csv"]) == 0
        assert "PASS" in capsys.readouterr().out
        with open("v.csv", "rb") as f:
            header, row = f.read().decode().split("\r\n")[:2]
        assert dict(zip(header.split(","), row.split(",")))["rank_w0"] == "48"

    @pytest.mark.parametrize("backend", ["qr", "tsvd", "relax"])
    def test_subnormal_w0_passes(self, in_tmp, capsys, backend):
        # at 2**-1070 the entries are subnormal; the subset check takes w0 at unit scale
        store.save_matrix(np.ldexp(make_rng(3).normal(size=(64, 48)), -1070), "w0.mat")
        assert main(["verify", "--w0", "w0.mat", "--backend", backend, "--out", "v.csv"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 3 trials" in out and "subset=false" not in out
        assert sorted(p.name for p in in_tmp.iterdir()) == ["v.csv", "w0.mat"]

    @pytest.mark.parametrize("seed, trials", [(2**64 - 1, 2), (2**64 - 2, 3), (2**64 - 8, 9)])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_seed_range_checked_before_any_trial(self, in_tmp, capsys, monkeypatch, seed,
                                                 trials, source):
        argv = ["verify", "--trials", str(trials), "--out", "v.csv"]
        if source == "flag":
            argv += ["--seed", str(seed)]
        else:
            monkeypatch.setenv("DEFT_SEED", str(seed))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: --seed (or DEFT_SEED) plus --trials - 1 must be below 2**64, "
            f"got seed {seed} with {trials} trials\n")
        assert list(in_tmp.iterdir()) == []

    def test_last_seeds_below_u64_run(self, in_tmp, capsys):
        assert main(["verify", "--seed", str(2**64 - 2), "--trials", "2", "--rank", "2",
                     "--out", "v.csv"]) == 0
        assert "PASS: 2 trials" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["qr", "relax"])
    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e-8, 1e300, 1e305])
    def test_containment_at_any_w0_scale(self, in_tmp, capsys, scale, backend):
        store.save_matrix(scale * make_rng(3).normal(size=(64, 48)), "w0.mat")
        assert main(["verify", "--w0", "w0.mat", "--backend", backend, "--out", "v.csv"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 3 trials" in out and "containment=false" not in out

    @pytest.mark.parametrize("backend", ["qr", "relax"])
    def test_w0_too_large_fails_closed(self, in_tmp, capsys, backend):
        # at 1e307, W0's Frobenius norm (qr) and the merged weight (relax) overflow
        store.save_matrix(1e307 * make_rng(3).normal(size=(64, 48)), "w0.mat")
        assert main(["verify", "--w0", "w0.mat", "--backend", backend, "--out", "v.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: W0's scale is out of range for verify (max |entry| 4.")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in in_tmp.iterdir()) == ["w0.mat"]

    def test_failure_dumps_go_beside_out(self, in_tmp, capsys, monkeypatch):
        real = subspace.check_containment

        def failing_containment(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), containment_holds=False)

        monkeypatch.setattr(subspace, "check_containment", failing_containment)
        (in_tmp / "reports").mkdir()
        assert main(["verify", "--trials", "2", "--out", "reports/v.csv"]) == 1
        assert "FAIL: trials [0, 1] failed" in capsys.readouterr().out
        assert sorted(p.name for p in in_tmp.iterdir()) == ["reports"]
        assert sorted(p.name for p in (in_tmp / "reports").iterdir()) == ["v.csv", *(
            f"verify_fail_trial{t}_{name}.mat" for t in (0, 1) for name in ("q", "w0", "w_total"))]

    @pytest.mark.parametrize("out", ["nodir/v.csv", "reports"])
    def test_bad_out_fails_before_any_trial(self, in_tmp, capsys, out):
        (in_tmp / "reports").mkdir()
        assert main(["verify", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""  # no trial line
        assert captured.err == (
            f"io error: --out {out!r} is not a file path in an existing directory\n")
        assert sorted(p.name for p in in_tmp.rglob("*")) == ["reports"]

    @pytest.mark.parametrize("backend", ["tsvd", "lrmf"])
    def test_trial_factor_takes_no_jacobi_svd(self, in_tmp, capsys, monkeypatch, backend):
        # a trial stores no factor, so its adapter is factored by LAPACK, not the Jacobi SVD
        monkeypatch.setattr(sys.modules["deft.decompose"], "jacobi_svd", _failing_svd)
        assert main(["verify", "--backend", backend, "--out", "v.csv"]) == 0
        assert "PASS: 3 trials" in capsys.readouterr().out

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

    def test_a_message_from_two_places_is_one_line(self, capsys):
        with _warning_lines():
            warnings.warn("overflow encountered in matmul", RuntimeWarning)
            warnings.warn("invalid value encountered in matmul", RuntimeWarning)
            warnings.warn("overflow encountered in matmul", RuntimeWarning)
        assert capsys.readouterr().err == ("warning: overflow encountered in matmul\n"
                                           "warning: invalid value encountered in matmul\n")


class TestDisplacement:
    def test_default_probe(self, in_tmp, capsys):
        assert main(["displacement", "--grid-n", "5", "--out", "d.csv"]) == 0
        out = capsys.readouterr().out
        assert "mean_full=" in out
        with open("d.csv", "rb") as f:
            lines = f.read().decode().split("\r\n")
        assert lines[0] == "x0,x1,full_0,full_1,nonneg_0,nonneg_1"
        assert len(lines) == 27  # header + 25 grid points + trailing newline

    @pytest.mark.parametrize("seed", ["0", "3", "4"])
    def test_probe_latent_is_drawn_apart_from_w0(self, in_tmp, capsys, monkeypatch, seed):
        states = []
        field = deft.cli.subspace.displacement_field
        monkeypatch.setattr(deft.cli.subspace, "displacement_field",
                            lambda s, **kw: states.append(s) or field(s, **kw))
        assert main(["displacement", "--seed", seed, "--grid-n", "3", "--out", "d.csv"]) == 0
        (state,) = states
        # the same seed's generator gives w0's entries; no latent entry may be one of them
        assert np.intersect1d(state.p_latent / 0.5, state.w0).size == 0

    def test_overflowing_grid_span_is_usage_error(self, in_tmp, capsys):
        assert main(["displacement", "--grid-lo=-1e308", "--grid-hi", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "usage error: --grid-hi minus --grid-lo overflows float64, got --grid-lo -1e+308 "
            "and --grid-hi 1e+308\n")
        assert list(in_tmp.iterdir()) == []

    def test_non_finite_field_fails_closed(self, in_tmp, capsys):
        store.save_matrix(np.full((4, 4), 1.5e308), "w0.mat")
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--backend", "relax", "--init-stddev", "1", "--out", "s.adpt"]) == 0
        capsys.readouterr()
        assert main(["displacement", "--state", "s.adpt", "--w0", "w0.mat", "--out", "d.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the displacement field overflows float64 "
                              "(W0's max |entry| 1.500e+308")
        assert err.count("\n") == 1
        assert sorted(p.name for p in in_tmp.iterdir()) == ["s.adpt", "w0.mat"]

    def test_overflow_in_an_input_held_at_zero_is_not_the_fields(self, in_tmp, capsys):
        # only W0's last column overflows the merge; the grid moves the first two inputs
        w0 = make_rng(24).normal(size=(4, 4))
        w0[:, 3] = 1.5e308
        store.save_matrix(w0, "w0.mat")
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--backend", "relax", "--init-stddev", "1", "--out", "s.adpt"]) == 0
        assert main(["displacement", "--state", "s.adpt", "--w0", "w0.mat", "--grid-n", "3",
                     "--out", "d.csv"]) == 0
        assert capsys.readouterr().err == ""
        with open("d.csv", encoding="utf-8") as f:
            cells = [float(v) for line in f.read().splitlines()[1:] for v in line.split(",")]
        assert len(cells) == 9 * 10 and np.isfinite(cells).all()

    def test_state_requires_w0(self, in_tmp, capsys):
        assert main(["displacement", "--state", "a.adpt"]) == 2
        assert "requires --w0" in capsys.readouterr().err

    def test_w0_requires_state(self, in_tmp, capsys):
        write_mat("w0.mat", seed=21, m=6, n=5)
        assert main(["displacement", "--w0", "w0.mat", "--out", "d.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "requires --state" in err
        assert err.count("\n") == 1
        assert [p.name for p in in_tmp.iterdir()] == ["w0.mat"]

    def test_seed_with_state_is_usage_error(self, in_tmp, capsys):
        write_mat("w0.mat", seed=21, m=4, n=4)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--out", "a.adpt"]) == 0
        capsys.readouterr()
        # the seed draws only the default probe, which --state replaces
        assert main(["displacement", "--state", "a.adpt", "--w0", "w0.mat", "--seed", "1",
                     "--out", "d.csv"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: not allowed with argument --state\n")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["a.adpt", "w0.mat"]

    def test_env_seed_stays_a_default_beside_state(self, in_tmp, monkeypatch):
        write_mat("w0.mat", seed=21, m=4, n=4)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--out", "a.adpt"]) == 0
        monkeypatch.setenv("DEFT_SEED", "3")
        assert main(["displacement", "--state", "a.adpt", "--w0", "w0.mat", "--grid-n", "3",
                     "--out", "env.csv"]) == 0
        monkeypatch.delenv("DEFT_SEED")
        assert main(["displacement", "--state", "a.adpt", "--w0", "w0.mat", "--grid-n", "3",
                     "--out", "flag.csv"]) == 0
        with open("env.csv", "rb") as f1, open("flag.csv", "rb") as f2:
            assert f1.read() == f2.read()

    def test_saved_state(self, in_tmp):
        write_mat("w0.mat", seed=21, m=4, n=4)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "para", "--rank", "2",
                     "--init-stddev", "0.4", "--out", "p.adpt"]) == 0
        assert main(["displacement", "--state", "p.adpt", "--w0", "w0.mat",
                     "--grid-n", "3", "--out", "dp.csv"]) == 0
        with open("dp.csv", "rb") as f:
            assert len(f.read().decode().split("\r\n")) == 11  # header + 9 points + trailing


# the rank-3 adapters over a 2 x 8 or 8 x 2 W0 that load_adapter refuses
RANK_ABOVE_MIN_DIM = pytest.mark.parametrize("method, kind, shape", [
    ("deft", "qr", (2, 8)), ("deft", "tsvd", (2, 8)), ("deft", "relax", (2, 8)),
    ("lora", None, (8, 2)), ("para", "nmf", (8, 2)),
], ids=["deft-qr-wide", "deft-tsvd-wide", "deft-relax-wide", "lora-tall", "para-nmf-tall"])


def rank3_state(method, kind, shape):
    """A rank-3 adapter over the seed-23 W0 of `shape`, written to w0.mat, which cannot hold it."""
    w0 = write_mat("w0.mat", seed=23, m=shape[0], n=shape[1])
    dims = {"m": shape[0], "n": shape[1], "rank": 3}
    mats = {name: make_rng(24).normal(size=(dims[r], dims[c]))
            for name, r, c in adapters._TRAINABLES[method]}
    cfg = adapters.AdapterConfig(method, 3, backend=None if kind is None else Backend(kind))
    return adapters.AdapterState(cfg, w0, **mats)


def write_unchecked_adpt1(state, path):
    """Write `state` in ADPT1, field by field as save_adapter packs it, without its checks."""
    cfg, b = state.cfg, state.cfg.backend
    tag, iters, tol = (0, 0, 0.0) if b is None else (KINDS.index(b.kind), b.nmf_iters, b.nmf_tol)
    mats = adapters.trainables(state)
    buf = store._ADPT_HEADER.pack(
        store.ADPT_MAGIC, adapters.METHODS.index(cfg.method), tag, cfg.rank, cfg.alpha,
        cfg.lr_p, cfg.lr_r, cfg.init_stddev, cfg.seed, iters, tol, store.matrix_hash(state.w0),
        len(mats))
    for name, mat in mats.items():
        buf += store._section_tag(name) + store.matrix_bytes(mat)
    with open(path, "wb") as f:
        f.write(buf)


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

    def test_unknown_backend_tag(self, in_tmp, capsys):
        buf = self._checkpoint()
        buf[6] = 7  # one past relax_nmf
        assert self._displacement(buf) == 3
        assert capsys.readouterr().err == "io error: a.adpt: unsupported backend tag 7\n"
        assert not (in_tmp / "d.csv").exists()

    def test_section_of_the_wrong_shape(self, in_tmp, capsys):
        w0 = write_mat("w0.mat", seed=22, m=8, n=8)
        assert main(["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2",
                     "--out", "a.adpt"]) == 0
        with open("a.adpt", "rb") as f:
            buf = bytearray(f.read())
        # r's 2 x 8 header becomes 8 x 2: the same byte count, so only the shape check sees it
        at = buf.index(struct.pack("<Q", 1) + b"rMAT1") + 13
        assert struct.unpack_from("<QQ", buf, at) == (2, 8)
        struct.pack_into("<QQ", buf, at, 8, 2)
        with open("a.adpt", "wb") as f:
            f.write(bytes(buf))
        with pytest.raises(store.FormatError) as exc:
            store.load_adapter("a.adpt", w0)
        assert str(exc.value) == "a.adpt: section 'r' has shape (8, 2), expected (2, 8)"
        capsys.readouterr()
        assert main(["displacement", "--state", "a.adpt", "--w0", "w0.mat",
                     "--out", "d.csv"]) == 3
        assert capsys.readouterr().err == (
            "io error: a.adpt: section 'r' has shape (8, 2), expected (2, 8)\n")
        assert not (in_tmp / "d.csv").exists()

    @RANK_ABOVE_MIN_DIM
    def test_rank_above_min_dim(self, in_tmp, capsys, method, kind, shape):
        # no deft command builds this rank-3 state, and save_adapter refuses it
        write_unchecked_adpt1(rank3_state(method, kind, shape), "a.adpt")
        assert main(["displacement", "--state", "a.adpt", "--w0", "w0.mat",
                     "--out", "d.csv"]) == 3
        assert capsys.readouterr().err == ("io error: a.adpt: invalid stored config: rank 3 "
                                           f"exceeds min(m, n) = 2 for shape {shape}\n")
        assert sorted(p.name for p in in_tmp.iterdir()) == ["a.adpt", "w0.mat"]

    @RANK_ABOVE_MIN_DIM
    def test_save_adapter_refuses_a_rank_above_min_dim(self, in_tmp, method, kind, shape):
        # with load's text, before the file is opened: the bytes already there stay
        state = rank3_state(method, kind, shape)
        with open("a.adpt", "wb") as f:
            f.write(b"kept")
        with pytest.raises(adapters.ConfigError) as info:
            store.save_adapter(state, "a.adpt")
        assert str(info.value) == f"rank 3 exceeds min(m, n) = 2 for shape {shape}"
        with open("a.adpt", "rb") as f:
            assert f.read() == b"kept"
        write_unchecked_adpt1(state, "a.adpt")
        with pytest.raises(store.FormatError) as loaded:
            store.load_adapter("a.adpt", state.w0)
        assert str(loaded.value) == f"a.adpt: invalid stored config: {info.value}"

    @pytest.mark.parametrize("name, value, error, message", [
        ("r", np.zeros((2, 5)), ShapeError, "r has shape (2, 5), expected (2, 4)"),
        ("r", np.zeros(8), ShapeError, "r has shape (8,), expected (2, 4)"),
        ("r", None, ShapeError, "r has shape (), expected (2, 4)"),
        ("p_latent", np.full((4, 2), np.inf), ValueError,
         "p_latent contains non-finite entries"),
    ], ids=["wrong-shape", "flat", "missing", "non-finite"])
    def test_save_adapter_refuses_a_trainable_load_would(self, in_tmp, name, value, error,
                                                         message):
        w0 = write_mat("w0.mat", seed=22, m=4, n=4)
        state = adapters.init_adapter(w0, adapters.AdapterConfig("deft", 2))
        store.save_adapter(state, "a.adpt")
        with open("a.adpt", "rb") as f:
            before = f.read()
        with pytest.raises(error) as info:
            store.save_adapter(dataclasses.replace(state, **{name: value}), "a.adpt")
        assert str(info.value) == message
        with open("a.adpt", "rb") as f:
            assert f.read() == before

    def test_non_utf8_section_name(self, in_tmp, capsys):
        buf = self._checkpoint()
        buf[119] = 0xFF  # first byte of the first section name
        assert self._displacement(buf) == 3
        assert capsys.readouterr().err == (
            "io error: a.adpt: section 0 is missing or misnamed, expected 'p_latent'\n")


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

    @pytest.mark.parametrize("backends", [",", "", " , "])
    def test_empty_backend_list(self, in_tmp, capsys, backends):
        assert main(["bench", "--backends", backends, "--out", "b.csv"]) == 2
        assert capsys.readouterr().err == (
            f"usage error: --backends names no backend kind, got {backends!r}\n")
        assert list(in_tmp.iterdir()) == []

    def test_rank_above_dim_is_usage_error(self, in_tmp, capsys):
        assert main(["bench", "--dim", "2", "--rank", "4", "--backends", "tsvd",
                     "--out", "b.csv"]) == 2
        assert capsys.readouterr().err == "usage error: rank 4 out of range for shape (2, 4)\n"
        assert list(in_tmp.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    # sizes whose arrays numpy refuses at once (terabytes), so no test allocates them
    (["displacement", "--grid-n", "1000000"],
     "--grid-n 1000000: a 1000000 x 1000000 grid is too large to allocate"),
    (["bench", "--dim", "100000000000"],
     "--dim 100000000000 by --rank 8: the latent is too large to allocate"),
    (["verify", "--rank", "100000000000"],
     "--rank 100000000000 exceeds min(m, n) = 48 for W0's shape (64, 48)"),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_unallocatable_size_is_a_usage_error(in_tmp, capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {err}\n")
    assert list(in_tmp.iterdir()) == []


class TestParamCount:
    def test_values(self, in_tmp, capsys):
        assert main(["param-count", "--method", "deft", "--rank", "4",
                     "--m", "32", "--n", "16"]) == 0
        assert "params=192" in capsys.readouterr().out
        assert main(["param-count", "--method", "para", "--rank", "4",
                     "--m", "32", "--n", "16"]) == 0
        assert "params=128" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        src = os.path.dirname(os.path.dirname(deft.cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "deft.cli", "param-count", "--method", "deft",
                               "--rank", "2", "--m", "4", "--n", "4"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "method=deft rank=2 m=4 n=4 params=16\n", "")


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

    def test_one_parser_per_process(self, tmp_path):
        # counted in a fresh process: importing builds none, the first main() builds the one
        script = textwrap.dedent("""
            import argparse, contextlib, io
            built = []
            init = argparse.ArgumentParser.__init__
            def counted(self, *args, **kwargs):
                init(self, *args, **kwargs)
                built.append(self.prog)
            argparse.ArgumentParser.__init__ = counted
            from deft.cli import main
            print(built.count("deft"))
            calls = (["nope"], ["--help"], ["verify", "--trials", "1"],
                     ["param-count", "--method", "deft", "--rank", "1", "--m", "2", "--n", "2"])
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes = [main(argv) for argv in calls]
            print(codes, built.count("deft"))
        """)
        src = os.path.dirname(os.path.dirname(deft.cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "DEFT_SEED"}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["0", "[2, 0, 0, 0] 1"]

    def test_calls_in_one_process_match_calls_alone(self, tmp_path, monkeypatch, capsys):
        # a usage error, --help, verify, train and verify again, first each with a parser of
        # its own (as a fresh process would build), then in sequence on the one shared parser
        monkeypatch.delenv("DEFT_SEED", raising=False)
        calls = (["verify", "--trials", "0"], ["--help"],
                 ["verify", "--trials", "2", "--seed", "5", "--out", "v1.csv"],
                 ["train", "--w0", "w0.mat", "--config", "run.cfg", "--steps", "20",
                  "--out", "t"],
                 ["verify", "--trials", "1", "--backend", "relax", "--out", "v2.csv"])
        runs = {}
        for mode in ("alone", "shared"):
            work = tmp_path / mode
            work.mkdir()
            monkeypatch.chdir(work)
            write_mat("w0.mat", seed=23)
            write_config("run.cfg", ["method = deft", "rank = 2", "backend = relax"])
            results = []
            for argv in calls:
                if mode == "alone":
                    deft.cli._build_parser.cache_clear()
                results.append((main(argv), *capsys.readouterr()))
            files = {p.relative_to(work).as_posix(): p.read_bytes()
                     for p in sorted(work.rglob("*")) if p.is_file()}
            runs[mode] = results, files
        assert [r[0] for r in runs["shared"][0]] == [2, 0, 0, 0, 0]
        assert "usage: deft" in runs["shared"][0][1][1]
        assert runs["alone"] == runs["shared"]

    @pytest.mark.parametrize("argv", [
        ["adapt-init", "--w0", "w0.mat", "--method", "deft", "--rank", "2", "--out", "a.adpt"],
        ["verify", "--trials", "1"],
        ["displacement"],
        ["bench", "--dim", "8", "--rank", "2", "--iters", "1"],
        ["decompose", "--in", "w0.mat", "--method", "nmf", "--out", "f"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("value", ["banana", "-1"])
    def test_bad_seed_env(self, in_tmp, monkeypatch, capsys, argv, value):
        write_mat("w0.mat", seed=9)
        monkeypatch.setenv("DEFT_SEED", value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: DEFT_SEED must be an integer >= 0, got {value!r}\n"
        assert sorted(p.name for p in in_tmp.iterdir()) == ["w0.mat"]  # nothing written

    def test_bad_seed_env_is_checked_before_any_file_is_read(self, in_tmp, monkeypatch, capsys):
        monkeypatch.setenv("DEFT_SEED", "banana")
        assert main(["decompose", "--in", "missing.mat", "--method", "qr", "--out", "f"]) == 2
        assert capsys.readouterr().err.startswith("usage error: DEFT_SEED must be")

    def test_bad_flag_value(self, capsys):
        assert main(["bench", "--iters", "0"]) == 2
