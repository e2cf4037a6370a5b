"""Property-based fuzzing of the CLI's argv, one test per subcommand.

Each example is a command line built from the subcommand's flags, with
values drawn from tokens that include nan, inf, -1, 0 and garbage, and
files that are valid, of the wrong kind, corrupt or missing. Whatever the
input, `deft` must exit with a documented code (0-3) and never print a
traceback; an exception escaping `main` fails the test. Sizes are bounded
(dims <= 64, --grid-n <= 32, --steps/--iters <= 3, --trials <= 2) and runs
are derandomized, so the suite stays deterministic and fast.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deft import store
from deft.adapters import METHODS, AdapterConfig, init_adapter
from deft.cli import _BACKEND_CHOICES, main
from deft.decompose import Backend
from deft.matcore import make_rng

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SPECIAL = ("nan", "inf", "-inf", "-1", "0", "abc", "")
FLOATS = st.sampled_from(SPECIAL + ("1", "0.5", "1e-300", "1e300", "-1e300"))
SEEDS = st.sampled_from(SPECIAL + ("3", "99999999999999999999999"))
METHOD = st.sampled_from(METHODS + ("bogus",))
BACKEND = st.sampled_from(_BACKEND_CHOICES + ("relax_nmf", "bogus"))
MATRIX = st.sampled_from(("w0.mat", "b.mat", "corrupt.bin", "run.cfg", "missing.mat"))
OUT = st.sampled_from(("out", "nodir/out", "."))


def ints(bound):
    """An integer token in [1, bound], or one of the special tokens."""
    return st.one_of(st.integers(1, bound).map(str), st.sampled_from(SPECIAL))


# subcommand -> (required flags, optional flags); each maps flag -> value strategy
COMMANDS = {
    "decompose": (
        {"--in": MATRIX, "--method": BACKEND, "--out": OUT},
        {"--rank": ints(64), "--nmf-iters": ints(3), "--nmf-tol": FLOATS, "--seed": SEEDS},
    ),
    "adapt-init": (
        {"--w0": MATRIX, "--method": METHOD, "--rank": ints(64), "--out": OUT},
        {"--alpha": FLOATS, "--backend": BACKEND, "--lr-p": FLOATS, "--lr-r": FLOATS,
         "--init-stddev": FLOATS, "--nmf-iters": ints(3), "--nmf-tol": FLOATS, "--seed": SEEDS},
    ),
    "train": (
        {"--w0": MATRIX, "--steps": ints(3), "--out": OUT,
         "--config": st.sampled_from(("run.cfg", "lora.cfg", "w0.mat", "missing.cfg"))},
        {"--task": st.sampled_from(("teacher-shift", "teacher-noise", "bogus")),
         "--task-seed": SEEDS, "--shift-scale": FLOATS, "--input-scale": FLOATS,
         "--noise-stddev": FLOATS},
    ),
    "verify": (
        {"--trials": ints(2)},
        {"--w0": MATRIX, "--rank": ints(64), "--backend": BACKEND, "--out": OUT, "--seed": SEEDS},
    ),
    "displacement": (
        {"--grid-n": ints(32)},
        {"--state": st.sampled_from(("a.adpt", "corrupt.bin", "w0.mat", "missing.adpt")),
         "--w0": MATRIX, "--grid-lo": FLOATS, "--grid-hi": FLOATS, "--out": OUT, "--seed": SEEDS},
    ),
    "bench": (
        {"--dim": ints(64), "--iters": ints(3)},
        {"--rank": ints(64), "--out": OUT, "--seed": SEEDS, "--backends": st.sampled_from(
            ("qr", "tsvd,nmf", "relax-nmf,eig", "", "bogus", "lrmf,relax"))},
    ),
    "param-count": (
        {"--method": METHOD, "--rank": ints(64), "--m": ints(64), "--n": ints(64)},
        {},
    ),
}


# flags whose defaults exceed the size bounds; always given
BOUNDED = ("--dim", "--iters", "--trials")


@st.composite
def argv_for(draw, command):
    required, optional = COMMANDS[command]
    argv = [command]
    for flag, values in required.items():
        if flag in BOUNDED or draw(st.integers(0, 9)) > 0:  # otherwise left out one time in ten
            argv.append(f"{flag}={draw(values)}")
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A working directory with one file of each kind the CLI reads."""
    path = tmp_path_factory.mktemp("cli_fuzz")
    rng = make_rng(0)
    w0 = rng.normal(size=(8, 6))
    store.save_matrix(w0, path / "w0.mat")
    store.save_matrix(np.abs(rng.normal(size=(6, 4))), path / "b.mat")
    (path / "corrupt.bin").write_bytes(b"MAT1\x02\x00garbage")
    (path / "run.cfg").write_text("method = deft\nrank = 2\nbackend = tsvd\ninit_stddev = 0.1\n")
    (path / "lora.cfg").write_text("method = lora\nrank = 3\n")
    cfg = AdapterConfig("deft", 2, backend=Backend("relax"), init_stddev=0.3, seed=1)
    store.save_adapter(init_adapter(w0, cfg), path / "a.adpt")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        yield path


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_exits_with_a_documented_code(workdir, command):
    @FUZZ
    @given(argv=argv_for(command))
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    run()
