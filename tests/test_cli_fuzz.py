"""A derandomized fuzz test of the command line: small and invalid sizes,
parities, targets and search bounds must give exit code 0, 1 or 2 and
never a traceback, and exit code 2 must be a one-line usage error."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.cli import main

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SIZES = st.sampled_from(["-1", "0", "1", "2"])
PARITIES = st.sampled_from(["+", "-", "1", "-1", "0", "x"])
BOUNDS = st.sampled_from(["-1", "0", "1", "5"])
TARGETS = st.sampled_from(["cz:1,2", "swap:1,2", "cnot:2,1", "h:1", "p:2", "x:1", "y:2",
                           "z:1", "identity", "warp:1", "h:0", "swap:1,1", "cz:1",
                           "h:one", "file:", "file:missing-target.json"])
WORDS = st.sampled_from(["", "1", "1 3 -5", "2 2 2 2", "0", "-7", "1 x", "9"])


@st.composite
def argvs(draw):
    """One command line with small or invalid inputs and no unbounded
    search: enumerate runs only up to n = 2 unless --heavy is absent, and
    synth always carries a --cap of at most 5."""
    cmd = draw(st.sampled_from([
        "gen-matrix", "eval-word", "verify-relations", "orders", "enumerate",
        "monodromy-check", "clifford-check", "symplectic", "faithfulness", "synth",
        "reach", "missing-gates", "fusion"]))
    if cmd == "fusion":
        argv = [cmd, "--num-sigma", draw(st.sampled_from(["-2", "0", "1", "2", "4", "7", "8"]))]
        if draw(st.booleans()):
            argv += ["--parity", draw(PARITIES)]
        if draw(st.booleans()):
            argv.append("--labels")
        return argv
    n = draw(st.sampled_from(["-1", "0", "1", "2", "3"]) if cmd in (
        "enumerate", "orders", "symplectic", "faithfulness", "reach", "missing-gates",
        "clifford-check", "synth") else SIZES)
    argv = [cmd, "--n", n]
    if cmd in ("gen-matrix", "eval-word", "enumerate", "monodromy-check",
               "clifford-check", "synth", "reach") and draw(st.booleans()):
        argv += ["--parity", draw(PARITIES)]
    if cmd in ("gen-matrix", "eval-word", "clifford-check") and draw(st.booleans()):
        argv += ["--form", draw(st.sampled_from(["compressed", "projected", "unprojected"]))]
    if cmd == "gen-matrix":
        if draw(st.booleans()):
            argv += ["--generator", draw(st.sampled_from(["-1", "0", "1", "5", "9"]))]
        elif draw(st.booleans()):
            argv += ["--gate", draw(st.sampled_from(["phase", "hadamard_last", "cz_pair",
                                                     "cz_swap_pair"])),
                     "--qubit", draw(st.sampled_from(["-1", "0", "1", "2", "3"]))]
    elif cmd == "eval-word":
        argv += ["--word", draw(WORDS)]
    elif cmd == "enumerate":
        argv += ["--mode", draw(st.sampled_from(["strict", "projective"]))]
    elif cmd == "clifford-check":
        if draw(st.booleans()):
            argv += ["--word", draw(WORDS)]
        elif draw(st.booleans()):
            argv += ["--target", draw(TARGETS)]
    elif cmd in ("synth", "reach"):
        argv += ["--target", draw(TARGETS)]
        if cmd == "synth":
            argv += ["--cap", draw(BOUNDS)]
            if draw(st.booleans()):
                argv += ["--max-depth", draw(BOUNDS)]
    elif cmd == "missing-gates" and draw(st.booleans()):
        argv.append("--check-generation")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(argvs())
def test_cli_exit_codes_and_no_tracebacks(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("error:"), (argv, err)
    else:
        assert out, argv
