import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from test_cli_fuzz import FUZZ, argvs

import anyonbraid.cli as cli
from anyonbraid.cli import main
from anyonbraid.matrix import DenseMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_orders(capsys):
    code, payload, _ = run_json(capsys, "orders", "--n", "2")
    assert code == 0
    assert payload["projective_clifford"] == 11520
    assert payload["braid_image"] == 46080
    assert payload["braid_image_mod_center"] == 11520
    assert payload["pauli"] == 64
    assert payload["sp_2n_2"] == 720
    assert payload["coverage_ratio"] == "1"


def test_eval_word_cz(capsys):
    code, payload, _ = run_json(
        capsys, "eval-word", "--n", "2", "--parity", "+", "--word", "1 3 -5")
    assert code == 0
    assert payload["dim"] == 4
    diag = [payload["entries"][i][i] for i in range(4)]
    assert diag == [[1, 0, 0, 0, 0]] * 3 + [[-1, 0, 0, 0, 0]]
    off = payload["entries"][0][1]
    assert off == [0, 0, 0, 0, 0]


def test_eval_word_pretty(capsys):
    code, payload, _ = run_json(
        capsys, "eval-word", "--n", "1", "--word", "1", "--pretty")
    assert code == 0
    assert payload["pretty"][1][1] in ("0+1j", "1j")


def test_gen_matrix_generator_and_gate(capsys):
    code, payload, _ = run_json(
        capsys, "gen-matrix", "--n", "1", "--generator", "1")
    assert code == 0
    assert payload["entries"][1][1] == [0, 0, 1, 0, 0]
    code, payload, _ = run_json(
        capsys, "gen-matrix", "--n", "2", "--gate", "cz_swap_pair", "--qubit", "1")
    assert code == 0
    assert payload["word"] == "2 3 1 2"
    # an omitted --qubit is qubit 1
    gate = ("gen-matrix", "--n", "2", "--gate", "phase")
    assert run_cli(capsys, *gate) == run_cli(capsys, *gate, "--qubit", "1")
    assert run_cli(capsys, *gate) != run_cli(capsys, *gate, "--qubit", "2")


def test_verify_relations_exit_zero(capsys):
    code, payload, _ = run_json(capsys, "verify-relations", "--n", "2")
    assert code == 0
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert all(c["ok"] for c in payload["checks"])


def test_verify_relations_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify-relations", "--n", "1", "--format", "text")
    assert code == 0
    assert out.startswith("PASS")
    assert "FAIL" not in out


def test_enumerate(capsys):
    code, payload, _ = run_json(
        capsys, "enumerate", "--n", "1", "--mode", "strict")
    assert code == 0
    assert payload == {"order": 96, "mode": "strict", "center_size": 4,
                       "generator_count": 3}
    code, payload, _ = run_json(
        capsys, "enumerate", "--n", "1", "--mode", "projective")
    assert payload["order"] == 24


def test_enumerate_heavy_guard(capsys):
    # the refusal names the order of the requested image, from group_orders
    for argv, count in ((["--n", "3"], "10,321,920"),
                        (["--n", "3", "--mode", "projective"], "2,580,480"),
                        (["--n", "4", "--parity", "-"], "3,715,891,200")):
        code, out, err = run_cli(capsys, "enumerate", *argv)
        mode = "projective" if "projective" in argv else "strict"
        assert code == 2
        assert out == ""
        assert err == (f"error: enumerating the {mode} braid image for n = {argv[1]} "
                       f"stores {count} exact matrices; pass --heavy to confirm\n")


def test_monodromy_check(capsys):
    code, payload, _ = run_json(capsys, "monodromy-check", "--n", "1")
    assert code == 0
    assert payload["equal"] is True
    assert payload["monodromy_order"] == 16


def test_clifford_check_word(capsys):
    code, payload, _ = run_json(
        capsys, "clifford-check", "--n", "1", "--word", "2")
    assert code == 0
    assert payload["clifford"] is True
    assert payload["s"] == ["11", "01"]


def test_clifford_check_not_clifford(tmp_path, capsys):
    mat = {"dim": 2, "entries": [[[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
                                 [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]]}
    f = tmp_path / "t.json"
    f.write_text(json.dumps(mat), encoding="utf-8")
    code, payload, _ = run_json(
        capsys, "clifford-check", "--n", "1", "--target", f"file:{f}")
    assert code == 1
    assert payload["clifford"] is False
    assert payload["witness"] == "10"


def test_symplectic_dump(capsys):
    code, payload, _ = run_json(capsys, "symplectic", "--n", "2")
    assert code == 0
    assert payload["generators"]["2"] == ["1000", "1110", "0010", "1011"]
    assert payload["tilde"]["1"] == ["0100", "1000", "0010", "0001"]


def test_faithfulness(capsys):
    code, payload, _ = run_json(capsys, "faithfulness", "--n", "2")
    assert code == 0
    assert payload["subgroup_order"] == 720
    assert payload["ok"] is True


def test_synth_cz(capsys):
    code, payload, _ = run_json(
        capsys, "synth", "--n", "2", "--target", "cz:1,2")
    assert code == 0
    assert payload["verdict"] == "realizable"
    assert payload["word"] == "1 3 -5"
    assert payload["phase_power"] == 0


def test_reach_obstruction(capsys):
    code, payload, _ = run_json(
        capsys, "reach", "--n", "3", "--target", "swap:1,2")
    assert code == 1
    assert payload["verdict"] == "obstruction"
    assert payload["subgroup_order"] == 40320
    code, payload, _ = run_json(
        capsys, "reach", "--n", "3", "--target", "swap:1,3")
    assert code == 0
    assert payload["verdict"] == "reachable"


def test_fusion(capsys):
    code, payload, _ = run_json(
        capsys, "fusion", "--num-sigma", "8", "--parity", "-")
    assert code == 0
    assert payload["count"] == 8
    assert len(payload["paths"]) == 8
    code, payload, _ = run_json(
        capsys, "fusion", "--num-sigma", "6", "--labels")
    assert payload["count"] == 4
    assert payload["labels"][3]["index"] == 3


def test_clifford_check_word_parity_defaults_to_plus(capsys):
    argv = ("clifford-check", "--n", "2", "--word", "1 4 5")
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--parity", "+") == plain
    assert run_cli(capsys, *argv, "--parity", "-") != plain


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run_cli(capsys, "synth", "--n", "2", "--target", "warp:1")[0] == 2
    assert run_cli(capsys, "eval-word", "--n", "1", "--word", "7")[0] == 2
    for word in ("1 x", "1 3 -x5"):
        assert run_cli(capsys, "eval-word", "--n", "2", "--word", word) == \
            (2, "", f"error: bad braid letter {word.split()[-1]!r}\n")
    for argv in (["reach", "--n", "3", "--target", "h:0"],
                 ["reach", "--n", "3", "--target", "h:4"],
                 ["synth", "--n", "1", "--target", "h:1", "--max-depth", "-1"],
                 ["synth", "--n", "1", "--target", "h:1", "--cap", "0"],
                 ["synth", "--n", "2", "--target", "swap:1,2", "--cap", "5"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv
    assert err == "error: enumeration exceeded cap of 5 elements\n"
    # --form and --parity shape a --word evaluation only
    for form in ("compressed", "unprojected"):
        assert run_cli(capsys, "clifford-check", "--n", "1", "--target", "h:1", "--form", form) == \
            (2, "", "error: --form applies to --word only; a --target is taken as given\n")
    for parity in ("+", "-", "-1"):
        for target in ("h:1", f"file:{GOLDEN_DIR / 't_gate_n2.json'}"):
            assert run_cli(capsys, "clifford-check", "--n", "1", "--target", target,
                           "--parity", parity) == \
                (2, "", "error: --parity applies to --word only; a --target is taken as given\n")
    for command in ("verify-relations", "symplectic"):
        for n in ("0", "-1"):
            assert run_cli(capsys, command, "--n", n) == (2, "", "error: n must be positive\n")
    too_big = [1 << 62, 0, 0, 0, 0]
    zero = [0, 0, 0, 0, 0]
    for bad in ({"dim": 2, "entries": [1, 2]},
                {"dim": 2, "entries": [[too_big, zero], [zero, zero]]}):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run_cli(capsys, "clifford-check", "--n", "1", "--target", f"file:{f}")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
    # a file: target of dimension other than 2^n, before any command reads it
    for n, dim in (("2", 2), ("3", 0), ("3", 1), ("3", 2)):
        f = tmp_path / f"identity{dim}.json"
        f.write_text(json.dumps(DenseMatrix.identity(dim).to_json_dict()), encoding="utf-8")
        for command in ("clifford-check", "reach", "synth"):
            assert run_cli(capsys, command, "--n", n, "--target", f"file:{f}") == \
                (2, "", "error: target dimension does not match the context\n"), (command, dim)
    # --qubit is refused where it would be ignored
    for which in (["--generator", "1"], ["--gate", "hadamard_last"]):
        assert run_cli(capsys, "gen-matrix", "--n", "2", *which, "--qubit", "2") == \
            (2, "", "error: --qubit applies to --gate phase, cz_pair and cz_swap_pair only\n")
    # the n >= 4 search is bounded with --max-depth, the option it names
    assert run_cli(capsys, "synth", "--n", "4", "--target", "x:1") == \
        (2, "", "error: full-image BFS for n >= 4 is heavy; bound it with --max-depth\n")
    for argv, message in ((["frobnicate"], "error: argument command: invalid choice"),
                          (["gen-matrix", "--n", "1"],
                           "error: one of the arguments --generator --gate is required"),
                          (["gen-matrix", "--n", "1", "--generator", "1", "--gate", "phase"],
                           "error: argument --gate: not allowed with argument --generator"),
                          # R_j P is a projection, so a projected word is never unitary
                          (["clifford-check", "--n", "2", "--word", "1", "--form", "projected"],
                           "error: argument --form: invalid choice: 'projected' "
                           "(choose from 'compressed', 'unprojected')"),
                          (["clifford-check", "--n", "1"],
                           "error: one of the arguments --word --target is required"),
                          (["clifford-check", "--n", "1", "--word", "2", "--target", "h:1"],
                           "error: argument --target: not allowed with argument --word"),
                          # --format acts on verify-relations only; synth has no --heavy
                          (["orders", "--n", "2", "--format", "text"],
                           "error: unrecognized arguments: --format text\n"),
                          (["synth", "--n", "2", "--target", "h:1", "--heavy"],
                           "error: unrecognized arguments: --heavy\n")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message), argv


def test_allocation_failure_exits_two(monkeypatch, capsys):
    """An input too large for memory is a usage error, not a failed check.
    The commands' library calls are replaced, so nothing is allocated."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB")

    monkeypatch.setattr(cli, "eval_word", too_large)
    monkeypatch.setattr(cli, "parse_gate_target", too_large)
    for argv in (["eval-word", "--n", "16", "--word", "1"],
                 ["reach", "--n", "16", "--target", "swap:1,2"]):
        assert run_cli(capsys, *argv) == (2, "", "error: Unable to allocate 128. GiB\n"), argv


GOLDEN_DIR = Path(__file__).parent / "golden"

# (argv, exit code, golden stdout file), captured before the int64 kernel rewrite
GOLDEN_RUNS = (
    (["orders", "--n", "3"], 0, "orders_n3.json"),
    (["symplectic", "--n", "1"], 0, "symplectic_n1.json"),
    (["eval-word", "--n", "2", "--parity", "+", "--word", "1 3 -5", "--pretty"], 0,
     "eval_word_n2_cz_pretty.json"),
    (["clifford-check", "--n", "1", "--word", "2"], 0, "clifford_check_n1_word2.json"),
    (["monodromy-check", "--n", "2"], 0, "monodromy_check_n2.json"),
    (["enumerate", "--n", "1"], 0, "enumerate_n1.json"),
    (["reach", "--n", "3", "--target", "swap:1,2"], 1, "reach_n3_swap12.json"),
    (["synth", "--n", "2", "--target", "cz:1,2"], 0, "synth_n2_cz12.json"),
    (["missing-gates", "--n", "3"], 0, "missing_gates_n3.json"),
    # captured before clifford_check stopped expanding in the Pauli basis
    (["clifford-check", "--n", "3", "--word", "1 2 -4 7 5"], 0,
     "clifford_check_n3_word.json"),
    # "majorana" added when reach began to name the signed permutation
    (["reach", "--n", "3", "--target", "swap:1,3"], 0, "reach_n3_swap13.json"),
    (["clifford-check", "--n", "2", "--target", f"file:{GOLDEN_DIR / 't_gate_n2.json'}"], 1,
     "clifford_check_n2_t_gate.json"),
    # captured before Dimino, center() and the synthesis BFS took stacked products
    (["enumerate", "--n", "1", "--dump-elements"], 0, "enumerate_n1_dump_elements.json"),
    (["enumerate", "--n", "2"], 0, "enumerate_n2.json"),
    (["enumerate", "--n", "2", "--mode", "projective"], 0, "enumerate_n2_projective.json"),
    (["faithfulness", "--n", "3"], 0, "faithfulness_n3.json"),
    (["synth", "--n", "2", "--target", "swap:1,2"], 0, "synth_n2_swap12.json"),
    (["synth", "--n", "2", "--target", "cnot:1,2"], 0, "synth_n2_cnot12.json"),
    # verdict, s_target, sp_order and subgroup_order checked against the
    # enumeration of <S_j> for n = 4
    (["reach", "--n", "4", "--target", "swap:1,2"], 1, "reach_n4_swap12.json"),
    # captured before the center scan took Pauli candidates and the
    # symplectic orders came from a stabiliser chain
    (["faithfulness", "--n", "1"], 0, "faithfulness_n1.json"),
    (["faithfulness", "--n", "2"], 0, "faithfulness_n2.json"),
    (["missing-gates", "--n", "2", "--check-generation"], 0,
     "missing_gates_n2_generation.json"),
    (["orders", "--n", "2"], 0, "orders_n2.json"),
    (["symplectic", "--n", "2"], 0, "symplectic_n2.json"),
    (["verify-relations", "--n", "3"], 0, "verify_relations_n3.json"),
    (["fusion", "--num-sigma", "8", "--parity", "-", "--labels"], 0,
     "fusion_8_minus_labels.json"),
    # captured before the BFS expanded its states by the letter rule: the
    # n = 3 block shape (d = 8, 14 moves)
    (["synth", "--n", "3", "--target", "x:3", "--max-depth", "6"], 0, "synth_n3_x3.json"),
    # captured before Pauli vectors became packed ints: CCZ's witness expands
    # into four terms, which pins the order of "terms"
    (["clifford-check", "--n", "3", "--target", f"file:{GOLDEN_DIR / 'ccz_n3.json'}"], 1,
     "clifford_check_n3_ccz.json"),
)


def test_golden_outputs_byte_identical(capsys):
    for argv, expected_code, name in GOLDEN_RUNS:
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == expected_code, argv
            assert out == golden, argv


def test_cli_options_are_pinned():
    """Every option of every command, as the parser holds it, equals the
    golden: a new option has to be added there on purpose."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions if not isinstance(a, argparse._HelpAction)
                            for s in a.option_strings)
               for name, p in sub.choices.items()}
    golden = json.loads((GOLDEN_DIR / "cli_options.json").read_text(encoding="utf-8"))
    assert options == golden
    assert sum(map(len, golden.values())) == 42
    assert [name for name, opts in golden.items() if "--format" in opts] == ["verify-relations"]


def test_deterministic_output(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "orders", "--n", "3")
        outs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "synth", "--n", "2", "--target", "swap:1,2")
        outs.add(out)
    assert len(outs) == 2  # one distinct output per command


COMMAND_NAMES = ("gen-matrix", "eval-word", "verify-relations", "orders", "enumerate",
                 "monodromy-check", "clifford-check", "symplectic", "faithfulness", "synth",
                 "reach", "missing-gates", "fusion")


def test_console_entrypoint_subprocess():
    """With no argv, main reads sys.argv: a known command first and any
    other argv alike."""
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "anyonbraid.cli", *argv],
                              capture_output=True, text=True, timeout=120)

    proc = run("orders", "--n", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["braid_image"] == 96
    proc = run("synth", "--n", "2", "--target", "cz:1,2")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "synth_n2_cz12.json").read_text(encoding="utf-8")
    proc = run("-h")
    assert proc.returncode == 0
    assert "{" + ",".join(COMMAND_NAMES) + "}" in proc.stdout
    assert all(f"\n    {name} " in proc.stdout for name in COMMAND_NAMES)


def parse_outcome(names, argv):
    """The namespace of build_parser(names).parse_args(argv), or its exit
    code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = cli.build_parser(names).parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_one_command_parser_agrees_with_full_parser():
    """A parser built for argv[0] alone parses, helps and fails exactly as
    the full parser does, usage errors that print the top-level usage
    line included."""
    assert tuple(cli.COMMANDS) == COMMAND_NAMES
    cases = [[name, *rest] for name in COMMAND_NAMES for rest in ([], ["-h"], ["--n", "1"])]
    cases += [["orders", "--n", "1", "extra"], ["synth", "--n", "2", "--target", "cz:1,2", "-v"],
              ["fusion", "--num-sigma", "4", "--", "x"],
              ["synth", "--n", "2", "--target", "cz:1,2", "--max-depth", "3"]]
    for argv in cases:
        assert parse_outcome([argv[0]], argv) == parse_outcome(None, argv), argv


@FUZZ
@given(argvs())
def test_one_command_parser_agrees_on_fuzzed_argvs(argv):
    assert parse_outcome([argv[0]], argv) == parse_outcome(None, argv), argv


def test_main_builds_only_the_named_command(monkeypatch, capsys):
    """main registers one subcommand when argv names one first, and all of
    them otherwise, so the top-level help and the invalid-choice list name
    every command."""
    built = []
    monkeypatch.setattr(cli, "COMMANDS", {
        name: (help_text, lambda p, name=name, add=add: (built.append(name), add(p)), func)
        for name, (help_text, add, func) in cli.COMMANDS.items()})
    assert run_cli(capsys, "synth", "--n", "2", "--target", "cz:1,2")[0] == 0
    assert built == ["synth"]
    for name in COMMAND_NAMES:
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        assert exc.value.code == 0 and built == [name]
        assert capsys.readouterr().out.startswith(f"usage: anyonbraid {name} ")
    for argv in (["-h"], ["frobnicate"], [], ["--n", "2", "orders"]):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == list(COMMAND_NAMES), argv
        out, err = capsys.readouterr()
        assert "{" + ",".join(COMMAND_NAMES) + "}" in out + err, argv
        if argv == ["frobnicate"]:
            assert ", ".join(f"'{name}'" for name in COMMAND_NAMES) in err


def test_certificates_survive_optimize_flag():
    """The library holds no assert statement, which python -O would strip,
    and raises no AssertionError; its re-verifications raise RuntimeError
    instead, and -O output equals the golden."""
    import ast

    import anyonbraid
    for path in Path(anyonbraid.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
        raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                  for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
        assert not any(isinstance(e, ast.Name) and e.id == "AssertionError"
                       for e in raised), path.name
    for argv, name in ((["clifford-check", "--n", "3", "--word", "1 2 -4 7 5"],
                        "clifford_check_n3_word.json"),
                       (["reach", "--n", "3", "--target", "swap:1,3"], "reach_n3_swap13.json"),
                       (["synth", "--n", "2", "--target", "swap:1,2"], "synth_n2_swap12.json")):
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        proc = subprocess.run([sys.executable, "-O", "-m", "anyonbraid.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, argv
        assert proc.stdout == golden, argv


def test_library_uses_no_tolerance():
    """Floats carry exact integers inside the product kernel only; no
    comparison in the library may forgive a difference: no isclose or
    allclose (assert_allclose included) and no atol= or rtol= argument
    anywhere in the package."""
    import ast

    import anyonbraid
    for path in Path(anyonbraid.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {getattr(node, field, None) or "" for node in nodes
                 for field in ("id", "attr", "name")}
        assert not [n for n in names if n.endswith(("isclose", "allclose"))], path.name
        keywords = {kw.arg for node in nodes if isinstance(node, ast.Call)
                    for kw in node.keywords}
        assert not keywords & {"atol", "rtol"}, path.name


def test_z_power_rule_has_one_home():
    """Plane p of z^t a is plane (p - t) mod 8 of (a, -a): that rule is the
    table ring.ZROT, read only in ring.py and matrix.py.  No other module
    may compute modulo 8 or index a `planes` array by an integer literal
    on its leading (plane) axis, the two marks of a second rotation."""
    import ast

    import anyonbraid

    def is_int_literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    def names_planes(node):
        return ((isinstance(node, ast.Name) and node.id == "planes")
                or (isinstance(node, ast.Attribute) and node.attr == "planes"))

    for path in sorted(Path(anyonbraid.__file__).parent.glob("*.py")):
        if path.name in ("ring.py", "matrix.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
                modulus = node.right if isinstance(node, ast.BinOp) else node.value
                assert not (isinstance(modulus, ast.Constant) and modulus.value == 8), \
                    f"{path.name}:{node.lineno} reduces modulo 8"
            if isinstance(node, ast.Subscript) and names_planes(node.value):
                index = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
                assert not is_int_literal(index), \
                    f"{path.name}:{node.lineno} picks a coefficient plane by number"
