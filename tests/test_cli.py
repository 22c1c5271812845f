import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    code, out, err = run_cli(capsys, "enumerate", "--n", "3")
    assert code == 2
    assert "heavy" in err


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


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run_cli(capsys, "synth", "--n", "2", "--target", "warp:1")[0] == 2
    assert run_cli(capsys, "eval-word", "--n", "1", "--word", "7")[0] == 2
    for argv in (["reach", "--n", "3", "--target", "h:0"],
                 ["reach", "--n", "3", "--target", "h:4"],
                 ["synth", "--n", "1", "--target", "h:1", "--max-depth", "-1"],
                 ["synth", "--n", "1", "--target", "h:1", "--cap", "0"],
                 ["synth", "--n", "2", "--target", "swap:1,2", "--cap", "5"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv
    assert err == "error: enumeration exceeded cap of 5 elements\n"
    too_big = [1 << 62, 0, 0, 0, 0]
    zero = [0, 0, 0, 0, 0]
    for bad in ({"dim": 2, "entries": [1, 2]},
                {"dim": 2, "entries": [[too_big, zero], [zero, zero]]}):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run_cli(capsys, "clifford-check", "--n", "1", "--target", f"file:{f}")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
    f = tmp_path / "identity2.json"
    f.write_text(json.dumps(DenseMatrix.identity(2).to_json_dict()), encoding="utf-8")
    code, out, err = run_cli(capsys, "reach", "--n", "2", "--target", f"file:{f}")
    assert (code, out) == (2, "")
    assert err == "error: target dimension does not match the context\n"
    for argv, message in ((["frobnicate"], "error: argument command: invalid choice"),
                          (["gen-matrix", "--n", "1"],
                           "error: one of the arguments --generator --gate is required"),
                          (["gen-matrix", "--n", "1", "--generator", "1", "--gate", "phase"],
                           "error: argument --gate: not allowed with argument --generator")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message), argv


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
)


def test_golden_outputs_byte_identical(capsys):
    for argv, expected_code, name in GOLDEN_RUNS:
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == expected_code, argv
            assert out == golden, argv


def test_deterministic_output(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "orders", "--n", "3")
        outs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "synth", "--n", "2", "--target", "swap:1,2")
        outs.add(out)
    assert len(outs) == 2  # one distinct output per command


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "anyonbraid.cli", "orders", "--n", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["braid_image"] == 96


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
                       (["reach", "--n", "3", "--target", "swap:1,3"], "reach_n3_swap13.json")):
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        proc = subprocess.run([sys.executable, "-O", "-m", "anyonbraid.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, argv
        assert proc.stdout == golden, argv
