"""Command-line interface.

Every subcommand writes JSON to stdout (verify-relations also has a
PASS/FAIL text rendering, --format text) and is deterministic for fixed
flags.  Exit codes: 0 on success, 1 when a verification-style command
finds a failure, 2 on usage errors and on inputs too large to hold in
memory.  COMMANDS is the one table of subcommands, and a call that names
a command first builds only that command's parser.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braid import FORMS, BraidWord, RepContext, braid_generator, eval_word, named_gate
from .fusion import FusionLabel, count_paths, enumerate_paths
from .gates import parse_gate_target
from .groups import EnumerationCapExceeded, braid_image, monodromy_equals_pauli
from .matrix import DenseMatrix
from .symplectic import (CliffordAction, basis_change_t, braid_symplectic,
                         clifford_check, faithfulness_check, group_orders,
                         sp_order, tilde_basis)
from .synth import coverage_ratio, missing_gate_report, reachability, synthesize
from .verify import run_battery


def _parity(s: str) -> int:
    if s in ("+", "+1", "1"):
        return 1
    if s in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("parity must be + or -")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors start with "error:", like
    every other exit-code-2 message of the CLI."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _common(p, parity=True, forms=(), pretty=False):
    """Adds the options most commands share; returns p."""
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    if parity:
        p.add_argument("--parity", type=_parity, default=1)
    if forms:
        p.add_argument("--form", choices=forms, default="compressed")
    if pretty:
        p.add_argument("--pretty", action="store_true",
                       help="add a complex-float rendering (display only)")
    return p


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _pretty_complex(z: complex) -> str:
    re = 0.0 if abs(z.real) < 1e-12 else round(z.real, 12)
    im = 0.0 if abs(z.imag) < 1e-12 else round(z.imag, 12)
    return format(complex(re, im), "g")


def _matrix_payload(mat: DenseMatrix, pretty: bool) -> dict:
    payload = mat.to_json_dict()
    if pretty:
        payload["pretty"] = [
            [_pretty_complex(z) for z in row] for row in mat.to_complex().tolist()
        ]
    return payload


def _target_matrix(args, n: int) -> DenseMatrix:
    if args.target.startswith("file:"):
        with open(args.target[5:], encoding="utf-8") as fh:
            mat = DenseMatrix.from_json_dict(json.load(fh))
        if mat.dim != 2 ** n:
            raise ValueError("target dimension does not match the context")
        return mat
    return parse_gate_target(n, args.target)


def _gen_matrix_args(p) -> None:
    which = _common(p, forms=FORMS, pretty=True).add_mutually_exclusive_group(required=True)
    which.add_argument("--generator", type=int, help="braid generator index")
    which.add_argument("--gate", choices=("phase", "hadamard_last", "cz_pair", "cz_swap_pair"))
    p.add_argument("--qubit", type=int, help="qubit of a --gate (default 1)")


def cmd_gen_matrix(args) -> int:
    if args.qubit is not None and args.gate in (None, "hadamard_last"):
        raise ValueError("--qubit applies to --gate phase, cz_pair and cz_swap_pair only")
    ctx = RepContext(args.n, args.parity, args.form)
    if args.generator is not None:
        mat = braid_generator(ctx, args.generator)
        _emit(_matrix_payload(mat, args.pretty))
        return 0
    word, mat = named_gate(ctx, args.gate, 1 if args.qubit is None else args.qubit)
    payload = _matrix_payload(mat, args.pretty)
    payload["word"] = word.to_text()
    _emit(payload)
    return 0


def _eval_word_args(p) -> None:
    _common(p, forms=FORMS, pretty=True).add_argument("--word", required=True,
                                                      help='e.g. "1 3 -5"')


def cmd_eval_word(args) -> int:
    ctx = RepContext(args.n, args.parity, args.form)
    mat = eval_word(ctx, BraidWord.from_text(args.word))
    _emit(_matrix_payload(mat, args.pretty))
    return 0


def _verify_relations_args(p) -> None:
    _common(p, parity=False).add_argument("--format", choices=("json", "text"),
                                          default="json")


def cmd_verify_relations(args) -> int:
    results = run_battery(args.n)
    checks = [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results]
    failed = [c for c in checks if not c["ok"]]
    payload = {"n_max": args.n, "checks": checks, "failed": len(failed), "ok": not failed}
    if args.format == "text":
        sys.stdout.write("\n".join(("PASS " if c["ok"] else "FAIL ") + c["name"]
                                   for c in checks) + "\n")
    else:
        _emit(payload)
    return 1 if failed else 0


def cmd_orders(args) -> int:
    orders = group_orders(args.n)
    payload = orders.to_json_dict()
    payload["sp_2n_2"] = sp_order(args.n, 2)
    payload["coverage_ratio"] = str(coverage_ratio(args.n))
    _emit(payload)
    return 0


def _enumerate_args(p) -> None:
    _common(p).add_argument("--mode", choices=("strict", "projective"), default="strict")
    p.add_argument("--heavy", action="store_true", help="allow n >= 3 enumeration")
    p.add_argument("--dump-elements", action="store_true")


def cmd_enumerate(args) -> int:
    if args.n >= 3 and not args.heavy:
        orders = group_orders(args.n)
        count = (orders.braid_image if args.mode == "strict"
                 else orders.braid_image_mod_center)
        raise ValueError(f"enumerating the {args.mode} braid image for n = {args.n} stores "
                         f"{count:,} exact matrices; pass --heavy to confirm")
    enum = braid_image(args.n, args.parity, args.mode)
    payload = enum.summary()
    if args.dump_elements:
        payload["elements"] = [el.to_json_dict() for el in enum.elements]
    _emit(payload)
    return 0


def cmd_monodromy_check(args) -> int:
    verdict = monodromy_equals_pauli(args.n, args.parity)
    _emit(verdict.to_json_dict())
    return 0 if verdict.equal else 1


# a projected word R_j P is a projection, never unitary, so never checked;
# --parity and --form shape a --word evaluation only, so their defaults are None
def _clifford_check_args(p) -> None:
    _common(p, forms=("compressed", "unprojected")).set_defaults(parity=None, form=None)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--word")
    which.add_argument("--target")


def cmd_clifford_check(args) -> int:
    if args.target is not None:
        for flag in ("form", "parity"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies to --word only; a --target is taken as given")
    ctx = RepContext(args.n, args.parity or 1, args.form or "compressed")
    mat = (eval_word(ctx, BraidWord.from_text(args.word)) if args.word is not None
           else _target_matrix(args, args.n))
    act = clifford_check(mat)
    clifford = isinstance(act, CliffordAction)
    _emit({"clifford": clifford, **act.to_json_dict()})
    return 0 if clifford else 1


def cmd_symplectic(args) -> int:
    n = args.n
    t, tildes = tilde_basis(n)
    payload = {
        "generators": {str(j): braid_symplectic(n, j).to_bitstrings()
                       for j in range(1, 2 * n + 2)},
        "basis_change": basis_change_t(n).to_bitstrings(),
        "tilde": {str(j): tildes[j - 1].to_bitstrings() for j in range(1, 2 * n + 2)},
    }
    _emit(payload)
    return 0


def cmd_faithfulness(args) -> int:
    verdict = faithfulness_check(args.n)
    _emit(verdict.to_json_dict())
    return 0 if verdict.ok else 1


def _synth_args(p) -> None:
    _common(p).add_argument("--target", required=True,
                            help="cz:1,2 | swap:1,2 | h:1 | p:1 | file:m.json")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--cap", type=int, default=10 ** 7)


def cmd_synth(args) -> int:
    ctx = RepContext(args.n, args.parity)
    target = _target_matrix(args, args.n)
    res = synthesize(ctx, target, max_depth=args.max_depth, cap=args.cap)
    _emit(res.to_json_dict())
    return 0 if res.verdict == "realizable" else 1


def cmd_reach(args) -> int:
    ctx = RepContext(args.n, args.parity)
    target = _target_matrix(args, args.n)
    res = reachability(ctx, target)
    _emit(res.to_json_dict())
    return 0 if res.verdict == "reachable" else 1


def _missing_gates_args(p) -> None:
    _common(p, parity=False).add_argument(
        "--check-generation", action="store_true",
        help="verify braid + one SWAP generates the full symplectic group")


def cmd_missing_gates(args) -> int:
    report = missing_gate_report(args.n, check_generation=args.check_generation)
    _emit(report.to_json_dict())
    return 0


def _fusion_args(p) -> None:
    p.add_argument("--num-sigma", type=int, required=True)
    p.add_argument("--parity", type=_parity, default=1)
    p.add_argument("--labels", action="store_true")


def cmd_fusion(args) -> int:
    paths = enumerate_paths(args.num_sigma, args.parity)
    payload = {
        "num_sigma": args.num_sigma,
        "parity": "+" if args.parity == 1 else "-",
        "count": count_paths(args.num_sigma, args.parity),
        "paths": [p.render() for p in paths],
    }
    if args.labels:
        n = args.num_sigma // 2 - 1
        payload["labels"] = [
            FusionLabel.from_index(n, i, args.parity).to_json_dict()
            for i in range(2 ** n)
        ]
    _emit(payload)
    return 0


COMMANDS = {  # name: (help, adds the command's arguments, handler)
    "gen-matrix": ("matrix of a generator or a named gate word", _gen_matrix_args, cmd_gen_matrix),
    "eval-word": ("evaluate a braid word", _eval_word_args, cmd_eval_word),
    "verify-relations": ("run the exact identity battery", _verify_relations_args,
                         cmd_verify_relations),
    "orders": ("closed-form group orders", lambda p: _common(p, parity=False), cmd_orders),
    "enumerate": ("enumerate the braid image", _enumerate_args, cmd_enumerate),
    "monodromy-check": ("monodromy image vs Pauli group", _common, cmd_monodromy_check),
    "clifford-check": ("Clifford membership of a word or target", _clifford_check_args,
                       cmd_clifford_check),
    "symplectic": ("printed symplectic and tilde matrices", lambda p: _common(p, parity=False),
                   cmd_symplectic),
    "faithfulness": ("order of the symplectic subgroup", lambda p: _common(p, parity=False),
                     cmd_faithfulness),
    "synth": ("BFS for a braid word realizing a gate", _synth_args, cmd_synth),
    "reach": ("reachability certificate for a gate",
              lambda p: _common(p).add_argument("--target", required=True), cmd_reach),
    "missing-gates": ("survey of unreachable SWAP embeddings", _missing_gates_args,
                      cmd_missing_gates),
    "fusion": ("fusion paths and qubit labels", _fusion_args, cmd_fusion),
}


def build_parser(names=None) -> argparse.ArgumentParser:
    """The parser of the commands in `names` (default: all, in table order).
    Its usage line lists every command either way, so the usage errors
    of a one-command parser match the full one's."""
    parser = _Parser(prog="anyonbraid", description="Exact Ising-anyon braiding "
                     "representations and their Clifford reach")
    every = None if names is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in COMMANDS if names is None else names:
        help_text, add_args, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, KeyError, OSError, MemoryError,
            EnumerationCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
