"""The benchmark's three workloads over the anyonbraid sources in this checkout.

Each workload turns a seed into a batch of operations (one repetition),
runs one operation at a time and checks its answer exactly.  The library
receives only the generated words and targets; the seed stays here.

* enumerate: the README group-order commands through cli.main, each cold.
* clifford-queries: Clifford, reachability and quotient-synthesis queries
  on random braid words and README gate targets, with warm static tables.
* synth-bfs: shortest-word BFS at n = 2 through cli.main and synthesize,
  each cold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path


def _missing_sources(message: str):
    """Exit with the code run.py documents for a checkout without the library."""
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "anyonbraid" / "__init__.py").is_file():
    _missing_sources(f"anyonbraid sources not found in {SRC}")
sys.path.insert(0, str(SRC))

import anyonbraid  # noqa: E402
import anyonbraid.braid as braid  # noqa: E402
import anyonbraid.cli as cli  # noqa: E402
import anyonbraid.gates as gates  # noqa: E402
import anyonbraid.symplectic as symplectic  # noqa: E402
import anyonbraid.synth as synth  # noqa: E402
from anyonbraid.gf2 import BitMatrix  # noqa: E402

if not Path(anyonbraid.__file__).resolve().is_relative_to(SRC):
    _missing_sources(f"imported anyonbraid from {anyonbraid.__file__}, not {SRC}")

# Every lru_cache of the package, found before any tracing patch replaces
# module attributes.  Clearing them all makes the next operation cold.
CACHES = list({id(v): v for mod_name, mod in list(sys.modules.items())
               if mod_name.startswith("anyonbraid") and mod is not None
               for v in vars(mod).values() if hasattr(v, "cache_clear")}.values())


def clear_caches() -> None:
    for f in CACHES:
        f.cache_clear()


class CheckFailed(Exception):
    """An operation returned an answer that failed an exact check."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _cli(argv: list[str]) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, (json.loads(out.getvalue()) if out.getvalue() else {"stderr": err.getvalue()})


def _random_word(rng: random.Random, n: int, lo: int, hi: int) -> tuple:
    gens = 2 * n + 1
    return tuple((rng.randint(1, gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(lo, hi)))


def _symplectic_image(n: int, letters) -> BitMatrix:
    """S of a braid word from the printed generator images: S_UV = S_U S_V."""
    s = BitMatrix.identity(2 * n)
    for j, e in letters:
        g = symplectic.braid_symplectic(n, j)
        s = s @ (g if e > 0 else g.inverse())
    return s


def _check_phase_word(ctx, word, p, target) -> None:
    _expect(braid.eval_word(ctx, word) == target.mul_zeta(p),
            "eval_word(word) != target * z^p")


@dataclass
class Op:
    """One operation of a batch: `kind` selects how it runs, `arg` is its input."""

    kind: str
    arg: object
    label: str
    target: object = field(default=None, repr=False)


class Workload:
    name = ""
    cold_ops = True      # clear every cache before each operation

    def batch(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warm(self) -> None:
        """Set-up a user pays once per process; counted in setup_s."""

    def prepare(self, op: Op) -> None:
        """Untimed construction of an operation's input (`op.target`)."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> int:
        """Raise CheckFailed on a wrong answer; return the work units done."""
        raise NotImplementedError


# -- enumerate -------------------------------------------------------------

B6_STRICT = 46080        # |Image(B_6)| = 2^6 * 6!
B6_PROJECTIVE = 11520    # the image modulo its Z_4 center
SP_SUBGROUP_N3 = factorial(8)


class Enumerate(Workload):
    name = "enumerate"
    COMMANDS = (
        ("strict", ["enumerate", "--n", "2"]),
        ("projective", ["enumerate", "--n", "2", "--mode", "projective"]),
        ("faithfulness", ["faithfulness", "--n", "3"]),
    )

    def batch(self, seed):
        # The README commands are fixed; the seed orders them, which must not
        # change any count because every command starts cold.
        ops = [Op("cli", argv, label) for label, argv in self.COMMANDS]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, op):
        return _cli(op.arg)

    def check(self, op, out):
        rc, payload = out
        _expect(rc == 0, f"{op.label}: exit code {rc}")
        orders = symplectic.group_orders(2)
        if op.label == "strict":
            _expect(payload["order"] == orders.braid_image == B6_STRICT,
                    f"strict order {payload['order']}")
            _expect(payload["mode"] == "strict", "mode")
            return B6_STRICT
        if op.label == "projective":
            _expect(payload["order"] == orders.braid_image_mod_center == B6_PROJECTIVE,
                    f"projective order {payload['order']}")
            _expect(payload["mode"] == "projective", "mode")
            return B6_PROJECTIVE
        _expect(payload["subgroup_order"] == payload["expected_order"] == SP_SUBGROUP_N3
                and payload["ok"], f"<S_j> order {payload['subgroup_order']}")
        return SP_SUBGROUP_N3


# -- clifford-queries --------------------------------------------------------

# README / test verdicts at n = 3 (the adjacent SWAP and CZ embeddings and
# CZ(1,3) are obstructed; SWAP(1,3) is reachable), plus targets whose
# reachable verdict is certified by a re-verified quotient word.
NAMED_N3 = {
    "swap:1,2": "obstruction", "swap:1,3": "reachable", "swap:2,3": "obstruction",
    "cz:1,2": "obstruction", "cz:1,3": "obstruction",
    "h:1": "reachable", "p:2": "reachable", "x:3": "reachable",
    "y:1": "reachable", "identity": "reachable",
}
# Random braid words per batch by qubit count.  With these shares the
# median query is an n = 4 query and the 90th percentile an n = 5 one,
# so neither sits on the boundary between two cost classes.
WORDS_PER_BATCH = {3: 16, 4: 40, 5: 14}
WORD_LETTERS = (10, 40)


class CliffordQueries(Workload):
    name = "clifford-queries"
    cold_ops = False

    def batch(self, seed):
        rng = random.Random(seed)
        ops = [Op("named", spec, f"n3:{spec}") for spec in NAMED_N3]
        for n, count in WORDS_PER_BATCH.items():
            for _ in range(count):
                word = _random_word(rng, n, *WORD_LETTERS)
                ops.append(Op("word", (n, word), f"n{n}:word{len(word)}"))
        rng.shuffle(ops)
        return ops

    def warm(self):
        # Generators and Pauli tables for every n, then <S_j> for n = 3 (the
        # first reachability call) and the parent tree that the first
        # quotient call builds.
        for n in WORDS_PER_BATCH:
            ctx = braid.RepContext(n)
            letters = [(j, e) for j in range(1, 2 * n + 2) for e in (1, -1)]
            symplectic.clifford_check(braid.eval_word(ctx, letters))
        ctx3 = braid.RepContext(3)
        swap13 = gates.parse_gate_target(3, "swap:1,3")
        synth.reachability(ctx3, swap13)
        synth.clifford_word_via_quotient(ctx3, swap13)

    def run(self, op):
        if op.kind == "named":
            n, ctx = 3, braid.RepContext(3)
            u = gates.parse_gate_target(3, op.arg)
        else:
            n, letters = op.arg
            ctx = braid.RepContext(n)
            u = braid.eval_word(ctx, braid.BraidWord(letters))
        act = symplectic.clifford_check(u)
        reach = quotient = None
        if n == 3:
            reach = synth.reachability(ctx, u)
            if reach.verdict == "reachable":
                quotient = synth.clifford_word_via_quotient(ctx, u)
        return ctx, u, act, reach, quotient

    def check(self, op, out):
        ctx, u, act, reach, quotient = out
        _expect(isinstance(act, symplectic.CliffordAction), "clifford_check verdict")
        if op.kind == "word":
            n, letters = op.arg
            _expect(act.s == _symplectic_image(n, letters), "S_U != prod S_j")
            if n == 3:
                _expect(reach.verdict == "reachable", "braid word not reachable")
        else:
            _expect(reach.verdict == NAMED_N3[op.arg], f"verdict {reach.verdict}")
        if reach is not None and reach.verdict == "reachable":
            word, p = quotient
            _check_phase_word(ctx, word, p, u)
        return 1


# -- synth-bfs -----------------------------------------------------------------

# README / test targets at n = 2 with the minimal word lengths the README
# and the tests state.  Five take seconds (depth 6-7), two a few hundred
# milliseconds (depth 4-5) and five tens of milliseconds, so the median
# command is always one of the two middle ones.
SYNTH_CLI = {"swap:1,2": 7, "cnot:1,2": None, "h:1": None, "x:1": None, "y:1": None,
             "h:2": None, "y:2": None,
             "cz:1,2": 3, "x:2": None, "z:2": None, "p:1": None, "p:2": None}
RANDOM_TARGETS = 8
RANDOM_LETTERS = (3, 5)


class SynthBfs(Workload):
    name = "synth-bfs"

    def batch(self, seed):
        rng = random.Random(seed)
        ops = [Op("cli", spec, f"synth:{spec}") for spec in SYNTH_CLI]
        for _ in range(RANDOM_TARGETS):
            word = _random_word(rng, 2, *RANDOM_LETTERS)
            ops.append(Op("random", word, f"random:{len(word)}"))
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        if op.kind == "random":
            op.target = braid.eval_word(braid.RepContext(2), braid.BraidWord(op.arg))

    def run(self, op):
        if op.kind == "cli":
            return _cli(["synth", "--n", "2", "--target", op.arg])
        return synth.synthesize(braid.RepContext(2), op.target)

    def check(self, op, out):
        ctx = braid.RepContext(2)
        if op.kind == "cli":
            rc, payload = out
            _expect(rc == 0 and payload["verdict"] == "realizable", f"exit code {rc}")
            target = gates.parse_gate_target(2, op.arg)
            word = braid.BraidWord.from_text(payload["word"])
            _check_phase_word(ctx, word, payload["phase_power"], target)
            _expect(len(word) == payload["depth"], "depth != word length")
            expected = SYNTH_CLI[op.arg]
            _expect(expected is None or len(word) == expected,
                    f"word length {len(word)}, expected {expected}")
            return payload["explored"]
        _expect(out.verdict == "realizable", f"verdict {out.verdict}")
        _expect(len(out.word) <= len(op.arg), "BFS word longer than the random word")
        _check_phase_word(ctx, out.word, out.phase_power, op.target)
        return out.explored


WORKLOADS = {w.name: w for w in (Enumerate(), CliffordQueries(), SynthBfs())}


def inputs_digest(ops: list[Op]) -> str:
    text = json.dumps([[op.kind, op.arg] for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
