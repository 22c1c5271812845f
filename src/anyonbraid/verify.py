"""Battery of exact representation-level identity checks.

Each check returns (name, ok, detail); the CLI's verify-relations command
runs the battery and exits nonzero if anything fails.  Everything here is
an identity of the construction, so a failure means a broken build, not a
numerical issue.
"""

from __future__ import annotations

from typing import Iterator

from .braid import (RepContext, braid_generator, braid_generator_inverse,
                    eval_word, monodromy, monodromy_closed_form, phase_word,
                    rep_identity, square_formulas)
from .gamma import gamma, gamma_f, projector
from .gf2 import BitMatrix
from .matrix import DenseMatrix
from .symplectic import CliffordAction, braid_symplectic, clifford_check, tilde_basis, tilde_printed


def _contexts(n: int, forms=("compressed", "projected", "unprojected")) -> list[RepContext]:
    """Both parities of each form in turn; the unprojected form has one."""
    return [RepContext(n, parity, form) for form in forms
            for parity in ((1,) if form == "unprojected" else (1, -1))]


def check_clifford_algebra(n: int) -> Iterator[tuple[str, bool, str]]:
    ident = DenseMatrix.identity(2 ** n)
    ok = True
    for i in range(1, 2 * n + 1):
        for j in range(1, 2 * n + 1):
            anti = gamma(n, i) @ gamma(n, j) + gamma(n, j) @ gamma(n, i)
            want = ident + ident if i == j else DenseMatrix.zeros(2 ** n)
            ok = ok and anti == want
    yield f"anticommutators n={n}", ok, "{g_i,g_j} = 2 delta_ij"
    gf = gamma_f(n)
    ok = (gf @ gf) == ident and all(
        (gf @ gamma(n, j) + gamma(n, j) @ gf).is_zero() for j in range(1, 2 * n + 1)
    )
    prod = gamma(n, 1)
    for j in range(2, 2 * n + 1):
        prod = prod @ gamma(n, j)
    ok = ok and gf == prod.mul_zeta(-2 * n)  # (-i)^n = z^(-2n)
    yield f"grading operator n={n}", ok, "gamma_F anticommutes and matches the product form"
    pp, pm = projector(n, 1), projector(n, -1)
    ok = (pp @ pp) == pp and (pm @ pm) == pm and (pp + pm) == ident \
        and (pp @ pm).is_zero() and pp.is_hermitian() and pm.is_hermitian()
    tr = pp.trace()
    ok = ok and tr.coeffs == (2 ** (n - 1), 0, 0, 0) and tr.k == 0
    yield f"projectors n={n}", ok, "idempotent, Hermitian, complementary, rank 2^(n-1)"


def check_braid_relations(ctx: RepContext) -> tuple[str, bool, str]:
    m = ctx.generator_count
    ok = True
    for j in range(1, m):
        a, b = braid_generator(ctx, j), braid_generator(ctx, j + 1)
        ok = ok and (a @ b @ a) == (b @ a @ b)
    for j in range(1, m + 1):
        for k in range(j + 2, m + 1):
            a, b = braid_generator(ctx, j), braid_generator(ctx, k)
            ok = ok and (a @ b) == (b @ a)
    return (f"braid relations {ctx.form} n={ctx.n_qubits} parity={ctx.parity:+d}",
            ok, "Yang-Baxter and far commutation")


def check_unitarity(ctx: RepContext) -> tuple[str, bool, str]:
    ok = True
    for j in range(1, ctx.generator_count + 1):
        g = braid_generator(ctx, j)
        ok = ok and (g @ g.dagger()) == rep_identity(ctx)
        ok = ok and (g @ braid_generator_inverse(ctx, j)) == rep_identity(ctx)
    return (f"unitarity {ctx.form} n={ctx.n_qubits} parity={ctx.parity:+d}",
            ok, "R R^dagger = unit and R R^-1 = unit of the form")


def check_fourth_power(ctx: RepContext) -> tuple[str, bool, str]:
    ok = True
    for j in range(1, ctx.generator_count + 1):
        g = braid_generator(ctx, j)
        ok = ok and (g @ g @ g @ g) == rep_identity(ctx)
    return (f"fourth powers {ctx.form} n={ctx.n_qubits} parity={ctx.parity:+d}",
            ok, "R^4 equals the unit")


def check_unprojected_squares(n: int) -> tuple[str, bool, str]:
    ctx = RepContext(n, form="unprojected")
    m = n + 1
    ok = True
    for j in range(1, 2 * n + 2):
        lhs = braid_generator(ctx, j)
        lhs = lhs @ lhs
        rhs = (gamma(m, j) @ gamma(m, j + 1)).mul_zeta(-2)  # times -i
        ok = ok and lhs == rhs
    return (f"unprojected squares n={n}", ok,
            "R_j^2 = -i gamma_j gamma_j+1 for every j (the stated range extends)")


def check_square_formulas(n: int) -> Iterator[tuple[str, bool, str]]:
    for parity in (1, -1):
        ctx = RepContext(n, parity)
        ok = True
        for j, pel in square_formulas(ctx):
            got = eval_word(ctx, [(j, 2)])
            ok = ok and got == pel.to_matrix()
        yield (f"square formulas n={n} parity={parity:+d}", ok,
               "squares of projected generators are the stated Pauli strings")


def check_phase_identities(n: int) -> Iterator[tuple[str, bool, str]]:
    for ctx in _contexts(n, ("unprojected", "projected", "compressed")):
        r2n = braid_generator(ctx, 2 * n)
        r2n1 = braid_generator(ctx, 2 * n + 1)
        sq = r2n1 @ r2n1
        ok = (r2n @ sq @ r2n) == sq.mul_zeta(2)
        yield (f"R_2n (R_2n+1)^2 R_2n = i (R_2n+1)^2 {ctx.form} n={n} parity={ctx.parity:+d}",
               ok, "the phase relation of the last two generators")
    for form in ("compressed", "projected"):
        ctx = RepContext(n, 1, form)
        got = eval_word(ctx, phase_word(ctx))
        ok = got == rep_identity(ctx).mul_zeta(2)
        yield (f"phase element = i*unit {form} n={n}", ok,
               "R_2n (R_2n+1)^2 R_2n (R_2n+1)^2 = i * unit")


def check_monodromy_closed_form(n: int) -> Iterator[tuple[str, bool, str]]:
    for ctx in _contexts(n, ("unprojected", "compressed")):
        ok = True
        for i in range(1, ctx.strands):
            for j in range(i + 1, ctx.strands + 1):
                ok = ok and monodromy(ctx, i, j) == monodromy_closed_form(ctx, i, j)
        yield (f"monodromy closed form {ctx.form} n={n} parity={ctx.parity:+d}", ok,
               "word form equals i (-1)^(l-k) gamma_k gamma_l")


def check_projector_commutes(n: int) -> tuple[str, bool, str]:
    import random

    rng = random.Random(20240 + n)
    ok = True
    for parity in (1, -1):
        proj = RepContext(n, parity, "projected")
        unproj = RepContext(n, form="unprojected")
        p = projector(n + 1, parity)
        for _ in range(5):
            letters = tuple(
                (rng.randrange(1, 2 * n + 2), rng.choice((1, -1))) for _ in range(6)
            )
            ok = ok and eval_word(proj, letters) == (eval_word(unproj, letters) @ p)
    return (f"projector commutes with products n={n}", ok,
            "projected word = projected unprojected product")


def check_b4_degeneracy() -> Iterator[tuple[str, bool, str]]:
    plus = RepContext(1, 1)
    ok = braid_generator(plus, 3) == braid_generator(plus, 1)
    yield "B_4 degeneracy R_3 = R_1 (positive parity)", ok, "four-strand special case"
    minus = RepContext(1, -1)
    ok = braid_generator(minus, 3) == braid_generator_inverse(minus, 1).mul_zeta(2)
    yield "B_4 degeneracy R_3 = i R_1^-1 (negative parity)", ok, "four-strand special case"


def check_appendix_symplectic(n: int) -> tuple[str, bool, str]:
    ok = True
    for parity in (1, -1):
        ctx = RepContext(n, parity)
        for j in range(1, 2 * n + 2):
            act = clifford_check(braid_generator(ctx, j))
            ok = ok and isinstance(act, CliffordAction) and act.s == braid_symplectic(n, j)
    return (f"printed symplectic matrices n={n}", ok,
            "clifford_check of each generator matches the printed S_j, both parities")


def check_tilde_basis(n: int) -> tuple[str, bool, str]:
    t, tildes = tilde_basis(n)
    ok = t @ t == BitMatrix.identity(2 * n)
    for j in range(1, 2 * n + 2):
        ok = ok and tildes[j - 1] == tilde_printed(n, j)
    return (f"tilde basis n={n}", ok,
            "T self-inverse and T S_j T matches the printed forms")


def run_battery(n_max: int) -> list[tuple[str, bool, str]]:
    if n_max < 1:
        raise ValueError("n must be positive")
    out = []
    for n in range(1, n_max + 1):
        out.extend(check_clifford_algebra(n))
        for ctx in _contexts(n):
            out.append(check_braid_relations(ctx))
            out.append(check_unitarity(ctx))
            out.append(check_fourth_power(ctx))
        out.append(check_unprojected_squares(n))
        out.extend(check_square_formulas(n))
        out.extend(check_phase_identities(n))
        out.extend(check_monodromy_closed_form(n))
        out.append(check_projector_commutes(n))
        out.append(check_appendix_symplectic(n))
        out.append(check_tilde_basis(n))
    out.extend(check_b4_degeneracy())
    return out
