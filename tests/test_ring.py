import cmath
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.ring import (BRAID_PHASE, CycScalar, I_UNIT, INV_SQRT2, ONE,
                             SQRT2, ZERO, ZETA)

# reproducible examples, no example database left in the working tree
EXACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# coefficients past 64 bits as well as small ones: the scalars are exact
coefficients = st.one_of(st.integers(-6, 6), st.integers(-(1 << 70), 1 << 70))
scalars = st.builds(CycScalar, coefficients, coefficients, coefficients, coefficients,
                    st.integers(0, 12))


def rand_scalar(rng, span=6, kmax=3):
    return CycScalar(*(rng.randint(-span, span) for _ in range(4)), k=rng.randint(0, kmax))


def test_addition_examples():
    zeta3 = CycScalar(0, 0, 0, 1)
    assert ZETA + zeta3 == CycScalar(0, 1, 0, 1)
    x = CycScalar(3, -1, 2, 5, 2)
    assert x + ZERO == x
    assert BRAID_PHASE + BRAID_PHASE.conjugate() == ONE


def test_multiplication_examples():
    zeta3 = CycScalar(0, 0, 0, 1)
    assert ZETA * zeta3 == CycScalar(-1)
    assert SQRT2 * SQRT2 == CycScalar(2)
    assert ZETA * INV_SQRT2 == BRAID_PHASE
    assert BRAID_PHASE == CycScalar(1, 0, 1, 0, 1)  # (1+i)/2


def test_conjugation_examples():
    assert ZETA.conjugate() == CycScalar(0, 0, 0, -1)
    real = CycScalar(7, 0, 0, 0, 1)
    assert real.conjugate() == real
    assert BRAID_PHASE.conjugate() == CycScalar(1, 0, -1, 0, 1)


def test_zeta_squared_is_i_and_sqrt2_facts():
    assert ZETA * ZETA == I_UNIT
    assert SQRT2 == ZETA - CycScalar(0, 0, 0, 1)
    assert INV_SQRT2 + INV_SQRT2 == SQRT2
    assert INV_SQRT2 * SQRT2 == ONE


@EXACT
@given(scalars, st.integers(0, 40))
def test_normal_form_unique_and_idempotent(x, s):
    again = CycScalar(x.c0, x.c1, x.c2, x.c3, x.k)
    assert again == x and hash(again) == hash(x)
    assert x.k == 0 or (x.c0 | x.c1 | x.c2 | x.c3) & 1
    # scaling numerator and denominator together by 2^s is a no-op
    scaled = CycScalar(x.c0 << s, x.c1 << s, x.c2 << s, x.c3 << s, x.k + s)
    assert scaled == x and hash(scaled) == hash(x) and scaled.coeffs == x.coeffs
    assert CycScalar(0, 0, 0, 0, 5) == ZERO
    assert ZERO.k == 0


@EXACT
@given(scalars, scalars, scalars)
def test_ring_axioms_random(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a
    assert a - a == ZERO and a + ZERO == a and a * ZERO == ZERO
    assert a * ONE == a
    z8 = ONE
    for _ in range(8):
        z8 = z8 * ZETA
    assert z8 == ONE and a.mul_zeta(8) == a and a * CycScalar.zeta_power(8) == a


def test_times_conjugate_is_real():
    rng = random.Random(303)
    for _ in range(200):
        a = rand_scalar(rng)
        m = a * a.conjugate()
        # Im = (c2*sqrt(2) + c1 + c3) / (sqrt(2)*2^k) must vanish exactly
        assert m.c2 == 0 and m.c1 + m.c3 == 0
        assert m.conjugate() == m


def test_float_embedding_tracks_exact_products():
    # factors drawn from the scalar alphabet that actually appears in the
    # matrices (modulus <= 1), e.g. zeta powers, 1/sqrt(2), (1 +- i)/2
    rng = random.Random(404)
    pool = [ZETA, INV_SQRT2, BRAID_PHASE, BRAID_PHASE.conjugate(), ONE, -ONE, I_UNIT]
    for _ in range(50):
        factors = [rng.choice(pool).mul_zeta(rng.randrange(8)) for _ in range(20)]
        exact = ONE
        approx = 1 + 0j
        for f in factors:
            exact = exact * f
            approx *= f.to_complex()
        assert abs(exact.to_complex() - approx) < 1e-12


def test_phase_class_examples():
    t, rep = I_UNIT.phase_class()
    assert (t, rep) == (2, ONE)
    t, rep = ONE.phase_class()
    assert (t, rep) == (0, ONE)
    t, rep = BRAID_PHASE.phase_class()
    assert (t, rep) == (1, INV_SQRT2)


@EXACT
@given(scalars.filter(bool))
def test_phase_class_unique_rotation_in_domain(a):
    t, rep = a.phase_class()
    assert 0 <= t < 8 and rep.mul_zeta(t) == a and rep.k == a.k
    hits = [s for s in range(8) if a.mul_zeta(-s)._in_phase_domain()]
    assert hits == [t]
    # the fundamental domain is the polar angle range [0, pi/4); the float
    # embedding agrees up to rounding where no large coefficients cancel
    if max(map(abs, a.coeffs)) < 1 << 20:
        assert -1e-9 <= cmath.phase(rep.to_complex()) < cmath.pi / 4 + 1e-9


def test_phase_class_rejects_zero():
    with pytest.raises(ValueError):
        ZERO.phase_class()


def test_mul_zeta_matches_multiplication():
    rng = random.Random(606)
    for _ in range(100):
        a = rand_scalar(rng)
        for e in range(-8, 9):
            assert a.mul_zeta(e) == a * CycScalar.zeta_power(e)
    assert CycScalar.zeta_power(4) == -ONE
    assert CycScalar.zeta_power(8) == ONE


def test_json_roundtrip_bit_exact():
    rng = random.Random(707)
    for _ in range(100):
        a = rand_scalar(rng)
        blob = json.dumps(a.to_list())
        assert CycScalar.from_list(json.loads(blob)) == a
    assert BRAID_PHASE.to_list() == [1, 0, 1, 0, 1]


def test_from_list_rejects_non_integers():
    for bad in ([1.5, 0, 0, 0, 0], [1.0, 0, 0, 0, 0], ["1", 0, 0, 0, 0],
                [True, 0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0, 0, 0], 7):
        with pytest.raises(ValueError):
            CycScalar.from_list(bad)
    assert CycScalar.from_list((2, 0, 0, 0, 1)) == ONE


def test_ipower():
    assert ONE.ipower() == 0
    assert I_UNIT.ipower() == 1
    assert (-ONE).ipower() == 2
    assert (-I_UNIT).ipower() == 3
    assert ZETA.ipower() is None
    assert INV_SQRT2.ipower() is None


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        CycScalar(1, 0, 0, 0, -1)
