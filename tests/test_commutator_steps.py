"""Commutator steps with both witness kinds, and the entry test for
commuting with an elementary matrix, against dense matrix products.

The builder forms [g, s] and its inverse from the low-rank update
g s g^-1 = I + W and the witness's action: row and column operations for
elementary factors, products for a congruence conjugator.  These tests draw
g and witnesses over Z, F2[x], Z[1/5] and the non-domain Z/8 (elementary
witnesses of one to three factors, or conjugators in the congruence
subgroup of SL_2 for the "sl2" builder), and compare every recorded step
with g s g^-1 s^-1 (or s g s^-1 g^-1) formed by SqMatrix products and
inverses.  The reduce pipeline only records one-factor commutators, so the
multi-factor ones are covered here alone.  A recorded elementary witness s,
formed from its factors without a product when no factor's column is
another's row, is checked against the dense product of its factors, and the
step records the builder makes without their __init__ against those
__init__ makes.
"""

import dataclasses
import operator
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from congwidth.certificate import (
    COMM_LEFT,
    COMM_RIGHT,
    CONJUGATE,
    ElemFactor,
    ElemFactorization,
    QOperation,
    TraceStep,
    _Builder,
)
from congwidth.matrices import SqMatrix, elementary, identity, is_central, mat_inv
from congwidth.reduction import _commutes
from congwidth.rings import Ideal, RingSpec, unit_check

Z = RingSpec.integers()
P2 = RingSpec.poly_over_fp(2)
L5 = RingSpec.localized_integers(5)
Z8 = RingSpec.integers_mod(8)
F5 = RingSpec.integers_mod(5)

# ring -> (raw entry strategy, ideal generator, units for a diagonal factor)
STEP_RINGS = {
    Z: (st.integers(-4, 4), Z.el(2), (-1,)),
    P2: (st.lists(st.integers(0, 1), max_size=3), P2.x(), ()),
    L5: (st.tuples(st.integers(-4, 4), st.integers(-1, 1)), L5.el(2), ((1, 1), (1, -1))),
    Z8: (st.integers(0, 7), Z8.el(2), (3, 5, 7)),
}
COMMUTE_RINGS = {
    Z: st.integers(-3, 3),
    P2: st.lists(st.integers(0, 1), max_size=3),
    L5: st.tuples(st.integers(-3, 3), st.integers(-1, 1)),
    F5: st.integers(0, 4),
}


def _position(draw, n):
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    return i, j


@st.composite
def _invertible(draw, ring, entries, units, n):
    """A product of elementary matrices with arbitrary entries and, where
    the ring has units besides 1, one diagonal unit factor."""
    g = identity(ring, n)
    for _ in range(draw(st.integers(0, 5))):
        i, j = _position(draw, n)
        g = g * elementary(ring, n, i, j, draw(entries))
    if units and draw(st.booleans()):
        u = ring.el(draw(st.sampled_from(units)))
        i, j = _position(draw, n)
        diag = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
        diag[i - 1][i - 1], diag[j - 1][j - 1] = u, unit_check(u)
        g = g * SqMatrix.from_raw(ring, diag)
    return g


@st.composite
def _commutator_steps(draw):
    ring = draw(st.sampled_from(list(STEP_RINGS)))
    entries, q0, units = STEP_RINGS[ring]
    n = draw(st.integers(2, 4))
    g = draw(_invertible(ring, entries, units, n))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        witness = []
        for _ in range(draw(st.integers(1, 3))):
            i, j = _position(draw, n)
            a = q0 * ring.el(draw(entries))
            if not a.is_zero:
                witness.append((i, j, a))
        if witness:
            steps.append((draw(st.sampled_from((COMM_RIGHT, COMM_LEFT))), witness))
    return "partial", g, Ideal(ring, (q0,)), steps


@st.composite
def _congruent(draw, ring):
    """An element of the congruence subgroup of SL_2 for the ring's ideal:
    elementary factors with entries in the ideal and, where the ring has
    units besides 1 (each is 1 mod the ideal), a diagonal unit factor, all
    conjugated by an arbitrary invertible matrix."""
    entries, q0, units = STEP_RINGS[ring]
    x = identity(ring, 2)
    for _ in range(draw(st.integers(1, 3))):
        i, j = _position(draw, 2)
        x = x * elementary(ring, 2, i, j, q0 * ring.el(draw(entries)))
    if units and draw(st.booleans()):
        u = ring.el(draw(st.sampled_from(units)))
        x = x * SqMatrix.from_raw(ring, [[u, 0], [0, unit_check(u)]])
    h = draw(_invertible(ring, entries, units, 2))
    return h * x * mat_inv(h)


@st.composite
def _congruence_steps(draw):
    ring = draw(st.sampled_from(list(STEP_RINGS)))
    q = Ideal(ring, (STEP_RINGS[ring][1],))
    g = draw(_congruent(ring))
    assume(not is_central(g))  # an "sl2" builder refuses a central input
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        s = draw(_congruent(ring))
        if not is_central(s):
            steps.append((draw(st.sampled_from((COMM_RIGHT, COMM_LEFT))), s))
    assume(steps)
    return "sl2", g, q, steps


@settings(max_examples=300, deadline=None)
@given(st.one_of(_commutator_steps(), _congruence_steps()))
# E12(2) E23(2) = I + S with S^2 = 4 e13: S' comes from inverting s
@example(("partial", elementary(Z, 3, 3, 1, 1), Ideal.of(Z, 2), [(COMM_RIGHT, [(1, 2, 2), (2, 3, 2)])]))
@example(("partial", elementary(Z, 3, 3, 1, 1), Ideal.of(Z, 2), [(COMM_LEFT, [(2, 3, 2), (3, 1, 2)])]))
def test_commutator_steps_match_dense_products(case):
    trace_kind, g, q, steps = case
    ring, n = g.ring, g.n
    b = _Builder(g, q, trace_kind, 0)
    for kind, witness in steps:
        if isinstance(witness, SqMatrix):
            s = witness
        else:
            s = reduce(operator.mul, (elementary(ring, n, i, j, a) for i, j, a in witness))
        sinv, ginv = mat_inv(s), mat_inv(g)
        g = g * s * ginv * sinv if kind == COMM_RIGHT else s * g * sinv * ginv
        b.record(kind, witness, "test")
        assert b.g == g
        assert (b.g * b.ginv).is_identity


WITNESS_RINGS = {
    Z: st.integers(-4, 4),
    Z8: st.integers(1, 7),
    P2: st.lists(st.integers(0, 1), max_size=3),
    L5: st.tuples(st.integers(-4, 4), st.integers(-1, 1)),
}


@st.composite
def _elementary_witnesses(draw):
    """A ring, n and one to three factors (i, j, a), a nonzero."""
    ring = draw(st.sampled_from(list(WITNESS_RINGS)))
    n = draw(st.integers(3, 4))
    witness = []
    for _ in range(draw(st.integers(1, 3))):
        a = ring.el(draw(WITNESS_RINGS[ring]))
        assume(not a.is_zero)
        witness.append((*_position(draw, n), a))
    return ring, n, witness


@settings(max_examples=300, deadline=None)
@given(_elementary_witnesses())
@example((Z, 3, [(1, 2, Z.el(3)), (2, 3, Z.el(5))]))  # a factor's column is another's row
@example((P2, 4, [(2, 3, P2.x()), (1, 2, P2.el([1, 1])), (3, 4, P2.one)]))
@example((Z8, 3, [(1, 3, Z8.el(4)), (2, 3, Z8.el(4))]))  # a flat list, one column
@example((L5, 4, [(1, 2, L5.el((2, -1))), (1, 2, L5.el((-2, -1)))]))  # entries that cancel
def test_builder_witness_is_the_dense_product_of_its_factors(case):
    # record sets the entries of a flat factor list into I and multiplies
    # out any other; either way op.s is E_1 E_2 ... E_k
    ring, n, witness = case
    b = _Builder(identity(ring, n), Ideal.of(ring, 1), "partial", 0)
    b.record(CONJUGATE, witness, "test")
    op = b.steps[-1].op
    assert op.s == reduce(operator.mul, (elementary(ring, n, i, j, a) for i, j, a in witness))
    assert op.s_factors == ElemFactorization(tuple(ElemFactor(i, j, a) for i, j, a in witness), op.s)


def test_step_records_stay_frozen_and_compare_as_before():
    # the builder makes its records without their __init__; they equal and
    # hash as the ones __init__ makes, and stay frozen
    q = Ideal.of(Z, 2)
    b = _Builder(elementary(Z, 3, 2, 3, 2), q, "partial", 0)
    b.record(COMM_RIGHT, [(1, 2, 2)], "test")
    step = b.steps[-1]
    fac = ElemFactorization((ElemFactor(1, 2, Z.el(2)),), elementary(Z, 3, 1, 2, 2))
    made = TraceStep(QOperation(COMM_RIGHT, fac.target, fac, 1), step.result, 2, "test")
    for record, built in ((step, made), (step.op, made.op), (step.op.s_factors, fac), (fac.factors[0], made.op.s_factors.factors[0])):
        assert record == built and hash(record) == hash(built) and vars(record) == vars(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, next(iter(vars(record))), None)
    assert step.op.s_member == "elem"


@st.composite
def _commute_cases(draw):
    """g and a position (i, j); g dense, scalar, or built to commute with
    e_ij and then, sometimes, perturbed at one entry."""
    ring = draw(st.sampled_from(list(COMMUTE_RINGS)))
    entries = COMMUTE_RINGS[ring]
    n = draw(st.integers(2, 4))
    i, j = _position(draw, n)
    rows = [[ring.el(draw(entries)) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("dense", "scalar", "commuting")))
    if shape == "scalar":
        rows = [[rows[0][0] if r == c else ring.zero for c in range(n)] for r in range(n)]
    elif shape == "commuting":
        for r in range(n):
            if r != i - 1:
                rows[r][i - 1] = ring.zero
            if r != j - 1:
                rows[j - 1][r] = ring.zero
        rows[j - 1][j - 1] = rows[i - 1][i - 1]
    if shape != "dense" and draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[r][c] = rows[r][c] + ring.one
    a = ring.el(draw(entries))
    return SqMatrix.from_raw(ring, rows), i, j, a if not a.is_zero else ring.one


@settings(max_examples=300, deadline=None)
@given(_commute_cases())
def test_commutes_matches_dense_products(case):
    g, i, j, a = case
    e = elementary(g.ring, g.n, i, j, a)
    assert _commutes(g, i, j) == (g * e == e * g)


def test_commutes_on_the_commuting_case_inputs():
    # inputs that reach both branches of the affine stage's commuting case:
    # a non-scalar lower block over Z[1/5] and a scalar one over F7[x]
    P7 = RingSpec.poly_over_fp(7)
    for sigma, scalar in (
        (SqMatrix.from_raw(L5, [[25, 2, 0], [0, 25, 0], [0, 2, (1, -4)]]), False),
        (SqMatrix.from_raw(P7, [[2, [0, 1], 0], [0, 2, 0], [0, 0, 2]]), True),
    ):
        tau = elementary(sigma.ring, 3, 1, 2, 2)
        assert _commutes(sigma, 1, 2) and sigma * tau == tau * sigma
        sub = SqMatrix(sigma.ring, 2, payload=[r[1:] for r in sigma.payload[1:]])
        assert is_central(sub) == scalar
        for i, j in ((1, 2), (2, 1)):
            e = elementary(sub.ring, 2, i, j, 2)
            assert _commutes(sub, i, j) == (sub * e == e * sub) == scalar
