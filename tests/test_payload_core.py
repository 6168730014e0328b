"""The payload core of congwidth.matrices against the boxed code it replaced,
and the one matrix representation.

The reference functions below are the element-by-element implementations
that SqMatrix products, determinants and inverses used before the payload
core: every ring operation goes through RingElement arithmetic.  Each test
draws matrices over Z, Z/4, Z/12, F2[x], F7[x] and Z[1/5] and checks the
core against them.  A SqMatrix stores payload rows only: the representation
tests check that boxing at the accessors round-trips, and a counter gate
checks that arithmetic, comparison, the text format and congruence-subgroup
membership box no entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congwidth.errors import MismatchedRings, NotInvertible
from congwidth.matrices import (
    SqMatrix,
    _add_col,
    _add_row,
    determinant,
    elementary,
    format_matrix,
    identity,
    in_congruence_subgroup,
    mat_inv,
    parse_matrix,
)
from congwidth.rings import Ideal, RingSpec, unit_check

# ring -> strategy for raw entries accepted by ring.el
RINGS = {
    RingSpec.integers(): st.integers(-9, 9),
    RingSpec.integers_mod(4): st.integers(0, 3),
    RingSpec.integers_mod(12): st.integers(0, 11),
    RingSpec.poly_over_fp(2): st.lists(st.integers(0, 1), max_size=3),
    RingSpec.poly_over_fp(7): st.lists(st.integers(0, 6), max_size=3),
    RingSpec.localized_integers(5): st.tuples(st.integers(-9, 9), st.integers(-2, 2)),
}


# -- the boxed reference -------------------------------------------------------------


def _reference_dot(row, col):
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def reference_mul(a: SqMatrix, b: SqMatrix) -> SqMatrix:
    cols = tuple(zip(*b.rows))
    rows = tuple(tuple(_reference_dot(a.rows[i], cols[j]) for j in range(a.n)) for i in range(a.n))
    return SqMatrix.from_raw(a.ring, rows)


def reference_det(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero
    sign = 1
    for j in range(n):
        piv = rows[0][j]
        if not piv.is_zero:
            minor = tuple(tuple(r[jj] for jj in range(n) if jj != j) for r in rows[1:])
            term = piv * reference_det(minor, ring)
            acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return acc


def reference_inv(m: SqMatrix) -> SqMatrix:
    dinv = unit_check(reference_det(m.rows, m.ring))
    if dinv is None:
        raise NotInvertible("determinant is not a unit")
    n = m.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(tuple(m.rows[r][c] for c in range(n) if c != i) for r in range(n) if r != j)
            cof = reference_det(minor, m.ring)
            row.append(dinv * (-cof if (i + j) % 2 else cof))
        rows.append(tuple(row))
    return SqMatrix.from_raw(m.ring, rows)


# -- strategies ----------------------------------------------------------------------


@st.composite
def matrices(draw, ring, n):
    """A matrix with free entries, or a product of elementary matrices (in SL_n)."""
    raw = RINGS[ring]
    if draw(st.booleans()):
        return SqMatrix.from_raw(ring, [[draw(raw) for _ in range(n)] for _ in range(n)])
    g = identity(ring, n)
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        g = reference_mul(g, elementary(ring, n, i, j, draw(raw)))
    return g


@st.composite
def ring_and_matrices(draw, count, sizes=(2, 3, 4)):
    ring = draw(st.sampled_from(list(RINGS)))
    n = draw(st.sampled_from(sizes))
    return (ring, *(draw(matrices(ring, n)) for _ in range(count)))


# -- the core against the reference ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ring_and_matrices(2))
def test_product_matches_reference(args):
    _, a, b = args
    assert a * b == reference_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(ring_and_matrices(1, sizes=(2, 3, 4, 5)))
def test_determinant_matches_reference(args):
    ring, m = args
    assert determinant(m) == reference_det(m.rows, ring)


@settings(max_examples=200, deadline=None)
@given(ring_and_matrices(1))
def test_inverse_matches_reference(args):
    _, m = args
    try:
        want = reference_inv(m)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            mat_inv(m)
        return
    assert mat_inv(m) == want


@settings(max_examples=200, deadline=None)
@given(ring_and_matrices(1), st.data())
def test_row_and_column_operations_match_reference(args, data):
    ring, m = args
    n = m.n
    i, j = data.draw(st.permutations(range(n)))[:2]
    a = ring.el(data.draw(RINGS[ring]))
    e = elementary(ring, n, i + 1, j + 1, a)
    rows = [list(r) for r in m.payload]
    _add_row(ring.kernel, rows, i, j, a.payload)  # row_i += a * row_j
    assert SqMatrix(ring, n, payload=rows) == reference_mul(e, m)
    rows = [list(r) for r in m.payload]
    _add_col(ring.kernel, rows, i, j, a.payload)  # col_j += col_i * a
    assert SqMatrix(ring, n, payload=rows) == reference_mul(m, e)


# -- one representation ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ring_and_matrices(1))
def test_payload_is_the_only_representation(args):
    ring, m = args
    boxed = SqMatrix.from_raw(ring, m.rows)
    assert boxed == m and hash(boxed) == hash(m)
    assert m.key() == m.payload
    for i in range(1, m.n + 1):
        for j in range(1, m.n + 1):
            assert m.e(i, j).payload == m.payload[i - 1][j - 1]
    with pytest.raises(TypeError):
        SqMatrix(ring, m.n, m.rows)  # rows of RingElements are not payload


@settings(max_examples=100, deadline=None)
@given(ring_and_matrices(1), st.data())
def test_from_raw_refuses_entries_of_another_ring(args, data):
    ring, m = args
    other = data.draw(st.sampled_from([r for r in RINGS if r != ring]))
    with pytest.raises(MismatchedRings):
        SqMatrix.from_raw(other, m.rows)


@pytest.mark.parametrize("ring", [RingSpec.integers(), RingSpec.poly_over_fp(2), RingSpec.localized_integers(5)],
                         ids=lambda r: r.descriptor())
def test_matrix_operations_make_no_ring_elements(ring, ring_element_count):
    a = elementary(ring, 3, 1, 2, 3) * elementary(ring, 3, 3, 1, 2) * elementary(ring, 3, 2, 3, -1)
    b = elementary(ring, 3, 2, 1, 5) * elementary(ring, 3, 1, 3, 7)
    text = format_matrix(a)
    q = Ideal.of(ring, 3)
    ops = {
        "*": lambda: a * b,
        "+": lambda: a + b,
        "-": lambda: a - b,
        "mat_inv": lambda: mat_inv(a),
        "identity": lambda: identity(ring, 3),
        "format_matrix": lambda: format_matrix(b),
        "parse_matrix": lambda: parse_matrix(text),
        "==": lambda: a == b,
        "hash": lambda: hash(a),
        "in_congruence_subgroup": lambda: in_congruence_subgroup(b, q),
    }
    made = {}
    for name, op in ops.items():
        ring_element_count()
        op()
        made[name] = ring_element_count()
    assert made == dict.fromkeys(ops, 0)
