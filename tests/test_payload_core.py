"""The payload core of congwidth.matrices against the boxed code it replaced.

The reference functions below are the element-by-element implementations
that SqMatrix products, determinants and inverses used before the payload
core: every ring operation goes through RingElement arithmetic.  Each test
draws matrices over Z, Z/4, Z/12, F2[x], F7[x] and Z[1/5] and checks the
core against them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congwidth.errors import NotInvertible
from congwidth.matrices import (
    SqMatrix,
    _add_col,
    _add_row,
    _box,
    _unbox,
    determinant,
    elementary,
    identity,
    mat_inv,
)
from congwidth.rings import RingSpec, unit_check

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
    return SqMatrix(a.ring, a.n, rows)


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
    return SqMatrix(m.ring, n, tuple(rows))


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
    rows = _unbox(m)
    _add_row(ring.kernel, rows, i, j, a.payload)  # row_i += a * row_j
    assert _box(ring, rows) == reference_mul(e, m)
    rows = _unbox(m)
    _add_col(ring.kernel, rows, i, j, a.payload)  # col_j += col_i * a
    assert _box(ring, rows) == reference_mul(m, e)
