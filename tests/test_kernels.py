"""The straight-line matrix kernels against the loops they stand in for.

For n <= KERNEL_MAX, products and inverses run through code generated once
per n; above it the loops run, and determinants and adjugates come from the
characteristic polynomial.  Those are the reference: with KERNEL_MAX
lowered to 1 the same public functions take the loop path, and every
payload must come out identical, over domains and non-domains alike; the
cofactor kernel's determinant must equal determinant() on the loops.  The
generator sees only n, so a large matrix from outside (a trace header may
name any n) must take the loops and generate nothing.  Above KERNEL_MAX an
expansion costs O(n^4) ring products, not a factorial count: a counter
gate caps the input's cofactors, in a builder too, at 2 n^4 products.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congwidth.matrices as matrices
from congwidth.errors import NotInvertible
from congwidth.matrices import KERNEL_MAX, SqMatrix, _mul_rows, determinant, elementary, identity, mat_inv
from congwidth.reduction import reduce_full, replay_trace, serialize_trace
from congwidth.rings import Ideal, RingSpec

# ring -> strategy for raw entries accepted by ring.el
RINGS = {
    RingSpec.integers(): st.integers(-9, 9),
    RingSpec.integers_mod(8): st.integers(0, 7),
    RingSpec.integers_mod(7): st.integers(0, 6),
    RingSpec.poly_over_fp(2): st.lists(st.integers(0, 1), max_size=3),
    RingSpec.poly_over_fp(3): st.lists(st.integers(0, 2), max_size=3),
    RingSpec.localized_integers(5): st.tuples(st.integers(-9, 9), st.integers(-2, 2)),
}


def on_loops(fn, *args):
    """fn(*args) through the loops, with the kernels switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "KERNEL_MAX", 1)
        return fn(*args)


def inverse_or_error(m):
    try:
        return mat_inv(m).payload
    except NotInvertible as e:
        return str(e)


@st.composite
def square(draw, ring, n):
    """Free entries, or a product of elementary matrices (in SL_n)."""
    raw = RINGS[ring]
    if draw(st.booleans()):
        return SqMatrix.from_raw(ring, [[draw(raw) for _ in range(n)] for _ in range(n)])
    g = identity(ring, n)
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        g = g * elementary(ring, n, i, j, draw(raw))
    return g


@pytest.mark.parametrize("n", range(2, KERNEL_MAX + 1))
@pytest.mark.parametrize("ring", RINGS, ids=[r.descriptor() for r in RINGS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernels_match_the_loops(ring, n, data):
    a, b = data.draw(square(ring, n)), data.draw(square(ring, n))
    k = ring.kernel
    assert _mul_rows(k, a.payload, b.payload) == on_loops(_mul_rows, k, a.payload, b.payload)
    assert (a * b).payload == on_loops(a.__mul__, b).payload
    checked = SqMatrix(ring, n, payload=(a * b).payload)  # the unchecked form equals and hashes as the checked one
    assert a * b == checked and hash(a * b) == hash(checked)
    assert matrices._cofactor_kernel(n)(k.add, k.mul, k.neg, a.payload)[0] == on_loops(determinant, a).payload
    assert inverse_or_error(a) == on_loops(inverse_or_error, a)


@pytest.mark.parametrize("n", range(2, KERNEL_MAX + 1))
@pytest.mark.parametrize("path", ["kernel", "loops"])
def test_non_unit_determinant_message(n, path):
    ring = RingSpec.integers_mod(8)
    m = SqMatrix.from_raw(ring, [[2 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    with pytest.raises(NotInvertible, match=r"^determinant 2 is not a unit$"):
        mat_inv(m) if path == "kernel" else on_loops(mat_inv, m)


def test_large_n_takes_the_loops_and_generates_nothing():
    # a 12 x 12 near-identity matrix: inverted, reduced and replayed on the loops
    Z = RingSpec.integers()
    for kernel in (matrices._mul_kernel, matrices._cofactor_kernel):
        kernel.cache_clear()
    n = 12
    s = elementary(Z, n, 1, 2, 2) * elementary(Z, n, 3, 1, 4) * elementary(Z, n, 12, 5, 6) * elementary(Z, n, 2, 12, 2)
    assert (s * mat_inv(s)).is_identity and determinant(s) == Z.one
    replay_trace(serialize_trace(reduce_full(s, Ideal.of(Z, 2), (1, 2))))
    assert matrices._mul_kernel.cache_info().currsize == 0
    assert matrices._cofactor_kernel.cache_info().currsize == 0
    mat_inv(elementary(Z, 3, 1, 2, 2))
    assert matrices._cofactor_kernel.cache_info().currsize == 1  # n = 3


def counted_products(monkeypatch, k, bound: int) -> list:
    """Count the kernel's mul calls, and fail at the first past bound."""
    calls, real = [0], k.mul

    def mul(a, b):
        calls[0] += 1
        assert calls[0] <= bound, f"more than {bound} ring products"
        return real(a, b)

    monkeypatch.setattr(k, "mul", mul)
    return calls


@pytest.mark.parametrize("n", [9, 12, 16])
def test_cofactors_of_a_dense_matrix_take_at_most_2n4_products(n, monkeypatch):
    Z = RingSpec.integers()
    rnd = random.Random(n)
    rows = tuple(tuple(rnd.randint(-9, 9) for _ in range(n)) for _ in range(n))
    calls = counted_products(monkeypatch, Z.kernel, 2 * n**4)
    det, adj = matrices._cofactors(Z.kernel, rows)
    monkeypatch.undo()
    assert calls[0] > n**4  # the count is the expansion's, not a bypass
    a = SqMatrix.from_raw(Z, rows)
    assert a * SqMatrix.from_raw(Z, adj) == SqMatrix.from_raw(Z, [[det * (i == j) for j in range(n)] for i in range(n)])


def test_dense_builder_takes_at_most_2n4_products(monkeypatch):
    # a dense SL_12(Z) input, 72 factors e_ij(+-2): reduced, then replayed
    Z, n = RingSpec.integers(), 12
    rnd = random.Random(1)
    g = identity(Z, n)
    for _ in range(6 * n):
        i, j = rnd.sample(range(1, n + 1), 2)
        g = g * elementary(Z, n, i, j, rnd.choice((2, -2)))
    assert sum(x != 0 for r in g.payload for x in r) > 0.9 * n * n  # 134 of 144 entries
    calls = counted_products(monkeypatch, Z.kernel, 2 * n**4)
    text = serialize_trace(reduce_full(g, Ideal.of(Z, 2), (1, 2)))
    calls[0] = 0
    replay_trace(text)
