import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from congwidth.errors import DimensionMismatch, MismatchedRings, NotInvertible, ZeroIdeal
from congwidth.matrices import (
    CongruenceDatum,
    SqMatrix,
    commutator,
    congruence_level,
    conjugate,
    determinant,
    elementary,
    format_matrix,
    identity,
    in_congruence_subgroup,
    is_central,
    mat_inv,
    parse_matrix,
)
from congwidth.rings import Ideal, RingSpec, unit_check
from conftest import elements


def rand_sl3(ring, rng, nfac=8, scale=3):
    g = identity(ring, 3)
    for _ in range(nfac):
        i, j = rng.sample([1, 2, 3], 2)
        a = rng.randint(-scale, scale)
        g = g * elementary(ring, 3, i, j, a)
    return g


def test_identity_law(ring_z):
    rng = random.Random(1)
    g = rand_sl3(ring_z, rng)
    assert identity(ring_z, 3) * g == g
    assert g * identity(ring_z, 3) == g


def test_elementary_examples(ring_z, ring_p2):
    assert elementary(ring_z, 3, 1, 2, 0) == identity(ring_z, 3)
    m = elementary(ring_z, 2, 1, 2, 5)
    assert m.rows[0][1] == ring_z.el(5)
    x = ring_p2.x()
    e = elementary(ring_p2, 3, 3, 1, x)
    assert e.e(3, 1) == x and e.e(1, 1) == ring_p2.one


def test_sub_rejects_mismatched_operands(ring_z):
    # + already raised here; - used to return the truncated [[0, 5], [0, 0]]
    m = elementary(ring_z, 2, 1, 2, 5)
    with pytest.raises(MismatchedRings):
        m + identity(ring_z, 3)
    with pytest.raises(MismatchedRings):
        m - identity(ring_z, 3)
    with pytest.raises(MismatchedRings):
        m - identity(RingSpec.integers_mod(4), 2)
    assert m - identity(ring_z, 2) == SqMatrix.from_raw(ring_z, [[0, 5], [0, 0]])


def test_unipotent_inverse(ring_z):
    m = elementary(ring_z, 3, 1, 2, 7)
    assert mat_inv(m) == elementary(ring_z, 3, 1, 2, -7)


def test_product_inverse_antihomomorphism(ring_z):
    rng = random.Random(2)
    for _ in range(20):
        a, b = rand_sl3(ring_z, rng), rand_sl3(ring_z, rng)
        assert mat_inv(a * b) == mat_inv(b) * mat_inv(a)
        assert (a * mat_inv(a)).is_identity


def test_determinant_examples(ring_z):
    assert determinant(identity(ring_z, 3)) == ring_z.one
    assert determinant(elementary(ring_z, 3, 2, 3, 11)) == ring_z.one
    diag = SqMatrix.from_raw(ring_z, [[2, 0], [0, 3]])
    assert determinant(diag) == ring_z.el(6)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", [0, 6], ids=["Z", "Z/6"])
def test_determinant_and_inverse_match_sympy(n, m):
    # cofactor expansion serves every n, past n = 4 and over the non-domain
    # Z/6 too; sympy's det of the integer lift is the reference (mod 6 over Z/6)
    ring = RingSpec.integers_mod(m) if m else RingSpec.integers()
    rng = random.Random(10 * n + m)
    for trial in range(8):
        if trial % 2:  # a random matrix: over Z its inverse rarely exists
            a = SqMatrix.from_raw(ring, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        else:  # elementary products, with determinant -1 every other time
            a = identity(ring, n)
            for _ in range(3 * n):
                i, j = rng.sample(range(1, n + 1), 2)
                a = a * elementary(ring, n, i, j, rng.randint(-3, 3))
            if trial % 4:
                a = a * SqMatrix.from_raw(ring, [[-1 if r == c == 0 else int(r == c) for c in range(n)]
                                                 for r in range(n)])
        expected = sp.Matrix(a.payload).det()
        d = determinant(a)
        assert d == ring.el(int(expected))
        if m:
            assert 0 <= d.payload < m
        if unit_check(d) is None:
            with pytest.raises(NotInvertible):
                mat_inv(a)
        else:
            assert (a * mat_inv(a)).is_identity and (mat_inv(a) * a).is_identity


def _sympy_entry(ring, a):
    """A payload as a sympy value: a polynomial in x over F_p[x] (coefficients
    lifted to Z), n * p^k over Z[1/p]."""
    if ring == RingSpec.localized_integers(5):
        return a[0] * sp.Rational(5) ** a[1]
    return sum(c * sp.Symbol("x") ** i for i, c in enumerate(a))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ring, units, non_unit, draw", [
    (RingSpec.poly_over_fp(3), [1, 2], [0, 1],
     lambda rng: [rng.randint(0, 2) for _ in range(rng.randint(0, 2))]),
    (RingSpec.localized_integers(5), [1, -1, 5, (-1, 3), (1, -2)], 3,
     lambda rng: (rng.randint(-3, 3), rng.randint(-1, 1))),
], ids=["F3[x]", "Z[1/5]"])
def test_inverse_on_every_kernel(n, ring, units, non_unit, draw):
    # an elementary product with its first row scaled by u has determinant u:
    # u = 1 takes mat_inv's unscaled branch, any other unit the scaled one,
    # and a non-unit u is refused; sympy's determinant of the lift is the
    # reference, read as a Poly over GF(3) for F3[x]
    rng = random.Random(n)
    for u in units + [non_unit]:
        a = SqMatrix.from_raw(ring, [[u if r == c == 0 else int(r == c) for c in range(n)] for r in range(n)])
        for _ in range(3 * n):
            i, j = rng.sample(range(1, n + 1), 2)
            a = a * elementary(ring, n, i, j, draw(rng))
        d = determinant(a)
        assert d == ring.el(u)
        expected = sp.Matrix([[_sympy_entry(ring, x) for x in r] for r in a.payload]).det()
        if ring == RingSpec.poly_over_fp(3):
            x = sp.Symbol("x")
            assert sp.Poly(expected, x, modulus=3) == sp.Poly(_sympy_entry(ring, d.payload), x, modulus=3)
        else:
            assert expected == _sympy_entry(ring, d.payload)
        if u == non_unit:
            with pytest.raises(NotInvertible):
                mat_inv(a)
            continue
        inv = mat_inv(a)
        assert (a * inv).is_identity and (inv * a).is_identity
        assert mat_inv(inv) == a


def test_not_invertible(ring_z):
    with pytest.raises(NotInvertible):
        mat_inv(SqMatrix.from_raw(ring_z, [[2, 0], [0, 3]]))


def test_steinberg_instance(ring_z):
    # [I + e12, I + e23] = I + e13
    lhs = commutator(elementary(ring_z, 3, 1, 2, 1), elementary(ring_z, 3, 2, 3, 1))
    assert lhs == elementary(ring_z, 3, 1, 3, 1)


def test_steinberg_relation_sampled(ring_z):
    rng = random.Random(4)
    for _ in range(30):
        alpha, beta, gamma = rng.sample([1, 2, 3, 4], 3)
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        lhs = commutator(
            elementary(ring_z, 4, alpha, beta, a), elementary(ring_z, 4, beta, gamma, b)
        )
        assert lhs == elementary(ring_z, 4, alpha, gamma, a * b)


def test_commutator_with_identity(ring_z):
    rng = random.Random(5)
    g = rand_sl3(ring_z, rng)
    assert commutator(g, identity(ring_z, 3)).is_identity


def test_matrix_unit_sandwich_sampled(ring_z):
    # g e_ij h equals the outer product of column i of g and row j of h
    rng = random.Random(6)
    for _ in range(25):
        g, h = rand_sl3(ring_z, rng), rand_sl3(ring_z, rng)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        unit = SqMatrix.from_raw(ring_z, [[int((r, c) == (i, j)) for c in range(1, 4)] for r in range(1, 4)])
        prod = g * unit * h
        col = g.column(i)
        row = h.row(j)
        outer = SqMatrix.from_raw(
            ring_z, tuple(tuple(col[r] * row[c] for c in range(3)) for r in range(3))
        )
        assert prod == outer


def test_block_commutator_instance(ring_z):
    # [[u, v], [0, x]] against [[1, 0], [0, y]]: block formula for the result,
    # checked by direct multiplication with u=1, v=(1,0), x=I, y=I+e12.
    n = 3
    u = ring_z.one
    v = [ring_z.one, ring_z.zero]
    x = identity(ring_z, 2)
    y = elementary(ring_z, 2, 1, 2, 1)
    g = SqMatrix.from_raw(ring_z, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    h = SqMatrix.from_raw(ring_z, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    got = commutator(g, h)
    # expected top-right block: (v y - v)(y x)^-1, bottom block [x, y] = I
    vy = [sum((v[k] * y.rows[k][c] for k in range(2)), ring_z.zero) for c in range(2)]
    diff = [vy[c] - v[c] for c in range(2)]
    yxinv = mat_inv(y * x)
    tr = [
        sum((diff[k] * yxinv.rows[k][c] for k in range(2)), ring_z.zero)
        for c in range(2)
    ]
    expected = SqMatrix.from_raw(
        ring_z,
        [[1, tr[0].payload, tr[1].payload], [0, 1, 0], [0, 0, 1]],
    )
    assert got == expected


def test_conjugation_preserves_det_and_level(ring_z):
    rng = random.Random(7)
    q = Ideal.of(ring_z, 2)
    for _ in range(20):
        g = identity(ring_z, 3)
        for _ in range(6):
            i, j = rng.sample([1, 2, 3], 2)
            g = g * elementary(ring_z, 3, i, j, 2 * rng.randint(-3, 3))
        s = rand_sl3(ring_z, rng)
        h = conjugate(g, s)
        assert determinant(h) == determinant(g)
        if not g.is_identity:
            assert (
                congruence_level(h, q).level == congruence_level(g, q).level
            )


def test_congruence_level_examples(ring_z):
    q = Ideal.of(ring_z, 2)
    datum = congruence_level(identity(ring_z, 3), q)
    assert datum.is_identity and datum.level is None
    assert congruence_level(elementary(ring_z, 3, 1, 2, 4), q).level == 2
    assert congruence_level(elementary(ring_z, 3, 2, 1, 6), q).level == 1


def test_congruence_level_refuses_another_rings_ideal(ring_z, ring_p2):
    # as in_congruence_subgroup: (2) in Z/8 used to give level 2, (x) in F2[x] a TypeError
    g = elementary(ring_z, 2, 1, 2, 4)
    for ideal in (Ideal.of(RingSpec.integers_mod(8), 2), Ideal(ring_p2, (ring_p2.x(),))):
        with pytest.raises(MismatchedRings, match="^element outside the ideal's ring$"):
            congruence_level(g, ideal)
        with pytest.raises(MismatchedRings, match="^element outside the ideal's ring$"):
            in_congruence_subgroup(g, ideal)


def test_congruence_level_cap_flag(ring_z):
    q = Ideal.of(ring_z, 2)
    g = elementary(ring_z, 3, 1, 2, 2**70)
    datum = congruence_level(g, q, cap=64)
    assert datum.level is None and not datum.is_identity


def test_congruence_level_matches_ideal_powers():
    """Membership of single entries in powers of an ideal, read off the
    level of the elementary matrix carrying them."""
    Z = RingSpec.integers()
    q = Ideal.of(Z, 2)
    assert congruence_level(elementary(Z, 3, 1, 2, 4), q).level == 2  # 4 in q^2, not in q^3
    assert congruence_level(identity(Z, 3), q, cap=17).is_identity  # 0 lies in every power
    Z12 = RingSpec.integers_mod(12)
    q12 = Ideal.of(Z12, 2)
    datum = congruence_level(elementary(Z12, 2, 1, 2, 4), q12)
    assert datum.level is None and not datum.is_identity  # 4 = 4^k in Z/12 lies in every power
    assert congruence_level(elementary(Z12, 2, 1, 2, 2), q12).level == 1  # 2 not in q^2
    L5 = RingSpec.localized_integers(5)
    q5 = Ideal.of(L5, 2)
    assert congruence_level(elementary(L5, 2, 2, 1, (4, -3)), q5).level == 2  # 4/125: 5-part a unit
    assert congruence_level(elementary(L5, 2, 2, 1, (2, 1)), q5).level == 1


def reference_level(g: SqMatrix, ideal: Ideal, cap: int) -> CongruenceDatum:
    """Power by power: q^i rebuilt with i products, every entry of g - I
    tested for membership in the ideal (q^i)."""
    ring = g.ring
    if g == identity(ring, g.n):
        return CongruenceDatum(ideal, None, True)
    diff = [e for r in (g - identity(ring, g.n)).rows for e in r]
    for i in range(1, cap + 1):
        di = ring.one
        for _ in range(i):
            di = di * ideal.canonical
        if not all(Ideal(ring, (di,)).contains(e) for e in diff):
            return CongruenceDatum(ideal, i - 1, False)
    return CongruenceDatum(ideal, None, False)


# (ring, generator of q, raw entries): Z/8 has 2^3 = 0, and in Z/12 the chain
# (2) > (4) = (4)^2 = ... stabilises, so 4 lies in every power
LEVEL_CASES = [
    (RingSpec.integers(), 2, st.integers(-9, 9)),
    (RingSpec.integers(), 6, st.integers(-9, 9)),
    (RingSpec.integers_mod(8), 2, st.integers(0, 7)),
    (RingSpec.integers_mod(12), 2, st.integers(0, 11)),
    (RingSpec.poly_over_fp(2), [0, 1], st.lists(st.integers(0, 1), max_size=3)),
    (RingSpec.localized_integers(5), 2, st.tuples(st.integers(-9, 9), st.integers(-2, 2))),
]


@st.composite
def level_cases(draw):
    ring, gen, raw = draw(st.sampled_from(LEVEL_CASES))
    ideal = Ideal.of(ring, gen)
    n = draw(st.sampled_from((2, 3)))
    diff = []
    for _ in range(n * n):
        x = ring.el(draw(raw)) if draw(st.booleans()) else ring.zero
        for _ in range(draw(st.integers(0, 6))):
            x = x * ideal.canonical
        diff.append(x)
    g = identity(ring, n) + SqMatrix.from_raw(ring, [diff[i * n:(i + 1) * n] for i in range(n)])
    return g, ideal, draw(st.sampled_from((1, 2, 3, 8, 64)))


@settings(max_examples=300, deadline=None)
@given(level_cases())
def test_congruence_level_matches_reference(case):
    g, ideal, cap = case
    assert congruence_level(g, ideal, cap) == reference_level(g, ideal, cap)


@pytest.mark.parametrize("ring, gen", [c[:2] for c in LEVEL_CASES], ids=["Z-2", "Z-6", "Z8-2", "Z12-2", "F2x-x", "Z5inv-2"])
def test_congruence_level_identity_and_cap_one(ring, gen):
    q = Ideal.of(ring, gen)
    assert congruence_level(identity(ring, 3), q, cap=1) == CongruenceDatum(q, None, True)
    g = elementary(ring, 3, 2, 3, q.canonical * q.canonical)
    assert congruence_level(g, q, cap=1) == reference_level(g, q, 1)
    with pytest.raises(ValueError):
        congruence_level(g, q, cap=0)


def test_congruence_level_stops_at_the_first_entry_outside_the_ideal(monkeypatch):
    """With (1, 1) = 1 and (1, 2) odd, level 0 against (2) is decided on the
    second entry of g - I; a walk that lists all nine entries first fails."""
    Z = RingSpec.integers()
    q = Ideal.of(Z, 2)
    g = SqMatrix.from_raw(Z, [[1, 3, 2], [4, 13, 8], [6, 18, 13]])
    k, reads, divs = Z.kernel, [], []
    is_zero, div = k.is_zero, k.div
    monkeypatch.setitem(vars(k), "is_zero", lambda a: reads.append(a) or is_zero(a))
    monkeypatch.setitem(vars(k), "div", lambda a, b: divs.append((a, b)) or div(a, b))
    assert congruence_level(g, q) == CongruenceDatum(q, 0, False)
    # the first read is the ideal's zero check on its generator; the rest are entries of g - I
    assert len(reads) - 1 <= 2 and divs == [(3, 2)]


@pytest.mark.parametrize(
    "diff, cap, level",
    [
        pytest.param([[0, 16, 0], [12, 0, 0], [0, 0, 8]], 64, 2, id="level-2-after-a-higher-entry"),
        pytest.param([[0, 2**70, 0], [0, 0, 2**65], [0, 0, 0]], 64, None, id="beyond-cap"),
        pytest.param([[8, 0, 0], [0, 0, 16], [0, 0, 0]], 3, None, id="at-the-cap"),
    ],
)
def test_congruence_level_pinned_cases(diff, cap, level):
    Z = RingSpec.integers()
    q = Ideal.of(Z, 2)
    g = identity(Z, 3) + SqMatrix.from_raw(Z, diff)
    assert congruence_level(g, q, cap) == reference_level(g, q, cap) == CongruenceDatum(q, level, False)


@pytest.mark.parametrize(
    "n, payload, message",
    [
        pytest.param(1, ((1,),), "dimension must be >= 2", id="n-1"),
        pytest.param(2, ((1, 0), (0,)), "ragged matrix", id="ragged"),
        pytest.param(2, ((1, 0), (0, 1), (0, 0)), "ragged matrix", id="row-count"),
    ],
)
def test_sqmatrix_refuses_a_bad_shape(n, payload, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        SqMatrix(RingSpec.integers(), n, payload=payload)


def test_congruence_level_zero_ideal(ring_z):
    with pytest.raises(ZeroIdeal):
        congruence_level(identity(ring_z, 2), Ideal.of(ring_z, 0))


def test_is_central_examples(ring_z):
    assert is_central(identity(ring_z, 3))
    minus = SqMatrix.from_raw(ring_z, [[-1, 0], [0, -1]])
    assert is_central(minus)
    assert not is_central(elementary(ring_z, 3, 1, 2, 1))


def test_central_iff_scalar_exhaustive(sl2_f3):
    # central by definition: g commutes with every element of SL2(F3)
    group = elements(sl2_f3)
    for g in group:
        assert is_central(g) == all(g * h == h * g for h in group)


def test_text_format_round_trip():
    rng = random.Random(9)
    rings = [
        RingSpec.integers(),
        RingSpec.integers_mod(7),
        RingSpec.poly_over_fp(3),
        RingSpec.localized_integers(5),
    ]
    for ring in rings:
        for _ in range(10):
            if ring.kind == "Z":
                raw = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            elif ring.kind == "Zmod":
                raw = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
            elif ring.kind == "PolyFp":
                raw = [
                    [[rng.randrange(3) for _ in range(rng.randint(0, 3))] for _ in range(3)]
                    for _ in range(3)
                ]
            else:
                raw = [
                    [(rng.randint(-9, 9), rng.randint(-2, 2)) for _ in range(3)]
                    for _ in range(3)
                ]
            m = SqMatrix.from_raw(ring, raw)
            text = format_matrix(m)
            assert parse_matrix(text) == m
            assert format_matrix(parse_matrix(text)) == text


def test_congruence_subgroup_membership(ring_z, ring_z4):
    q = Ideal.of(ring_z, 2)
    assert in_congruence_subgroup(elementary(ring_z, 3, 1, 2, 2), q)
    assert not in_congruence_subgroup(elementary(ring_z, 3, 1, 2, 1), q)
    with pytest.raises(MismatchedRings):
        in_congruence_subgroup(elementary(ring_z, 3, 1, 2, 2), Ideal.of(ring_z4, 2))


def _reference_in_congruence_subgroup(g, ideal):
    """The definition: every entry of g - I lies in the ideal."""
    diff = g - identity(g.ring, g.n)
    return all(ideal.contains(e) for r in diff.rows for e in r)


CONGRUENCE_RAW = {
    RingSpec.integers(): st.integers(-6, 6),
    RingSpec.integers_mod(8): st.integers(0, 7),
    RingSpec.poly_over_fp(2): st.lists(st.integers(0, 1), max_size=3),
    RingSpec.localized_integers(5): st.tuples(st.integers(-6, 6), st.integers(-1, 1)),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_in_congruence_subgroup_matches_definition(data):
    ring = data.draw(st.sampled_from(list(CONGRUENCE_RAW)), label="ring")
    raw = CONGRUENCE_RAW[ring]
    q = Ideal.of(ring, data.draw(st.one_of(st.just(0), raw), label="generator"))  # zero ideal too
    n = data.draw(st.sampled_from((2, 3)), label="n")
    # I + d*M lies in the congruence subgroup; replacing one entry may leave it
    rows = [[(ring.one if i == j else ring.zero) + q.canonical * ring.el(data.draw(raw)) for j in range(n)]
            for i in range(n)]
    if data.draw(st.booleans(), label="perturb"):
        rows[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = ring.el(data.draw(raw))
    g = SqMatrix.from_raw(ring, rows)
    assert in_congruence_subgroup(g, q) == _reference_in_congruence_subgroup(g, q)


def test_inverse_over_composite_modulus(ring_z4):
    m = SqMatrix.from_raw(ring_z4, [[3, 2], [2, 3]])  # det = 5 = 1 mod 4
    assert determinant(m) == ring_z4.one
    assert (m * mat_inv(m)).is_identity


def _reference_is_central(g):
    """The defining test: g commutes with every elementary(i, j, 1)."""
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            if i != j:
                s = elementary(g.ring, g.n, i, j, 1)
                if g * s != s * g:
                    return False
    return True


def test_is_central_matches_commutation_definition():
    rings = {
        RingSpec.integers(): lambda rng: rng.randint(-2, 2),
        RingSpec.integers_mod(4): lambda rng: rng.randint(0, 3),
        RingSpec.poly_over_fp(2): lambda rng: [rng.randint(0, 1) for _ in range(rng.randint(1, 3))],
        RingSpec.localized_integers(5): lambda rng: (rng.randint(-2, 2), rng.randint(-1, 1)),
    }
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for ring, raw in rings.items():
        for _ in range(150):
            n = rng.choice((2, 3))
            c = raw(rng)
            rows = [[c if i == j else 0 for j in range(n)] for i in range(n)]
            # scalar, one entry perturbed, or fully random
            mode = rng.randrange(3)
            if mode == 1:
                rows[rng.randrange(n)][rng.randrange(n)] = raw(rng)
            elif mode == 2:
                rows = [[raw(rng) for _ in range(n)] for _ in range(n)]
            g = SqMatrix.from_raw(ring, rows)
            expected = _reference_is_central(g)
            assert is_central(g) == expected
            seen[expected] += 1
    assert min(seen.values()) > 100
