import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congwidth.errors import MismatchedRings, UnsupportedRing
from congwidth.rings import (
    Ideal,
    RingSpec,
    extended_gcd,
    format_element,
    is_unimodular,
    parse_element,
    unit_check,
)


def all_rings():
    return [
        RingSpec.integers(),
        RingSpec.integers_mod(4),
        RingSpec.integers_mod(12),
        RingSpec.poly_over_fp(2),
        RingSpec.poly_over_fp(7),
        RingSpec.localized_integers(5),
    ]


def sample_element(ring, rng):
    k = ring.kind
    if k == "Z":
        return ring.el(rng.randint(-30, 30))
    if k == "Zmod":
        return ring.el(rng.randrange(ring.modulus))
    if k == "PolyFp":
        return ring.el([rng.randrange(ring.prime) for _ in range(rng.randint(0, 4))])
    return ring.el((rng.randint(-20, 20), rng.randint(-3, 3)))


def test_descriptor_round_trip():
    for ring in all_rings():
        assert RingSpec.parse(ring.descriptor()) == ring
        assert RingSpec.parse(ring.descriptor()).kernel is ring.kernel  # one kernel per ring
    assert RingSpec.poly_over_fp(3).kernel is not RingSpec.poly_over_fp(2).kernel


def test_descriptor_rejects_garbage():
    # twice each: a construction that raises leaves no kernel behind
    for bad in ("Q", "Z/1", "Z/0", "F4[x]", "F9[x]", "Z[1/6]", "Z[1/0]", "z") * 2:
        with pytest.raises(ValueError):
            RingSpec.parse(bad)


def test_element_serialization_round_trip():
    rng = random.Random(11)
    for ring in all_rings():
        for _ in range(50):
            e = sample_element(ring, rng)
            assert parse_element(ring, format_element(e)) == e


def test_arith_examples():
    Z = RingSpec.integers()
    assert Z.el(2) + Z.el(3) == Z.el(5)
    Z4 = RingSpec.integers_mod(4)
    assert Z4.el(3) * Z4.el(3) == Z4.el(1)
    P2 = RingSpec.poly_over_fp(2)
    x = P2.x()
    assert (x + P2.one) * (x + P2.one) == P2.el([1, 0, 1])  # x^2 + 1 in char 2


def test_mismatched_rings_rejected():
    Z = RingSpec.integers()
    Z4 = RingSpec.integers_mod(4)
    with pytest.raises(MismatchedRings):
        Z.el(1) + Z4.el(1)
    with pytest.raises(MismatchedRings):
        Z.el(1) * 2


def test_ring_axioms_random():
    rng = random.Random(5)
    for ring in all_rings():
        for _ in range(60):
            a, b, c = (sample_element(ring, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ring.zero == a
            assert a * ring.one == a
            assert a + (-a) == ring.zero


def test_extended_gcd_examples():
    Z = RingSpec.integers()
    g, coeffs = extended_gcd([Z.el(4), Z.el(10)])
    assert g == Z.el(2)
    assert sum((c * e for c, e in zip(coeffs, [Z.el(4), Z.el(10)])), Z.zero) == g

    g, coeffs = extended_gcd([Z.el(1)])
    assert g == Z.el(1) and coeffs[0] * Z.el(1) == g

    P2 = RingSpec.poly_over_fp(2)
    x = P2.x()
    g, coeffs = extended_gcd([x, x + P2.one])
    assert g == P2.one
    assert coeffs[0] * x + coeffs[1] * (x + P2.one) == P2.one


def test_extended_gcd_remultiplies_random():
    rng = random.Random(7)
    for ring in all_rings():
        for _ in range(40):
            elems = [sample_element(ring, rng) for _ in range(rng.randint(1, 4))]
            g, coeffs = extended_gcd(elems)
            total = ring.zero
            for c, e in zip(coeffs, elems):
                total = total + c * e
            assert total == g
            # g generates the ideal of the inputs: both-way membership
            ideal = Ideal(ring, tuple(elems))
            assert ideal.contains(g)
            for e in elems:
                assert Ideal(ring, (g,)).contains(e)


def test_ideal_membership_examples():
    Z = RingSpec.integers()
    I = Ideal.of(Z, 4, 10)
    assert I.contains(Z.el(6))  # gcd(4,10)=2 divides 6
    assert I.contains(Z.zero)
    assert not Ideal.of(Z, 2).contains(Z.el(3))


def test_ideal_membership_generators():
    rng = random.Random(3)
    for ring in all_rings():
        for _ in range(20):
            gens = [sample_element(ring, rng) for _ in range(rng.randint(1, 3))]
            ideal = Ideal(ring, tuple(gens))
            for g in gens:
                assert ideal.contains(g)
            # canonical generator generates the same ideal both ways
            assert ideal.contains(ideal.canonical)


def test_zmod_div_matches_the_xgcd_route():
    # every a and b in Z/m, m <= 64: b = 0, divisors of m (divided directly)
    # and the rest, against the extended-Euclid solution q = a/g * s
    xgcd = RingSpec.integers().kernel.xgcd
    for m in range(2, 65):
        div = RingSpec.integers_mod(m).kernel.div
        for b in range(m):
            g, (s, _) = xgcd([b, m])
            assert [div(a, b) for a in range(m)] == [None if a % g else a // g * s % m for a in range(m)], (m, b)


ZINV_TERM = st.tuples(st.integers(-(10**6), 10**6), st.integers(-6, 6))


@settings(max_examples=500, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), a=ZINV_TERM, b=ZINV_TERM, mode=st.sampled_from(["free", "same", "opposite"]))
def test_zinv_add_matches_the_el_route(p, a, b, mode):
    # a sum of terms at different powers of p skips el's search for factors
    # of p; it must equal el's normal form, as must sums at one power (mode
    # "same") and sums that cancel (mode "opposite")
    k = RingSpec.localized_integers(p).kernel
    a, b = k.el(a), k.el(b)
    if mode == "same" and b[0]:
        b = (b[0], a[1])
    elif mode == "opposite":
        b = k.neg(a)
    k0 = min(a[1], b[1])
    assert k.add(a, b) == k.el((a[0] * p ** (a[1] - k0) + b[0] * p ** (b[1] - k0), k0))


@pytest.mark.parametrize("ring", all_rings(), ids=lambda r: r.descriptor())
def test_kernel_minus_one(ring):
    k = ring.kernel
    assert k.minus_one == k.neg(k.one) == ring.el(-1).payload
    assert k.add(k.one, k.minus_one) == k.zero


def test_unit_check_examples():
    Z = RingSpec.integers()
    assert unit_check(Z.el(-1)) == Z.el(-1)
    assert unit_check(Z.el(2)) is None
    Z5 = RingSpec.integers_mod(5)
    assert unit_check(Z5.el(2)) == Z5.el(3)  # 2*3 = 6 = 1 mod 5
    L5 = RingSpec.localized_integers(5)
    inv = unit_check(L5.el((1, 3)))  # 125 is a unit
    assert inv is not None and inv * L5.el((1, 3)) == L5.one
    P7 = RingSpec.poly_over_fp(7)
    assert unit_check(P7.x()) is None
    assert unit_check(P7.el([3])) == P7.el([5])  # 3*5 = 15 = 1 mod 7


def test_unit_check_inverse_property():
    rng = random.Random(13)
    for ring in all_rings():
        for _ in range(40):
            e = sample_element(ring, rng)
            inv = unit_check(e)
            if inv is not None:
                assert e * inv == ring.one


def test_zmod_ideal_canonicalizes_with_modulus():
    Z12 = RingSpec.integers_mod(12)
    assert Ideal.of(Z12, 8).canonical == Z12.el(4)  # gcd(8, 12)
    assert Ideal.of(Z12, 5).canonical == Z12.el(1)  # 5 is a unit mod 12


def test_unimodularity_helper():
    Z = RingSpec.integers()
    ok, coeffs = is_unimodular([Z.el(2), Z.el(3)])
    assert ok
    assert coeffs[0] * Z.el(2) + coeffs[1] * Z.el(3) == Z.one
    ok, _ = is_unimodular([Z.el(2), Z.el(4)])
    assert not ok


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: RingSpec.integers().x(), UnsupportedRing, "x only exists in polynomial rings", id="x-of-Z"),
        pytest.param(lambda: RingSpec("Q"), ValueError, "unknown ring kind 'Q'", id="unknown-kind"),
        pytest.param(lambda: RingSpec.integers().residues(), UnsupportedRing, "Z is not finite", id="residues-of-Z"),
        pytest.param(lambda: extended_gcd([]), ValueError, "extended_gcd needs a nonempty list", id="empty-gcd"),
        pytest.param(lambda: Ideal(RingSpec.integers(), ()), ValueError, "ideal needs at least one generator",
                     id="no-generator"),
        pytest.param(lambda: Ideal(RingSpec.integers(), (RingSpec.integers_mod(5).el(1),)), MismatchedRings,
                     "generator outside the parent ring", id="foreign-generator"),
        # no caller divides by zero, yet the bitmask loop must not run forever
        pytest.param(lambda: RingSpec.poly_over_fp(2).kernel.div(1, 0), ZeroDivisionError, "division by ring zero",
                     id="f2-kernel-zero-divisor"),
        pytest.param(lambda: parse_element(RingSpec.localized_integers(5), "1*5"), ValueError,
                     "bad Z[1/p] literal '1*5'", id="zinv-bad-literal"),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as refusal:
        call()
    assert type(refusal.value) is error and str(refusal.value) == message


@pytest.mark.parametrize("p", [2, 3, 7])
def test_poly_norm_and_shells_on_either_payload_form(p):
    # the Euclidean norm is the number of coefficients, and shell s holds the
    # one polynomial whose coefficients are the base-p digits of s
    k = RingSpec.poly_over_fp(p).kernel
    for s in range(1, 200):
        digits, v = [], s
        while v:
            digits.append(v % p)
            v //= p
        assert k.shell(s) == [k.el(digits)]
        assert k.norm(k.el(digits)) == len(digits) and k.norm(k.zero) == 0


# tokens as a trace's F2[x] entry may hold them: residues, negatives, values
# >= 2, big values, and text int() refuses
F2_TOKENS = st.one_of(
    st.integers(-9, 9).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["", "x", "1.0", "0x1", "--1", " 1", "+1", "1_0", "1e3"]),
)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(F2_TOKENS, min_size=1, max_size=12), zeros=st.integers(0, 3))
def test_f2_parse_reads_coefficients_as_int_mod_2(tokens, zeros):
    # the bitmask kernel parses as the coefficient rule int(c) % 2, trailing
    # zeros trimmed, and refuses what int() refuses with int()'s message
    text = ",".join(tokens + ["0"] * zeros)
    k = RingSpec.poly_over_fp(2).kernel
    try:
        want = [int(c) % 2 for c in text.split(",")]
    except ValueError as exc:
        with pytest.raises(ValueError) as refusal:
            k.parse(text)
        assert str(refusal.value) == str(exc)
        return
    while want and want[-1] == 0:
        want.pop()
    got = k.parse(text)
    assert got == sum(c << i for i, c in enumerate(want))
    assert k.format(got) == (",".join(map(str, want)) or "0")
