import random

import pytest

from congwidth.errors import MismatchedRings
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
