import hashlib
import random

import pytest

from congwidth.factorization import census_csv, decompose_elementary, factor_count_census
from congwidth.errors import NotSL, UnsupportedRing
from congwidth.matrices import SqMatrix, elementary, identity, mat_inv
from congwidth.rings import RingSpec
from conftest import elements


def rand_sl(ring, n, rng, nfac, coeff):
    g = identity(ring, n)
    for _ in range(nfac):
        i, j = rng.sample(range(1, n + 1), 2)
        g = g * elementary(ring, n, i, j, coeff(rng))
    return g


def test_identity_decomposes_empty(ring_z):
    fac = decompose_elementary(identity(ring_z, 3))
    assert fac.count == 0 and fac.factors == ()


def test_single_elementary_single_factor(ring_z):
    fac = decompose_elementary(elementary(ring_z, 3, 1, 2, 7))
    assert fac.count == 1
    f = fac.factors[0]
    assert (f.i, f.j, f.a) == (1, 2, ring_z.el(7))


def test_random_products_remultiply(ring_z):
    rng = random.Random(17)
    for _ in range(25):
        g = rand_sl(ring_z, 3, rng, 20, lambda r: r.randint(-5, 5))
        fac = decompose_elementary(g)
        assert fac.product() == g


def test_factor_invariants(ring_z):
    rng = random.Random(19)
    for _ in range(10):
        g = rand_sl(ring_z, 3, rng, 12, lambda r: r.randint(-4, 4))
        for f in decompose_elementary(g).factors:
            assert f.i != f.j
            assert not f.a.is_zero


def test_inverse_factor_list(ring_z):
    rng = random.Random(23)
    for _ in range(10):
        g = rand_sl(ring_z, 3, rng, 10, lambda r: r.randint(-4, 4))
        # the decomposition of g^-1 re-multiplies to g^-1
        assert decompose_elementary(mat_inv(g)).product() == mat_inv(g)


def test_exhaustive_sl2_z3(sl2_f3):
    for g in elements(sl2_f3):
        assert decompose_elementary(g).product() == g


def test_dimension_four(ring_z):
    rng = random.Random(29)
    g = rand_sl(ring_z, 4, rng, 15, lambda r: r.randint(-3, 3))
    assert decompose_elementary(g).product() == g


def test_polynomial_ring(ring_p2):
    # F2[x] on its bitmask kernel, F3[x] on the coefficient-tuple one
    rng = random.Random(31)
    for ring in (ring_p2, RingSpec.poly_over_fp(3)):
        x = ring.x()
        coeffs = [ring.zero, ring.one, x, x + ring.one, x * x]
        for _ in range(10):
            g = rand_sl(ring, 3, rng, 8, lambda r: r.choice(coeffs))
            assert decompose_elementary(g).product() == g


def test_zmod_composite(ring_z4):
    rng = random.Random(37)
    for _ in range(10):
        g = rand_sl(ring_z4, 2, rng, 8, lambda r: r.randrange(4))
        assert decompose_elementary(g).product() == g


def test_unsupported_ring(ring_l5):
    with pytest.raises(UnsupportedRing):
        decompose_elementary(identity(ring_l5, 2))


def test_not_sl_rejected(ring_z):
    with pytest.raises(NotSL):
        decompose_elementary(SqMatrix.from_raw(ring_z, [[2, 0], [0, 1]]))


def test_factor_count_census_orders(ring_f2, ring_f3):
    hist, mx, order = factor_count_census(2, ring_f2)
    assert order == 2 * (2**2 - 1)  # q(q^2 - 1) for SL_2(F_q)
    assert sum(hist.values()) == order
    assert hist[0] == 1  # the identity decomposes with zero factors
    assert mx == max(hist)

    hist3, _, order3 = factor_count_census(2, ring_f3)
    assert order3 == 3 * (3**2 - 1)
    assert sum(hist3.values()) == order3
    assert hist3[0] == 1


# sha256 of census_csv for SL3(Z/3) (5616 elements)
SL3_Z3_FACTORS_SHA256 = "4aab267681206a1a7722355a74d39ba84c5db1b5f1821491b9d8ba7c013eda1b"


def test_factor_census_of_sl3_z3_reads_entries_unboxed(ring_element_count):
    hist, mx, order = factor_count_census(3, RingSpec.integers_mod(3))
    made = ring_element_count()
    assert order == 5616
    assert hashlib.sha256(census_csv(hist, mx, order).encode()).hexdigest() == SL3_Z3_FACTORS_SHA256
    # one RingElement per factor (53,892) and two per determinant check: the
    # reducer reads, compares and divides payloads (391,230 when it boxed them)
    bound = sum(c * f for c, f in hist.items()) + 2 * order
    assert bound == 65_124 and made <= bound
