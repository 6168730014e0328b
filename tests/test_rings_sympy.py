"""The ring layer against sympy, as an independent reference.

Each element maps to sympy: Z to an Integer, Z/m to an Integer residue,
F_p[x] to a Poly over GF(p), Z[1/p] to a Rational.  Each model states the
ring's arithmetic, divisibility, units and ideals in sympy's terms, and
maps sympy values back, so that a result is also checked to be the
canonical element for its value.
"""

from functools import reduce

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul

from congwidth.rings import RingSpec, divides, exact_div, extended_gcd, unit_check

X = sp.Symbol("x")


class Integers:
    def __init__(self):
        self.ring = RingSpec.integers()

    def elements(self):
        return st.integers(-(10**6), 10**6).map(self.ring.el)

    def to_sympy(self, e):
        return sp.Integer(e.payload)

    def from_sympy(self, v):
        return self.ring.el(int(v))

    def reduce(self, v):
        return v

    def divisible(self, a, b):
        return a % b == 0

    def is_unit(self, a):
        return abs(a) == 1

    def generator(self, g):
        """A normal form of the generator g, equal for associates."""
        return abs(g)

    def gcd(self, vals):
        return reduce(sp.igcd, vals, sp.Integer(0))


class Residues(Integers):
    def __init__(self, m):
        self.m = m
        self.ring = RingSpec.integers_mod(m)

    def elements(self):
        return st.integers(0, self.m - 1).map(self.ring.el)

    def reduce(self, v):
        return v % self.m

    def divisible(self, a, b):
        return a % sp.igcd(b, self.m) == 0

    def is_unit(self, a):
        return sp.igcd(a, self.m) == 1

    def generator(self, g):
        return sp.igcd(g, self.m)

    def gcd(self, vals):
        return reduce(sp.igcd, vals, sp.Integer(self.m))


class Polynomials:
    def __init__(self, p):
        self.p = p
        self.ring = RingSpec.poly_over_fp(p)

    def elements(self):
        return st.lists(st.integers(0, self.p - 1), max_size=6).map(self.ring.el)

    def to_sympy(self, e):
        return sp.Poly(list(reversed(e.payload)) or [0], X, modulus=self.p)

    def from_sympy(self, v):
        return self.ring.el([int(c) for c in reversed(v.all_coeffs())])

    def reduce(self, v):
        return v

    def divisible(self, a, b):
        return a.rem(b).is_zero

    def is_unit(self, a):
        return a.is_ground and not a.is_zero

    def generator(self, g):
        return g if g.is_zero else g.monic()

    def gcd(self, vals):
        return reduce(lambda a, b: a.gcd(b), vals, sp.Poly(0, X, modulus=self.p))


class Localized:
    def __init__(self, p):
        self.p = p
        self.ring = RingSpec.localized_integers(p)

    def elements(self):
        pairs = st.tuples(st.integers(-500, 500), st.integers(-4, 4))
        return pairs.map(self.ring.el)

    def to_sympy(self, e):
        n, k = e.payload
        return sp.Rational(n) * sp.Rational(self.p) ** k

    def from_sympy(self, v):
        assert self._p_power(v.q)
        return self.ring.el((int(v.p), -sp.multiplicity(self.p, v.q)))

    def reduce(self, v):
        return v

    def _p_power(self, v):
        """True iff the positive integer v is a power of p."""
        return set(sp.factorint(v)) <= {self.p}

    def divisible(self, a, b):
        return self._p_power((a / b).q)

    def is_unit(self, a):
        return a != 0 and self._p_power(abs(a.p)) and self._p_power(a.q)

    def _p_free(self, v):
        v = abs(v)
        return v // self.p ** sp.multiplicity(self.p, v) if v else v

    def generator(self, g):
        return self._p_free(g.p)

    def gcd(self, vals):
        return sp.Integer(reduce(sp.igcd, [v.p for v in vals], 0))


MODELS = [
    Integers(),
    Residues(4),
    Residues(12),
    Residues(7),
    Polynomials(2),
    Polynomials(7),
    Localized(5),
]
IDS = [m.ring.descriptor() for m in MODELS]


def assert_denotes(model, e, v):
    """e is the canonical element for the sympy value v."""
    assert model.to_sympy(e) == model.reduce(v)
    assert e == model.from_sympy(model.reduce(v))


@pytest.mark.parametrize("model", MODELS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_sympy(model, data):
    a, b = data.draw(model.elements()), data.draw(model.elements())
    sa, sb = model.to_sympy(a), model.to_sympy(b)
    assert_denotes(model, a + b, sa + sb)
    assert_denotes(model, a * b, sa * sb)
    assert_denotes(model, a - b, sa - sb)
    assert_denotes(model, -a, -sa)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_division_matches_sympy(model, data):
    a, b = data.draw(model.elements()), data.draw(model.elements())
    sa, sb = model.to_sympy(a), model.to_sympy(b)
    if sb == 0:
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)
        assert divides(b, a) == (sa == 0)
        return
    ok = model.divisible(sa, sb)
    assert divides(b, a) == ok
    if ok:
        q = exact_div(a, b)
        assert_denotes(model, q, model.to_sympy(q))
        assert model.reduce(model.to_sympy(q) * sb) == sa
    else:
        with pytest.raises(ValueError):
            exact_div(a, b)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_check_matches_sympy(model, data):
    a = data.draw(model.elements())
    sa = model.to_sympy(a)
    inv = unit_check(a)
    assert (inv is not None) == model.is_unit(sa)
    if inv is not None:
        assert_denotes(model, inv, model.to_sympy(inv))
        assert model.reduce(model.to_sympy(inv) * sa) == 1


@pytest.mark.parametrize("model", MODELS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extended_gcd_generates_sympy_gcd(model, data):
    elems = data.draw(st.lists(model.elements(), min_size=1, max_size=4))
    g, _ = extended_gcd(elems)
    assert_denotes(model, g, model.to_sympy(g))
    expected = model.gcd([model.to_sympy(e) for e in elems])
    assert model.generator(model.to_sympy(g)) == model.generator(expected)



# -- F_p[x] sums and products over long operands ---------------------------------
#
# The kernel packs each coefficient into a slot of k bytes, k set by the
# largest value a slot can reach (min(len) * (p-1)**2 for a product, 2*(p-1)
# for a sum).  The primes sit on both sides of each k boundary, and lengths
# run to 300, past the 255 at which an F2[x] product needs two-byte slots.
# sympy's dense GF(p) arithmetic is the oracle here: Poly products this long
# take tens of milliseconds each.

SLOT_PRIMES = [2, 3, 13, 17, 251, 257, 65537]


def schoolbook_add(p, a, b):
    """The reference sum: coefficientwise, mod p, trailing zeros trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_mul(p, a, b):
    """The reference product: the double loop over coefficient pairs."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def sympy_gf(op, p, a, b):
    """op (gf_add or gf_mul) on ascending payloads, through sympy's descending lists."""
    return tuple(reversed(op(list(reversed(a)), list(reversed(b)), p, ZZ)))


@st.composite
def long_polys(draw, p, max_len=300):
    """A canonical F_p[x] payload of a uniformly drawn length 0..max_len."""
    n = draw(st.integers(0, max_len))
    rnd = draw(st.randoms(use_true_random=False))
    return tuple(rnd.randrange(p) for _ in range(n - 1)) + ((rnd.randrange(1, p),) if n else ())


@pytest.mark.parametrize("p", SLOT_PRIMES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_long_sums_and_products_match_sympy_and_schoolbook(p, data):
    k = RingSpec.poly_over_fp(p).kernel
    a, b = data.draw(long_polys(p)), data.draw(long_polys(p))
    assert k.add(a, b) == schoolbook_add(p, a, b) == sympy_gf(gf_add, p, a, b)
    assert k.mul(a, b) == schoolbook_mul(p, a, b) == sympy_gf(gf_mul, p, a, b)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_extreme_coefficients_fill_every_slot_size(p):
    # all coefficients p-1: the middle slot of a product reaches its bound
    # min(len) * (p-1)**2 exactly, so a slot one byte too narrow would carry
    k = RingSpec.poly_over_fp(p).kernel
    for la, lb in [(1, 1), (1, 300), (2, 2), (63, 63), (64, 64), (255, 255), (256, 256), (300, 320)]:
        a, b = (p - 1,) * la, (p - 1,) * lb
        assert k.mul(a, b) == schoolbook_mul(p, a, b)
        assert k.add(a, b) == schoolbook_add(p, a, b)


def test_f2_product_past_one_byte_slots():
    # min(len) >= 300 > 255: an F2[x] product needs two-byte slots
    k = RingSpec.poly_over_fp(2).kernel
    a = tuple(i % 3 % 2 for i in range(299)) + (1,)
    b = (1,) * 320
    for x, y in [(a, b), (b, b), (a, a)]:
        assert k.mul(x, y) == schoolbook_mul(2, x, y) == sympy_gf(gf_mul, 2, x, y)
