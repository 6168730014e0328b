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
