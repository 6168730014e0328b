"""Exact arithmetic in the supported commutative rings and their ideals.

Supported rings: Z, Z/m, F_p[x] for prime p, and Z[1/p].  Every element is
kept in a unique canonical form, its payload, so equality is structural and
values hash safely:

  Z       arbitrary-precision int
  Z/m     residue int in [0, m)
  F_p[x]  p odd: tuple of coefficients in [0, p), ascending degree, no trailing zeros
  F_2[x]  int >= 0 whose bit i is the coefficient of x^i
  Z[1/p]  pair (n, k) meaning n * p**k with p not dividing n; zero is (0, 0)

Each ring kind has one kernel class, which holds all of the kind's
payload-level code: arithmetic, coercion, the text format, units, division,
and the per-kind helpers of factorization and reduction; F_2[x], with its
bitmask payload, has a kernel of its own, picked from p.  The extended gcd
is written once, on the base kernel: a Euclidean kernel supplies quotient
and normal (the unit that makes an element canonical), and Z[1/p] rescales
the integer gcd of its numerators.  Kernels are stateless, so all equal
RingSpecs share the one made with the first of them, and nothing
dispatches on the kind after that.  RingElement arithmetic is
the ring check plus one kernel call.  The check compares ring identity
first and falls back to equality only for two distinct but equal RingSpecs.

All four rings are principal ideal rings, so an ideal carries a cached
canonical generator and membership is a divisibility test.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cache
from itertools import zip_longest
from math import gcd

from .errors import MismatchedRings, UnsupportedRing

KIND_Z = "Z"
KIND_ZMOD = "Zmod"
KIND_POLY = "PolyFp"
KIND_ZINV = "ZinvP"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _trim(coeffs: list[int]) -> tuple:
    """Drop trailing zeros from coeffs, in place; return them as a tuple."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pack(coeffs, k: int) -> int:
    """coeffs as one int, coefficient i in bytes [k*i, k*(i+1)), little-endian."""
    return int.from_bytes(b"".join(c.to_bytes(k, "little") for c in coeffs), "little")


# -- one kernel per ring kind ------------------------------------------------------


class _Kernel:
    """Payload-level code of one ring kind.

    Every method takes and returns canonical payloads, except el, which
    coerces raw input.  div and inverse return None when no answer exists.
    A Euclidean kernel (euclidean set) supplies norm, quotient (Euclidean
    division) and normal(a), the unit that makes a canonical; xgcd is then
    the one extended Euclid below.  shell(s) lists the elements a shift
    search adds at shell s >= 1, and units() the units a unit search tries.
    """

    finite = False
    domain = True
    euclidean = True
    is_zero = operator.not_  # builtins do not bind: self.is_zero(a) is not_(a)

    def __init__(self, m: int, p: int):
        self.m, self.p = m, p
        self.zero, self.one = self.el(0), self.el(1)
        self.minus_one = self.neg(self.one)

    def x(self):
        raise UnsupportedRing("x only exists in polynomial rings")

    def canonical(self, gens: list) -> object:
        """The canonical generator of the ideal generated by gens."""
        return self.xgcd(gens)[0]

    def xgcd(self, elems):
        """(g, coeffs) with g = sum coeffs[i] * elems[i] the canonical gcd:
        extended Euclid on quotient, folded over elems one at a time."""
        add, mul, neg, quotient, is_zero, one = self.add, self.mul, self.neg, self.quotient, self.is_zero, self.one
        g, coeffs = self.zero, []
        for e in elems:
            # rows (r, s, t) with r = s g + t e; a first step from a zero g only swaps them
            r0, s0, t0, r1, s1, t1 = g, one, self.zero, e, self.zero, one
            if is_zero(g) and not is_zero(e):
                r0, s0, t0, r1, s1, t1 = r1, s1, t1, r0, s0, t0
            while not is_zero(r1):
                q = neg(quotient(r0, r1))
                r0, s0, t0, r1, s1, t1 = r1, s1, t1, add(r0, mul(q, r1)), add(s0, mul(q, s1)), add(t0, mul(q, t1))
            u = self.normal(r0)
            g, s, t = (r0, s0, t0) if u == one else (mul(r0, u), mul(s0, u), mul(t0, u))
            coeffs = [mul(c, s) for c in coeffs] + [t]
        return g, coeffs


class _ZKernel(_Kernel):
    add, neg, mul = operator.add, operator.neg, operator.mul

    def el(self, raw):
        return int(raw)

    def descriptor(self) -> str:
        return "Z"

    format, parse = str, int  # types do not bind: self.format(a) is str(a)

    def inverse(self, a):
        return a if a in (1, -1) else None

    def div(self, a, b):
        q, r = divmod(a, b)
        return None if r else q

    def norm(self, a) -> int:
        return abs(a)

    quotient = operator.floordiv  # Z/m inherits it: a // b of residues is a residue

    def normal(self, a):
        return -1 if a < 0 else 1

    def shell(self, s: int) -> list:
        return [s, -s]

    def units(self) -> list:
        return [1, -1]


class _ZmodKernel(_ZKernel):
    """Z/m; the Euclidean norm is the lift to [0, m)."""

    finite = True

    def __init__(self, m: int, p: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        super().__init__(m, p)
        self.domain = is_prime(self.m)

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return -a % self.m

    def mul(self, a, b):
        return a * b % self.m

    def el(self, raw):
        return int(raw) % self.m

    def descriptor(self) -> str:
        return f"Z/{self.m}"

    def parse(self, text: str):
        v = int(text)
        if not 0 <= v < self.m:
            raise ValueError(f"residue {v} out of range for {self.descriptor()}")
        return v

    def inverse(self, a):
        return pow(a, -1, self.m) if gcd(a, self.m) == 1 else None

    def div(self, a, b):
        # solve q*b = a in Z/m; a solution exists iff gcd(b, m) | a
        if b and self.m % b == 0:  # b = gcd(b, m), as for an ideal's canonical generator
            return None if a % b else a // b
        g, (s, _) = _Z.xgcd([b, self.m])
        return None if a % g else a // g * s % self.m

    def canonical(self, gens):
        g = self.m
        for e in gens:
            g = gcd(g, e)
        return g % self.m

    def shell(self, s):
        return [s] if s < self.m else []

    def units(self):
        return [a for a in range(self.m) if gcd(a, self.m) == 1]


class _PolyKernel(_Kernel):
    """F_p[x]; the Euclidean norm is degree + 1, and gcds are monic."""

    def __init__(self, m: int, p: int):
        if not is_prime(p):
            raise ValueError("coefficient characteristic must be prime")
        super().__init__(m, p)
        self._mod_p = bytes(v % p for v in range(256))  # bytes.translate table

    def add(self, a, b):
        p = self.p
        return _trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])

    def neg(self, a):
        return tuple(-c % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        bound = min(len(a), len(b)) * (self.p - 1) ** 2
        return self._kronecker(a, b, bound, len(a) + len(b) - 1)

    def _kronecker(self, a, b, bound: int, length: int):
        """a b with a and b packed into ints, one coefficient per k-byte slot.

        k is the fewest bytes that hold bound, the largest slot value of a b before
        reduction mod p, so no slot carries; the result's length slots, mod p, are its coefficients."""
        k = (bound.bit_length() + 7) // 8
        if k == 1:
            r = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return tuple(r.to_bytes(length, "little").translate(self._mod_p).rstrip(b"\0"))
        r = (_pack(a, k) * _pack(b, k)).to_bytes(k * length, "little")
        return _trim([int.from_bytes(r[i:i + k], "little") % self.p for i in range(0, len(r), k)])

    def el(self, raw):
        return _trim([int(c) % self.p for c in ([raw] if isinstance(raw, int) else raw)])

    def x(self):
        return (0, 1)

    def descriptor(self) -> str:
        return f"F{self.p}[x]"

    def format(self, a) -> str:
        return ",".join(map(str, a)) if a else "0"

    def parse(self, text: str):
        return self.el([int(c) for c in text.split(",")])

    def inverse(self, a):
        return (pow(a[0], -1, self.p),) if len(a) == 1 else None

    def divmod(self, a, b):
        p = self.p
        a = list(a)
        inv_lead = pow(b[-1], -1, p)
        q = [0] * max(0, len(a) - len(b) + 1)
        while len(a) >= len(b) and a:
            shift = len(a) - len(b)
            c = (a[-1] * inv_lead) % p
            q[shift] = c
            for i, cb in enumerate(b):
                a[shift + i] = (a[shift + i] - c * cb) % p
            _trim(a)
        return _trim(q), tuple(a)

    def div(self, a, b):
        q, r = self.divmod(a, b)
        return None if r else q

    def norm(self, a) -> int:
        return len(a)

    def quotient(self, a, b):
        return self.divmod(a, b)[0]

    def normal(self, a):
        return (pow(a[-1], -1, self.p),) if a else self.one

    def shell(self, s):
        digits = []
        while s:
            digits.append(s % self.p)
            s //= self.p
        return [self.el(digits)]

    def units(self):
        return [(c,) for c in range(1, self.p)]


class _F2Kernel(_PolyKernel):
    """F_2[x] as a bitmask: a sum is one XOR, a product carry-less."""

    add = operator.xor

    def neg(self, a):
        return a

    def mul(self, a, b):
        """One shift-XOR of the longer operand per set bit of the shorter."""
        if a.bit_length() > b.bit_length():
            a, b = b, a
        r = 0
        while a:
            low = a & -a
            r ^= b * low
            a ^= low
        return r

    def el(self, raw):
        return raw & 1 if isinstance(raw, int) else sum((int(c) & 1) << i for i, c in enumerate(raw))

    def x(self):
        return 2

    def format(self, a) -> str:
        return ",".join(f"{a:b}"[::-1]) if a else "0"

    def inverse(self, a):
        return 1 if a == 1 else None

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("division by ring zero")
        q, n = 0, b.bit_length()
        while (s := a.bit_length() - n) >= 0:
            q ^= 1 << s
            a ^= b << s
        return q, a

    norm = staticmethod(int.bit_length)

    def normal(self, a):
        return 1

    def shell(self, s):
        return [s]

    def units(self):
        return [1]


class _ZinvKernel(_Kernel):
    """Z[1/p]; no Euclidean row reduction is offered."""

    euclidean = False

    def __init__(self, m: int, p: int):
        if not is_prime(p):
            raise ValueError("inverted integer must be prime")
        super().__init__(m, p)

    def add(self, a, b):
        (n1, k1), (n2, k2) = a, b
        if n1 == 0:
            return b
        if n2 == 0:
            return a
        # with k1 != k2 the sum is congruent mod p to the n of the lower power, which p does not divide
        if k1 < k2:
            return (n1 + n2 * self.p ** (k2 - k1), k1)
        if k2 < k1:
            return (n1 * self.p ** (k1 - k2) + n2, k2)
        return self.el((n1 + n2, k1))

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        if a[0] == 0 or b[0] == 0:
            return (0, 0)
        return (a[0] * b[0], a[1] + b[1])

    def is_zero(self, a) -> bool:
        return a[0] == 0

    def el(self, raw):
        n, k = raw if isinstance(raw, tuple) else (int(raw), 0)
        if n == 0:
            return (0, 0)
        while n % self.p == 0:
            n //= self.p
            k += 1
        return (n, k)

    def descriptor(self) -> str:
        return f"Z[1/{self.p}]"

    def format(self, a) -> str:
        return f"{a[0]}*{self.p}^{a[1]}"

    def parse(self, text: str):
        if re.match(r"^-?\d+$", text):  # plain integers are accepted on input
            return self.el(int(text))
        m = re.match(r"^(-?\d+)\*(\d+)\^(-?\d+)$", text)
        if not m:
            raise ValueError(f"bad Z[1/p] literal {text!r}")
        n, p, k = (int(g) for g in m.groups())
        if p != self.p:
            raise ValueError(f"literal base {p} does not match ring prime {self.p}")
        return self.el((n, k))

    def inverse(self, a):
        return (a[0], -a[1]) if a[0] in (1, -1) else None

    def div(self, a, b):
        if a[0] == 0:
            return (0, 0)
        q, r = divmod(a[0], b[0])
        return None if r else self.el((q, a[1] - b[1]))

    def xgcd(self, elems):
        g, coeffs = _Z.xgcd([n for n, _ in elems])
        return self.el(g), [self.el((c, -k)) for c, (_, k) in zip(coeffs, elems)]

    def shell(self, s):
        return [self.el((sign * s, k)) for k in range(-2, 3) for sign in (1, -1)]

    def units(self):
        return [(1, 0), (-1, 0)] + [
            (u, sign * k) for k in range(1, 9) for sign in (1, -1) for u in (1, -1)
        ]


_KERNELS = {KIND_Z: _ZKernel, KIND_ZMOD: _ZmodKernel, KIND_POLY: _PolyKernel, KIND_ZINV: _ZinvKernel}


@cache
def _kernel(kind: str, modulus: int, prime: int) -> _Kernel:
    """The one kernel of each ring; a constructor that raises caches nothing."""
    return (_F2Kernel if kind == KIND_POLY and prime == 2 else _KERNELS[kind])(modulus, prime)


_Z = _kernel(KIND_Z, 0, 0)  # the integer Euclid of Z/m division and Z[1/p] gcds


@dataclass(frozen=True, slots=True)
class RingSpec:
    """A concrete commutative ring with unit; its kernel is bound when it is made."""

    kind: str
    modulus: int = 0  # Z/m only
    prime: int = 0  # F_p[x] and Z[1/p]
    kernel: _Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        object.__setattr__(self, "kernel", _kernel(self.kind, self.modulus, self.prime))

    # -- construction ------------------------------------------------------

    @staticmethod
    def integers() -> "RingSpec":
        return RingSpec(KIND_Z)

    @staticmethod
    def integers_mod(m: int) -> "RingSpec":
        return RingSpec(KIND_ZMOD, modulus=m)

    @staticmethod
    def poly_over_fp(p: int) -> "RingSpec":
        return RingSpec(KIND_POLY, prime=p)

    @staticmethod
    def localized_integers(p: int) -> "RingSpec":
        return RingSpec(KIND_ZINV, prime=p)

    @staticmethod
    def parse(text: str) -> "RingSpec":
        """Parse a ring descriptor: "Z" | "Z/<m>" | "F<p>[x]" | "Z[1/<p>]"."""
        if text == "Z":
            return RingSpec.integers()
        for pattern, make in (
            (r"^Z/(\d+)$", RingSpec.integers_mod),
            (r"^F(\d+)\[x\]$", RingSpec.poly_over_fp),
            (r"^Z\[1/(\d+)\]$", RingSpec.localized_integers),
        ):
            m = re.match(pattern, text)
            if m:
                return make(int(m.group(1)))
        raise ValueError(f"bad ring descriptor {text!r}")

    def descriptor(self) -> str:
        return self.kernel.descriptor()

    # -- structure predicates ---------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kernel.finite

    @property
    def is_domain(self) -> bool:
        return self.kernel.domain

    def residues(self):
        """All elements of a finite ring."""
        if not self.is_finite:
            raise UnsupportedRing(f"{self.descriptor()} is not finite")
        return [RingElement(self, r) for r in range(self.modulus)]

    # -- element construction ----------------------------------------------

    @property
    def zero(self) -> "RingElement":
        return RingElement(self, self.kernel.zero)

    @property
    def one(self) -> "RingElement":
        return RingElement(self, self.kernel.one)

    def el(self, raw) -> "RingElement":
        """Coerce an int, coefficient list, or (n, k) pair into this ring."""
        if isinstance(raw, RingElement):
            if raw.ring is not self and raw.ring != self:
                raise MismatchedRings(f"{raw} not in {self.descriptor()}")
            return raw
        return RingElement(self, self.kernel.el(raw))

    def x(self) -> "RingElement":
        """The indeterminate of F_p[x]."""
        return RingElement(self, self.kernel.x())


@dataclass(frozen=True, slots=True)
class RingElement:
    """An element of a RingSpec in canonical form."""

    ring: RingSpec
    payload: object

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "RingElement"):
        ring = self.ring
        if not isinstance(other, RingElement) or (other.ring is not ring and other.ring != ring):
            raise MismatchedRings(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, self.ring.kernel.add(self.payload, other.payload))

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, self.ring.kernel.neg(self.payload))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, self.ring.kernel.mul(self.payload, other.payload))

    @property
    def is_zero(self) -> bool:
        return self.ring.kernel.is_zero(self.payload)

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.ring.descriptor()}>"


# -- serialization -----------------------------------------------------------


def format_element(e: RingElement) -> str:
    return e.ring.kernel.format(e.payload)


def parse_element(ring: RingSpec, text: str) -> RingElement:
    return RingElement(ring, ring.kernel.parse(text))


# -- units, division, gcd ----------------------------------------------------


def unit_check(e: RingElement):
    """Return the inverse of e if e is a unit, else None."""
    inv = e.ring.kernel.inverse(e.payload)
    return None if inv is None else RingElement(e.ring, inv)


def is_unit(e: RingElement) -> bool:
    return unit_check(e) is not None


def exact_div(a: RingElement, b: RingElement) -> RingElement:
    """Return a / b when b exactly divides a; raise ValueError otherwise."""
    a._check(b)
    if b.is_zero:
        raise ZeroDivisionError("division by ring zero")
    q = a.ring.kernel.div(a.payload, b.payload)
    if q is None:
        raise ValueError(f"{a!r} not divisible by {b!r}")
    return RingElement(a.ring, q)


def extended_gcd(elems: list[RingElement]) -> tuple[RingElement, list[RingElement]]:
    """Return (g, coeffs) with g = sum coeffs[i]*elems[i] generating (elems)."""
    if not elems:
        raise ValueError("extended_gcd needs a nonempty list")
    ring = elems[0].ring
    for e in elems:
        e._check(elems[0])
    g, coeffs = ring.kernel.xgcd([e.payload for e in elems])
    return RingElement(ring, g), [RingElement(ring, c) for c in coeffs]


def is_unimodular(elems: list[RingElement]) -> tuple[bool, list[RingElement] | None]:
    """Check that elems generate the unit ideal; return (flag, Bezout coeffs)."""
    g, coeffs = extended_gcd(elems)
    inv = unit_check(g)
    if inv is None:
        return False, None
    return True, [inv * c for c in coeffs]


# -- ideals -------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal, with a cached canonical generator.

    Every supported ring is a principal ideal ring, so the canonical
    generator always exists: gcd of the generators, further gcd'd with the
    modulus in Z/m.  _divisor is its payload d (None for the zero ideal);
    _powers maps i to d^i, which congruence_level adds on first reach.
    """

    ring: RingSpec
    generators: tuple[RingElement, ...]
    canonical: RingElement = field(init=False)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("ideal needs at least one generator")
        for g in self.generators:
            if g.ring != self.ring:
                raise MismatchedRings("generator outside the parent ring")
        k = self.ring.kernel
        d = k.canonical([g.payload for g in self.generators])
        self.__dict__.update(canonical=RingElement(self.ring, d), _divisor=None if k.is_zero(d) else d,
                             _powers={0: k.one, 1: d})

    @staticmethod
    def of(ring: RingSpec, *raw) -> "Ideal":
        return Ideal(ring, tuple(ring.el(r) for r in raw))

    @property
    def is_zero(self) -> bool:
        return self._divisor is None

    def contains(self, e: RingElement) -> bool:
        """Ideal membership: one division of e by the canonical generator
        (_divisor, its payload); the zero ideal, with none, holds only 0."""
        if e.ring is not self.ring and e.ring != self.ring:
            raise MismatchedRings("element outside the ideal's ring")
        d = self._divisor
        return e.is_zero if d is None else self.ring.kernel.div(e.payload, d) is not None


def parse_ideal(ring: RingSpec, text: str) -> Ideal:
    """Generators separated by whitespace, each in the ring's element format
    (as a trace's ideal line writes them)."""
    return Ideal(ring, tuple(_parse_generator(ring, t) for t in text.split()))


def _parse_generator(ring: RingSpec, text: str) -> RingElement:
    try:
        return parse_element(ring, text)
    except ValueError as exc:
        raise ValueError(f"ideal generator {text!r} is not an element of {ring.descriptor()}: {exc}") from exc
