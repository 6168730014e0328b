"""Conjugation-invariant norms as exact-rational evaluators.

A norm here is a function on a group domain satisfying, exactly:
positivity, definiteness (zero only at the identity), symmetry under
inversion, the triangle inequality, and invariance under conjugation.
Everything is checked with exact rational arithmetic; the axiom harness
samples tuples and reports any violating tuple verbatim.

A group domain is any object with mul(a, b), inv(a), is_identity(a) and
sample(rng).  Three domains are given directly: a matrix group with a bounded
random-product sampler over designated generators, a finite group table (its
elements are indices), and the pairs of an ideal with a box sampler (Z^2 is
the pairs of the unit ideal of Z).  Two more are built by the constructions:
the direct product of two domains and the quotient by a finite central
subgroup, which compares elements by value (matrices, ring-element pairs and
ints all hash by value).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .census import FiniteGroupTable
from .errors import (
    BadTransversal,
    CapAmbiguous,
    InnerUnbounded,
    MismatchedRings,
    NoSmallVector,
    NotCentral,
    TrivialInput,
    UnsupportedRing,
    ZeroIdeal,
)
from .matrices import SqMatrix, _off_identity, congruence_level, identity, mat_inv
from .rings import Ideal, RingSpec, is_prime


# -- group domains ------------------------------------------------------------


class MatrixGroupDomain:
    """Matrix group sampled by bounded random products of generators."""

    def __init__(self, ring: RingSpec, n: int, generators: list[SqMatrix], radius: int = 8):
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        # (g, g^-1), each as the nonzero entries (r, c, x) of letter - I: sampling inverts nothing
        self.letters = [(_off_identity(g), _off_identity(mat_inv(g))) for g in generators]
        self.radius = radius
        self.one = identity(ring, n)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return mat_inv(a)

    def is_identity(self, a) -> bool:
        return a == self.one

    def sample(self, rng: random.Random):
        """out (I + D) = out + out D: row[c] += old[r] * x per entry of D, old the row before it."""
        one = self.one
        add, mul = one.ring.kernel.add, one.ring.kernel.mul
        rows = list(map(list, one.payload))
        for _ in range(rng.randint(0, self.radius)):
            g, ginv = rng.choice(self.letters)
            entries = ginv if rng.random() < 0.5 else g
            if len(entries) == 1:  # row[r] is read before the one write: old is row itself
                (r, c, x), = entries
                for row in rows:
                    row[c] = add(row[c], mul(row[r], x))
                continue
            for row in rows:
                old = row[:]
                for r, c, x in entries:
                    row[c] = add(row[c], mul(old[r], x))
        return SqMatrix._of(one.ring, one.n, tuple(map(tuple, rows)))


class FiniteGroupDomain:
    """A census table's group; elements are Python-int indices, multiplied by
    its product table, so a group over the table cap raises BudgetExceeded."""

    def __init__(self, table: FiniteGroupTable):
        self.table = table
        self.size = len(table)
        self.products = table.mul
        self.inverses = table.inv.tolist()  # |G| ints, |G| <= 2^13 under the table cap

    def mul(self, a, b):
        return self.products.item(a, b)

    def inv(self, a):
        return self.inverses[a]

    def is_identity(self, a) -> bool:
        return a == 0

    def sample(self, rng: random.Random):
        return rng.randrange(self.size)


class IdealPairDomain:
    """The additive group q + q (pairs of ideal elements) with a box sampler."""

    def __init__(self, ideal: Ideal, box: int = 64):
        if ideal.is_zero:
            raise ZeroIdeal("ideal pair domain needs a nonzero ideal")
        if box < 0:
            raise ValueError(f"box must be >= 0, got {box}")
        self.ideal = ideal
        self.ring = ideal.ring
        self.box = box

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])

    def is_identity(self, a) -> bool:
        return a[0].is_zero and a[1].is_zero

    def sample(self, rng: random.Random):
        d = self.ideal.canonical
        x = d * self.ring.el(rng.randint(-self.box, self.box))
        y = d * self.ring.el(rng.randint(-self.box, self.box))
        return (x, y)


class ProductDomain:
    """Direct product of two domains, elements are pairs."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def is_identity(self, a) -> bool:
        return self.left.is_identity(a[0]) and self.right.is_identity(a[1])

    def sample(self, rng: random.Random):
        return (self.left.sample(rng), self.right.sample(rng))


class QuotientDomain:
    """Quotient by a finite central subgroup; elements are representatives."""

    def __init__(self, base, central: list):
        self.base = base
        self.central = set(central)

    def mul(self, a, b):
        return self.base.mul(a, b)

    def inv(self, a):
        return self.base.inv(a)

    def is_identity(self, a) -> bool:
        return a in self.central

    def sample(self, rng: random.Random):
        return self.base.sample(rng)


# -- the evaluator object -------------------------------------------------------


@dataclass(frozen=True)
class NormEval:
    """A conjugation-invariant norm: a group domain and an exact value function.

    Values are exact rationals: an int (a word norm's, a filtration norm's 0 and 1) or a Fraction."""

    domain: object
    value: Callable[[object], Rational]


# -- constructions ----------------------------------------------------------------


def dirac_norm(domain) -> NormEval:
    """0 at the identity, 1 everywhere else."""

    def fn(g):
        return Fraction(0) if domain.is_identity(g) else Fraction(1)

    return NormEval(domain, fn)


@dataclass(frozen=True)
class FiltrationChain:
    """Descending chain of principal congruence subgroups, levels 0 to cap."""

    domain: MatrixGroupDomain
    ideal: Ideal
    cap: int = 64

    def __post_init__(self):
        if self.ideal.is_zero:
            raise ZeroIdeal("filtration chain needs a nonzero ideal")
        if self.domain.one.ring != self.ideal.ring:
            raise MismatchedRings("element outside the ideal's ring")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


def filtration_norm(chain: FiltrationChain) -> NormEval:
    """2^-i on the i-th congruence layer, 0 at the identity; ints at level 0 and the identity."""
    ideal, cap, values = chain.ideal, chain.cap, {0: 1}

    def fn(g):
        datum = congruence_level(g, ideal, cap)
        if datum.is_identity:
            return 0
        if (level := datum.level) is None:
            raise CapAmbiguous(f"non-identity element beyond level cap {cap}")
        return values.get(level) or values.setdefault(level, Fraction(1, 2**level))

    return NormEval(chain.domain, fn)


def bounded_transform(norm: NormEval) -> NormEval:
    """x / (1 + x): a bounded norm with the same ordering of values."""

    def fn(g):
        x = norm.value(g)
        return Fraction(x, 1 + x)

    return NormEval(norm.domain, fn)


def singular_extension(inner: NormEval, ambient, member) -> NormEval:
    """inner on the normal subgroup, constant 1 outside it.

    Requires inner bounded by 1 (checked on 64 seeded samples at
    construction and again on every evaluation) and invariance of inner
    under ambient conjugation (checked on the same samples).  Samples that
    are all the identity check nothing and raise TrivialInput.
    """
    rng = random.Random(0)
    samples = [(inner.domain.sample(rng), ambient.sample(rng)) for _ in range(64)]
    if all(inner.domain.is_identity(n) for n, _ in samples):
        raise TrivialInput("singular extension: no check sample is off the identity")
    for n, h in samples:
        v = inner.value(n)
        if v > 1:
            raise InnerUnbounded(f"inner norm value {v} exceeds 1")
        conj = ambient.mul(ambient.mul(h, n), ambient.inv(h))
        if member(conj) and inner.value(conj) != v:
            raise InnerUnbounded("inner norm is not invariant under ambient conjugation")

    def fn(g):
        if member(g):
            v = inner.value(g)
            if v > 1:
                raise InnerUnbounded(f"inner norm value {v} exceeds 1")
            return v
        return Fraction(1)

    return NormEval(ambient, fn)


def quotient_norm(norm: NormEval, central: list) -> NormEval:
    """min over the central coset: a norm on the quotient group.

    Centrality is checked against 32 seeded samples per element of central;
    samples that are all the identity check nothing and raise TrivialInput.
    """
    dom = norm.domain
    rng = random.Random(0)
    samples = [(a, dom.sample(rng)) for a in central for _ in range(32)]
    if all(dom.is_identity(s) for _, s in samples):
        raise TrivialInput("quotient: no check sample is off the identity")
    for a, s in samples:
        if dom.mul(s, a) != dom.mul(a, s):
            raise NotCentral("supplied subgroup is not central")

    def fn(g):
        return min(norm.value(dom.mul(g, a)) for a in central)

    return NormEval(QuotientDomain(dom, central), fn)


def average_norm(norm: NormEval, reps: list, index: int, member) -> NormEval:
    """Arithmetic mean of the conjugated evaluations over a transversal."""
    if index != len(reps):
        raise BadTransversal(f"expected {index} representatives, got {len(reps)}")
    dom = norm.domain
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if member(dom.mul(dom.inv(reps[i]), reps[j])):
                raise BadTransversal(f"representatives {i} and {j} share a coset")

    def fn(g):
        total = Fraction(0)
        for s in reps:
            total += norm.value(dom.mul(dom.mul(s, g), dom.inv(s)))
        return total / index

    return NormEval(dom, fn)


def product_sum_norm(norm_left: NormEval, norm_right: NormEval) -> NormEval:
    """Coordinate-wise sum on the direct product."""

    def fn(g):
        return norm_left.value(g[0]) + norm_right.value(g[1])

    return NormEval(ProductDomain(norm_left.domain, norm_right.domain), fn)


# -- p-adic flavored norms ---------------------------------------------------------


def p_abs(x: int, p: int) -> Fraction:
    """p-adic absolute value on Z with |0| = 0."""
    if x == 0:
        return Fraction(0)
    scale = 1
    while x % p == 0:
        x //= p
        scale *= p
    return Fraction(1, scale)


def _check_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"p-adic norms need a prime p, got {p}")


def z2_mixed_norm(p: int, box: int = 1000) -> NormEval:
    """max(|x|_p / 2, |y|) on Z^2, the pairs of the unit ideal of Z:
    non-discrete, unbounded, invariant under the shear (x, y) -> (x + y, y)."""
    _check_prime(p)

    def fn(g):
        x, y = g
        return max(p_abs(x.payload, p) / 2, Fraction(abs(y.payload)))

    return NormEval(IdealPairDomain(Ideal.of(RingSpec.integers(), 1), box), fn)


def padic_sup_norm(ideal: Ideal, p: int, box: int = 64) -> NormEval:
    """sup of p-adic absolute values on pairs of elements of an ideal of Z;
    exactly invariant under the elementary shears with entries in the ideal."""
    _check_prime(p)
    if ideal.ring != RingSpec.integers():
        raise UnsupportedRing(f"the p-adic sup norm needs an ideal of Z, not of {ideal.ring.descriptor()}")

    def fn(g):
        return max(p_abs(g[0].payload, p), p_abs(g[1].payload, p))

    return NormEval(IdealPairDomain(ideal, box), fn)


def shrink_ideal(norm: NormEval, epsilon: Fraction, *, seed: int = 0):
    """Find (x, y) in the pair domain with 6*norm((x, y)) <= epsilon and return
    the principal ideal generated by x^3 together with the witness and the
    number of violations in 1000 seeded samples of the x^3-multiples, which
    should stay inside the epsilon ball.

    Candidates (x, y) = d * (i, j) with i != 0, d the ideal's canonical
    generator, are tried by growing max(|i|, |j|) up to 128: 65,792 of them.

    Exhaustion raises NoSmallVector: at desk scale this signals discreteness
    at the search scale, not an error in the norm.
    """
    dom = norm.domain
    ring = dom.ring
    d = dom.ideal.canonical
    shells = ((d * ring.el(i), d * ring.el(j))
              for shell in range(1, 129) for i in range(-shell, shell + 1) if i
              for j in (range(-shell, shell + 1) if abs(i) == shell else (-shell, shell)))
    tried = 0
    for tried, witness in enumerate(shells, start=1):
        if 6 * norm.value(witness) <= epsilon:
            break
    else:
        raise NoSmallVector(f"no pair with 6*norm <= {epsilon}", tried)
    x, _ = witness
    cube = x * x * x
    shrunk = Ideal(ring, (cube,))
    rng = random.Random(seed)
    violations = 0
    for _ in range(1000):
        a = ring.el(rng.randint(-dom.box, dom.box))
        b = ring.el(rng.randint(-dom.box, dom.box))
        v = (a * cube, b * cube)
        if norm.value(v) > epsilon:
            violations += 1
    return shrunk, witness, violations


# -- word norms ---------------------------------------------------------------------


def conjugation_closure(table: FiniteGroupTable, seeds: list[int]) -> list[int]:
    """Close a set of element indices under conjugation and inversion: the
    conjugacy classes of the seeds and their inverses, read as the table's
    E(q)-classes for q = (1), where E(q) is all of SL_n."""
    cong = table.congruence(Ideal.of(table.ring, 1))
    starts = [*seeds, *table.inv[list(seeds)].tolist()]
    return sorted(set(cong.members[cong.cls[starts]].ravel().tolist()))


def word_norm_eval(table: FiniteGroupTable, generators: list[int]) -> NormEval:
    """Word-length norm as an evaluator; needs the set to be symmetric,
    conjugation-closed, and to generate the whole table."""
    dist = table.word_distances(generators)
    if (dist < 0).any():
        raise ValueError("generator set does not generate the whole group")
    dist = dist.tolist()
    size = len(dist)

    def fn(g):
        if type(g) is int and 0 <= g < size:
            return dist[g]
        return dist[table.idx(g)]

    return NormEval(FiniteGroupDomain(table), fn)


# -- the axiom harness -----------------------------------------------------------


@dataclass
class HarnessReport:
    samples: int
    seed: int
    violations: dict
    examples: dict

    @property
    def passed(self) -> bool:
        return all(v == 0 for v in self.violations.values())

    def render(self) -> str:
        lines = []
        for axiom in ("positivity", "definiteness", "symmetry", "triangle", "conjugation"):
            lines.append(
                f"axiom={axiom} samples={self.samples} violations={self.violations[axiom]}"
            )
            for ex in self.examples.get(axiom, []):
                lines.append(f"  violating tuple: {ex}")
        return "\n".join(lines) + "\n"


def axiom_harness(norm: NormEval, samples: int = 1000, seed: int = 0) -> HarnessReport:
    """Check the five norm axioms on sampled tuples with exact comparisons.

    Violations are report content, never exceptions; each violating tuple is
    recorded verbatim (up to 3 per axiom).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    dom = norm.domain
    rng = random.Random(seed)
    violations = {k: 0 for k in ("positivity", "definiteness", "symmetry", "triangle", "conjugation")}
    examples: dict = {}

    def record(axiom, tup):
        violations[axiom] += 1
        examples.setdefault(axiom, [])
        if len(examples[axiom]) < 3:
            examples[axiom].append(repr(tup))

    for _ in range(samples):
        g = dom.sample(rng)
        h = dom.sample(rng)
        vg = norm.value(g)
        if vg < 0:
            record("positivity", g)
        if (vg == 0) != dom.is_identity(g):
            record("definiteness", g)
        if norm.value(dom.inv(g)) != vg:
            record("symmetry", g)
        if norm.value(dom.mul(g, h)) > vg + norm.value(h):
            record("triangle", (g, h))
        if norm.value(dom.mul(dom.mul(h, g), dom.inv(h))) != vg:
            record("conjugation", (g, h))
    return HarnessReport(samples, seed, violations, examples)
