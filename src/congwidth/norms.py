"""Conjugation-invariant norms as exact-rational evaluators.

A norm here is a function on a group domain satisfying, exactly:
positivity, definiteness (zero only at the identity), symmetry under
inversion, the triangle inequality, and invariance under conjugation.
Everything is checked with exact rational arithmetic; the axiom harness
samples tuples and reports any violating tuple verbatim.

Group domains are described one of three ways: a finite multiplication
table, a matrix group with a bounded random-product sampler over designated
generators, or Z^2 with a box sampler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .census import FiniteGroupTable, closure_bfs
from .errors import (
    BadTransversal,
    CapAmbiguous,
    InnerUnbounded,
    NoSmallVector,
    NotCentral,
    ZeroIdeal,
)
from .matrices import SqMatrix, congruence_level, identity, mat_inv
from .rings import Ideal, RingElement, RingSpec


# -- group domains ------------------------------------------------------------


class MatrixGroupDomain:
    """Matrix group sampled by bounded random products of generators."""

    def __init__(self, ring: RingSpec, n: int, generators: list[SqMatrix], radius: int = 8):
        self.ring = ring
        self.n = n
        self.generators = list(generators)
        self.radius = radius
        self.name = f"SL{n}({ring.descriptor()})"

    def identity(self):
        return identity(self.ring, self.n)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return mat_inv(a)

    def is_identity(self, a) -> bool:
        return a == self.identity()

    def key(self, a):
        return a.key()

    def sample(self, rng: random.Random):
        out = self.identity()
        for _ in range(rng.randint(0, self.radius)):
            g = rng.choice(self.generators)
            if rng.random() < 0.5:
                g = mat_inv(g)
            out = out * g
        return out


class FiniteGroupDomain:
    """Domain backed by a census multiplication table."""

    def __init__(self, table: FiniteGroupTable):
        self.table = table
        self.name = f"SL{table.n}({table.ring.descriptor()})[table]"

    def identity(self):
        return identity(self.table.ring, self.table.n)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return mat_inv(a)

    def is_identity(self, a) -> bool:
        return a == self.identity()

    def key(self, a):
        return a.key()

    def sample(self, rng: random.Random):
        return self.table.elements[rng.randrange(len(self.table.elements))]


class Z2Domain:
    """The additive group Z^2 with a box sampler."""

    def __init__(self, box: int = 1000):
        self.box = box
        self.name = "Z^2"

    def identity(self):
        return (0, 0)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])

    def is_identity(self, a) -> bool:
        return a == (0, 0)

    def key(self, a):
        return a

    def sample(self, rng: random.Random):
        return (rng.randint(-self.box, self.box), rng.randint(-self.box, self.box))


class IdealPairDomain:
    """The additive group q + q (pairs of ideal elements) with a box sampler."""

    def __init__(self, ideal: Ideal, box: int = 64):
        self.ideal = ideal
        self.ring = ideal.ring
        self.box = box
        self.name = f"{ideal.describe()}^2"

    def identity(self):
        z = self.ring.zero
        return (z, z)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])

    def is_identity(self, a) -> bool:
        return a[0].is_zero and a[1].is_zero

    def key(self, a):
        return (a[0].payload, a[1].payload)

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
        self.name = f"{left.name} x {right.name}"

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def is_identity(self, a) -> bool:
        return self.left.is_identity(a[0]) and self.right.is_identity(a[1])

    def key(self, a):
        return (self.left.key(a[0]), self.right.key(a[1]))

    def sample(self, rng: random.Random):
        return (self.left.sample(rng), self.right.sample(rng))


class QuotientDomain:
    """Quotient by a finite central subgroup; elements are representatives."""

    def __init__(self, base, central: list):
        self.base = base
        self.central_keys = {base.key(a) for a in central}
        self.name = f"{base.name}/A"

    def identity(self):
        return self.base.identity()

    def mul(self, a, b):
        return self.base.mul(a, b)

    def inv(self, a):
        return self.base.inv(a)

    def is_identity(self, a) -> bool:
        return self.base.key(a) in self.central_keys

    def key(self, a):
        return self.base.key(a)

    def sample(self, rng: random.Random):
        return self.base.sample(rng)


# -- the evaluator object -------------------------------------------------------


@dataclass(frozen=True)
class NormEval:
    """A conjugation-invariant norm: exact rational values plus metadata."""

    domain: object
    fn: object  # element -> Fraction
    tag: str
    invariance_scope: str
    params: tuple = ()

    def value(self, g) -> Fraction:
        return self.fn(g)


# -- constructions ----------------------------------------------------------------


def dirac_norm(domain) -> NormEval:
    """0 at the identity, 1 everywhere else."""

    def fn(g):
        return Fraction(0) if domain.is_identity(g) else Fraction(1)

    return NormEval(domain, fn, "dirac", domain.name)


@dataclass(frozen=True)
class FiltrationChain:
    """Descending chain of principal congruence subgroups with value sequence.

    Values default to 2^-i and must be strictly decreasing and positive.
    """

    domain: MatrixGroupDomain
    ideal: Ideal
    cap: int = 64
    values: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.ideal.is_zero:
            raise ZeroIdeal("filtration chain needs a nonzero ideal")
        if self.values is not None:
            vals = self.values
            if any(v <= 0 for v in vals) or any(
                vals[i + 1] >= vals[i] for i in range(len(vals) - 1)
            ):
                raise ValueError("value sequence must be strictly decreasing and positive")

    def value_at(self, level: int) -> Fraction:
        if self.values is not None:
            if level >= len(self.values):
                raise CapAmbiguous(f"no value configured for level {level}")
            return self.values[level]
        return Fraction(1, 2**level)


def filtration_norm(chain: FiltrationChain) -> NormEval:
    """2^-i on the i-th congruence layer, 0 at the identity."""

    def fn(g):
        datum = congruence_level(g, chain.ideal, chain.cap)
        if datum.is_identity:
            return Fraction(0)
        if datum.level is None:
            raise CapAmbiguous(
                f"non-identity element beyond level cap {chain.cap}"
            )
        return chain.value_at(datum.level)

    return NormEval(
        chain.domain,
        fn,
        "filtration",
        chain.domain.name,
        (chain.ideal.describe(), chain.cap),
    )


def bounded_transform(norm: NormEval) -> NormEval:
    """x / (1 + x): a bounded norm with the same ordering of values."""

    def fn(g):
        x = norm.value(g)
        return x / (1 + x)

    return NormEval(norm.domain, fn, f"bounded({norm.tag})", norm.invariance_scope, norm.params)


def singular_extension(
    inner: NormEval,
    ambient,
    member,
    *,
    presamples: int = 64,
    seed: int = 0,
) -> NormEval:
    """inner on the normal subgroup, constant 1 outside it.

    Requires inner bounded by 1 (checked on the construction presamples and
    again on every evaluation) and invariance of inner under ambient
    conjugation (sampled check at construction).
    """
    rng = random.Random(seed)
    for _ in range(presamples):
        n = inner.domain.sample(rng)
        v = inner.value(n)
        if v > 1:
            raise InnerUnbounded(f"inner norm value {v} exceeds 1")
        h = ambient.sample(rng)
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

    return NormEval(ambient, fn, f"singular({inner.tag})", ambient.name)


def quotient_norm(norm: NormEval, central: list, *, check_samples: int = 32, seed: int = 0) -> NormEval:
    """min over the central coset: a norm on the quotient group."""
    dom = norm.domain
    rng = random.Random(seed)
    for a in central:
        for _ in range(check_samples):
            s = dom.sample(rng)
            if dom.key(dom.mul(s, a)) != dom.key(dom.mul(a, s)):
                raise NotCentral("supplied subgroup is not central")
    qdom = QuotientDomain(dom, central)

    def fn(g):
        return min(norm.value(dom.mul(g, a)) for a in central)

    return NormEval(qdom, fn, f"quotient({norm.tag})", qdom.name)


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

    return NormEval(dom, fn, f"average({norm.tag})", f"{dom.name} (full)", (index,))


def product_sum_norm(norm_left: NormEval, norm_right: NormEval) -> NormEval:
    """Coordinate-wise sum on the direct product."""
    dom = ProductDomain(norm_left.domain, norm_right.domain)

    def fn(g):
        return norm_left.value(g[0]) + norm_right.value(g[1])

    return NormEval(dom, fn, f"sum({norm_left.tag},{norm_right.tag})", dom.name)


# -- p-adic flavored norms ---------------------------------------------------------


def _p_valuation(x: int, p: int) -> int | None:
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def p_abs(x: int, p: int) -> Fraction:
    """p-adic absolute value on Z with |0| = 0."""
    v = _p_valuation(x, p)
    if v is None:
        return Fraction(0)
    return Fraction(1, p**v)


def z2_mixed_norm(p: int, box: int = 1000) -> NormEval:
    """max(|x|_p / 2, |y|) on Z^2: non-discrete, unbounded, invariant under
    the shear (x, y) -> (x + y, y)."""
    dom = Z2Domain(box)

    def fn(g):
        x, y = g
        return max(p_abs(x, p) / 2, Fraction(abs(y)))

    return NormEval(dom, fn, "z2-mixed", "upper shear", (p,))


def element_p_abs(e: RingElement, p: int) -> Fraction:
    """p-adic absolute value of an integer ring element."""
    return p_abs(e.payload, p)


def padic_sup_norm(ideal: Ideal, p: int, box: int = 64) -> NormEval:
    """sup of p-adic absolute values on pairs of ideal elements; exactly
    invariant under the elementary shears with entries in the ideal."""
    dom = IdealPairDomain(ideal, box)

    def fn(g):
        return max(element_p_abs(g[0], p), element_p_abs(g[1], p))

    return NormEval(dom, fn, "padic-sup", f"E(2,{ideal.describe()},Z) linear action", (p,))


def shrink_ideal(
    norm: NormEval,
    epsilon: Fraction,
    *,
    shells: int = 128,
    max_candidates: int = 10**5,
    ball_samples: int = 10**3,
    seed: int = 0,
):
    """Find (x, y) in the pair domain with 6*norm((x, y)) <= epsilon and return
    the principal ideal generated by x^3 together with the witness and a
    sampled check that the squared ideal stays inside the epsilon ball.

    Exhaustion raises NoSmallVector: at desk scale this signals discreteness
    at the search scale, not an error in the norm.
    """
    dom = norm.domain
    ring = dom.ring
    d = dom.ideal.canonical
    tried = 0
    witness = None
    for shell in range(1, shells + 1):
        for i in range(-shell, shell + 1):
            for j in range(-shell, shell + 1):
                if max(abs(i), abs(j)) != shell or i == 0:
                    continue
                x = d * ring.el(i)
                y = d * ring.el(j)
                tried += 1
                if 6 * norm.value((x, y)) <= epsilon:
                    witness = (x, y)
                    break
                if tried >= max_candidates:
                    break
            if witness or tried >= max_candidates:
                break
        if witness or tried >= max_candidates:
            break
    if witness is None:
        raise NoSmallVector(f"no pair with 6*norm <= {epsilon}", tried)
    x, _ = witness
    cube = x * x * x
    shrunk = Ideal(ring, (cube,))
    rng = random.Random(seed)
    violations = 0
    for _ in range(ball_samples):
        a = ring.el(rng.randint(-dom.box, dom.box))
        b = ring.el(rng.randint(-dom.box, dom.box))
        v = (a * cube, b * cube)
        if norm.value(v) > epsilon:
            violations += 1
    return shrunk, witness, violations


# -- word norms ---------------------------------------------------------------------


@dataclass(frozen=True)
class Unreached:
    """BFS exhausted the generated subgroup without reaching the element."""

    explored: int


def conjugation_closure(table: FiniteGroupTable, seeds: list[int]) -> list[int]:
    """Close a set of element indices under conjugation and inversion."""
    mul, inv = table.mul, table.inv
    starts = list(seeds) + [inv[s] for s in seeds]
    # conjugates g f g^-1 of the frontier f by every g
    dist = closure_bfs(lambda f: mul[mul[:, f], inv[:, None]], starts, len(table))
    return (dist >= 0).nonzero()[0].tolist()


def word_norm(table: FiniteGroupTable, generators: list[int], g: SqMatrix | int, budget: int = 10**6):
    """Minimal generator count expressing g over the given set, by BFS.

    Returns the exact integer, or Unreached when the closure of the set is
    exhausted without meeting g.  A closure of more than budget elements
    raises BudgetExceeded (distinct from Unreached).
    """
    gidx = g if isinstance(g, int) else table.idx(g)
    dist = table.word_distances(generators, budget)
    if dist[gidx] < 0:
        return Unreached(explored=int((dist >= 0).sum()))
    return int(dist[gidx])


def word_norm_eval(table: FiniteGroupTable, generators: list[int]) -> NormEval:
    """Word-length norm as an evaluator; needs the set to be symmetric,
    conjugation-closed, and to generate the whole table."""
    dist = table.word_distances(generators)
    if (dist < 0).any():
        raise ValueError("generator set does not generate the whole group")
    dist = dist.tolist()
    dom = FiniteGroupDomain(table)

    def fn(g):
        return Fraction(dist[table.idx(g)])

    return NormEval(dom, fn, "word", dom.name, (len(generators),))


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
