import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congwidth.errors import (
    BadTransversal,
    BudgetExceeded,
    CapAmbiguous,
    InnerUnbounded,
    MismatchedRings,
    NoSmallVector,
    NotCentral,
    TrivialInput,
    UnsupportedRing,
    ZeroIdeal,
)
import congwidth.matrices as matrices
import congwidth.norms as norms
from congwidth.census import enumerate_sl
from congwidth.matrices import SqMatrix, elementary, identity, in_congruence_subgroup, mat_inv
from congwidth.norms import (
    FiltrationChain,
    FiniteGroupDomain,
    IdealPairDomain,
    MatrixGroupDomain,
    NormEval,
    axiom_harness,
    average_norm,
    bounded_transform,
    conjugation_closure,
    dirac_norm,
    filtration_norm,
    padic_sup_norm,
    product_sum_norm,
    quotient_norm,
    shrink_ideal,
    singular_extension,
    word_norm_eval,
    z2_mixed_norm,
)
from congwidth.rings import Ideal, RingSpec
from conftest import elements

Z = RingSpec.integers()


def sl_domain(ring, n, radius=6):
    gens = [
        elementary(ring, n, i, j, 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    return MatrixGroupDomain(ring, n, gens, radius)


def gamma_domain(ring, n, q0, radius=6):
    gens = [
        elementary(ring, n, i, j, q0)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    return MatrixGroupDomain(ring, n, gens, radius)


# -- dirac ---------------------------------------------------------------------


def test_dirac_passes_harness(sl2_f3):
    norm = dirac_norm(FiniteGroupDomain(sl2_f3))
    report = axiom_harness(norm, 300, seed=1)
    assert report.passed


def test_planted_failure_is_reported(sl2_f3):
    dom = FiniteGroupDomain(sl2_f3)
    broken = NormEval(dom, lambda g: Fraction(0))
    report = axiom_harness(broken, 200, seed=2)
    assert not report.passed
    assert report.violations["definiteness"] > 0
    assert "definiteness" in report.examples
    assert "axiom=definiteness" in report.render()


# -- the harness records each axiom ------------------------------------------------


class _Cyclic:
    """Z/m written additively."""

    def __init__(self, m):
        self.m = m

    def mul(self, a, b):
        return (a + b) % self.m

    def inv(self, a):
        return -a % self.m

    def is_identity(self, a):
        return a == 0


class _Drawn:
    """A group domain whose sampler draws the listed elements in turn: a
    harness run of k samples checks exactly the pairs (draws[0], draws[1]),
    ..., (draws[2k - 2], draws[2k - 1])."""

    def __init__(self, base, draws):
        self.mul, self.inv, self.is_identity = base.mul, base.inv, base.is_identity
        self.draws = iter(draws)

    def sample(self, rng):
        return next(self.draws)


def _only(axiom, count):
    return {a: count if a == axiom else 0
            for a in ("positivity", "definiteness", "symmetry", "triangle", "conjugation")}


def test_harness_records_positivity():
    # -1 off the identity, drawn only with h = 0: h = g^-1 would break the triangle too
    dom = _Drawn(_Cyclic(4), [1, 0, 2, 0, 3, 0, 0, 0, 1, 0])
    report = axiom_harness(NormEval(dom, value=lambda g: Fraction(-1 if g else 0)), 5)
    assert report.violations == _only("positivity", 4)
    assert report.examples == {"positivity": ["1", "2", "3"]}
    assert "  violating tuple: 3\n" in report.render()


def test_harness_records_symmetry():
    # g itself on Z/3: |1| = 1 but |1^-1| = |2| = 2, and |a + b| <= a + b always
    dom = _Drawn(_Cyclic(3), [1, 0, 2, 1, 1, 1, 0, 2, 2, 2])
    report = axiom_harness(NormEval(dom, value=Fraction), 5)
    assert report.violations == _only("symmetry", 4)
    assert report.examples == {"symmetry": ["1", "2", "1"]}


def test_harness_records_the_triangle():
    # |±1| = 1 and |±2| = 3 on Z/5: |1 + 1| = 3 > 2, the one kind of failure
    values = [0, 1, 3, 3, 1]
    dom = _Drawn(_Cyclic(5), [1, 1, 4, 4, 1, 1, 4, 4, 2, 3])
    report = axiom_harness(NormEval(dom, value=lambda g: Fraction(values[g])), 5)
    assert report.violations == _only("triangle", 4)
    assert report.examples == {"triangle": ["(1, 1)", "(4, 4)", "(1, 1)"]}


def test_harness_records_conjugation(sl2_f3):
    # 2 at a = E12(1) and its inverse, 1 elsewhere off the identity: symmetric
    # and subadditive (two non-identity values sum to at least 2), but the
    # conjugate of a by b = E21(1) is neither a nor a^-1
    ring = sl2_f3.ring
    a, b = (sl2_f3.idx(elementary(ring, 2, i, j, 1)) for i, j in ((1, 2), (2, 1)))
    table = FiniteGroupDomain(sl2_f3)
    a_inv = table.inv(a)
    assert table.mul(table.mul(b, a), table.inv(b)) not in (a, a_inv)

    dom = _Drawn(table, [a, b, a_inv, b, a, b, a_inv, b, 0, b])

    def value(g):
        return Fraction(0 if g == 0 else 2 if g in (a, a_inv) else 1)

    report = axiom_harness(NormEval(dom, value=value), 5)
    assert report.violations == _only("conjugation", 4)
    assert report.examples == {"conjugation": [repr((a, b)), repr((a_inv, b)), repr((a, b))]}


def test_finite_group_domain_against_matrix_arithmetic(sl2_f3, sl2_z4):
    for table in (sl2_f3, sl2_z4):
        dom = FiniteGroupDomain(table)
        els = [table.element(k) for k in range(len(table))]
        for a, ga in enumerate(els):
            assert table.element(dom.inv(a)) == mat_inv(ga)
            assert dom.is_identity(a) == ga.is_identity
            for b, gb in enumerate(els):
                c = dom.mul(a, b)
                assert type(c) is int and table.element(c) == ga * gb
        assert table.element(0).is_identity


def test_finite_group_domain_samples_as_the_matrix_sampler(sl2_f5):
    dom = FiniteGroupDomain(sl2_f5)
    rng, old = random.Random(3), random.Random(3)
    for _ in range(50):
        # the SqMatrix sampler the index domain replaced
        assert sl2_f5.element(dom.sample(rng)) == sl2_f5.element(old.randrange(len(sl2_f5)))


def test_finite_group_domain_needs_the_product_table():
    table = enumerate_sl(2, RingSpec.integers_mod(27))  # 17496^2 products, over the cap
    with pytest.raises(BudgetExceeded):
        FiniteGroupDomain(table)


def test_word_norm_harness_does_no_matrix_arithmetic(monkeypatch, sl2_f5):
    seeds = [sl2_f5.idx(elementary(sl2_f5.ring, 2, i, j, 1)) for i, j in ((1, 2), (2, 1))]
    norm = word_norm_eval(sl2_f5, conjugation_closure(sl2_f5, seeds))
    calls = []
    mul = SqMatrix.__mul__

    def counted_mul(a, b):
        calls.append("mul")
        return mul(a, b)

    def counted_inv(a):
        calls.append("inv")
        return mat_inv(a)

    monkeypatch.setattr(SqMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(norms, "mat_inv", counted_inv)
    assert axiom_harness(norm, 200, seed=4).passed
    assert calls == []


# -- filtration ------------------------------------------------------------------


# sha256 of the filtration sample stream of the CLI domain (SL3(Z) over the
# unit elementaries, radius 8; ideal 2, cap 64): 100 samples for each seed
# 0-7, one line per sample with its payload rows and its norm value.  A
# report with zero violations reads the same whatever was sampled, so this
# pins the stream itself.
SAMPLE_STREAM_SHA256 = "8c7638bbc907aaebaa8a994043046c00c016a598d7097b47e222fbe2617366fa"


def test_filtration_sample_stream_digest(ring_z):
    dom = sl_domain(ring_z, 3, radius=8)
    norm = filtration_norm(FiltrationChain(dom, Ideal.of(ring_z, 2), 64))
    lines = []
    for seed in range(8):
        rng = random.Random(seed)
        for _ in range(100):
            g = dom.sample(rng)
            lines.append(f"{g.payload} {norm.value(g)}")
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_STREAM_SHA256


def test_filtration_harness_inverts_only_for_its_axioms(monkeypatch, ring_z):
    dom = sl_domain(ring_z, 3, radius=8)
    norm = filtration_norm(FiltrationChain(dom, Ideal.of(ring_z, 2), 64))
    calls = []

    def counted_inv(a):
        calls.append(a)
        return mat_inv(a)

    monkeypatch.setattr(norms, "mat_inv", counted_inv)
    rng = random.Random(0)
    for _ in range(200):
        dom.sample(rng)
    assert calls == []
    samples = 50
    assert axiom_harness(norm, samples, seed=3).passed
    assert len(calls) == 2 * samples  # symmetry and conjugation


def test_filtration_harness_work_runs_on_the_kernels(monkeypatch, ring_z):
    """One 25-sample harness call on the benchmark's filtration norm (Z, n = 3,
    ideal 2, cap 64) makes 2 inverses and 3 products per sample, all through
    the straight-line kernels: the characteristic polynomial never runs."""
    norm = filtration_norm(FiltrationChain(sl_domain(ring_z, 3, radius=8), Ideal.of(ring_z, 2), 64))
    calls = []
    mul, charpoly = SqMatrix.__mul__, matrices._charpoly

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(norms, "mat_inv", counted("mat_inv", mat_inv))
    monkeypatch.setattr(SqMatrix, "__mul__", counted("__mul__", mul))
    monkeypatch.setattr(matrices, "_charpoly", counted("_charpoly", charpoly))
    assert axiom_harness(norm, 25, seed=0).passed
    assert (calls.count("mat_inv"), calls.count("__mul__"), calls.count("_charpoly")) == (50, 75, 0)


def test_filtration_sampler_builds_one_matrix_and_no_product(monkeypatch, ring_z):
    """The sampler multiplies by column updates from the entries of
    letter - I: no SqMatrix product, no dense _mul_rows call, and one
    SqMatrix built per sample, checked or through the unchecked SqMatrix._of."""
    dom = sl_domain(ring_z, 3, radius=8)
    calls = []
    mul, mul_rows, post_init, of = SqMatrix.__mul__, matrices._mul_rows, SqMatrix.__post_init__, SqMatrix._of

    def counted_mul(a, b):
        calls.append("__mul__")
        return mul(a, b)

    def counted_mul_rows(*args):
        calls.append("_mul_rows")
        return mul_rows(*args)

    def counted_post_init(m):
        calls.append("SqMatrix")
        post_init(m)

    monkeypatch.setattr(SqMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(matrices, "_mul_rows", counted_mul_rows)
    def counted_of(*args):
        calls.append("SqMatrix")
        return of(*args)

    monkeypatch.setattr(SqMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(SqMatrix, "_of", staticmethod(counted_of))
    rng = random.Random(0)
    for _ in range(200):
        dom.sample(rng)
    assert calls == ["SqMatrix"] * 200


def _dense_sample(letters, radius, one, rng):
    """The sampler's reference: the same RNG calls, each letter multiplied on
    by a dense SqMatrix product."""
    out = one
    for _ in range(rng.randint(0, radius)):
        g, ginv = rng.choice(letters)
        out = out * (ginv if rng.random() < 0.5 else g)
    return out


# per ring, an entry that makes the third generator below non-elementary and dense
SAMPLER_RINGS = {
    RingSpec.integers(): 2,
    RingSpec.poly_over_fp(2): [0, 1],  # x
    RingSpec.localized_integers(5): (1, -1),  # 1/5
    RingSpec.integers_mod(6): 5,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(SAMPLER_RINGS)), st.integers(0, 2**32), st.integers(0, 12))
def test_sampler_matches_dense_products(ring, seed, radius):
    # diag(-1, -1, 1) and dense SL_3 letters: each entry (r, c) of letter - I
    # has c among the rows of another, so an update that read a row it has
    # already changed would differ from the dense product.  The elementary
    # letter and diag(-1, 1, 1) (diag(5, 1, 1) over Z/6, its one entry with
    # r == c; the identity over F2[x]) take the one-entry update in place
    diag = SqMatrix.from_raw(ring, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    dense = SqMatrix.from_raw(ring, [[2, 3, 1], [1, 2, 1], [1, 1, 1]])
    unit = SqMatrix.from_raw(ring, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    gens = [diag, dense, elementary(ring, 3, 3, 1, SAMPLER_RINGS[ring]) * dense,
            elementary(ring, 3, 1, 3, SAMPLER_RINGS[ring]), unit]
    dom = MatrixGroupDomain(ring, 3, gens, radius)
    letters = [(g, mat_inv(g)) for g in gens]
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert dom.sample(fast) == _dense_sample(letters, radius, dom.one, slow)
    assert fast.random() == slow.random()


def test_filtration_values(ring_z):
    dom = sl_domain(ring_z, 3)
    q = Ideal.of(ring_z, 2)
    norm = filtration_norm(FiltrationChain(dom, q))
    assert norm.value(identity(ring_z, 3)) == 0
    assert norm.value(elementary(ring_z, 3, 1, 2, 4)) == Fraction(1, 4)
    assert norm.value(elementary(ring_z, 3, 1, 2, 1)) == 1  # level 0


def test_filtration_conjugation_invariance(ring_z):
    rng = random.Random(3)
    dom = sl_domain(ring_z, 3)
    q = Ideal.of(ring_z, 2)
    norm = filtration_norm(FiltrationChain(dom, q))
    g = elementary(ring_z, 3, 1, 2, 4)
    from congwidth.matrices import mat_inv

    for _ in range(100):
        h = dom.sample(rng)
        assert norm.value(h * g * mat_inv(h)) == norm.value(g)


def test_filtration_harness(ring_z):
    dom = sl_domain(ring_z, 3)
    q = Ideal.of(ring_z, 2)
    norm = filtration_norm(FiltrationChain(dom, q))
    assert axiom_harness(norm, 300, seed=4).passed


def test_filtration_ultrametric_nesting(ring_z):
    rng = random.Random(5)
    q = Ideal.of(ring_z, 2)
    dom = gamma_domain(ring_z, 3, 4)  # samples inside the level-2 layer
    norm = filtration_norm(FiltrationChain(dom, q))
    for _ in range(100):
        g, h = dom.sample(rng), dom.sample(rng)
        assert norm.value(g * h) <= max(norm.value(g), norm.value(h))


def test_filtration_cap_raises(ring_z):
    dom = sl_domain(ring_z, 3)
    q = Ideal.of(ring_z, 2)
    norm = filtration_norm(FiltrationChain(dom, q, cap=8))
    with pytest.raises(CapAmbiguous):
        norm.value(elementary(ring_z, 3, 1, 2, 2**9))


def test_filtration_chain_refuses_the_zero_ideal(ring_z):
    with pytest.raises(ZeroIdeal, match="^filtration chain needs a nonzero ideal$"):
        FiltrationChain(sl_domain(ring_z, 3), Ideal.of(ring_z, 0))


def test_filtration_norm_refuses_a_chain_over_another_ring(ring_z, ring_p2):
    # refused when the chain is built, not at its first value
    for ideal in (Ideal.of(RingSpec.integers_mod(8), 2), Ideal(ring_p2, (ring_p2.x(),))):
        with pytest.raises(MismatchedRings, match="^element outside the ideal's ring$"):
            FiltrationChain(sl_domain(ring_z, 3), ideal)


@pytest.mark.parametrize("cap", [0, -5])
def test_filtration_chain_refuses_a_cap_below_one(ring_z, cap):
    with pytest.raises(ValueError, match="^cap must be >= 1$"):
        FiltrationChain(sl_domain(ring_z, 3), Ideal.of(ring_z, 2), cap)


def test_filtration_values_are_ints_at_level_0_and_the_identity(ring_z):
    norm = filtration_norm(FiltrationChain(sl_domain(ring_z, 3), Ideal.of(ring_z, 2)))
    one, level0, level2 = identity(ring_z, 3), elementary(ring_z, 3, 1, 2, 3), elementary(ring_z, 3, 2, 1, 12)
    values = [norm.value(g) for g in (one, level0, level2)]
    assert [type(v) for v in values] == [int, int, Fraction] and values == [0, 1, Fraction(1, 4)]
    bounded = [bounded_transform(norm).value(g) for g in (one, level0, level2)]
    assert all(type(v) is Fraction for v in bounded) and bounded == [0, Fraction(1, 2), Fraction(1, 5)]


def test_filtration_norm_reads_a_deep_level_under_a_huge_cap(ring_z):
    q = Ideal.of(ring_z, 2)
    norm = filtration_norm(FiltrationChain(sl_domain(ring_z, 3), q, cap=10**9))
    assert norm.value(elementary(ring_z, 3, 1, 2, 2**40)) == Fraction(1, 2**40)
    assert len(q._powers) == 42  # d^0 to d^41: the powers reach one past the level, not the cap


# -- singular extension ------------------------------------------------------------


def test_singular_extension_values(ring_z):
    q = Ideal.of(ring_z, 2)
    inner_dom = gamma_domain(ring_z, 3, 2)
    inner = filtration_norm(FiltrationChain(inner_dom, q))
    ambient = sl_domain(ring_z, 3)
    member = lambda g: in_congruence_subgroup(g, q)
    norm = singular_extension(inner, ambient, member)
    g_in = elementary(ring_z, 3, 1, 2, 2)
    g_out = elementary(ring_z, 3, 1, 2, 1)
    assert norm.value(g_in) == inner.value(g_in) == Fraction(1, 2)
    assert norm.value(g_out) == 1  # constant off the subgroup
    assert axiom_harness(norm, 300, seed=6).passed


def test_singular_extension_triangle_across_boundary(ring_z):
    rng = random.Random(7)
    q = Ideal.of(ring_z, 2)
    inner = filtration_norm(FiltrationChain(gamma_domain(ring_z, 3, 2), q))
    ambient = sl_domain(ring_z, 3)
    norm = singular_extension(inner, ambient, lambda g: in_congruence_subgroup(g, q))
    inner_dom = inner.domain
    for _ in range(100):
        g = inner_dom.sample(rng)
        h = ambient.sample(rng)
        assert norm.value(g * h) <= norm.value(g) + norm.value(h)


def test_singular_extension_refuses_an_inner_value_above_one(ring_z):
    q = Ideal.of(ring_z, 2)
    member = lambda g: in_congruence_subgroup(g, q)
    doubled = NormEval(gamma_domain(ring_z, 3, 2), value=lambda g: 2 * Fraction(not g.is_identity))
    with pytest.raises(InnerUnbounded, match="^inner norm value 2 exceeds 1$"):
        singular_extension(doubled, sl_domain(ring_z, 3), member)
    # a domain of radius 0 samples only the identity, which checks nothing
    blind = NormEval(gamma_domain(ring_z, 3, 2, radius=0), value=doubled.value)
    with pytest.raises(TrivialInput, match="^singular extension: no check sample is off the identity$"):
        singular_extension(blind, sl_domain(ring_z, 3), member)


def test_singular_extension_refuses_an_inner_value_above_one_when_evaluated(ring_z):
    # the construction's 64 samples never meet far, so only its evaluation refuses
    q = Ideal.of(ring_z, 2)
    far = elementary(ring_z, 3, 1, 2, 2**80)
    filtration = filtration_norm(FiltrationChain(gamma_domain(ring_z, 3, 2), q))
    inner = NormEval(filtration.domain, value=lambda g: Fraction(2) if g == far else filtration.value(g))
    norm = singular_extension(inner, sl_domain(ring_z, 3), lambda g: in_congruence_subgroup(g, q))
    assert norm.value(elementary(ring_z, 3, 1, 2, 2)) == Fraction(1, 2)
    with pytest.raises(InnerUnbounded, match="^inner norm value 2 exceeds 1$"):
        norm.value(far)


def test_singular_extension_refuses_a_non_invariant_inner_norm(sl2_z4, ring_z4):
    _, hamming, _ = _hamming_norm_on_gamma2(sl2_z4, ring_z4)  # at most 1, not SL_2-invariant
    q = Ideal.of(ring_z4, 2)
    with pytest.raises(InnerUnbounded, match="not invariant"):
        singular_extension(hamming, sl_domain(ring_z4, 2), lambda g: in_congruence_subgroup(g, q))


# -- bounded transform ----------------------------------------------------------------


def test_bounded_transform_values(ring_z):
    dom = sl_domain(ring_z, 3)
    q = Ideal.of(ring_z, 2)
    norm = bounded_transform(filtration_norm(FiltrationChain(dom, q)))
    assert norm.value(identity(ring_z, 3)) == 0
    assert norm.value(elementary(ring_z, 3, 1, 2, 1)) == Fraction(1, 2)  # 1/(1+1)


def test_bounded_transform_monotone(ring_z):
    rng = random.Random(8)
    dom = sl_domain(ring_z, 3)
    q = Ideal.of(ring_z, 2)
    base = filtration_norm(FiltrationChain(dom, q))
    bnd = bounded_transform(base)
    for _ in range(100):
        g, h = dom.sample(rng), dom.sample(rng)
        a, b = base.value(g), base.value(h)
        fa, fb = bnd.value(g), bnd.value(h)
        assert (a < b) == (fa < fb) and (a == b) == (fa == fb)
        assert 0 <= fa < 1


def _sl2_f3_word_norm(sl2_f3):
    seeds = [sl2_f3.idx(elementary(sl2_f3.ring, 2, i, j, 1)) for i, j in ((1, 2), (2, 1))]
    return word_norm_eval(sl2_f3, conjugation_closure(sl2_f3, seeds))


def test_bounded_transform_of_a_word_norm_is_exact(sl2_f3):
    # the word norm's values are ints; d / (1 + d) on an int is a float
    word = _sl2_f3_word_norm(sl2_f3)
    norm = bounded_transform(word)
    for k in range(len(sl2_f3)):
        d = word.value(k)
        assert type(norm.value(k)) is Fraction and norm.value(k) == Fraction(d, 1 + d)
    assert axiom_harness(norm, 300, seed=18).passed


def test_constructions_over_an_int_valued_norm_stay_exact(sl2_f3):
    dom = FiniteGroupDomain(sl2_f3)
    word = _sl2_f3_word_norm(sl2_f3)
    minus = sl2_f3.idx(SqMatrix.from_raw(sl2_f3.ring, [[2, 0], [0, 2]]))
    centre = lambda g: g in (0, minus)
    elems = range(len(sl2_f3))
    reps = []
    for g in elems:
        if all(not centre(dom.mul(dom.inv(r), g)) for r in reps):
            reps.append(g)
    # every element is one letter: an int-valued norm bounded by 1
    letters = word_norm_eval(sl2_f3, list(elems[1:]))
    quaternion = lambda g: dom.mul(dom.mul(g, g), dom.mul(g, g)) == 0  # Q8: orders 1, 2 and 4
    cases = [
        (quotient_norm(word, [0, minus]), elems, lambda g: min(word.value(g), word.value(dom.mul(g, minus)))),
        (average_norm(word, reps, len(reps), centre), elems, word.value),
        (singular_extension(letters, dom, quaternion), elems, lambda g: letters.value(g) if quaternion(g) else 1),
        (product_sum_norm(word, word), [(a, b) for a in elems for b in elems],
         lambda g: word.value(g[0]) + word.value(g[1])),
    ]
    for norm, tuples, expected in cases:
        for g in tuples:
            v = norm.value(g)
            assert type(v) in (int, Fraction) and v == expected(g)
        assert axiom_harness(norm, 200, seed=19).passed


# -- quotient ---------------------------------------------------------------------------


def test_quotient_by_trivial_subgroup(ring_z):
    dom = sl_domain(ring_z, 2)
    q = Ideal.of(ring_z, 3)
    base = filtration_norm(FiltrationChain(dom, q))
    quo = quotient_norm(base, [identity(ring_z, 2)])
    rng = random.Random(9)
    for _ in range(50):
        g = dom.sample(rng)
        assert quo.value(g) == base.value(g)


def test_quotient_by_center(ring_z):
    dom = sl_domain(ring_z, 2)
    q = Ideal.of(ring_z, 3)
    base = filtration_norm(FiltrationChain(dom, q))
    minus = SqMatrix.from_raw(ring_z, [[-1, 0], [0, -1]])
    quo = quotient_norm(base, [identity(ring_z, 2), minus])
    rng = random.Random(10)
    for _ in range(50):
        g = dom.sample(rng)
        assert quo.value(g) == min(base.value(g), base.value(g * minus))
    # -I maps to the quotient identity
    assert quo.value(minus) == 0
    assert quo.domain.is_identity(minus)
    assert axiom_harness(quo, 300, seed=11).passed
    # quotient of a bounded norm stays bounded by the same bound
    bquo = quotient_norm(bounded_transform(base), [identity(ring_z, 2), minus])
    for _ in range(50):
        assert bquo.value(dom.sample(rng)) < 1


def test_quotient_rejects_noncentral(ring_z):
    dom = sl_domain(ring_z, 2)
    q = Ideal.of(ring_z, 3)
    base = filtration_norm(FiltrationChain(dom, q))
    with pytest.raises(NotCentral):
        quotient_norm(base, [elementary(ring_z, 2, 1, 2, 1)])
    # a domain of radius 0 samples only the identity, which commutes with anything
    blind = NormEval(sl_domain(ring_z, 2, radius=0), value=base.value)
    with pytest.raises(TrivialInput, match="^quotient: no check sample is off the identity$"):
        quotient_norm(blind, [elementary(ring_z, 2, 1, 2, 1)])


# -- average ------------------------------------------------------------------------------


def _hamming_norm_on_gamma2(table, ring):
    """Entry-count norm on the congruence layer of SL_2(Z/4): N-invariant
    (the layer is abelian) but visibly not invariant under the full group."""
    q = Ideal.of(ring, 2)
    members = [g for g in elements(table) if in_congruence_subgroup(g, q)]

    class _ListDomain:
        def mul(self, a, b):
            return a * b

        def inv(self, a):
            from congwidth.matrices import mat_inv

            return mat_inv(a)

        def is_identity(self, a):
            return a == identity(ring, 2)

        def sample(self, rng):
            return members[rng.randrange(len(members))]

    dom = _ListDomain()

    def fn(g):
        diff = g - identity(ring, 2)
        weight = sum(0 if e.is_zero else 1 for r in diff.rows for e in r)
        return Fraction(weight, 4)

    return dom, NormEval(dom, fn), members


def test_average_norm_trivial_transversal(ring_z):
    dom = sl_domain(ring_z, 2)
    q = Ideal.of(ring_z, 3)
    base = filtration_norm(FiltrationChain(dom, q))
    avg = average_norm(base, [identity(ring_z, 2)], 1, lambda g: True)
    rng = random.Random(12)
    for _ in range(40):
        g = dom.sample(rng)
        assert avg.value(g) == base.value(g)


def test_average_norm_invariant_input_unchanged(sl2_f3):
    dom = FiniteGroupDomain(sl2_f3)
    base = dirac_norm(dom)
    reps = [0, 1, 2]
    # Dirac is fully invariant, so averaging over any list of "reps" of the
    # whole group (member = in trivial subgroup) changes nothing
    avg = average_norm(base, reps, 3, lambda g: dom.is_identity(g))
    rng = random.Random(13)
    for _ in range(40):
        g = dom.sample(rng)
        assert avg.value(g) == base.value(g)


def test_average_norm_full_invariance(sl2_z4, ring_z4):
    dom, inner, members = _hamming_norm_on_gamma2(sl2_z4, ring_z4)
    q = Ideal.of(ring_z4, 2)
    member = lambda g: in_congruence_subgroup(g, q)
    # the inner norm is not invariant under the ambient group
    from congwidth.matrices import mat_inv

    broken = False
    for s in elements(sl2_z4):
        for n in members:
            if inner.value(s * n * mat_inv(s)) != inner.value(n):
                broken = True
                break
        if broken:
            break
    assert broken

    # transversal of the congruence layer inside SL_2(Z/4)
    reps = []
    for g in elements(sl2_z4):
        if all(not member(g * mat_inv(r)) for r in reps):
            reps.append(g)
    assert len(reps) == 6
    avg = average_norm(inner, reps, 6, member)
    # averaged norm is invariant under conjugation by the whole group
    for s in elements(sl2_z4):
        for n in members:
            assert avg.value(s * n * mat_inv(s)) == avg.value(n)
    assert axiom_harness(avg, 300, seed=14).passed


def test_average_norm_rejects_bad_transversal(sl2_z4, ring_z4):
    dom, inner, members = _hamming_norm_on_gamma2(sl2_z4, ring_z4)
    q = Ideal.of(ring_z4, 2)
    member = lambda g: in_congruence_subgroup(g, q)
    reps = [identity(ring_z4, 2), members[1]]  # same coset
    with pytest.raises(BadTransversal):
        average_norm(inner, reps, 2, member)


def test_average_norm_refuses_a_wrong_number_of_representatives(sl2_z4, ring_z4):
    _, inner, _ = _hamming_norm_on_gamma2(sl2_z4, ring_z4)
    q = Ideal.of(ring_z4, 2)
    with pytest.raises(BadTransversal, match="^expected 6 representatives, got 1$"):
        average_norm(inner, [identity(ring_z4, 2)], 6, lambda g: in_congruence_subgroup(g, q))


# -- product sum ----------------------------------------------------------------------------


def test_product_sum_values_and_harness(sl2_f3):
    dom = FiniteGroupDomain(sl2_f3)
    seeds = [
        sl2_f3.idx(elementary(sl2_f3.ring, 2, i, j, 1))
        for i, j in ((1, 2), (2, 1))
    ]
    closure = conjugation_closure(sl2_f3, seeds)
    left = word_norm_eval(sl2_f3, closure)
    right = dirac_norm(dom)
    norm = product_sum_norm(left, right)
    e = (0, 0)
    assert norm.value(e) == 0
    g = sl2_f3.element(5)
    assert norm.value((g, 0)) == left.value(g)
    assert axiom_harness(norm, 300, seed=15).passed


# -- word norms ------------------------------------------------------------------------------


def test_word_norm_examples(sl2_f3):
    ring = sl2_f3.ring
    seeds = [sl2_f3.idx(elementary(ring, 2, 1, 2, 1)), sl2_f3.idx(elementary(ring, 2, 2, 1, 1))]
    dist = sl2_f3.word_distances(conjugation_closure(sl2_f3, seeds))
    assert dist[sl2_f3.idx(identity(ring, 2))] == 0
    assert dist[sl2_f3.idx(elementary(ring, 2, 1, 2, 1))] == 1
    assert (dist >= 0).all()
    assert dist.max() >= 2  # some element genuinely needs more than one letter


def test_word_norm_subadditive(sl2_f3):
    rng = random.Random(16)
    ring = sl2_f3.ring
    seeds = [sl2_f3.idx(elementary(ring, 2, 1, 2, 1)), sl2_f3.idx(elementary(ring, 2, 2, 1, 1))]
    dist = sl2_f3.word_distances(conjugation_closure(sl2_f3, seeds))
    for _ in range(100):
        g = sl2_f3.element(rng.randrange(24))
        h = sl2_f3.element(rng.randrange(24))
        assert dist[sl2_f3.idx(g * h)] <= dist[sl2_f3.idx(g)] + dist[sl2_f3.idx(h)]


def test_word_norm_unreached(sl2_f3):
    ring = sl2_f3.ring
    minus = SqMatrix.from_raw(ring, [[2, 0], [0, 2]])
    dist = sl2_f3.word_distances(conjugation_closure(sl2_f3, [sl2_f3.idx(minus)]))
    assert dist[sl2_f3.idx(elementary(ring, 2, 1, 2, 1))] == -1
    assert (dist >= 0).sum() == 2  # the center only


def test_word_norm_eval_needs_a_generating_set(sl2_f3):
    minus = SqMatrix.from_raw(sl2_f3.ring, [[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="does not generate"):
        word_norm_eval(sl2_f3, conjugation_closure(sl2_f3, [sl2_f3.idx(minus)]))


def test_word_norm_values_are_ints_of_the_distance_list(sl2_f5):
    seeds = [sl2_f5.idx(elementary(sl2_f5.ring, 2, i, j, 1)) for i, j in ((1, 2), (2, 1))]
    closure = conjugation_closure(sl2_f5, seeds)
    norm = word_norm_eval(sl2_f5, closure)
    dist = sl2_f5.word_distances(closure).tolist()
    for k, g in enumerate(elements(sl2_f5)):
        assert type(norm.value(k)) is int and norm.value(k) == dist[k]
        assert norm.value(g) == norm.value(np.int64(k)) == norm.value(k)


def test_word_norm_eval_harness(sl2_f3):
    assert axiom_harness(_sl2_f3_word_norm(sl2_f3), 300, seed=17).passed


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (2, 8)])
def test_conjugation_closure_matches_brute_force(n, m):
    # {g s g^-1, g s^-1 g^-1 : g in G}, by matrix products over every g
    table = enumerate_sl(n, RingSpec.integers_mod(m))
    els = elements(table)
    conjugators = [(g, mat_inv(g)) for g in els]
    rng = random.Random(29)
    seed_sets = [[], [0], table.center, [1, 2], rng.sample(range(len(table)), 4)]
    for seeds in seed_sets:
        expected = set()
        for s in seeds:
            for x in (els[s], mat_inv(els[s])):
                expected.update(table.idx(g * x * gi) for g, gi in conjugators)
        assert conjugation_closure(table, seeds) == sorted(expected), seeds


# -- Z^2 mixed norm -----------------------------------------------------------------------------


def _z2(x, y):
    return (Z.el(x), Z.el(y))


def test_z2_mixed_values():
    norm = z2_mixed_norm(2)
    assert norm.value(_z2(0, 0)) == 0
    assert norm.value(_z2(2, 0)) == Fraction(1, 4)  # |2|_2 = 1/2, halved
    assert norm.value(_z2(0, 3)) == 3
    assert norm.value(_z2(3, 0)) == Fraction(1, 2)  # |3|_2 = 1


def test_z2_mixed_shear_invariance():
    rng = random.Random(18)
    norm = z2_mixed_norm(2)
    for _ in range(300):
        x, y = rng.randint(-500, 500), rng.randint(-500, 500)
        assert norm.value(_z2(x + y, y)) == norm.value(_z2(x, y))


def test_z2_mixed_harness():
    assert axiom_harness(z2_mixed_norm(2), 400, seed=19).passed


# -- p-adic sup norm and the shrinking step ----------------------------------------------------


def test_padic_sup_invariance_under_shears(ring_z):
    rng = random.Random(20)
    q = Ideal.of(ring_z, 2)
    norm = padic_sup_norm(q, 2)
    dom = norm.domain
    for _ in range(200):
        x, y = dom.sample(rng)
        z = ring_z.el(2 * rng.randint(-20, 20))
        # the two elementary shear actions preserve the sup norm exactly
        assert norm.value((x + z * y, y)) == norm.value((x, y))
        assert norm.value((x, y + z * x)) == norm.value((x, y))


def test_shear_difference_inequalities(ring_z):
    rng = random.Random(21)
    q = Ideal.of(ring_z, 2)
    norm = padic_sup_norm(q, 2)
    dom = norm.domain
    for _ in range(300):
        x, y = dom.sample(rng)
        z = ring_z.el(2 * rng.randint(-20, 20))
        v = norm.value((x, y))
        assert norm.value((z * y, ring_z.zero)) <= 2 * v
        assert norm.value((ring_z.zero, z * x)) <= 2 * v


def test_shrink_ideal_small_epsilons(ring_z):
    q = Ideal.of(ring_z, 2)
    norm = padic_sup_norm(q, 2)
    for eps in (Fraction(1, 4), Fraction(1, 16)):
        shrunk, (x, y), violations = shrink_ideal(norm, eps, seed=22)
        assert 6 * norm.value((x, y)) <= eps
        assert not shrunk.is_zero
        assert shrunk.contains(x * x * x)
        assert violations == 0


def test_shrink_ideal_immediate_witness(ring_z):
    q = Ideal.of(ring_z, 2)
    norm = padic_sup_norm(q, 2)
    # 6 * norm((2, 2)) = 3, so any epsilon >= 3 accepts the first candidates
    shrunk, (x, y), violations = shrink_ideal(norm, Fraction(3), seed=23)
    assert abs(x.payload) == 2
    assert violations == 0


def test_shrink_ideal_counts_violations():
    # the first pair with 6 * norm <= 1/2 is (-8, 0), and multiples of 8^3 = 512
    # stay large in the mixed norm: all but one of the 1000 samples violate
    shrunk, witness, violations = shrink_ideal(z2_mixed_norm(2), Fraction(1, 2))
    assert witness == (Z.el(-8), Z.zero)
    assert shrunk.canonical == Z.el(512)
    assert violations == 999


def test_shrink_ideal_dirac_exhausts(ring_z):
    q = Ideal.of(ring_z, 2)
    dom = IdealPairDomain(q, box=64)
    dirac = NormEval(dom, lambda g: Fraction(0) if dom.is_identity(g) else Fraction(1))
    with pytest.raises(NoSmallVector) as info:
        shrink_ideal(dirac, Fraction(1, 4))
    # every pair of the box max(|i|, |j|) <= 128 but the 257 with i = 0
    assert info.value.candidates_tried == 65_792


def test_pair_domain_refuses_the_zero_ideal(ring_z):
    # every sample of 0 + 0 is (0, 0): the harness would pass vacuously, and
    # shrink_ideal would return the zero ideal from the witness (0, 0)
    zero = Ideal.of(ring_z, 0)
    with pytest.raises(ZeroIdeal):
        IdealPairDomain(zero)
    with pytest.raises(ZeroIdeal):
        padic_sup_norm(zero, 2)


def test_sampler_sizes_may_be_zero(ring_z):
    # only a negative radius or box is refused
    rng = random.Random(0)
    assert MatrixGroupDomain(ring_z, 2, [elementary(ring_z, 2, 1, 2, 1)], 0).sample(rng) == identity(ring_z, 2)
    assert z2_mixed_norm(2, box=0).domain.sample(rng) == (ring_z.zero, ring_z.zero)
    assert padic_sup_norm(Ideal.of(ring_z, 2), 2, box=0).domain.sample(rng) == (ring_z.zero, ring_z.zero)


def test_padic_sup_harness(ring_z):
    q = Ideal.of(ring_z, 2)
    assert axiom_harness(padic_sup_norm(q, 2), 300, seed=24).passed


@pytest.mark.parametrize("p", [1, 0, -2, 4])
def test_padic_norms_refuse_a_non_prime_p_when_built(ring_z, p):
    # no value is evaluated here: with p = 1 the valuation loop never ends
    with pytest.raises(ValueError, match="prime"):
        z2_mixed_norm(p)
    with pytest.raises(ValueError, match="prime"):
        padic_sup_norm(Ideal.of(ring_z, 2), p)


@pytest.mark.parametrize("ring", [RingSpec.poly_over_fp(2), RingSpec.integers_mod(8),
                                  RingSpec.localized_integers(3)])
def test_padic_sup_norm_needs_an_ideal_of_z(ring):
    with pytest.raises(UnsupportedRing):
        padic_sup_norm(Ideal.of(ring, 2), 2)


@pytest.mark.parametrize("samples", [0, -5])
def test_harness_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        axiom_harness(z2_mixed_norm(2), samples)


def test_z2_mixed_nondiscrete_and_unbounded_at_scale():
    # values 2^-k / 2 march to zero along (2^k, 0); values |y| grow along (0, y)
    norm = z2_mixed_norm(2)
    values = [norm.value(_z2(2**k, 0)) for k in range(10)]
    assert all(values[i + 1] < values[i] for i in range(9))
    assert values[-1] == Fraction(1, 1024)
    assert norm.value(_z2(0, 10**6)) == 10**6


# -- value streams ---------------------------------------------------------------------------------


# sha256 of the value stream of each construction: str(norm.value(g)) for 200
# draws of norm.domain.sample from random.Random(0), one line per draw.  The
# harness reports only violation counts, so these pin the values themselves.
VALUE_STREAM_SHA256 = {
    "dirac-matrix": "1b576c153be7d5650d73d97c3a611e891b5e1d1c20f1f04af4441c9d156c78f4",
    "dirac-finite": "48fda1ceb1d350030bc1ddf49636588abaabb489f4c11cff8d3ed293396352a7",
    "filtration": "f57d7cd5b57ef70351d311b5be76c6f4409a8f110ed55b3f190bdc3d02903db8",
    "bounded": "f737d0c54185ae2dd7e3bd55f06e9bde4c428c85701fe9308e312bc5c5d73058",
    "singular": "287307dc8be3c7c18135836704763009a220822f8cfae10f480c70625b066aeb",
    "quotient": "f9ac7c81e2ee3cefb3c2b216b32dff47f11e80fc8bdf7de887bce5326699761b",
    "average": "1c48aa19ea432f16556cf9eb20bed0e183805d09e4bf90006ae327a8b54c63de",
    "product-sum": "968941505900458245c0262dc97c575f53ca7c4a66d5a4739bc0754ff56fd426",
    "z2-mixed": "027b19570930a5aabdfb7f8fe9a178eaa51488a3d7d42de66ebf9dd2cfadb1fc",
    "padic-sup": "a2a9e9aea0cbd1588fd00939c8521d23b88d31c5e2f17e8d6c178741718cd50e",
    "word": "fa4af1812fcde3d6dce0d5c690f3eb5e3001ba925a5c2d8db6f3a9225f3d44f7",
}


def _value_stream_norms(ring_z, sl2_f3, sl2_z4, ring_z4):
    q2, q3 = Ideal.of(ring_z, 2), Ideal.of(ring_z, 3)
    filtration = filtration_norm(FiltrationChain(sl_domain(ring_z, 3), q2))
    inner = filtration_norm(FiltrationChain(gamma_domain(ring_z, 3, 2), q2))
    base2 = filtration_norm(FiltrationChain(sl_domain(ring_z, 2), q3))
    minus = SqMatrix.from_raw(ring_z, [[-1, 0], [0, -1]])
    _, hamming, _ = _hamming_norm_on_gamma2(sl2_z4, ring_z4)
    qz4 = Ideal.of(ring_z4, 2)
    member4 = lambda g: in_congruence_subgroup(g, qz4)
    reps = []
    for g in elements(sl2_z4):
        if all(not member4(g * mat_inv(r)) for r in reps):
            reps.append(g)
    seeds = [sl2_f3.idx(elementary(sl2_f3.ring, 2, i, j, 1)) for i, j in ((1, 2), (2, 1))]
    word = word_norm_eval(sl2_f3, conjugation_closure(sl2_f3, seeds))
    return {
        "dirac-matrix": dirac_norm(sl_domain(ring_z, 3)),
        "dirac-finite": dirac_norm(FiniteGroupDomain(sl2_f3)),
        "filtration": filtration,
        "bounded": bounded_transform(filtration),
        "singular": singular_extension(bounded_transform(inner), sl_domain(ring_z, 3),
                                       lambda g: in_congruence_subgroup(g, q2)),
        "quotient": quotient_norm(base2, [identity(ring_z, 2), minus]),
        "average": average_norm(hamming, reps, len(reps), member4),
        "product-sum": product_sum_norm(word, dirac_norm(FiniteGroupDomain(sl2_f3))),
        "z2-mixed": z2_mixed_norm(2),
        "padic-sup": padic_sup_norm(q2, 2),
        "word": word,
    }


def _value_stream_sha256(norm) -> str:
    rng = random.Random(0)
    text = "".join(f"{norm.value(norm.domain.sample(rng))}\n" for _ in range(200))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def value_stream_norms(ring_z, sl2_f3, sl2_z4, ring_z4):
    return _value_stream_norms(ring_z, sl2_f3, sl2_z4, ring_z4)


@pytest.mark.parametrize("name", sorted(VALUE_STREAM_SHA256))
def test_value_stream_digest(value_stream_norms, name):
    assert _value_stream_sha256(value_stream_norms[name]) == VALUE_STREAM_SHA256[name]
