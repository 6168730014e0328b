"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see the lines for
passing tests).  Values are exact; runtime budgets are asserted where stated.
"""

import random
import time
from fractions import Fraction

import pytest

from congwidth.census import verify_sum_identity, width_bfs
from congwidth.factorization import decompose_elementary, factor_count_census
from congwidth.matrices import (
    SqMatrix,
    elementary,
    identity,
    in_congruence_subgroup,
    is_central,
    mat_inv,
)
from congwidth.norms import (
    FiltrationChain,
    FiniteGroupDomain,
    MatrixGroupDomain,
    NormEval,
    axiom_harness,
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
from congwidth.norms import average_norm
from congwidth.reduction import (
    reduce_full,
    reduce_to_affine,
    relocate_elementary,
    replay_trace,
    serialize_trace,
    sl2_unit_reduction,
    word_product,
)
from congwidth.rings import Ideal, RingSpec
from conftest import elements

ALL_TARGETS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]


def _report(num, desc, ok):
    print(f"ACCEPTANCE criterion={num} {'PASS' if ok else 'FAIL'}: {desc}")


def _sl_domain(ring, n, radius=6):
    gens = [
        elementary(ring, n, i, j, 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    return MatrixGroupDomain(ring, n, gens, radius)


def _gamma_domain(ring, n, q0, radius=6):
    gens = [
        elementary(ring, n, i, j, q0)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    return MatrixGroupDomain(ring, n, gens, radius)


def test_criterion_1_exhaustive_width_bounds(sl3_f2, ring_f2):
    """Every non-central element of SL_3(F_2), every target: BFS minima within
    the certified budget (9 operations, word length 512); exact integers."""
    ok = False
    try:
        t0 = time.time()
        q = Ideal.of(ring_f2, 1)
        checked = 0
        max_ops = max_word = 0
        for k in range(len(sl3_f2)):
            if k in sl3_f2.center:
                continue
            res = width_bfs(sl3_f2, k, q)
            for target in ALL_TARGETS:
                r = res[target]
                assert not r.unreachable, (k, target)
                assert r.min_ops <= 9
                assert r.min_word <= 512
                max_ops = max(max_ops, r.min_ops)
                max_word = max(max_word, r.min_word)
                checked += 1
        elapsed = time.time() - t0
        assert checked == (len(sl3_f2) - len(sl3_f2.center)) * 6
        assert elapsed < 120, f"census took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, f"exhaustive SL3(F2) census: {checked} pairs, "
                   f"max ops {max_ops} <= 9, max word {max_word} <= 512", ok)


def test_criterion_2_randomized_pipeline(ring_z):
    """100 seeded elements of the level-2 congruence subgroup of SL_3(Z),
    all 6 targets: valid traces, bit-exact replay, budget 9/512, stage bounds
    4/1/1/3, under a minute."""
    ok = False
    try:
        t0 = time.time()
        q = Ideal.of(ring_z, 2)
        rng = random.Random(20260810)

        def sample():
            while True:
                g = identity(ring_z, 3)
                for _ in range(10):
                    i, j = rng.sample([1, 2, 3], 2)
                    g = g * elementary(ring_z, 3, i, j, 2 * rng.choice([-3, -2, -1, 1, 2, 3]))
                if not is_central(g):
                    return g

        count = 0
        for _ in range(100):
            sigma = sample()
            for target in ALL_TARGETS:
                trace = reduce_full(sigma, q, target)
                assert len(trace.steps) <= 9
                assert trace.word_length <= 512
                counts = trace.stage_counts()
                assert counts.get("affine", 0) <= 4
                assert counts.get("translate", 0) <= 1
                assert counts.get("single", 0) <= 1
                assert counts.get("relocate", 0) <= 3
                text = serialize_trace(trace)
                again = replay_trace(text)  # raises on any replay mismatch
                assert serialize_trace(again) == text
                out = trace.output
                diff = out - identity(ring_z, 3)
                for i in range(1, 4):
                    for j in range(1, 4):
                        e = diff.e(i, j)
                        if (i, j) == target:
                            assert not e.is_zero and q.contains(e)
                        else:
                            assert e.is_zero
                count += 1
        elapsed = time.time() - t0
        assert count == 600
        assert elapsed < 60, f"pipeline took {elapsed:.1f}s"
        ok = True
    finally:
        _report(2, f"600 randomized reductions replay bit-exactly in {elapsed:.1f}s", ok)


def test_criterion_3_branch_coverage(ring_z, ring_l5, ring_f5):
    """Constructed inputs reach every tagged case of the affine stage, the
    relocation stage, and the dimension-2 shortcut (both sides)."""
    ok = False
    hit = []
    try:
        q2 = Ideal.of(ring_z, 2)

        # affine stage, commuting case, non-scalar block (needs a unit != 1)
        qL = Ideal.of(ring_l5, 2)
        sigma = SqMatrix.from_raw(ring_l5, [[25, 2, 0], [0, 25, 0], [0, 2, (1, -4)]])
        trace, _ = reduce_to_affine(sigma, qL)
        assert [s.case for s in trace.steps] == ["affine.commuting.block"]
        hit.append("affine.commuting.block")

        # affine stage, commuting case, scalar block (needs a cube root of 1)
        P7 = RingSpec.poly_over_fp(7)
        q1 = Ideal.of(P7, 1)
        x = P7.x()
        sigma = SqMatrix.from_raw(P7, (
            (P7.el(2), x, P7.zero),
            (P7.zero, P7.el(2), P7.zero),
            (P7.zero, P7.zero, P7.el(2)),
        ))
        trace, _ = reduce_to_affine(sigma, q1)
        assert [s.case for s in trace.steps] == ["affine.commuting.scalar"]
        hit.append("affine.commuting.scalar")

        # affine stage, split case, second commutator commutes
        sigma = elementary(ring_z, 3, 3, 1, 2) * elementary(ring_z, 3, 2, 3, 2)
        trace, _ = reduce_to_affine(sigma, q2)
        assert any(s.case.startswith("affine.split.recommuting") for s in trace.steps)
        hit.append("affine.split.recommuting")

        # affine stage, split case, second commutator lands upstairs
        sigma = SqMatrix.from_raw(ring_z, [[1, 0, 0], [-4, 1, 2], [-2, 0, 1]])
        trace, _ = reduce_to_affine(sigma, q2)
        assert "affine.split.comm2" in [s.case for s in trace.steps]
        hit.append("affine.split.comm2")

        # affine stage with the stable-range shift
        sigma = SqMatrix.from_raw(ring_z, [[3, 0, 4], [6, 1, 0], [2, 0, 3]])
        trace, _ = reduce_to_affine(sigma, q2)
        assert trace.steps[0].case == "affine.split.shift"
        hit.append("affine.split.shift")

        # relocation: same row / same column / generic pivot / both corners
        cases = [
            ((1, 3), (1, 2), "relocate.same-row"),
            ((2, 3), (1, 3), "relocate.same-col"),
            ((3, 1), (1, 2), "relocate.pivot"),
            ((2, 1), (3, 2), "relocate.corner.direct"),
            ((2, 1), (1, 2), "relocate.corner.detour"),
        ]
        for (k, l), target, tag in cases:
            trace = relocate_elementary(elementary(ring_z, 3, k, l, 2), q2, target)
            assert trace.steps[0].case == tag
            hit.append(tag)

        # dimension-2 shortcut, both sides, full unit path over Z[1/5]
        qL = Ideal.of(ring_l5, 2)
        t12 = sl2_unit_reduction(SqMatrix.from_raw(ring_l5, [[1, 0], [2, 1]]), qL, "E12")
        assert [s.case for s in t12.steps] == ["sl2.unit", "sl2.unit.conj", "sl2.unit.comm"]
        assert word_product(t12) == t12.output
        hit.append("sl2.unit(E12)")
        t21 = sl2_unit_reduction(SqMatrix.from_raw(ring_l5, [[1, 2], [0, 1]]), qL, "E21")
        assert all(s.case.startswith("sl2.mirror|") for s in t21.steps)
        assert word_product(t21) == t21.output
        hit.append("sl2.mirror(E21)")

        # dimension-2 shortcut over a finite ring, both sides
        q5 = Ideal.of(ring_f5, 1)
        sig5 = SqMatrix.from_raw(ring_f5, [[1, 1], [1, 2]])
        for side in ("E12", "E21"):
            tr = sl2_unit_reduction(sig5, q5, side)
            assert tr.word_length <= 4
            assert word_product(tr) == tr.output
            hit.append(f"sl2.{side}(Z/5)")
        ok = True
    finally:
        _report(3, f"branch coverage: {len(hit)} tagged cases produced valid traces", ok)


def test_criterion_4_sum_identity():
    """The five-term decomposition: 10^4 random integer tuples plus an
    entrywise symbolic polynomial check."""
    ok = False
    try:
        rng = random.Random(4)
        for _ in range(10**4):
            t = tuple(rng.randint(-50, 50) for _ in range(5))
            equal, lhs, rhs = verify_sum_identity(*t)
            assert equal, (t, lhs, rhs)

        import sympy

        m, a, b, c, d = sympy.symbols("m a b c d")
        lhs = sympy.Matrix([[1 + m**2 * a, m * b], [m * c, 1 + m**2 * d]])
        rhs = (
            (2 * m**2 - 3) * sympy.eye(2)
            + sympy.Matrix([[1, m * (b - 2)], [0, 1]])
            + sympy.Matrix([[1, 0], [m * (c - a - d + 4), 1]])
            + sympy.Matrix([[1 + m**2 * (a - 2), m], [m * (a - 2), 1]])
            + sympy.Matrix([[1, m], [m * (d - 2), 1 + m**2 * (d - 2)]])
        )
        assert sympy.expand(lhs - rhs) == sympy.zeros(2, 2)
        ok = True
    finally:
        _report(4, "five-term sum identity: 10^4 numeric tuples and symbolic equality", ok)


def test_criterion_5_norm_axioms(ring_z, sl2_f3, sl2_z4, ring_z4):
    """Every implemented norm construction passes the axiom harness with
    10^3 samples and zero violations, in exact rational arithmetic."""
    ok = False
    passed = []
    try:
        samples = 10**3
        q2 = Ideal.of(ring_z, 2)
        q3 = Ideal.of(ring_z, 3)

        norms = {}
        norms["dirac"] = dirac_norm(FiniteGroupDomain(sl2_f3))
        norms["filtration"] = filtration_norm(
            FiltrationChain(_sl_domain(ring_z, 3), q2)
        )
        inner = filtration_norm(FiltrationChain(_gamma_domain(ring_z, 3, 2), q2))
        norms["singular-extension"] = singular_extension(
            inner, _sl_domain(ring_z, 3), lambda g: in_congruence_subgroup(g, q2)
        )
        base2 = filtration_norm(FiltrationChain(_sl_domain(ring_z, 2), q3))
        minus = SqMatrix.from_raw(ring_z, [[-1, 0], [0, -1]])
        norms["quotient-by-center"] = quotient_norm(base2, [identity(ring_z, 2), minus])

        # averaged norm over a transversal of the congruence layer of SL_2(Z/4)
        qz4 = Ideal.of(ring_z4, 2)
        members = [g for g in elements(sl2_z4) if in_congruence_subgroup(g, qz4)]

        class _LayerDomain:
            def mul(self, a, b):
                return a * b

            def inv(self, a):
                return mat_inv(a)

            def is_identity(self, a):
                return a == identity(ring_z4, 2)

            def sample(self, rng):
                return members[rng.randrange(len(members))]

        layer = _LayerDomain()

        def hamming(g):
            diff = g - identity(ring_z4, 2)
            return Fraction(sum(0 if e.is_zero else 1 for r in diff.rows for e in r), 4)

        inner4 = NormEval(layer, hamming)
        reps = []
        for g in elements(sl2_z4):
            if all(not in_congruence_subgroup(g * mat_inv(r), qz4) for r in reps):
                reps.append(g)
        norms["average"] = average_norm(
            inner4, reps, len(reps), lambda g: in_congruence_subgroup(g, qz4)
        )

        seeds = [
            sl2_f3.idx(elementary(sl2_f3.ring, 2, 1, 2, 1)),
            sl2_f3.idx(elementary(sl2_f3.ring, 2, 2, 1, 1)),
        ]
        word = word_norm_eval(sl2_f3, conjugation_closure(sl2_f3, seeds))
        norms["word"] = word
        norms["product-sum"] = product_sum_norm(word, dirac_norm(FiniteGroupDomain(sl2_f3)))
        norms["z2-mixed"] = z2_mixed_norm(2)

        for seed, (tag, norm) in enumerate(sorted(norms.items()), start=100):
            report = axiom_harness(norm, samples, seed=seed)
            assert report.passed, (tag, report.render())
            passed.append(tag)
        ok = True
    finally:
        _report(5, f"norm axioms at 10^3 samples: {', '.join(passed)}", ok)


def test_criterion_6_shear_inequalities_and_shrinking(ring_z):
    """The two shear-difference inequalities hold on 10^3 samples of the
    2-adic sup norm on pairs from (2); the shrinking step returns ideals
    passing the sampled epsilon-ball check for epsilon in {1/4, 1/16}."""
    ok = False
    try:
        q = Ideal.of(ring_z, 2)
        norm = padic_sup_norm(q, 2)
        dom = norm.domain
        rng = random.Random(6)
        for _ in range(10**3):
            x, y = dom.sample(rng)
            z = ring_z.el(2 * rng.randint(-30, 30))
            v = norm.value((x, y))
            assert norm.value((z * y, ring_z.zero)) <= 2 * v
            assert norm.value((ring_z.zero, z * x)) <= 2 * v
        for eps in (Fraction(1, 4), Fraction(1, 16)):
            shrunk, (x, y), violations = shrink_ideal(norm, eps, seed=7)
            assert 6 * norm.value((x, y)) <= eps
            assert not shrunk.is_zero
            assert violations == 0
        ok = True
    finally:
        _report(6, "shear inequalities on 10^3 samples; shrink passes at 1/4 and 1/16", ok)


def test_criterion_7_decomposition(ring_z, sl2_f3, ring_f2, ring_f3):
    """Re-multiplication of 10^3 random SL_3(Z) factorizations, exhaustive
    SL_2(Z/3) factorization, and census totals matching closed-form orders."""
    ok = False
    try:
        rng = random.Random(7)
        for _ in range(10**3):
            g = identity(ring_z, 3)
            for _ in range(12):
                i, j = rng.sample([1, 2, 3], 2)
                g = g * elementary(ring_z, 3, i, j, rng.randint(-4, 4))
            fac = decompose_elementary(g)
            assert fac.product() == g
        for g in elements(sl2_f3):
            assert decompose_elementary(g).product() == g
        hist2, _, order2 = factor_count_census(2, ring_f2)
        assert order2 == 2 * (2**2 - 1) and sum(hist2.values()) == order2
        hist3, _, order3 = factor_count_census(2, ring_f3)
        assert order3 == 3 * (3**2 - 1) and sum(hist3.values()) == order3
        ok = True
    finally:
        _report(7, "decomposition re-multiplies on 10^3 random + exhaustive inputs; "
                   "census totals match closed-form orders", ok)


def test_criterion_8_oracle_consistency(sl3_f2, ring_f2, sl2_f5, ring_f5):
    """Census BFS minima are lower bounds for the constructive traces: the
    full pipeline over SL_3(F_2) and the dimension-2 shortcut over SL_2(Z/5)."""
    ok = False
    try:
        q = Ideal.of(ring_f2, 1)
        pairs = 0
        for k, g in enumerate(elements(sl3_f2)):
            if k in sl3_f2.center:
                continue
            res = width_bfs(sl3_f2, k, q)
            for target in ALL_TARGETS:
                trace = reduce_full(g, q, target)
                assert len(trace.steps) <= 9
                r = res[target]
                assert r.min_ops <= len(trace.steps)
                assert r.min_word <= trace.word_length
                pairs += 1

        q5 = Ideal.of(ring_f5, 1)
        sl2_pairs = 0
        for k, g in enumerate(elements(sl2_f5)):
            if k in sl2_f5.center:
                continue
            res = width_bfs(sl2_f5, k, q5)
            for side, target in (("E12", (1, 2)), ("E21", (2, 1))):
                trace = sl2_unit_reduction(g, q5, side)
                assert res[target].min_word <= trace.word_length
                sl2_pairs += 1
        ok = True
    finally:
        _report(8, f"BFS minima bound trace ledgers: {pairs} SL3(F2) pairs, "
                   f"{sl2_pairs} SL2(Z/5) pairs", ok)
