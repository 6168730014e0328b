import random

import pytest

from congwidth.census import enumerate_sl
from congwidth.errors import (
    CentralInput,
    CongwidthError,
    NoUnitFound,
    NotCongruent,
    ReplayMismatch,
    SearchExhausted,
    TrivialInput,
    UnsupportedRing,
)
from congwidth.matrices import (
    SqMatrix,
    commutator,
    elementary,
    identity,
    in_congruence_subgroup,
    is_central,
    mat_inv,
)
from congwidth.reduction import (
    _congruent_units,
    _upper_eta,
    expand_trace_word,
    reduce_full,
    reduce_to_affine,
    relocate_elementary,
    replay_trace,
    serialize_trace,
    sl2_unit_reduction,
    strip_to_translation,
    translation_to_elementary,
    unimodular_square_shift,
    word_product,
)
from congwidth.rings import Ideal, RingElement, RingSpec, is_unimodular, unit_check
from conftest import elements

ALL_TARGETS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]


def rand_gamma_element(ring, q0, rng, nfac=10, n=3):
    """Random product of elementary matrices with entries in q0*Z, non-central."""
    while True:
        g = identity(ring, n)
        for _ in range(nfac):
            i, j = rng.sample(range(1, n + 1), 2)
            g = g * elementary(ring, n, i, j, q0 * rng.choice([-3, -2, -1, 1, 2, 3]))
        if not is_central(g):
            return g


# -- stable-range shift -------------------------------------------------------


def test_shift_trivial_prefix(ring_z):
    alpha = [ring_z.el(1), ring_z.zero, ring_z.el(9)]
    wit = unimodular_square_shift(alpha)
    assert all(t.is_zero for t in wit.t)


def test_shift_coprime_prefix(ring_z):
    wit = unimodular_square_shift([ring_z.el(2), ring_z.el(3), ring_z.el(5)])
    assert all(t.is_zero for t in wit.t)


def test_shift_certificate(ring_z):
    alpha = [ring_z.el(2), ring_z.el(4), ring_z.el(3)]
    wit = unimodular_square_shift(alpha)
    an2 = ring_z.el(9)
    shifted = [a + t * an2 for a, t in zip(alpha[:2], wit.t)]
    assert tuple(shifted) == wit.shifted
    total = ring_z.zero
    for c, e in zip(wit.bezout, wit.shifted):
        total = total + c * e
    assert total == ring_z.one


def test_shift_exhaustion(ring_z):
    # (2, 4, 2): every shift stays even, so the bounded search must report out
    with pytest.raises(SearchExhausted):
        unimodular_square_shift([ring_z.el(2), ring_z.el(4), ring_z.el(2)], bound=60)


def test_shift_exhaustion_over_a_finite_ring():
    # over Z/4 a shift adds t * 2^2 = 0, so (2, 2) stays; Z/4's shells run out first
    Z4 = RingSpec.integers_mod(4)
    with pytest.raises(SearchExhausted, match=r"^no unimodular shift found \(search bound 10000\)$"):
        unimodular_square_shift([Z4.el(2)] * 3)


# -- stage 1 -------------------------------------------------------------------


def test_affine_short_circuit(ring_z):
    q = Ideal.of(ring_z, 2)
    trace, loc = reduce_to_affine(elementary(ring_z, 3, 1, 3, 2), q)
    assert loc == "upper" and len(trace.steps) == 0


def test_affine_commuting_block_branch(ring_l5):
    # first column 25*e_1, lower block non-scalar: one block commutator
    q = Ideal.of(ring_l5, 2)
    sigma = SqMatrix.from_raw(
        ring_l5, [[25, 2, 0], [0, 25, 0], [0, 2, (1, -4)]]
    )
    trace, loc = reduce_to_affine(sigma, q)
    assert [s.case for s in trace.steps] == ["affine.commuting.block"]
    assert loc == "lower"


def test_affine_commuting_scalar_branch():
    # unit cube root forces the scalar sub-branch; needs the unit ideal
    P7 = RingSpec.poly_over_fp(7)
    q = Ideal.of(P7, 1)
    x = P7.x()
    sigma = SqMatrix.from_raw(
        P7,
        (
            (P7.el(2), x, P7.zero),
            (P7.zero, P7.el(2), P7.zero),
            (P7.zero, P7.zero, P7.el(2)),
        ),
    )
    trace, loc = reduce_to_affine(sigma, q)
    assert [s.case for s in trace.steps] == ["affine.commuting.scalar"]
    assert loc == "lower"


def test_affine_split_recommuting_branch(ring_z):
    q = Ideal.of(ring_z, 2)
    sigma = elementary(ring_z, 3, 3, 1, 2) * elementary(ring_z, 3, 2, 3, 2)
    trace, loc = reduce_to_affine(sigma, q)
    tags = [s.case for s in trace.steps]
    assert tags[0] == "affine.split.comm"
    assert any(t.startswith("affine.split.recommuting") for t in tags)
    assert len(trace.steps) <= 4


def test_affine_split_second_commutator_branch(ring_z):
    q = Ideal.of(ring_z, 2)
    sigma = SqMatrix.from_raw(ring_z, [[1, 0, 0], [-4, 1, 2], [-2, 0, 1]])
    trace, loc = reduce_to_affine(sigma, q)
    tags = [s.case for s in trace.steps]
    assert tags == ["affine.split.comm", "affine.split.conj", "affine.split.comm2"]
    assert loc == "upper"


def test_affine_shift_branch(ring_z):
    q = Ideal.of(ring_z, 2)
    sigma = SqMatrix.from_raw(ring_z, [[3, 0, 4], [6, 1, 0], [2, 0, 3]])
    assert not is_unimodular([ring_z.el(3), ring_z.el(6)])[0]
    trace, loc = reduce_to_affine(sigma, q)
    assert [s.case for s in trace.steps][0] == "affine.split.shift"
    assert len(trace.steps) <= 4


def test_affine_rejects_bad_input(ring_z):
    q = Ideal.of(ring_z, 2)
    with pytest.raises(CentralInput):
        reduce_to_affine(identity(ring_z, 3), q)
    with pytest.raises(NotCongruent):
        reduce_to_affine(elementary(ring_z, 3, 1, 2, 1), q)


# -- stage 2 -------------------------------------------------------------------


def test_translate_upper_formula(ring_z):
    # [[gamma, v], [0, 1]] commutated with the shear: translation gamma v' - v'
    q = Ideal.of(ring_z, 2)
    gamma = elementary(ring_z, 2, 2, 1, 2)
    g = SqMatrix.from_raw(ring_z, [[1, 0, 4], [2, 1, 6], [0, 0, 1]])
    trace = strip_to_translation(g, q, "upper")
    assert [s.case for s in trace.steps] == ["translate.col"]
    out = trace.output
    # independent block oracle: v' = 2*e_k for the chosen k, result I + (gamma v' - v')
    lam = trace.steps[0].op.s
    k = next(
        idx for idx in range(2) if not lam.e(idx + 1, 3).is_zero
    )
    vprime = [lam.e(1, 3), lam.e(2, 3)]
    gv = [
        sum((gamma.rows[r][c] * vprime[c] for c in range(2)), ring_z.zero)
        for r in range(2)
    ]
    expected = identity(ring_z, 3)
    rows = [list(r) for r in expected.rows]
    rows[0][2] = gv[0] - vprime[0]
    rows[1][2] = gv[1] - vprime[1]
    assert out == SqMatrix.from_raw(ring_z, rows)


def test_translate_upper_trivial(ring_z):
    q = Ideal.of(ring_z, 2)
    g = SqMatrix.from_raw(ring_z, [[1, 0, 4], [0, 1, 0], [0, 0, 1]])
    trace = strip_to_translation(g, q, "upper")
    assert len(trace.steps) == 0


def test_translate_refusals(ring_z):
    q = Ideal.of(ring_z, 2)
    g = SqMatrix.from_raw(ring_z, [[1, 0, 4], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="^unknown affine location 'sideways'$"):
        strip_to_translation(g, q, "sideways")
    with pytest.raises(CentralInput, match="^translation stage needs a non-central input$"):
        strip_to_translation(identity(ring_z, 3), q, "upper")


def test_translate_lower(ring_z):
    q = Ideal.of(ring_z, 2)
    g = SqMatrix.from_raw(ring_z, [[1, 2, 4], [0, 1, 2], [0, 2, 5]])
    assert in_congruence_subgroup(g, q)
    trace = strip_to_translation(g, q, "lower")
    assert [s.case for s in trace.steps] == ["translate.row"]
    out = trace.output
    assert out.column(1) == (ring_z.one, ring_z.zero, ring_z.zero)
    assert all(out.rows[i][j] == identity(ring_z, 3).rows[i][j] for i in (1, 2) for j in (1, 2))
    assert not is_central(out)


# -- stage 3 -------------------------------------------------------------------


def test_single_entry_column_formula(ring_z):
    # translation vector (0, 3, 0) in dimension 4 with q = (2): one commutator
    # with the chosen ideal element 2 gives exactly I - 6*e_14
    q = Ideal.of(ring_z, 2)
    g = elementary(ring_z, 4, 2, 4, 3)
    trace = translation_to_elementary(g, q)
    assert [s.case for s in trace.steps] == ["single.col"]
    assert trace.output == elementary(ring_z, 4, 1, 4, -6)


def test_single_entry_row_case(ring_z):
    q = Ideal.of(ring_z, 2)
    g = elementary(ring_z, 3, 1, 2, 4) * elementary(ring_z, 3, 1, 3, 2)
    trace = translation_to_elementary(g, q)
    assert [s.case for s in trace.steps] == ["single.row"]
    out = trace.output
    # one off-diagonal entry left, in row 1, value 2 * (first moved entry)
    diff = [(i, j) for i in range(3) for j in range(3) if i != j and not (out.rows[i][j].is_zero)]
    assert len(diff) == 1 and diff[0][0] == 0


def test_single_entry_bottom_case(ring_z):
    # bottom translation (2, 4): one commutator with I + 2 e_21 leaves 8 at (3, 1)
    q = Ideal.of(ring_z, 2)
    trace = translation_to_elementary(SqMatrix.from_raw(ring_z, [[1, 0, 0], [0, 1, 0], [2, 4, 1]]), q)
    assert [s.case for s in trace.steps] == ["single.bottom"]
    assert trace.output == elementary(ring_z, 3, 3, 1, 8)


def test_single_entry_refuses_other_shapes(ring_z):
    with pytest.raises(ValueError, match="not in a translation block form"):
        translation_to_elementary(elementary(ring_z, 3, 2, 1, 2), Ideal.of(ring_z, 2))


def test_single_entry_already_single(ring_z):
    q = Ideal.of(ring_z, 2)
    trace = translation_to_elementary(elementary(ring_z, 3, 1, 3, 6), q)
    assert len(trace.steps) == 0


def test_single_entry_bottom_already_single(ring_z):
    q = Ideal.of(ring_z, 2)
    g = elementary(ring_z, 3, 3, 1, 2)
    trace = translation_to_elementary(g, q)
    assert len(trace.steps) == 0 and trace.output == g
    with pytest.raises(CentralInput, match="^single-entry stage needs a non-central input$"):
        translation_to_elementary(identity(ring_z, 3), q)


# -- stage 4 -------------------------------------------------------------------


def test_relocate_paper_instance(ring_z):
    # moving (1,3) to (1,2) with q = (2): [I + 2e13, I + 2e32] = I + 4e12
    q = Ideal.of(ring_z, 2)
    g = elementary(ring_z, 3, 1, 3, 2)
    trace = relocate_elementary(g, q, (1, 2))
    assert [s.case for s in trace.steps] == ["relocate.same-row"]
    assert trace.output == elementary(ring_z, 3, 1, 2, 4)
    assert trace.output == commutator(g, elementary(ring_z, 3, 3, 2, 2))


def test_relocate_branches(ring_z):
    q = Ideal.of(ring_z, 2)
    cases = [
        ((1, 3), (1, 2), ["relocate.same-row"]),
        ((2, 3), (1, 3), ["relocate.same-col"]),
        ((3, 1), (1, 2), ["relocate.pivot", "relocate.same-col"]),
        ((2, 1), (3, 2), ["relocate.corner.direct", "relocate.same-row"]),
        ((2, 1), (1, 2), ["relocate.corner.detour", "relocate.pivot", "relocate.same-col"]),
    ]
    for (k, l), target, expected_tags in cases:
        trace = relocate_elementary(elementary(ring_z, 3, k, l, 2), q, target)
        assert [s.case for s in trace.steps] == expected_tags
        out = trace.output
        offdiag = [
            (i, j)
            for i in range(1, 4)
            for j in range(1, 4)
            if i != j and not out.e(i, j).is_zero
        ]
        assert offdiag == [target]
        assert q.contains(out.e(*target))
        assert len(trace.steps) <= 3


def test_relocate_same_position(ring_z):
    q = Ideal.of(ring_z, 2)
    trace = relocate_elementary(elementary(ring_z, 3, 1, 2, 2), q, (1, 2))
    assert len(trace.steps) == 0


def test_relocate_refuses_two_entries(ring_z):
    g = elementary(ring_z, 3, 1, 2, 2) * elementary(ring_z, 3, 1, 3, 2)
    with pytest.raises(TrivialInput, match="^relocation needs a single nonzero entry$"):
        relocate_elementary(g, Ideal.of(ring_z, 2), (1, 2))


def test_partial_traces_do_not_serialize(ring_z):
    trace = relocate_elementary(elementary(ring_z, 3, 1, 3, 2), Ideal.of(ring_z, 2), (1, 2))
    assert trace.kind == "partial"
    with pytest.raises(ValueError, match="^only full reduce/sl2 traces serialize$"):
        serialize_trace(trace)


# -- full pipeline ---------------------------------------------------------------


def test_reduce_full_elementary_input(ring_z):
    q = Ideal.of(ring_z, 2)
    trace = reduce_full(elementary(ring_z, 3, 1, 2, 2), q, (1, 2))
    assert len(trace.steps) == 0
    trace = reduce_full(elementary(ring_z, 3, 1, 2, 2), q, (2, 3))
    assert all(s.case.startswith("relocate") for s in trace.steps)


def test_reduce_full_random(ring_z):
    rng = random.Random(41)
    q = Ideal.of(ring_z, 2)
    for _ in range(8):
        sigma = rand_gamma_element(ring_z, 2, rng)
        for target in ALL_TARGETS:
            trace = reduce_full(sigma, q, target)
            assert len(trace.steps) <= 9
            assert trace.word_length <= 512
            counts = trace.stage_counts()
            assert counts.get("affine", 0) <= 4
            assert counts.get("translate", 0) <= 1
            assert counts.get("single", 0) <= 1
            assert counts.get("relocate", 0) <= 3
            word = expand_trace_word(trace)
            assert len(word) == trace.word_length
            assert word_product(trace) == trace.output


def test_reduce_full_other_rings(ring_p2, ring_l5):
    q = Ideal.of(ring_p2, [0, 1])  # the ideal (x)
    x = ring_p2.x()
    sigma = elementary(ring_p2, 3, 2, 1, x) * elementary(ring_p2, 3, 1, 3, x * x)
    trace = reduce_full(sigma, q, (3, 1))
    assert trace.word_length <= 512

    qL = Ideal.of(ring_l5, 3)
    sigma = elementary(ring_l5, 3, 2, 1, 3) * elementary(ring_l5, 3, 1, 2, (3, 1))
    trace = reduce_full(sigma, qL, (2, 3))
    assert len(trace.steps) <= 9


def test_reduce_full_rejects_dimension_two(ring_z):
    q = Ideal.of(ring_z, 2)
    with pytest.raises(UnsupportedRing):
        reduce_full(elementary(ring_z, 2, 1, 2, 2), q, (1, 2))


def test_reduce_full_rejects_nondomain():
    Z6 = RingSpec.integers_mod(6)
    q = Ideal.of(Z6, 1)
    with pytest.raises(UnsupportedRing):
        reduce_full(elementary(Z6, 3, 1, 2, 1), q, (1, 2))


# -- word expansion ----------------------------------------------------------------


def test_expand_word_empty_trace(ring_z):
    q = Ideal.of(ring_z, 2)
    trace = reduce_full(elementary(ring_z, 3, 1, 2, 2), q, (1, 2))
    word = expand_trace_word(trace)
    assert len(word) == 1
    s, e = word[0]
    assert s.is_identity and e == 1


def test_expand_word_one_commutator(ring_z):
    q = Ideal.of(ring_z, 2)
    g = elementary(ring_z, 3, 1, 3, 2)
    trace = relocate_elementary(g, q, (1, 2))
    assert len(trace.steps) == 1
    word = expand_trace_word(trace)
    assert len(word) == 2
    assert word[0][1] == 1 and word[1][1] == -1
    prod = identity(ring_z, 3)
    for s, e in word:
        prod = prod * (s * (g**e) * mat_inv(s))
    assert prod == trace.output


def test_word_doubles_per_commutator(ring_z):
    rng = random.Random(43)
    q = Ideal.of(ring_z, 2)
    sigma = rand_gamma_element(ring_z, 2, rng)
    trace = reduce_full(sigma, q, (1, 3))
    wl = 1
    for st in trace.steps:
        if st.op.kind == "Conjugate":
            pass
        else:
            wl *= 2
        assert st.word_length == wl


# -- serialization ------------------------------------------------------------------


def test_trace_round_trip_bytes(ring_z):
    rng = random.Random(47)
    q = Ideal.of(ring_z, 2)
    sigma = rand_gamma_element(ring_z, 2, rng)
    trace = reduce_full(sigma, q, (2, 1))
    text = serialize_trace(trace)
    again = replay_trace(text)
    assert serialize_trace(again) == text


def test_replay_detects_corruption(ring_z):
    rng = random.Random(53)
    q = Ideal.of(ring_z, 2)
    sigma = rand_gamma_element(ring_z, 2, rng)
    trace = reduce_full(sigma, q, (1, 2))
    assert len(trace.steps) >= 2
    text = serialize_trace(trace)
    lines = text.splitlines()
    # corrupt the first recorded result matrix (M2 is step 1's result)
    idx = lines.index("M2") + 2
    entries = lines[idx].split()
    entries[0] = str(int(entries[0]) + 1)
    lines[idx] = " ".join(entries)
    with pytest.raises(ReplayMismatch, match="replay mismatch at step"):
        replay_trace("\n".join(lines) + "\n")


def test_validate_rejects_bad_witness(ring_z):
    q = Ideal.of(ring_z, 2)
    trace = relocate_elementary(elementary(ring_z, 3, 1, 3, 2), q, (1, 2))
    text = serialize_trace(
        trace.__class__("reduce", trace.input, q, (1, 2), trace.steps, 0)
    )
    bad = text.replace("sfac=3,2:2", "sfac=3,2:1")
    with pytest.raises(ReplayMismatch):
        replay_trace(bad)


# -- dimension-2 unit shortcut --------------------------------------------------------


def test_sl2_direct_branch(ring_z):
    q = Ideal.of(ring_z, 2)
    sigma = elementary(ring_z, 2, 1, 2, 4)
    trace = sl2_unit_reduction(sigma, q, "E12")
    assert len(trace.steps) == 0 and trace.word_length == 1


def test_sl2_unit_path_localized(ring_l5):
    q = Ideal.of(ring_l5, 2)
    sigma = SqMatrix.from_raw(ring_l5, [[1, 0], [2, 1]])
    trace = sl2_unit_reduction(sigma, q, "E12")
    tags = [s.case for s in trace.steps]
    assert tags == ["sl2.unit", "sl2.unit.conj", "sl2.unit.comm"]
    assert trace.word_length == 4
    out = trace.output
    assert out.e(2, 1).is_zero and not out.e(1, 2).is_zero
    assert word_product(trace) == out


def test_sl2_mirror_side(ring_l5):
    q = Ideal.of(ring_l5, 2)
    sigma = SqMatrix.from_raw(ring_l5, [[1, 2], [0, 1]])
    trace = sl2_unit_reduction(sigma, q, "E21")
    assert all(s.case.startswith("sl2.mirror|") for s in trace.steps)
    out = trace.output
    assert out.e(1, 2).is_zero and not out.e(2, 1).is_zero
    assert trace.word_length <= 4


def test_sl2_square_branch(ring_z):
    # -I times a unipotent: sigma^2 is a nontrivial upper elementary matrix
    q = Ideal.of(ring_z, 2)
    sigma = SqMatrix.from_raw(ring_z, [[-1, 2], [0, -1]])
    trace = sl2_unit_reduction(sigma, q, "E12")
    assert [s.case for s in trace.steps] == ["sl2.square"]
    assert trace.output == elementary(ring_z, 2, 1, 2, -4)
    assert word_product(trace) == trace.output


def test_sl2_comm_upper_branch():
    Z27 = RingSpec.integers_mod(27)
    q = Ideal.of(Z27, 3)
    sigma = SqMatrix.from_raw(Z27, [[4, 3], [0, 7]])
    trace = sl2_unit_reduction(sigma, q, "E12")
    assert [s.case for s in trace.steps] == ["sl2.comm-upper"]
    assert trace.word_length == 2


def test_sl2_no_solution_when_conjugation_collapses():
    # over Z/9 with q = (3), conjugation by the congruence subgroup fixes
    # sigma (everything lands in the square of the ideal, which is zero),
    # so products of conjugates stay inside <sigma> and never meet E12
    Z9 = RingSpec.integers_mod(9)
    q = Ideal.of(Z9, 3)
    sigma = SqMatrix.from_raw(Z9, [[4, 3], [0, 7]])
    with pytest.raises(NoUnitFound):
        sl2_unit_reduction(sigma, q, "E12")


def test_sl2_exhaustive_z5(sl2_f5, ring_f5):
    q = Ideal.of(ring_f5, 1)
    for k, g in enumerate(elements(sl2_f5)):
        if k in sl2_f5.center:
            continue
        for side in ("E12", "E21"):
            trace = sl2_unit_reduction(g, q, side)
            assert trace.word_length <= 4
            assert word_product(trace) == trace.output


def test_sl2_pair_search_upgrade_branch():
    # no two- or three-letter product lands in E12; phase C upgrades an
    # upper-triangular pair by one commutator
    Z9 = RingSpec.integers_mod(9)
    sigma = SqMatrix.from_raw(Z9, [[5, 3], [3, 2]])
    trace = sl2_unit_reduction(sigma, Ideal.of(Z9, 1), "E12")
    assert [s.case for s in trace.steps] == ["sl2.pair", "sl2.pair.comm"]
    assert trace.word_length == 4
    assert word_product(trace) == trace.output == elementary(Z9, 2, 1, 2, 6)


def _reference_upper_eta(a, beta, units, q):
    """The scan _upper_eta replaces: u over units, then z over 0, q0, -q0,
    ..., 8 q0, -8 q0; the first eta = [[u, z], [0, u^-1]] whose commutator
    entry z (a - a^-1) + beta (u^-1 - u) is nonzero."""
    ring, q0, ainv = q.ring, q.canonical, unit_check(a)
    zs = [ring.zero] + [x for k in range(1, 9) for x in (q0 * ring.el(k), -(q0 * ring.el(k)))]
    for u in units:
        uinv = unit_check(u)
        for z in zs:
            if not (z * (a - ainv) + beta * (uinv - u)).is_zero:
                return SqMatrix.from_raw(ring, ((u, z), (0, uinv)))
    return None


def _check_upper_eta(a, beta, q, units):
    """_upper_eta against the reference over all the units and over each
    alone; returns, per unit alone, the z of its eta (0 or q0) or None."""
    assert _upper_eta(a, beta, units, q) == _reference_upper_eta(a, beta, units, q)
    zs = []
    for u in units:
        got = _upper_eta(a, beta, [u], q)
        assert got == _reference_upper_eta(a, beta, [u], q), (a, beta, q, u)
        zs.append(None if got is None else got.e(1, 2))
    assert set(zs) <= {None, q.ring.zero, q.canonical}
    return zs


@pytest.mark.parametrize("m", range(2, 17))
def test_upper_eta_is_the_first_hit_of_the_z_scan_mod_m(m):
    # every upper-triangular (a, beta) of SL_2(Z/m), every nonzero ideal (d)
    # and its congruent units, all together and one at a time
    ring = RingSpec.integers_mod(m)
    for d in (d for d in range(1, m) if m % d == 0):
        q = Ideal.of(ring, d)
        units = _congruent_units(q)
        for a in _congruent_units(Ideal.of(ring, 1)):
            for beta in ring.residues():
                _check_upper_eta(a, beta, q, units)


@pytest.mark.parametrize("ring, draw", [
    (RingSpec.integers(), lambda rng: rng.randint(-40, 40)),
    (RingSpec.poly_over_fp(2), lambda rng: [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]),
    (RingSpec.poly_over_fp(3), lambda rng: [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]),
    (RingSpec.localized_integers(5), lambda rng: (rng.randint(-40, 40), rng.randint(-3, 3))),
], ids=["Z", "F2[x]", "F3[x]", "Z[1/5]"])
def test_upper_eta_is_the_first_hit_of_the_z_scan_at_random(ring, draw):
    rng = random.Random(21)
    all_units = [RingElement(ring, u) for u in ring.kernel.units()]
    kinds = set()
    for _ in range(60):
        q0 = ring.el(draw(rng))
        if q0.is_zero:
            continue
        q = Ideal(ring, (q0,))
        beta = ring.el(draw(rng)) if rng.random() < 0.8 else ring.zero
        zs = _check_upper_eta(rng.choice(all_units), beta, q, _congruent_units(q))
        kinds |= {"none" if z is None else "zero" if z.is_zero else "q0" for z in zs}
    # where every unit is its own inverse (Z, F2[x], F3[x]) c = d = 0: no eta
    involutive = all(unit_check(u) == u for u in all_units)
    assert kinds == ({"none"} if involutive else {"none", "zero", "q0"})


@pytest.mark.parametrize("m, q0", [(4, 2), (9, 3)])
def test_sl2_square_zero_corner_is_a_domain_outcome(m, q0):
    # the corner c of [[1, 3], [0, 1]]^theta over Z/9 is nonzero with c^2 = 0;
    # the unit search divided by c^2 and raised a bare ZeroDivisionError
    ring = RingSpec.integers_mod(m)
    q = Ideal.of(ring, q0)
    outcomes = {}
    for g in elements(enumerate_sl(2, ring)):
        if is_central(g) or not in_congruence_subgroup(g, q):
            continue
        for side in ("E12", "E21"):
            try:
                replay_trace(serialize_trace(sl2_unit_reduction(g, q, side)))
                outcome = "trace"
            except CongwidthError as exc:
                outcome = type(exc).__name__
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["trace"] > 0
    assert set(outcomes) <= {"trace", "NoUnitFound"}


def test_sl2_no_unit_over_z(ring_z):
    # over Z the only units are +-1; this element defeats every branch
    q = Ideal.of(ring_z, 2)
    sigma = SqMatrix.from_raw(ring_z, [[3, 2], [4, 3]])
    with pytest.raises(NoUnitFound):
        sl2_unit_reduction(sigma, q, "E12")


def test_sl2_rejects_central(ring_z):
    q = Ideal.of(ring_z, 2)
    minus = SqMatrix.from_raw(ring_z, [[-1, 0], [0, -1]])
    with pytest.raises(CentralInput):
        sl2_unit_reduction(minus, q, "E12")


def test_sl2_trace_serializes(ring_l5):
    q = Ideal.of(ring_l5, 2)
    sigma = SqMatrix.from_raw(ring_l5, [[1, 0], [2, 1]])
    trace = sl2_unit_reduction(sigma, q, "E12")
    text = serialize_trace(trace)
    again = replay_trace(text)
    assert serialize_trace(again) == text


GOLDEN_TRACE = """congwidth-trace v1
kind reduce
seed 0
ring Z
n 3
ideal 2
target 1 2
input M0
step kind=CommRight s=M1 result=M2 len=2 case=relocate.same-row smem=elem sfac=3,2:2
output M2
matrices 3
M0
3 Z
1 0 2
0 1 0
0 0 1
M1
3 Z
1 0 0
0 1 0
0 2 1
M2
3 Z
1 4 0
0 1 0
0 0 1
end
"""


def test_trace_golden_bytes(ring_z):
    # pinned serialization: the format is diff-able and stable
    q = Ideal.of(ring_z, 2)
    trace = reduce_full(elementary(ring_z, 3, 1, 3, 2), q, (1, 2))
    assert serialize_trace(trace) == GOLDEN_TRACE
    assert serialize_trace(replay_trace(GOLDEN_TRACE)) == GOLDEN_TRACE


def test_unit_path_core_identity_symbolic():
    # symbolic proof of the two-conjugate product shape: with det = 1 and
    # u^4 = 1 + c*x, t = a*x, the product (W sigma W^-1)^-1 (D sigma D^-1)
    # is upper triangular with diagonal (u^-4, u^4)
    import sympy

    a, b, c, u, x = sympy.symbols("a b c u x")
    d = (1 + b * c) / a  # determinant 1
    sigma = sympy.Matrix([[a, b], [c, d]])
    t = a * x
    W = sympy.Matrix([[1, t], [0, 1]])
    D = sympy.Matrix([[u**2, 0], [0, u**-2]])
    S = W * sigma * W.inv()
    T = D * sigma * D.inv()
    Y = sympy.simplify(S.inv() * T)
    # impose u^4 = 1 + c x by substituting x = (u^4 - 1)/c
    Y = sympy.simplify(Y.subs(x, (u**4 - 1) / c))
    assert sympy.simplify(Y[1, 0]) == 0
    assert sympy.simplify(Y[0, 0] - u**-4) == 0
    assert sympy.simplify(Y[1, 1] - u**4) == 0


def test_commutator_with_opposite_diagonal_symbolic():
    # [[v, q'], [0, v^-1]] against [[v^-1, z], [0, v]] lands in the upper
    # unipotent group with entry (z + q')(v - v^-1)
    import sympy

    v, qp, z = sympy.symbols("v q z")
    Y = sympy.Matrix([[v, qp], [0, 1 / v]])
    Z = sympy.Matrix([[1 / v, z], [0, v]])
    C = sympy.simplify(Y * Z * Y.inv() * Z.inv())
    assert sympy.simplify(C[0, 0] - 1) == 0
    assert sympy.simplify(C[1, 1] - 1) == 0
    assert sympy.simplify(C[1, 0]) == 0
    assert sympy.simplify(C[0, 1] - (z + qp) * (v - 1 / v)) == 0


def test_upper_commutator_entry_symbolic():
    # [sigma, eta] for upper-triangular sigma and eta: upper unipotent, with
    # the entry the search tests
    import sympy

    a, beta, u, z = sympy.symbols("a beta u z")
    sigma = sympy.Matrix([[a, beta], [0, 1 / a]])
    eta = sympy.Matrix([[u, z], [0, 1 / u]])
    C = sigma * eta * sigma.inv() * eta.inv()
    expected = sympy.Matrix([[1, a * u * (z * (a - 1 / a) + beta * (1 / u - u))], [0, 1]])
    assert sympy.simplify(C - expected) == sympy.zeros(2, 2)


def test_unit_path_closed_forms_symbolic():
    # the witnesses and the product Y that the unit path writes entrywise
    # equal the dense products they replace, given det sigma = 1 and
    # u - 1 = w c^2: E = W^-1 D, S = W sigma^-1 and Y = S [E, sigma] S^-1
    import sympy

    a, beta, c, w = sympy.symbols("a beta c w")
    d = (1 + beta * c) / a  # determinant 1
    u = 1 + w * c**2
    s = 1 + u + u**2 + u**3
    t = a * c * w * s
    sigma = sympy.Matrix([[a, beta], [c, d]])
    W = sympy.Matrix([[1, t], [0, 1]])
    D = sympy.Matrix([[u**2, 0], [0, u**-2]])

    def inv(m):  # a determinant-1 2 x 2 matrix's inverse is its adjugate
        return sympy.Matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    E_dense, S_dense = inv(W) * D, W * inv(sigma)
    Y_dense = S_dense * (E_dense * sigma * inv(E_dense) * inv(sigma)) * inv(S_dense)
    E = sympy.Matrix([[u**2, -t * u**-2], [0, u**-2]])
    S = sympy.Matrix([[d - t * c, t * a - beta], [-c, a]])
    Y = sympy.Matrix([[u**-4, c * w * s * (a * u**4 - d)], [0, u**4]])
    for dense, closed in ((E_dense, E), (S_dense, S), (Y_dense, Y)):
        assert (dense - closed).applyfunc(sympy.cancel) == sympy.zeros(2, 2)
