import dataclasses
import random
import tracemalloc
from collections import deque
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congwidth.census as census
from congwidth.census import (
    closure_bfs,
    enumerate_sl,
    sl_order,
    sum_identity_terms,
    sum_set_census,
    verify_sum_identity,
    width_bfs,
    width_census_csv,
)
from congwidth.errors import (
    BadIndices,
    BudgetExceeded,
    CentralInput,
    MismatchedRings,
    NotInGroup,
    UnsupportedRing,
    ZeroIdeal,
)
from congwidth.matrices import SqMatrix, elementary, identity, mat_inv
from congwidth.norms import word_norm_eval
from congwidth.rings import Ideal, RingSpec
from conftest import elements


def test_group_orders(sl2_f2, sl3_f2, sl2_z4):
    assert len(sl2_f2) == 2 * (2 * 2 - 1)  # q(q^2-1) = 6
    assert len(sl3_f2) == 168
    # |SL_2(Z/4)| = 4^3 * (1 - 1/4) = 48, computed independently
    assert len(sl2_z4) == 48


def test_order_formula_against_enumeration():
    for m, n in ((2, 2), (3, 2), (5, 2), (4, 2), (2, 3)):
        ring = RingSpec.integers_mod(m)
        assert sl_order(n, ring) == len(enumerate_sl(n, ring))


def test_enumeration_closure(sl2_f3):
    for a in range(len(sl2_f3)):
        assert sl2_f3.mul[a][sl2_f3.inv[a]] == sl2_f3.idx(identity(sl2_f3.ring, 2))


def test_enumeration_no_duplicates(sl2_z4):
    keys = {g.key() for g in elements(sl2_z4)}
    assert len(keys) == len(sl2_z4)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_sl(2, RingSpec.integers_mod(101), budget=100)


def test_enumerate_rejects_infinite():
    with pytest.raises(UnsupportedRing):
        enumerate_sl(2, RingSpec.integers())


def test_order_formula_refuses_an_infinite_ring():
    with pytest.raises(UnsupportedRing, match="^order formula only implemented for Z/m$"):
        sl_order(3, RingSpec.integers())


def test_width_bfs_elementary_input(sl3_f2, ring_f2):
    q = Ideal.of(ring_f2, 1)
    sigma = elementary(ring_f2, 3, 1, 2, 1)
    res = width_bfs(sl3_f2, sigma, q)
    r = res[(1, 2)]
    assert r.min_ops == 0 and r.min_word == 1


def test_width_bfs_rejects_central(sl2_f3, ring_f3):
    q = Ideal.of(ring_f3, 1)
    with pytest.raises(CentralInput):
        width_bfs(sl2_f3, identity(ring_f3, 2), q)


def test_width_bfs_minima_are_minimal(sl2_f5, ring_f5):
    # spot-check the word minimum by brute-force products of letters
    q = Ideal.of(ring_f5, 1)
    sigma = sl2_f5.element(7)
    if sl2_f5.idx(sigma) in sl2_f5.center:
        sigma = sl2_f5.element(8)
    res = width_bfs(sl2_f5, sigma, q)
    r = res[(1, 2)]
    letters = set()
    for s in elements(sl2_f5):
        letters.add((s * sigma * mat_inv(s)).key())
        letters.add((s * mat_inv(sigma) * mat_inv(s)).key())
    lookup = {g.key(): g for g in elements(sl2_f5)}
    targets = {
        elementary(ring_f5, 2, 1, 2, a).key() for a in range(1, 5)
    }
    # brute force: products of up to r.min_word letters; none shorter reaches
    frontier = {identity(ring_f5, 2).key()}
    found_at = None
    for depth in range(1, r.min_word + 1):
        nxt = set()
        for gk in frontier:
            for lk in letters:
                hk = (lookup[gk] * lookup[lk]).key()
                nxt.add(hk)
        frontier = nxt
        if frontier & targets:
            found_at = depth
            break
    assert found_at == r.min_word


def test_width_bfs_unreachable_flag():
    # Z/9 with the ideal (3): conjugation fixes sigma, so the closure of the
    # letter set is just <sigma>, which misses E12 entirely
    ring = RingSpec.integers_mod(9)
    q = Ideal.of(ring, 3)
    table = enumerate_sl(2, ring)
    sigma = SqMatrix.from_raw(ring, [[4, 3], [0, 7]])
    res = width_bfs(table, sigma, q)
    assert res[(1, 2)].unreachable


def test_width_census_csv(sl2_f2, ring_f2):
    q = Ideal.of(ring_f2, 1)
    text = width_census_csv(sl2_f2, q)
    lines = text.splitlines()
    assert lines[0] == "sigma_index,min_ops,min_len,target"
    assert any(line.startswith("summary") for line in lines)
    # 4 non-central elements (center of SL_2(F_2) is trivial, 6 elements,
    # the identity is central), 2 targets each
    rows = [l for l in lines if "," in l and not l.startswith("sigma")]
    noncentral = len(sl2_f2) - len(sl2_f2.center)
    assert len(rows) == noncentral * 2


# -- the five-term identity ------------------------------------------------------


def test_sum_identity_basic():
    ok, lhs, rhs = verify_sum_identity(1, 0, 0, 0, 0)
    assert ok and lhs == rhs
    assert lhs == ((1, 0), (0, 1))


def test_sum_identity_random():
    rng = random.Random(25)
    for _ in range(500):
        t = tuple(rng.randint(-50, 50) for _ in range(5))
        ok, lhs, rhs = verify_sum_identity(*t)
        assert ok, (t, lhs, rhs)


def test_sum_identity_terms_have_subgroup_shape():
    # each non-identity term is an explicit product of the two generator
    # shears with entry m: checked by rebuilding the claimed factorizations
    m, a, b, c, d = 3, 4, -1, 7, 2
    Z = RingSpec.integers()
    U = SqMatrix.from_raw(Z, [[1, m], [0, 1]])
    L = SqMatrix.from_raw(Z, [[1, 0], [m, 1]])
    terms = sum_identity_terms(m, a, b, c, d)

    def as_matrix(t):
        return SqMatrix.from_raw(Z, [list(t[0]), list(t[1])])

    assert as_matrix(terms[1]) == U ** (b - 2)
    assert as_matrix(terms[2]) == L ** (c - a - d + 4)
    assert as_matrix(terms[3]) == U * L ** (a - 2)
    assert as_matrix(terms[4]) == L ** (d - 2) * U


# -- sum sets ------------------------------------------------------------------------


def _shear_gens(m, k):
    ring = RingSpec.integers_mod(m)
    return ring, [
        SqMatrix.from_raw(ring, [[1, k], [0, 1]]),
        SqMatrix.from_raw(ring, [[1, 0], [k, 1]]),
    ]


def test_sum_set_level_one_is_the_subgroup():
    ring, gens = _shear_gens(8, 2)
    report = sum_set_census(gens, 8, 3, 4)
    assert report.sizes[0] == report.group_size


def test_sum_set_monotone():
    ring, gens = _shear_gens(8, 3)
    report = sum_set_census(gens, 8, 6, 8)
    for i in range(1, len(report.sizes)):
        assert report.sizes[i] >= report.sizes[i - 1]


def test_sum_set_identity_bound_mod_27():
    # the explicit five-term decomposition bounds the covering length of the
    # level-9 congruence subgroup mod 27 by 2*9 + 1 = 19
    ring, gens = _shear_gens(27, 3)
    report = sum_set_census(gens, 27, 19, 9)
    assert report.covered_at is not None
    assert report.covered_at <= 2 * 9 + 1


def test_sum_set_budget():
    ring, gens = _shear_gens(33, 3)
    with pytest.raises(BudgetExceeded):
        sum_set_census(gens, 33, 3, 3, budget=10**5)


def test_sum_set_render():
    ring, gens = _shear_gens(8, 2)
    report = sum_set_census(gens, 8, 3, 4)
    text = report.render()
    assert "modulus=8" in text and "covered_at=" in text


def test_large_product_table():
    # SL_2(Z/16) has 3072 elements: a 9.4M-entry table
    ring = RingSpec.integers_mod(16)
    table = enumerate_sl(2, ring)
    assert len(table) == sl_order(2, ring) == 3072
    e = table.idx(identity(ring, 2))
    a = table.idx(elementary(ring, 2, 1, 2, 3))
    assert table.mul[a][table.inv[a]] == e
    # BFS still works against the large table
    q = Ideal.of(ring, 2)
    res = width_bfs(table, elementary(ring, 2, 1, 2, 2), q)
    assert res[(1, 2)].min_ops == 0 and res[(1, 2)].min_word == 1


def test_product_table_entry_cap(sl2_f3, monkeypatch):
    # past the entry cap the table is refused, not allocated; the elements
    # and inverses stay usable
    table = dataclasses.replace(sl2_f3, _mul=None)
    monkeypatch.setattr(census, "_TABLE_ENTRY_CAP", len(table) ** 2 - 1)
    with pytest.raises(BudgetExceeded):
        table.mul
    assert table.inv[table.inv[5]] == 5


@pytest.mark.parametrize("n, m", [(2, 4), (3, 2), (2, 9), (2, 16)])
def test_product_table_matches_matrix_products(n, m):
    # mul is built along the enumeration tree; product multiplies the
    # residue matrices, and SqMatrix products check the small groups
    table = enumerate_sl(n, RingSpec.integers_mod(m))
    mul = table.mul
    size = len(table)
    assert mul.dtype == np.int32 and mul.shape == (size, size)
    assert np.array_equal(mul, table.product(np.arange(size)[:, None], np.arange(size)))
    if size > 200:
        return
    els = elements(table)
    for a, ga in enumerate(els):
        assert mul[a].tolist() == [table.idx(ga * gb) for gb in els]


@pytest.fixture(scope="module")
def sl3_z3():
    # built past the table cache, so its 5616^2 product table (about
    # 126 MB) goes with this module
    ring = RingSpec.integers_mod(3)
    return census._enumerate_sl.__wrapped__(3, ring, sl_order(3, ring))


def test_congruence_context_on_sl3_z3_stays_small(sl3_z3):
    # no |E(q)| x |G| table: the classes need a small fraction of mul's 126 MB
    ring = RingSpec.integers_mod(3)
    sl3_z3.mul
    table = dataclasses.replace(sl3_z3, _congruence={})
    tracemalloc.start()
    try:
        table.congruence(Ideal.of(ring, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_product_table_rows_on_sl3_z3(sl3_z3):
    rows = np.sort(np.random.default_rng(23).choice(len(sl3_z3), 200, replace=False))
    expected = sl3_z3.product(rows[:, None], np.arange(len(sl3_z3)))
    assert np.array_equal(sl3_z3.mul[rows], expected)


def test_product_gathers_matrices_slice_by_slice(sl3_z3):
    # conjugation by the 12 targets through product, as a census past the
    # product table would build it: the index operands are sliced along the
    # leading axis before their matrices are gathered, so no 12 x 5616 x 3 x 3
    # gather (4.9 MB) is made; the result itself is 0.27 MB
    ring = RingSpec.integers_mod(3)
    t = sl3_z3.congruence(Ideal.of(ring, 1)).targets.ravel()
    tracemalloc.start()
    try:
        tconj = sl3_z3.product(sl3_z3.product(t[:, None], np.arange(len(sl3_z3))), sl3_z3.inv[t][:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(tconj, sl3_z3.mul[sl3_z3.mul[t], sl3_z3.inv[t][:, None]])
    assert peak < 5 << 19  # 2.5 MiB; 5.9 MB with whole-operand gathers


def _reference_width_bfs(table, sidx, ideal, targets):
    """The plain-Python loops width_bfs replaced, over the same table."""
    mul = table.mul.tolist()
    inv = table.inv.tolist()
    eidx = table.idx(identity(table.ring, table.n))
    gens = [
        g
        for i in range(1, table.n + 1)
        for j in range(1, table.n + 1)
        if i != j
        for g in table.target_elementaries(i, j, ideal)
    ]
    esub = {eidx}
    frontier = deque([eidx])
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = mul[g][s]
            if h not in esub:
                esub.add(h)
                frontier.append(h)
    esub = sorted(esub)

    dist_ops = {sidx: 0}
    frontier = deque([sidx])
    while frontier:
        g = frontier.popleft()
        d = dist_ops[g] + 1
        gi = inv[g]
        for s in esub:
            si = inv[s]
            conj = mul[mul[s][g]][si]
            commr = mul[mul[mul[g][s]][gi]][si]
            comml = mul[mul[mul[s][g]][si]][gi]
            for h in (conj, commr, comml):
                if h not in dist_ops:
                    dist_ops[h] = d
                    frontier.append(h)

    letters = set()
    for s in esub:
        si = inv[s]
        letters.add(mul[mul[s][sidx]][si])
        letters.add(mul[mul[s][inv[sidx]]][si])
    dist_word = {eidx: 0}
    frontier = deque([eidx])
    while frontier:
        g = frontier.popleft()
        d = dist_word[g] + 1
        for let in sorted(letters):
            h = mul[g][let]
            if h not in dist_word:
                dist_word[h] = d
                frontier.append(h)

    out = {}
    for (i, j) in targets:
        tset = table.target_elementaries(i, j, ideal)
        ops = min((dist_ops[t] for t in tset if t in dist_ops), default=None)
        word = min(
            (dist_word[t] for t in tset if t in dist_word and dist_word[t] > 0),
            default=None,
        )
        out[(i, j)] = (ops, word)
    return out


@pytest.mark.parametrize("n, m, q", [(2, 3, 1), (2, 4, 2), (3, 2, 1), (2, 5, 1), (2, 9, 3)])
def test_width_bfs_matches_reference(n, m, q):
    # every non-central element, but every 7th of the 648 of SL_2(Z/9), where
    # the proper ideal (3) puts two target elements at each position
    ring = RingSpec.integers_mod(m)
    table = enumerate_sl(n, ring)
    ideal = Ideal.of(ring, q)
    targets = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for k in range(0, len(table), 7 if len(table) > 500 else 1):
        if k in table.center:
            continue
        got = width_bfs(table, k, ideal)
        assert {t: (r.min_ops, r.min_word) for t, r in got.items()} == (
            _reference_width_bfs(table, k, ideal, targets)
        ), k
        assert all(type(r.min_ops) is int for r in got.values() if not r.unreachable)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 47), max_size=5), st.sets(st.integers(0, 47), min_size=1, max_size=3))
def test_closure_bfs_matches_set_bfs(sl2_z4, letters, starts):
    # right multiplication by random letters of SL_2(Z/4), against a BFS
    # over matrix products
    els = elements(sl2_z4)
    mul = sl2_z4.mul
    let = np.array(sorted(letters), dtype=np.int32)
    dist = closure_bfs(lambda f: mul[f[:, None], let], sorted(starts), len(els))
    want = dict.fromkeys(starts, 0)
    layer, depth = set(starts), 0
    while layer:
        depth += 1
        layer = {sl2_z4.idx(els[g] * els[s]) for g in layer for s in letters} - want.keys()
        want.update(dict.fromkeys(layer, depth))
    assert {k: int(d) for k, d in enumerate(dist) if d >= 0} == want


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(0, 47), max_size=5),
    st.sets(st.integers(0, 47), min_size=1, max_size=3),
    st.integers(1, 3).flatmap(lambda k: st.lists(st.lists(st.integers(0, 47), min_size=k, max_size=k), min_size=1, max_size=4)),
)
def test_closure_bfs_stops_at_the_goal(sl2_z4, letters, starts, goal):
    # with a stop rule that every goal row holds a reached node, the search
    # stops at the largest, over goal rows, of each row's least distance in
    # the full closure, before expanding that layer; with an unreachable row
    # it runs to the full closure
    mul = sl2_z4.mul
    let = np.array(sorted(letters), dtype=np.int32)
    expanded = []

    def step(f):
        expanded.extend(f.tolist())
        return mul[f[:, None], let]

    full = closure_bfs(step, sorted(starts), len(mul))
    expanded.clear()
    rows = np.array(goal)
    dist = closure_bfs(step, sorted(starts), len(mul), lambda d, _: d[rows].max(axis=-1).min() >= 0)
    least = [min((full[g] for g in row if full[g] >= 0), default=None) for row in goal]
    stop = full.max() if None in least else max(least)
    assert np.array_equal(dist, np.where(full <= stop, full, -1))
    assert sorted(expanded) == np.flatnonzero((full >= 0) & ((full < stop) | (None in least))).tolist()


@pytest.mark.parametrize("n, m", [(3, 2), (2, 5)])
def test_width_searches_stop_at_their_answer(monkeypatch, n, m):
    # the word search steps over E(q)-classes, so it expands at most one node
    # per class; when every position is reachable, the operation search stops
    # at the layer that settles its last position and expands none of it
    ring = RingSpec.integers_mod(m)
    table, ideal = enumerate_sl(n, ring), Ideal.of(ring, 1)
    classes = len(table.congruence(ideal).members)
    closure = census.closure_bfs
    searches = []

    def counted_closure(step, *args, **kwargs):
        expanded = []

        def counted_step(f):
            expanded.extend(f.tolist())
            return step(f)

        dist = closure(counted_step, *args, **kwargs)
        searches.append((expanded, dist))
        return dist

    monkeypatch.setattr(census, "closure_bfs", counted_closure)
    for k in range(len(table)):
        if k in table.center:
            continue
        searches.clear()
        res = width_bfs(table, k, ideal)
        (ops_nodes, ops_dist), (word_nodes, _) = searches
        assert len(word_nodes) <= classes, k
        assert not any(r.unreachable for r in res.values())
        assert ops_dist[ops_nodes].max() < max(r.min_ops for r in res.values()), k


def test_width_bfs_ops_minimum_is_minimal(sl2_f3, ring_f3):
    # independent brute force over the operation graph for one element
    q = Ideal.of(ring_f3, 1)
    sigma = next(
        g for k, g in enumerate(elements(sl2_f3))
        if k not in sl2_f3.center and width_bfs(sl2_f3, k, q)[(1, 2)].min_ops
    )
    r = width_bfs(sl2_f3, sigma, q)[(1, 2)]
    targets = {elementary(ring_f3, 2, 1, 2, a).key() for a in (1, 2)}
    frontier = {sigma.key()}
    els = elements(sl2_f3)
    lookup = {g.key(): g for g in els}
    depth_found = None
    for depth in range(1, r.min_ops + 1):
        nxt = set()
        for gk in frontier:
            g = lookup[gk]
            for s in els:
                nxt.add((s * g * mat_inv(s)).key())
                nxt.add((g * s * mat_inv(g) * mat_inv(s)).key())
                nxt.add((s * g * mat_inv(s) * mat_inv(g)).key())
        frontier = nxt
        if frontier & targets:
            depth_found = depth
            break
    assert depth_found == r.min_ops


def test_sum_set_uncovered_case():
    # scale-4 shears mod 8 generate a tiny group whose sums grow linearly
    # and never cover the level-2 congruence subgroup within 5 terms
    ring, gens = _shear_gens(8, 4)
    report = sum_set_census(gens, 8, 5, 2)
    assert report.covered_at is None
    assert report.sizes == (4, 8, 12, 16, 20)
    assert "covered_at=never-within-budget" in report.render()


# -- congruence contexts, element checks and the table cache ---------------------


def _not_in_sl2_f3():
    return [
        -2,
        -1,
        24,
        elementary(RingSpec.integers_mod(5), 2, 1, 2, 1),
        SqMatrix.from_raw(RingSpec.integers_mod(3), [[2, 0], [0, 1]]),
    ]


@pytest.mark.parametrize("bad", _not_in_sl2_f3(), ids=["index-2", "index-1", "index24", "over-Z5", "det2"])
def test_non_elements_are_rejected(sl2_f3, ring_f3, bad):
    # negative and past-the-end indices, a matrix over another ring with
    # entries that are keys of the table, and a matrix outside SL_2
    gens = [sl2_f3.idx(elementary(ring_f3, 2, i, j, 1)) for i, j in ((1, 2), (2, 1))]
    with pytest.raises(NotInGroup):
        sl2_f3.idx(bad)
    with pytest.raises(NotInGroup):
        width_bfs(sl2_f3, bad, Ideal.of(ring_f3, 1))
    with pytest.raises(NotInGroup):
        word_norm_eval(sl2_f3, gens).value(bad)


def test_idx_accepts_elements_and_indices(sl2_f3):
    for k, g in enumerate(elements(sl2_f3)):
        assert sl2_f3.idx(g) == sl2_f3.idx(k) == sl2_f3.idx(np.int32(k)) == k
        assert type(sl2_f3.idx(np.int32(k))) is int


def test_congruence_context_is_keyed_by_the_ideal():
    ring = RingSpec.integers_mod(8)
    table = dataclasses.replace(enumerate_sl(2, ring), _congruence={})
    ideals = [Ideal.of(ring, 2), Ideal.of(ring, 4)]
    targets = [(1, 2), (2, 1)]
    for k in range(len(table)):
        if k in table.center:
            continue
        for ideal in ideals:
            got = width_bfs(table, k, ideal)
            assert {t: (r.min_ops, r.min_word) for t, r in got.items()} == (
                _reference_width_bfs(table, k, ideal, targets)
            ), (k, ideal)
    assert table.congruence(Ideal.of(ring, 2)) is table.congruence(Ideal.of(ring, 6))
    assert len(table._congruence) == 2
    k = next(k for k in range(len(table)) if k not in table.center)
    for other in (RingSpec.integers_mod(4), RingSpec.integers_mod(16)):
        with pytest.raises(MismatchedRings):
            width_bfs(table, k, Ideal.of(other, 2))


def test_census_builds_each_congruence_context_once(monkeypatch):
    # over SL_2(Z/8) with q = (2), the context labels its E(q)-classes with no
    # closure; the census then reuses it and runs only the operation and word searches
    ring = RingSpec.integers_mod(8)
    ideal = Ideal.of(ring, 2)
    table = dataclasses.replace(enumerate_sl(2, ring), _congruence={})
    calls = {"targets": 0, "closure": 0}
    target_elementaries = census.FiniteGroupTable.target_elementaries
    closure = census.closure_bfs

    def counted_targets(*args):
        calls["targets"] += 1
        return target_elementaries(*args)

    def counted_closure(*args, **kwargs):
        calls["closure"] += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(census.FiniteGroupTable, "target_elementaries", counted_targets)
    monkeypatch.setattr(census, "closure_bfs", counted_closure)
    table.congruence(ideal)
    assert calls == {"targets": 2, "closure": 0}
    calls.update(targets=0, closure=0)
    width_census_csv(table, ideal)
    noncentral = len(table) - len(table.center)
    assert calls == {"targets": 0, "closure": 2 * noncentral}


def test_table_cache_evicts_the_least_recently_used():
    size = census._enumerate_sl.cache_parameters()["maxsize"]
    groups = [(2, m) for m in range(2, 2 + size)] + [(3, 2)]

    def table(n, m):
        return enumerate_sl(n, RingSpec.integers_mod(m))

    tables = [table(*g) for g in groups[:size]]
    assert table(*groups[0]) is tables[0]  # now the most recently used
    table(*groups[size])  # evicts groups[1], the least recently used
    assert all(table(*groups[i]) is tables[i] for i in [0, *range(2, size)])
    old, again = tables[1], table(*groups[1])
    assert again is not old
    assert elements(again) == elements(old)
    assert [again.idx(g) for g in elements(old)] == list(range(len(old)))
    assert again.center == old.center
    assert np.array_equal(again.inv, old.inv) and np.array_equal(again.mul, old.mul)


@pytest.mark.parametrize("n, m, q", [(2, 4, 2), (2, 8, 2), (2, 8, 4), (2, 9, 3), (3, 2, 1)])
def test_target_elementaries_match_the_matrix_loop(n, m, q):
    ring = RingSpec.integers_mod(m)
    table, ideal = enumerate_sl(n, ring), Ideal.of(ring, q)
    for i, j in permutations(range(1, n + 1), 2):
        # the SqMatrix loop target_elementaries replaced
        reference = [
            table.idx(elementary(ring, n, i, j, a))
            for a in ring.residues()
            if not a.is_zero and ideal.contains(a)
        ]
        assert table.target_elementaries(i, j, ideal) == reference
    with pytest.raises(BadIndices):
        table.target_elementaries(1, 1, ideal)


def test_idx_and_element_are_inverse(sl2_z4, sl3_f2):
    for table in (sl2_z4, sl3_f2):
        for k in range(len(table)):
            g = table.element(k)
            assert g.key() == tuple(map(tuple, table.mats[k].tolist()))
            assert table.idx(g) == k
    off = SqMatrix.from_raw(sl2_z4.ring, [[2, 0], [0, 1]])  # det 2, not in SL_2
    with pytest.raises(NotInGroup):
        sl2_z4.idx(off)
    with pytest.raises(NotInGroup):
        sl2_z4.idx(sl3_f2.element(1))


@pytest.mark.parametrize("m, q", [(2, 0), (4, 4), (8, 0)])
def test_width_bfs_refuses_the_zero_ideal(m, q):
    # the zero ideal has no nontrivial targets: every row would read unreachable
    ring = RingSpec.integers_mod(m)
    table = enumerate_sl(2, ring)
    with pytest.raises(ZeroIdeal):
        width_bfs(table, 1, Ideal.of(ring, q))
    with pytest.raises(ZeroIdeal):
        width_census_csv(table, Ideal.of(ring, q))


def test_enumeration_and_census_build_no_matrices(monkeypatch):
    # a table build and a width census stay on the table's integer form
    built = []
    post_init, of = SqMatrix.__post_init__, SqMatrix._of

    def counted(self):
        built.append(self)
        post_init(self)

    def counted_of(*args):  # the unchecked constructor of kernel outputs
        built.append(args)
        return of(*args)

    monkeypatch.setattr(SqMatrix, "__post_init__", counted)
    monkeypatch.setattr(SqMatrix, "_of", staticmethod(counted_of))
    census._enumerate_sl.cache_clear()
    assert len(enumerate_sl(2, RingSpec.integers_mod(27))) == 17496
    ring = RingSpec.integers_mod(8)
    width_census_csv(enumerate_sl(2, ring), Ideal.of(ring, 2))
    assert built == []


# -- E(q)-classes ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, m, q", [(3, 2, 1), (2, 8, 2), (2, 8, 4), (2, 9, 3), (2, 16, 8), (2, 10, 5), (2, 14, 7)]
)
def test_class_layer_matches_the_orbits(n, m, q):
    # orbits under all of E(q), the closure of the target elementaries: the
    # context labels each class by conjugation with the targets alone; the
    # last two groups have 360 and 1008 classes
    ring = RingSpec.integers_mod(m)
    table, ideal = enumerate_sl(n, ring), Ideal.of(ring, q)
    cong = table.congruence(ideal)
    gens = [elementary(ring, n, i, j, a) for i, j in permutations(range(1, n + 1), 2)
            for a in ring.residues() if not a.is_zero and ideal.contains(a)]
    group = frontier = {identity(ring, n)}
    while frontier := {g * s for g in frontier for s in gens} - group:
        group = group | frontier
    esub = [(s, mat_inv(s)) for s in group]
    orbits, seen = [], set()
    for g in range(len(table)):  # the least unseen element starts the next orbit
        if g not in seen:
            orbit = sorted({table.idx(s * table.element(g) * si) for s, si in esub})
            orbits.append(orbit)
            seen.update(orbit)
    assert cong.members.dtype == np.int32 and len(cong.members) == len(orbits)
    for c, orbit in enumerate(orbits):
        row = cong.members[c].tolist()
        assert row[:len(orbit)] == orbit
        assert set(row[len(orbit):]) <= {orbit[-1]}
        assert cong.cls[orbit].tolist() == [c] * len(orbit)

