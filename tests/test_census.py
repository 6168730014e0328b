import dataclasses
import random
from collections import deque

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
from congwidth.errors import BadIndices, BudgetExceeded, CentralInput, UnsupportedRing
from congwidth.matrices import SqMatrix, elementary, identity, mat_inv
from congwidth.rings import Ideal, RingSpec


def test_group_orders(sl2_f2, sl3_f2, sl2_z4):
    assert len(sl2_f2.elements) == 2 * (2 * 2 - 1)  # q(q^2-1) = 6
    assert len(sl3_f2.elements) == 168
    # |SL_2(Z/4)| = 4^3 * (1 - 1/4) = 48, computed independently
    assert len(sl2_z4.elements) == 48


def test_order_formula_against_enumeration():
    for m, n in ((2, 2), (3, 2), (5, 2), (4, 2), (2, 3)):
        ring = RingSpec.integers_mod(m)
        assert sl_order(n, ring) == len(enumerate_sl(n, ring).elements)


def test_enumeration_closure(sl2_f3):
    idx = sl2_f3.index
    for a in range(len(sl2_f3.elements)):
        assert sl2_f3.mul[a][sl2_f3.inv[a]] == idx[identity(sl2_f3.ring, 2).key()]


def test_enumeration_no_duplicates(sl2_z4):
    keys = {g.key() for g in sl2_z4.elements}
    assert len(keys) == len(sl2_z4.elements)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_sl(2, RingSpec.integers_mod(101), budget=100)


def test_enumerate_rejects_infinite():
    with pytest.raises(UnsupportedRing):
        enumerate_sl(2, RingSpec.integers())


def test_width_bfs_elementary_input(sl3_f2, ring_f2):
    q = Ideal.of(ring_f2, 1)
    sigma = elementary(ring_f2, 3, 1, 2, 1)
    res = width_bfs(sl3_f2, sigma, q, targets=[(1, 2)])
    r = res[(1, 2)]
    assert r.min_ops == 0 and r.min_word == 1


def test_width_bfs_rejects_central(sl2_f3, ring_f3):
    q = Ideal.of(ring_f3, 1)
    with pytest.raises(CentralInput):
        width_bfs(sl2_f3, identity(ring_f3, 2), q)


def test_width_bfs_rejects_bad_target(sl2_f3, ring_f3):
    q = Ideal.of(ring_f3, 1)
    k = next(k for k in range(len(sl2_f3)) if k not in sl2_f3.center)
    with pytest.raises(BadIndices):
        width_bfs(sl2_f3, k, q, targets=[(1, 1)])


def test_width_bfs_minima_are_minimal(sl2_f5, ring_f5):
    # spot-check the word minimum by brute-force products of letters
    q = Ideal.of(ring_f5, 1)
    sigma = sl2_f5.elements[7]
    if sl2_f5.idx(sigma) in sl2_f5.center:
        sigma = sl2_f5.elements[8]
    res = width_bfs(sl2_f5, sigma, q, targets=[(1, 2)])
    r = res[(1, 2)]
    letters = set()
    for s in sl2_f5.elements:
        letters.add((s * sigma * mat_inv(s)).key())
        letters.add((s * mat_inv(sigma) * mat_inv(s)).key())
    lookup = {g.key(): g for g in sl2_f5.elements}
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
    res = width_bfs(table, sigma, q, targets=[(1, 2)])
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
    noncentral = len(sl2_f2.elements) - len(sl2_f2.center)
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
    assert len(table.elements) == sl_order(2, ring) == 3072
    e = table.idx(identity(ring, 2))
    a = table.idx(elementary(ring, 2, 1, 2, 3))
    assert table.mul[a][table.inv[a]] == e
    # BFS still works against the large table
    q = Ideal.of(ring, 2)
    res = width_bfs(table, elementary(ring, 2, 1, 2, 2), q, targets=[(1, 2)])
    assert res[(1, 2)].min_ops == 0 and res[(1, 2)].min_word == 1


def test_product_table_entry_cap(sl2_f3, monkeypatch):
    # past the entry cap the table is refused, not allocated; the elements
    # and inverses stay usable
    table = dataclasses.replace(sl2_f3, _mul=None)
    monkeypatch.setattr(census, "_TABLE_ENTRY_CAP", len(table) ** 2 - 1)
    with pytest.raises(BudgetExceeded):
        table.mul
    assert table.inv[table.inv[5]] == 5


@pytest.mark.parametrize("n, m", [(2, 4), (3, 2)])
def test_product_table_matches_matrix_products(n, m):
    table = enumerate_sl(n, RingSpec.integers_mod(m))
    mul = table.mul
    assert mul.dtype == np.int32 and mul.shape == (len(table), len(table))
    for a, ga in enumerate(table.elements):
        assert mul[a].tolist() == [table.idx(ga * gb) for gb in table.elements]


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


@pytest.mark.parametrize("n, m, q", [(2, 3, 1), (2, 4, 2), (3, 2, 1)])
def test_width_bfs_matches_reference(n, m, q):
    ring = RingSpec.integers_mod(m)
    table = enumerate_sl(n, ring)
    ideal = Ideal.of(ring, q)
    targets = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for k in range(len(table)):
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
    els = sl2_z4.elements
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


def test_width_bfs_ops_minimum_is_minimal(sl2_f3, ring_f3):
    # independent brute force over the operation graph for one element
    q = Ideal.of(ring_f3, 1)
    sigma = next(
        g for k, g in enumerate(sl2_f3.elements)
        if k not in sl2_f3.center and width_bfs(sl2_f3, k, q, targets=[(1, 2)])[(1, 2)].min_ops
    )
    r = width_bfs(sl2_f3, sigma, q, targets=[(1, 2)])[(1, 2)]
    targets = {elementary(ring_f3, 2, 1, 2, a).key() for a in (1, 2)}
    frontier = {sigma.key()}
    lookup = {g.key(): g for g in sl2_f3.elements}
    depth_found = None
    for depth in range(1, r.min_ops + 1):
        nxt = set()
        for gk in frontier:
            g = lookup[gk]
            for s in sl2_f3.elements:
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
