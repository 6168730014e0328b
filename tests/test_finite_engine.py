"""The finite-group engine against the matrix-level code it replaced.

The references below are the SqMatrix implementations of the enumeration,
the SL_2 pair search and the sum-set census, kept loop for loop.  The new
code must reproduce their indices, traces, exceptions and reports exactly.
"""

import hashlib
from collections import deque
from itertools import permutations

import numpy as np
import pytest

import congwidth.census as census
import congwidth.cli as cli
import congwidth.reduction as reduction
from congwidth.census import enumerate_sl, sum_set_census
from congwidth.errors import BudgetExceeded, CongwidthError, DimensionMismatch, NoUnitFound
from congwidth.matrices import (
    SqMatrix,
    determinant,
    elementary,
    identity,
    in_congruence_subgroup,
    is_central,
    mat_inv,
)
from congwidth.reduction import (
    APPEND,
    COMM_RIGHT,
    CONJUGATE,
    replay_trace,
    serialize_trace,
    sl2_unit_reduction,
)
from congwidth.rings import Ideal, RingSpec, unit_check
from conftest import elements

# -- enumeration -----------------------------------------------------------------


def _reference_enumerate_sl(n, ring):
    """FIFO closure of I under the elementary generators, on SqMatrix products."""
    gens = [
        elementary(ring, n, i, j, a)
        for i, j in permutations(range(1, n + 1), 2)
        for a in ring.residues() if not a.is_zero
    ]
    one = identity(ring, n)
    elements = [one]
    index = {one.key(): 0}
    frontier = deque([one])
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = g * s
            if h.key() not in index:
                index[h.key()] = len(elements)
                elements.append(h)
                frontier.append(h)
    inv = [index[mat_inv(g).key()] for g in elements]
    center = [k for k, g in enumerate(elements) if is_central(g)]
    return elements, index, inv, center


@pytest.mark.parametrize("n, m", [(2, m) for m in range(2, 10)] + [(2, 12), (3, 2)])
def test_enumeration_matches_the_matrix_closure(n, m):
    ring = RingSpec.integers_mod(m)
    table = enumerate_sl(n, ring)
    elements, index, inv, center = _reference_enumerate_sl(n, ring)
    assert table.elements == elements  # the list perfbench/traced.py reads
    assert [table.idx(g) for g in elements] == [index[g.key()] for g in elements] == list(range(len(elements)))
    assert table.inv.tolist() == inv and table.center == center
    assert table.element(0).is_identity
    assert table.mats.tolist() == [list(map(list, g.key())) for g in elements]
    codes = census._encode(table.mats, m)
    assert table.code_index[codes].tolist() == list(range(len(table)))
    assert (np.delete(table.code_index, codes) == -1).all()


def test_enumeration_needs_dimension_two():
    with pytest.raises(DimensionMismatch):
        enumerate_sl(1, RingSpec.integers_mod(5))


def test_product_is_the_matrix_product_on_broadcast_indices(sl3_f2):
    table = sl3_f2
    rng = np.random.default_rng(5)
    a = rng.integers(0, len(table), size=(7, 1))
    b = rng.integers(0, len(table), size=(1, 9))
    got = table.product(a, b)
    assert got.dtype == np.int32 and got.shape == (7, 9)
    for r in range(7):
        for c in range(9):
            assert got[r, c] == table.idx(table.element(a[r, 0]) * table.element(b[0, c]))
    assert table.product(a[3, 0], b[0, 4]) == got[3, 4]
    assert table.product(a[:0], b).shape == (0, 9)
    assert np.array_equal(table.mul, table.product(np.arange(len(table))[:, None], np.arange(len(table))))


def test_product_works_past_the_table_cap():
    # |SL_2(Z/27)| = 17496: its 3.1e8-entry table is refused, products are not
    ring = RingSpec.integers_mod(27)
    table = enumerate_sl(2, ring)
    assert len(table) == 17496
    with pytest.raises(BudgetExceeded):
        table.mul
    ks = [1, 500, 9000, 17495]
    got = table.product(np.array(ks)[:, None], np.array(ks))
    assert got.tolist() == [[table.idx(table.element(x) * table.element(y)) for y in ks] for x in ks]
    assert (table.product(ks, table.inv[ks]) == 0).all()


# -- the SL_2 pair search ------------------------------------------------------------


def _is_e12_nontrivial(m):
    (a, bb), (c, d) = m.rows
    one = m.ring.one
    return c.is_zero and a == d == one and not bb.is_zero


def _z_candidates(q):
    """The upper entries the matrix-level search tried, in order: 0, q0, -q0,
    ..., 8 q0, -8 q0 for the canonical generator q0 of q."""
    q0, ring = q.canonical, q.ring
    return [ring.zero] + [x for k in range(1, 9) for x in (q0 * ring.el(k), -(q0 * ring.el(k)))]


def _reference_try_pair_search(b, q, budget):
    """The pair search on SqMatrix products, one candidate at a time.  It
    reads what the production search reads of the builder: sigma, g and
    record."""
    sigma = b.sigma
    ring = sigma.ring
    if not ring.is_finite:
        return False

    table = enumerate_sl(2, ring)
    conjugators = [s for s in elements(table) if in_congruence_subgroup(s, q)]

    def class_of(base):
        # (conjugate value, witness s) over congruence-subgroup conjugators
        seen = {}
        for s in conjugators:
            v = s * base * mat_inv(s)
            if v.key() not in seen:
                seen[v.key()] = (v, s)
        return list(seen.values())

    cls_pos = class_of(sigma)
    cls_neg = class_of(mat_inv(sigma))

    def emit_two(gx, gy, ey):
        """Ops realizing (gx sigma gx^-1)(gy sigma^ey gy^-1)."""
        eta = mat_inv(gx) * gy
        if ey == -1:
            b.record(COMM_RIGHT, eta, "sl2.pair")
        else:
            b.record(APPEND, eta, "sl2.pair", exp=1)
        if not gx.is_identity:
            b.record(CONJUGATE, gx, "sl2.pair.conj")

    # (-1, -1) pairs are inverses of (+1, +1) ones, and a (-1, +1) hit
    # A^-1 B = X is the (+1, -1) hit B (X^-1 A X)^-1, so neither is scanned
    checked = 0
    for ys, ey in ((cls_neg, -1), (cls_pos, 1)):
        for xv, gx in cls_pos:
            for yv, gy in ys:
                checked += 1
                if checked > budget:
                    return False
                if _is_e12_nontrivial(xv * yv):
                    emit_two(gx, gy, ey)
                    assert _is_e12_nontrivial(b.g)
                    return True

    into_e12 = {}
    for a in ring.residues():
        if a.is_zero or not q.contains(a):
            continue
        t = elementary(ring, 2, 1, 2, a)
        for s in conjugators:
            z = mat_inv(s) * t * s
            into_e12.setdefault(z.key(), s)

    labeled = [(v, g, 1) for v, g in cls_pos] + [(v, g, -1) for v, g in cls_neg]
    for y2, g2, e2 in labeled:
        base = sigma * y2
        for y3, g3, e3 in labeled:
            checked += 1
            if checked > budget:
                return False
            w = base * y3
            s = into_e12.get(w.key())
            if s is None:
                continue
            b.record(APPEND, g2, "sl2.pair.append", exp=e2)
            b.record(APPEND, g3, "sl2.pair.append", exp=e3)
            if not s.is_identity:
                b.record(CONJUGATE, s, "sl2.pair.conj")
            assert _is_e12_nontrivial(b.g)
            return True

    one = ring.one
    for xv, gx in cls_pos:
        for yv, gy in cls_neg:
            checked += 1
            if checked > budget:
                return False
            w = xv * yv
            if not w.rows[1][0].is_zero or w.is_identity:
                continue
            v = w.e(1, 1)
            vinv = unit_check(v)
            if vinv is None or v * v == one:
                continue
            qprime = w.e(1, 2)
            for z in _z_candidates(q):
                w_out = (z + qprime) * (v - vinv)
                if w_out.is_zero:
                    continue
                zmat = SqMatrix.from_raw(ring, ((vinv, z), (ring.zero, v)))
                if not in_congruence_subgroup(zmat, q):
                    continue
                emit_two(gx, gy, -1)
                b.record(COMM_RIGHT, zmat, "sl2.pair.comm")
                assert _is_e12_nontrivial(b.g)
                return True
    return False


def _outcomes(m, q0, stop=None, step=1, **kw):
    """sl2_unit_reduction on both sides of the non-central elements of
    SL_2(Z/m) congruent to I mod q0, in index order: each serialized trace
    or the exception's type and message."""
    ring = RingSpec.integers_mod(m)
    q = Ideal.of(ring, q0)
    inputs = [g for g in elements(enumerate_sl(2, ring)) if not is_central(g) and in_congruence_subgroup(g, q)]
    out = []
    for g in inputs[:stop:step]:
        for side in ("E12", "E21"):
            try:
                out.append(serialize_trace(sl2_unit_reduction(g, q, side, **kw)))
            except CongwidthError as exc:
                out.append(f"{type(exc).__name__}: {exc}\n")
    return out


def _digest(outcomes):
    return hashlib.sha256("".join(outcomes).encode()).hexdigest()


# _digest(_outcomes(*case)) with _reference_try_pair_search as the pair
# search.  On SL_2(Z/27), every 24th input: |G| = 17496 is over the product
# table cap, and the outcomes are 49 traces and 13 NoUnitFound, never
# BudgetExceeded (as over all 728 inputs: 1084 traces, 372 NoUnitFound).
REFERENCE_DIGESTS = {
    (4, 2, None, 1, ()): "a1dc1011c3bc483e0e4369899c0db25befaae6ccd24e97a36eb509a14ee6aee4",
    (6, 2, None, 1, ()): "ba85bd99c6ea932a7d4f2e6bba55d380c9b79e44b83445c6305f67da6ca5313f",
    (6, 3, None, 1, ()): "e7f9e00732099e962bfd83e158d9181fb66fac62ea4f65ac72b1046443995bae",
    (8, 2, None, 1, ()): "a69de5f87e7f7c5821295f8f1debae252e0b4fb6b2d2d591bd3523b912944465",
    (9, 3, None, 1, ()): "08774dfda38cbeafc614d76f8f6880b0e097153dcbfa8cdc0763da946d046e82",
    (12, 2, 80, 1, ()): "a6971ed79351c64403e9b260ffb7f7283487ead1198cdc5c4ce00fb664a72602",
    (27, 3, None, 24, ()): "f4e219bcc3393f043568b6dd8dc3917f35f95b5ba0fa9531f52497b124ed425a",
    (5, 1, None, 1, (("pair_budget", 119),)): "1632cb6c82e71a2a5d86329000d56394bf77fe4bd8d254d1ffaa1d38f57ec247",
    (5, 1, None, 1, (("pair_budget", 120),)): "1632cb6c82e71a2a5d86329000d56394bf77fe4bd8d254d1ffaa1d38f57ec247",
    (5, 1, None, 1, (("pair_budget", 200),)): "e5f415a8dbe1d51b8208cd85091fe4f211d88624770a0f2dd6468a368032e31a",
    (5, 1, None, 1, (("pair_budget", 1000),)): "2d1d1767dd5f73ea1b5b6734a4d1b522a40423c36179dc48b4bacc7d748310d1",
    (5, 1, None, 1, (("pair_budget", 1500),)): "2d1d1767dd5f73ea1b5b6734a4d1b522a40423c36179dc48b4bacc7d748310d1",
}


@pytest.mark.parametrize("case", sorted(REFERENCE_DIGESTS, key=str))
def test_pair_search_reproduces_the_reference_digests(case):
    m, q0, stop, step, kw = case
    assert _digest(_outcomes(m, q0, stop, step, **dict(kw))) == REFERENCE_DIGESTS[case]


@pytest.mark.parametrize("m, q0", [(4, 2), (6, 3)])
def test_pair_search_matches_the_reference_outcome_by_outcome(m, q0, monkeypatch):
    # the recorded digests come from the reference kept above: rerun it live
    # where it is cheap, and compare every outcome
    ours = _outcomes(m, q0)
    monkeypatch.setattr(reduction, "_try_pair_search", _reference_try_pair_search)
    theirs = _outcomes(m, q0)
    assert ours == theirs
    assert _digest(theirs) == REFERENCE_DIGESTS[(m, q0, None, 1, ())]


def test_pair_search_budget_counts_scanned_products():
    # the budget counts the products the search scans, and nothing caps the
    # table: 1000 products finish every search over SL_2(F5), and a budget
    # below |SL_2(F5)| = 120 refuses for want of products, not of a table
    traces = _outcomes(5, 1, pair_budget=1000)
    assert len(traces) == 236 and all(t.startswith("congwidth-trace") for t in traces)
    assert [serialize_trace(replay_trace(t)) for t in traces] == traces
    low = _outcomes(5, 1, pair_budget=119)
    assert not any(t.startswith("BudgetExceeded") for t in low)
    assert low == _outcomes(5, 1, pair_budget=120)


def test_pair_search_refuses_when_the_budget_runs_out_in_phase_b():
    # phase A scans every two-letter product of this element without a hit;
    # 800 products then end the three-letter scan before its first hit,
    # which 1200 reach
    F5 = RingSpec.integers_mod(5)
    sigma, q = SqMatrix.from_raw(F5, [[3, 1], [2, 1]]), Ideal.of(F5, 1)
    refusal = "^no unit in the configured search space produces a nontrivial E12 element$"
    with pytest.raises(NoUnitFound, match=refusal):
        sl2_unit_reduction(sigma, q, pair_budget=800)
    steps = sl2_unit_reduction(sigma, q, pair_budget=1200).steps
    assert [st.case for st in steps][:2] == ["sl2.pair.append"] * 2


def test_pair_search_makes_no_matrix_products(sl2_f5, ring_f5, monkeypatch):
    # its products are index gathers; only the trace steps it records build
    # SqMatrix results, and the builder works on payload rows
    products = {"count": 0}
    per_call = []
    mul, search = SqMatrix.__mul__, reduction._try_pair_search

    def counted_mul(self, other):
        products["count"] += 1
        return mul(self, other)

    def counted_search(*args):
        before = products["count"]
        try:
            return search(*args)
        finally:
            per_call.append(products["count"] - before)

    monkeypatch.setattr(SqMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(reduction, "_try_pair_search", counted_search)
    q = Ideal.of(ring_f5, 1)
    for k, g in enumerate(elements(sl2_f5)):
        if k not in sl2_f5.center:
            for side in ("E12", "E21"):
                sl2_unit_reduction(g, q, side)
    assert len(per_call) > 100 and max(per_call) <= 4


# -- sum sets ----------------------------------------------------------------------


def _reference_sum_set_census(gens, m, max_terms, target_level, budget=10**6):
    """The sum-set census on a SqMatrix closure and packed target loops."""
    ring = RingSpec.integers_mod(m)
    if m**4 > budget:
        raise BudgetExceeded(f"universe size {m**4} over budget {budget}")
    one = identity(ring, 2)
    for g in gens:
        if g.ring != ring or determinant(g) != ring.one:
            raise ValueError("generators must be SL_2 matrices over Z/m")

    group = {one.key(): one}
    frontier = deque([one])
    gen_list = gens + [mat_inv(g) for g in gens]
    while frontier:
        g = frontier.popleft()
        for s in gen_list:
            h = g * s
            if h.key() not in group:
                group[h.key()] = h
                frontier.append(h)

    def pack(mat):
        (a, b), (c, d) = mat.key()
        return ((a * m + b) * m + c) * m + d

    gamma = np.array(sorted(pack(g) for g in group.values()), dtype=np.int64)

    def unpack_array(arr):
        out = np.empty((arr.size, 4), dtype=np.int64)
        rest = arr.copy()
        for pos in range(3, -1, -1):
            out[:, pos] = rest % m
            rest //= m
        return out

    gamma_digits = unpack_array(gamma)
    if m % target_level != 0:
        raise ValueError("target_level must divide the modulus")
    targets = set()
    lv = target_level % m
    reach = range(0, m, lv) if lv else [0]
    for da in reach:
        for db in reach:
            for dc in reach:
                for dd in reach:
                    mat = SqMatrix.from_raw(ring, [[1 + da, db], [dc, 1 + dd]])
                    if determinant(mat) == ring.one:
                        targets.add(pack(mat))
    target_arr = np.array(sorted(targets), dtype=np.int64)

    powers = np.array([m**3, m**2, m, 1], dtype=np.int64)
    covered = np.zeros(m**4, dtype=bool)
    covered[gamma] = True
    frontier_idx = gamma.copy()
    sizes = [int(covered.sum())]
    covered_at = 1 if covered[target_arr].all() else None
    for l in range(2, max_terms + 1):
        if covered_at is not None:
            break
        fd = unpack_array(frontier_idx)
        new_chunks = []
        for gd in gamma_digits:
            summed = (fd + gd) % m
            new_chunks.append(summed @ powers)
        cand = np.unique(np.concatenate(new_chunks))
        fresh = cand[~covered[cand]]
        covered[fresh] = True
        frontier_idx = fresh
        sizes.append(int(covered.sum()))
        if covered[target_arr].all():
            covered_at = l
    return census.SumSetReport(m, len(group), tuple(sizes), covered_at, target_level, len(targets))


def _shears(m, k):
    ring = RingSpec.integers_mod(m)
    return [SqMatrix.from_raw(ring, [[1, k], [0, 1]]), SqMatrix.from_raw(ring, [[1, 0], [k, 1]])]


@pytest.mark.parametrize("m, k, terms, level", [
    (8, 2, 3, 4), (8, 3, 6, 8), (8, 2, 5, 2), (9, 3, 10, 3), (16, 2, 8, 4),
    (12, 1, 4, 12), (10, 5, 6, 5), (25, 5, 12, 5), (6, 0, 3, 2), (7, 1, 3, 7),
    (27, 3, 19, 9), (8, 2, 0, 2), (8, 2, -1, 4),
])
def test_sum_set_census_matches_the_reference(m, k, terms, level):
    assert sum_set_census(_shears(m, k), m, terms, level) == _reference_sum_set_census(_shears(m, k), m, terms, level)


def test_sum_set_census_checks_its_inputs_before_the_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("closure_bfs ran")

    monkeypatch.setattr(census, "closure_bfs", no_closure)
    with pytest.raises(ValueError, match="target_level"):
        sum_set_census(_shears(8, 2), 8, 3, 3)
    three = SqMatrix.from_raw(RingSpec.integers_mod(8), [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="SL_2"):
        sum_set_census([three], 8, 3, 4)


# -- callers ----------------------------------------------------------------------


def test_factor_census_builds_no_width_table(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_sl(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_sl", counted)
    assert cli.main(["census", "--group", "SL2,F3", "--factors"]) == 0
    assert calls == [] and "count,frequency" in capsys.readouterr().out
