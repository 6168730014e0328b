"""Brute-force oracle over finite matrix groups.

Enumerates SL_n over a finite ring by closure under elementary generators
(cross-checked against the closed-form order where known), runs exhaustive
BFS for conjugacy-width minima, studies sum sets of subgroup elements modulo
m, and checks the explicit five-term sum decomposition.

Group elements are addressed by their enumeration index.  Products come
from one int32 table, built with numpy on first use, and every search over
the group is a closure_bfs whose step maps a frontier of indices to its
neighbours.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndices, BudgetExceeded, CentralInput, UnsupportedRing
from .matrices import (
    SqMatrix,
    determinant,
    elementary,
    identity,
    is_central,
    mat_inv,
)
from .rings import KIND_ZMOD, Ideal, RingSpec

# A product table past this many int32 entries (256 MB) is refused.
_TABLE_ENTRY_CAP = 1 << 26
# Frontier nodes times group order handed to one closure_bfs step.
_BFS_SLICE = 1 << 16


def sl_order(n: int, ring: RingSpec) -> int:
    """Closed-form |SL_n(Z/m)| (multiplicative over prime powers)."""
    if ring.kind != KIND_ZMOD:
        raise UnsupportedRing("order formula only implemented for Z/m")
    m = ring.modulus
    total = 1
    rest = m
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            base = p ** (n * (n - 1) // 2)
            for k in range(2, n + 1):
                base *= p**k - 1
            total *= base * p ** ((e - 1) * (n * n - 1))
        else:
            p += 1 if p == 2 else 2
    return total


def closure_bfs(step, starts, size: int, budget: int | None = None) -> np.ndarray:
    """Breadth-first closure over the nodes 0..size-1, one layer at a time.

    step maps a 1-D array of frontier nodes to an array, of any shape, of
    their neighbours.  Returns the int32 distance of every node from the
    nearest start, -1 for nodes never reached.  Reaching more than budget
    nodes raises BudgetExceeded.

    step sees at most _BFS_SLICE // size nodes at a time, so a step that
    yields a few neighbours per node and group element keeps its
    temporaries to a few MB whatever the group.
    """
    dist = np.full(size, -1, dtype=np.int32)
    fresh = np.zeros(size, dtype=bool)
    fresh[np.asarray(starts, dtype=np.int64)] = True
    width = max(1, _BFS_SLICE // size)
    reached = depth = 0
    while (frontier := np.flatnonzero(fresh)).size:
        dist[frontier] = depth
        reached += frontier.size
        if budget is not None and reached > budget:
            raise BudgetExceeded(f"closure BFS exceeded {budget} nodes")
        fresh[:] = False
        for lo in range(0, frontier.size, width):
            cand = step(frontier[lo:lo + width]).ravel()
            fresh[cand[dist[cand] < 0]] = True
        depth += 1
    return dist


def _product_table(elements: list[SqMatrix], m: int) -> np.ndarray:
    """mul[a, b] = index of elements[a] * elements[b], over Z/m.

    Each element is encoded by its entries read as base-m digits, and a
    row of products is mapped back to indices through a code -> index
    array.  That array has m^(n^2) entries, at most a few times m * |G|.
    """
    size = len(elements)
    if size * size > _TABLE_ENTRY_CAP:
        raise BudgetExceeded(
            f"product table of {size}^2 entries over the cap of {_TABLE_ENTRY_CAP}"
        )
    mats = np.array([g.key() for g in elements], dtype=np.int64)
    n = mats.shape[1]
    weights = m ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    index_of = np.empty(m ** (n * n), dtype=np.int32)
    index_of[mats.reshape(size, n * n) @ weights] = np.arange(size)
    mul = np.empty((size, size), dtype=np.int32)
    for a in range(size):
        mul[a] = index_of[(mats[a] @ mats % m).reshape(size, n * n) @ weights]
    return mul


@dataclass
class FiniteGroupTable:
    """All of SL_n over a finite ring, with index-based multiplication.

    mul[a, b] is the index of elements[a] * elements[b], an int32 array of
    |G|^2 entries built on first access; a group too large for it raises
    BudgetExceeded there, while its elements, inverses and center stay usable.
    """

    ring: RingSpec
    n: int
    elements: list[SqMatrix]
    index: dict = field(repr=False)
    inv: np.ndarray = field(repr=False)  # int32 index of each inverse
    center: list[int] = field(repr=False)
    _mul: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def mul(self) -> np.ndarray:
        if self._mul is None:
            self._mul = _product_table(self.elements, self.ring.modulus)
        return self._mul

    def idx(self, g: SqMatrix) -> int:
        return self.index[g.key()]

    def word_distances(self, letters, budget: int | None = None) -> np.ndarray:
        """Word length of every element over the letters (-1: not generated)."""
        mul = self.mul
        letters = np.asarray(letters, dtype=np.int32)
        one = self.idx(identity(self.ring, self.n))
        return closure_bfs(lambda f: mul[f[:, None], letters], [one], len(self), budget)

    def target_elementaries(self, i: int, j: int, ideal: Ideal) -> list[int]:
        """Indices of nontrivial I + a*e_ij with a in the ideal."""
        out = []
        for a in self.ring.residues():
            if a.is_zero or not ideal.contains(a):
                continue
            out.append(self.idx(elementary(self.ring, self.n, i, j, a)))
        return out


_TABLE_CACHE: dict = {}


def enumerate_sl(n: int, ring: RingSpec, budget: int = 10**6) -> FiniteGroupTable:
    """Enumerate SL_n(ring) for finite rings by generator closure.

    Verifies closure and, for Z/m, cross-checks the classical order formula.
    Tables are cached per (n, ring); callers must not mutate them.
    """
    if not ring.is_finite:
        raise UnsupportedRing(f"{ring.descriptor()} is not finite")
    expected = sl_order(n, ring)
    if expected > budget:
        raise BudgetExceeded(f"|SL_{n}({ring.descriptor()})| = {expected} over budget {budget}")
    cached = _TABLE_CACHE.get((n, ring))
    if cached is not None:
        return cached

    gens = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for a in ring.residues():
                if not a.is_zero:
                    gens.append(elementary(ring, n, i, j, a))

    one = identity(ring, n)
    elements = [one]
    index = {one.key(): 0}
    frontier = deque([one])
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = g * s
            key = h.key()
            if key not in index:
                index[key] = len(elements)
                elements.append(h)
                frontier.append(h)
                if len(elements) > budget:
                    raise BudgetExceeded(f"enumeration exceeded budget {budget}")

    assert len(elements) == expected, (
        f"closure found {len(elements)} elements, formula gives {expected}"
    )
    inv = np.array([index[mat_inv(g).key()] for g in elements], dtype=np.int32)
    center = [k for k, g in enumerate(elements) if is_central(g)]
    table = FiniteGroupTable(ring, n, elements, index, inv, center)
    _TABLE_CACHE[(n, ring)] = table
    return table


@dataclass(frozen=True)
class WidthResult:
    target: tuple[int, int]
    min_ops: int | None
    min_word: int | None

    @property
    def unreachable(self) -> bool:
        return self.min_ops is None or self.min_word is None


def width_bfs(
    table: FiniteGroupTable,
    sigma: SqMatrix | int,
    ideal: Ideal,
    targets: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], WidthResult]:
    """Exact minima over the finite group, per target position (i, j):

    - minimum number of operations g -> sgs^-1 / [g, s] / [s, g] (s ranging
      over the whole elementary subgroup of the ideal) taking sigma to a
      nontrivial element of E_ij(ideal);
    - minimum word length over conjugates of sigma^{±1} reaching the same set.
    """
    sidx = sigma if isinstance(sigma, int) else table.idx(sigma)
    if sidx in table.center:
        raise CentralInput("width census needs a non-central element")
    n = table.n
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if targets is None:
        targets = positions
    elif not set(targets) <= set(positions):
        raise BadIndices(f"bad target positions {targets} for n={n}")

    mul, inv = table.mul, table.inv
    # E(q): the closure of every nontrivial elementary matrix with entries in q
    elems = {p: table.target_elementaries(*p, ideal) for p in positions}
    esub = np.flatnonzero(table.word_distances(sum(elems.values(), [])) >= 0)
    s, si = esub[None, :], inv[esub][None, :]

    def operations(f):
        g, gi = f[:, None], inv[f][:, None]
        conj = mul[mul[s, g], si]
        return np.stack((conj, mul[mul[mul[g, s], gi], si], mul[conj, gi]))

    # operation count from sigma over the q-operation graph
    dist_ops = closure_bfs(operations, [sidx], len(table))
    # word length over the conjugates of sigma^{±1}
    letters = np.zeros(len(table), dtype=bool)
    letters[mul[mul[s, [[sidx], [inv[sidx]]]], si]] = True
    dist_word = table.word_distances(letters.nonzero()[0])

    results = {}
    for (i, j) in targets:
        ops = dist_ops[elems[(i, j)]]
        word = dist_word[elems[(i, j)]]
        results[(i, j)] = WidthResult((i, j), _least(ops[ops >= 0]), _least(word[word > 0]))
    return results


def _least(dist: np.ndarray) -> int | None:
    return int(dist.min()) if dist.size else None


def width_census_csv(table: FiniteGroupTable, ideal: Ideal) -> str:
    """CSV census over every non-central element and every target.

    Unreachable targets (the generated subgroup misses the elementary group
    entirely, possible in dimension 2) appear as "unreachable" rows and are
    counted separately in the summary.
    """
    lines = ["sigma_index,min_ops,min_len,target"]
    all_ops = []
    all_words = []
    unreachable = 0
    for k in range(len(table.elements)):
        if k in table.center:
            continue
        res = width_bfs(table, k, ideal)
        for (i, j) in sorted(res):
            r = res[(i, j)]
            if r.unreachable:
                unreachable += 1
                lines.append(f"{k},unreachable,unreachable,{i}{j}")
                continue
            lines.append(f"{k},{r.min_ops},{r.min_word},{i}{j}")
            all_ops.append(r.min_ops)
            all_words.append(r.min_word)
    lines.append("summary {")
    lines.append(f"  group_order={len(table.elements)}")
    lines.append(f"  noncentral={len(table.elements) - len(table.center)}")
    lines.append(f"  unreachable_pairs={unreachable}")
    if all_ops:
        lines.append(f"  max_ops={max(all_ops)} mean_ops={sum(all_ops) / len(all_ops):.4f}")
        lines.append(f"  max_len={max(all_words)} mean_len={sum(all_words) / len(all_words):.4f}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- sum sets ------------------------------------------------------------------


@dataclass(frozen=True)
class SumSetReport:
    modulus: int
    group_size: int
    sizes: tuple[int, ...]  # |S_l| for l = 1..M
    covered_at: int | None  # least l covering the target congruence subgroup
    target_level: int
    target_size: int

    def render(self) -> str:
        lines = [f"modulus={self.modulus} group_size={self.group_size} target_level={self.target_level}"]
        for l, s in enumerate(self.sizes, start=1):
            cov = "yes" if self.covered_at is not None and l >= self.covered_at else "no"
            lines.append(f"l={l} size={s} covered={cov}")
        lines.append(
            f"covered_at={self.covered_at}"
            if self.covered_at is not None
            else "covered_at=never-within-budget"
        )
        return "\n".join(lines) + "\n"


def sum_set_census(
    gens: list[SqMatrix],
    m: int,
    max_terms: int,
    target_level: int,
    budget: int = 10**6,
) -> SumSetReport:
    """Sums of at most max_terms elements of the subgroup generated by gens,
    computed modulo m; reports when the congruence subgroup at target_level
    (2x2 SL matrices congruent to I modulo target_level) is fully covered.

    This is the finite shadow of the sum-set question only: nothing is decided
    about the integral statement.
    """
    ring = RingSpec.integers_mod(m)
    if m**4 > budget:
        raise BudgetExceeded(f"universe size {m**4} over budget {budget}")
    one = identity(ring, 2)
    for g in gens:
        if g.ring != ring or determinant(g) != ring.one:
            raise ValueError("generators must be SL_2 matrices over Z/m")

    # subgroup closure
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

    def pack(mat: SqMatrix) -> int:
        (a, b), (c, d) = mat.key()
        return ((a * m + b) * m + c) * m + d

    gamma = np.array(sorted(pack(g) for g in group.values()), dtype=np.int64)

    def unpack_array(arr: np.ndarray) -> np.ndarray:
        out = np.empty((arr.size, 4), dtype=np.int64)
        rest = arr.copy()
        for pos in range(3, -1, -1):
            out[:, pos] = rest % m
            rest //= m
        return out

    gamma_digits = unpack_array(gamma)

    # target congruence subgroup: SL_2 matrices = I mod target_level, packed
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
    return SumSetReport(
        m, len(group), tuple(sizes), covered_at, target_level, len(targets)
    )


# -- the explicit five-term identity ------------------------------------------


def _mat2(e11, e12, e21, e22):
    return ((e11, e12), (e21, e22))


def _add2(x, y):
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def verify_sum_identity(m: int, a: int, b: int, c: int, d: int):
    """Check the five-term decomposition of [[1+m^2 a, mb], [mc, 1+m^2 d]]
    as (2m^2-3) I plus four explicit subgroup elements; exact integers.

    Returns (equal, lhs, rhs) with both sides as 2x2 integer tuples.
    """
    lhs = _mat2(1 + m * m * a, m * b, m * c, 1 + m * m * d)
    rhs = _mat2(0, 0, 0, 0)
    for t in sum_identity_terms(m, a, b, c, d):
        rhs = _add2(rhs, t)
    return rhs == lhs, lhs, rhs


def sum_identity_terms(m: int, a: int, b: int, c: int, d: int):
    """The five summands of verify_sum_identity, for term-by-term inspection."""
    return [
        _mat2(2 * m * m - 3, 0, 0, 2 * m * m - 3),
        _mat2(1, m * (b - 2), 0, 1),
        _mat2(1, 0, m * (c - a - d + 4), 1),
        _mat2(1 + m * m * (a - 2), m, m * (a - 2), 1),
        _mat2(1, m, m * (d - 2), 1 + m * m * (d - 2)),
    ]
