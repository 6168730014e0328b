"""Brute-force oracle over finite matrix groups.

Enumerates SL_n(Z/m) by closure under elementary generators (cross-checked
against the closed-form order), runs exhaustive BFS for conjugacy-width
minima, studies sum sets of subgroup elements modulo m, and checks the
explicit five-term sum decomposition.

Finite groups have one integer form: a matrix over Z/m is an int64 array of
residues, coded by its entries read as base-m digits.  A group table holds
its elements' matrices and a code -> index array, and multiplies broadcast
index arrays through them; every search over a group is a closure_bfs whose
step maps a frontier of indices (or, for sum sets, codes) to its neighbours.
Each table also keeps, once per ideal q, the targets E_ij(q) and the
E(q)-classes of the group, each labelled by its least member under
conjugation by the targets (they generate E(q)), so a width census does no
per-sigma set-up.  Both width searches commute with conjugation by E(q): the
operation search steps from each node to its class, not to each element of
E(q), and stops at the layer that settles its last target position; the word
search walks the classes themselves, on which word length is constant.  The
product table is built along the enumeration tree, one gathered row per
element.  A SqMatrix enters a table through idx and leaves through element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import BudgetExceeded, CentralInput, DimensionMismatch, NotInGroup, UnsupportedRing, ZeroIdeal
from .matrices import SqMatrix, _check_position, determinant
from .rings import Ideal, RingSpec

# A product table past this many int32 entries (256 MB) is refused.
_TABLE_ENTRY_CAP = 1 << 26
# Frontier nodes times group order handed to one closure_bfs step, and
# products per enumeration step.
_BFS_SLICE = 1 << 16
# Products per numpy call in FiniteGroupTable.product (temporaries of n^2 * 32 KB).
_PRODUCT_SLICE = 1 << 12


def sl_order(n: int, ring: RingSpec) -> int:
    """Closed-form |SL_n(Z/m)| (multiplicative over prime powers)."""
    if not ring.is_finite:
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


def closure_bfs(step, starts, size: int, stop=None) -> np.ndarray:
    """Breadth-first closure over the nodes 0..size-1, one layer at a time.

    step maps a 1-D array of frontier nodes to an array, of any shape, of
    their neighbours.  Returns the int32 distance of every node from the
    nearest start, -1 for nodes never reached.  With stop, a function of the
    distances so far and the depth just reached, the search ends once it
    returns true, before expanding that layer: nodes past it read -1.

    step sees at most _BFS_SLICE // size nodes at a time, so a step that
    yields a few neighbours per node and group element keeps its
    temporaries to a few MB whatever the group.
    """
    dist = np.full(size, -1, dtype=np.int32)
    fresh = np.zeros(size, dtype=bool)
    fresh[np.asarray(starts, dtype=np.int64)] = True
    width = max(1, _BFS_SLICE // size)
    depth = 0
    while (frontier := fresh.nonzero()[0]).size:
        dist[frontier] = depth
        if stop is not None and stop(dist, depth):
            break
        fresh[:] = False
        for lo in range(0, frontier.size, width):
            cand = step(frontier[lo:lo + width]).ravel()
            fresh[cand[dist[cand] < 0]] = True
        depth += 1
    return dist


def _encode(mats: np.ndarray, m: int) -> np.ndarray:
    """Base-m codes of a (..., n, n) array of residues mod m."""
    n = mats.shape[-1]
    return mats.reshape(*mats.shape[:-2], n * n) @ m ** np.arange(n * n - 1, -1, -1, dtype=np.int64)


def _decode(codes: np.ndarray, m: int, n: int) -> np.ndarray:
    """The (..., n, n) residue matrices of an array of base-m codes."""
    digits = codes[..., None] // m ** np.arange(n * n - 1, -1, -1, dtype=np.int64) % m
    return digits.reshape(*codes.shape, n, n)


@dataclass(frozen=True)
class CongruenceContext:
    """The sigma-independent data of a width census over one ideal q.

    The E(q)-class of g is {s g s^-1 : s in E(q)}, the orbit of g under
    conjugation by the targets, which generate E(q).  Classes are numbered
    by their least member; members[cls[g]] lists g's class in index order,
    padded to a common width by repeating its last member.  With q = (1),
    E(q) is all of SL_n and the classes are its conjugacy classes.
    """

    targets: np.ndarray  # one row per (i, j), i != j, in sorted order: the nontrivial elements of E_ij(q)
    cls: np.ndarray  # class number of every element
    members: np.ndarray  # one row per class: its members, padded


@dataclass
class FiniteGroupTable:
    """All of SL_n(Z/m), addressed by enumeration index; index 0 is the identity.

    mats[k] is element k as an int64 (n, n) array of residues, and
    code_index maps the base-m code of any n x n matrix to its int32 index
    (-1 off the group).  product(a, b) multiplies broadcast index arrays
    through them; mul is its full |G|^2 table, built on first access and
    refused with BudgetExceeded past the cap, where product still works.
    element(k) wraps one element as a SqMatrix.
    """

    ring: RingSpec
    n: int
    inv: np.ndarray = field(repr=False)  # int32 index of each inverse
    center: list[int] = field(repr=False)
    mats: np.ndarray = field(repr=False)
    code_index: np.ndarray = field(repr=False)
    tree: np.ndarray = field(repr=False)  # tree[a]: int32 indices of a parent and a generator whose product is a
    _mul: np.ndarray | None = field(default=None, repr=False)
    _congruence: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.mats)

    def product(self, a, b) -> np.ndarray:
        """Indices of element(a) * element(b), for broadcast index arrays a, b."""
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        out = np.empty(shape or (1,), dtype=np.int32)
        a, b = (np.reshape(x, (1,) * (out.ndim - np.ndim(x)) + np.shape(x)) for x in (a, b))
        a, b = (self.mats[z] if len(z) == 1 else z for z in (a, b))  # broadcast along the leading axis: gathered once
        step = max(1, _PRODUCT_SLICE * len(out) // max(1, out.size))
        m = self.ring.modulus
        for lo in range(0, len(out), step):  # the other operands are gathered slice by slice
            x, y = (z if len(z) == 1 else self.mats[z[lo:lo + step]] for z in (a, b))
            out[lo:lo + step] = self.code_index[_encode(x @ y % m, m)]
        return out.reshape(shape)

    @property
    def mul(self) -> np.ndarray:
        if self._mul is None:
            size = len(self)
            if size * size > _TABLE_ENTRY_CAP:
                raise BudgetExceeded(f"product table of {size}^2 entries over the cap of {_TABLE_ENTRY_CAP}")
            # row a is a x = parent (gen x), along the enumeration tree: parents come first
            mul = np.empty((size, size), dtype=np.int32)
            gens = np.flatnonzero(self.tree[:, 0] == 0)  # the identity's children: itself and the generators
            mul[gens] = self.product(gens[:, None], np.arange(size))
            for a, (parent, gen) in enumerate(self.tree.tolist()):
                np.take(mul[parent], mul[gen], out=mul[a])
            self._mul = mul
        return self._mul

    def element(self, k: int) -> SqMatrix:
        """Element k as a SqMatrix; its residues already are Z/m payloads."""
        return SqMatrix(self.ring, self.n, payload=self.mats[k].tolist())

    @property
    def elements(self) -> list[SqMatrix]:
        """Every element as a SqMatrix, in index order, built on each access;
        only perfbench/traced.py reads it."""
        return [self.element(k) for k in range(len(self))]

    def idx(self, g: SqMatrix | int) -> int:
        """Index of g, an element of the table or already an index into it."""
        if isinstance(g, (int, np.integer)):
            if 0 <= g < len(self):
                return int(g)
        elif isinstance(g, SqMatrix) and g.n == self.n and (g.ring is self.ring or g.ring == self.ring):
            if (k := int(self.code_index[_encode(np.array(g.key()), self.ring.modulus)])) >= 0:
                return k
        raise NotInGroup(f"{g!r} is not an element of SL_{self.n}({self.ring.descriptor()})")

    def congruent(self, ideal: Ideal) -> np.ndarray:
        """Indices, in order, of the elements congruent to I modulo the ideal."""
        in_ideal = np.array([ideal.contains(a) for a in self.ring.residues()])
        diff = (self.mats - np.eye(self.n, dtype=np.int64)) % self.ring.modulus
        return np.flatnonzero(in_ideal[diff].all(axis=(1, 2)))

    def word_distances(self, letters) -> np.ndarray:
        """Word length of every element over the letters (-1: not generated)."""
        mul = self.mul
        letters = np.asarray(letters, dtype=np.int32)
        return closure_bfs(lambda f: mul[f[:, None], letters], [0], len(self))

    def target_elementaries(self, i: int, j: int, ideal: Ideal) -> list[int]:
        """Indices of nontrivial I + a*e_ij with a in the ideal, by a."""
        n, m = self.n, self.ring.modulus
        _check_position(n, i, j)
        residues = [a.payload for a in self.ring.residues() if not a.is_zero and ideal.contains(a)]
        eye = _encode(np.eye(n, dtype=np.int64), m)
        place = m ** (n * n - 1 - (i - 1) * n - (j - 1))
        return self.code_index[eye + place * np.array(residues, dtype=np.int64)].tolist()

    def congruence(self, ideal: Ideal) -> CongruenceContext:
        """Targets and E(q)-classes, built once per nonzero ideal q: labels
        fall to their class's least member under conjugation by the targets."""
        ctx = self._congruence.get(ideal.canonical)
        if ctx is None:
            if ideal.is_zero:
                raise ZeroIdeal("width census needs a nonzero ideal")
            pairs = permutations(range(1, self.n + 1), 2)
            targets = np.array([self.target_elementaries(*p, ideal) for p in pairs], dtype=np.int64)
            # the targets generate E(q) and permute G: labels settle on each orbit's least member
            t = targets.ravel()
            tconj = self.mul[self.mul[t], self.inv[t][:, None]]  # tconj[k, g]: t_k g t_k^-1
            least = np.arange(len(self), dtype=np.int32)
            while ((low := np.minimum(least, least[tconj].min(axis=0))) < least).any():
                least = low
            cls = np.cumsum(least == np.arange(len(self)))[least] - 1  # numbered by least member
            counts = np.bincount(cls)
            start = np.cumsum(counts) - counts
            pad = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
            members = np.argsort(cls, kind="stable").astype(np.int32)[start[:, None] + pad]
            ctx = self._congruence[ideal.canonical] = CongruenceContext(targets, cls, members)
        return ctx


def enumerate_sl(n: int, ring: RingSpec, budget: int = 10**6) -> FiniteGroupTable:
    """Enumerate SL_n(ring) for finite rings by generator closure.

    Verifies closure and, for Z/m, cross-checks the classical order formula.
    The most recently used tables are cached per (n, ring), each with its
    congruence contexts; callers must not mutate them.
    """
    if not ring.is_finite:
        raise UnsupportedRing(f"{ring.descriptor()} is not finite")
    expected = sl_order(n, ring)
    if expected > budget:
        raise BudgetExceeded(f"|SL_{n}({ring.descriptor()})| = {expected} over budget {budget}")
    return _enumerate_sl(n, ring, expected)


@lru_cache(maxsize=8)
def _enumerate_sl(n: int, ring: RingSpec, expected: int) -> FiniteGroupTable:
    """First-in first-out closure of I under right multiplication by the
    generators I + a e_ij in (i, j, a) order, on codes: a new element takes
    the next index at its first product g s in (parent, generator) order.
    Parents go in slices of already indexed elements, and the inverse of
    g s is carried along as s^-1 g^-1."""
    if n < 2:
        raise DimensionMismatch("dimension must be >= 2")
    m = ring.modulus
    eye = np.eye(n, dtype=np.int64)
    units = np.eye(n * n, dtype=np.int64).reshape(n, n, n, n)  # units[i, j] = e_ij
    gens = np.array([eye + a * units[i, j] for i, j in permutations(range(n), 2) for a in range(1, m)])
    gens_inv = (2 * eye - gens) % m  # (I + a e_ij)^-1 = I - a e_ij

    mats = np.empty((expected, n, n), dtype=np.int64)
    invs = np.empty_like(mats)
    tree = np.zeros((expected, 2), dtype=np.int32)
    code_index = np.full(m ** (n * n), -1, dtype=np.int32)
    mats[0] = invs[0] = eye
    code_index[_encode(eye, m)] = 0
    size, lo = 1, 0
    width = max(1, _BFS_SLICE // len(gens))
    while lo < size:
        hi = min(size, lo + width)
        prods = (mats[lo:hi, None] @ gens % m).reshape(-1, n, n)
        codes = _encode(prods, m)
        new = np.flatnonzero(code_index[codes] < 0)
        new = new[np.sort(np.unique(codes[new], return_index=True)[1])]
        assert size + new.size <= expected, f"closure passed the formula's {expected} elements"
        parent, gen = np.divmod(new, len(gens))
        mats[size:size + new.size] = prods[new]
        invs[size:size + new.size] = gens_inv[gen] @ invs[lo + parent] % m
        tree[size:size + new.size] = np.column_stack((lo + parent, gen))
        code_index[codes[new]] = np.arange(size, size + new.size)
        size += new.size
        lo = hi

    assert size == expected, f"closure found {size} elements, formula gives {expected}"
    inv = code_index[_encode(invs, m)]
    tree[1:, 1] = code_index[_encode(gens, m)][tree[1:, 1]]
    center = np.flatnonzero((mats == mats[:, :1, :1] * eye).all(axis=(1, 2))).tolist()
    return FiniteGroupTable(ring, n, inv, center, mats, code_index, tree)


@dataclass(frozen=True)
class WidthResult:
    target: tuple[int, int]
    min_ops: int | None
    min_word: int | None

    @property
    def unreachable(self) -> bool:
        return self.min_ops is None or self.min_word is None


def width_bfs(table: FiniteGroupTable, sigma: SqMatrix | int, ideal: Ideal) -> dict[tuple[int, int], WidthResult]:
    """Exact minima over the finite group, for every target position (i, j), i != j:

    - minimum number of operations g -> sgs^-1 / [g, s] / [s, g] (s ranging
      over the whole elementary subgroup of the ideal) taking sigma to a
      nontrivial element of E_ij(ideal);
    - minimum word length over conjugates of sigma^{±1} reaching the same set.

    The targets and the E(q)-classes come from the table's congruence
    context, built once per ideal; per sigma, only the two searches run: the
    operation search over elements, one class per node and step, up to the
    layer that settles the last position, and the word search over classes,
    at most |G| neighbours per class.  A sigma outside the table raises NotInGroup.
    """
    sidx = table.idx(sigma)
    if sidx in table.center:
        raise CentralInput("width census needs a non-central element")
    cong = table.congruence(ideal)
    mul, inv, cls, members = table.mul, table.inv, cong.cls, cong.members

    def operations(f):
        # the s f s^-1 are f's class; [s, f] = (s f s^-1) f^-1 and [f, s] = [s, f]^-1
        c = members[cls[f]]
        comm = mul[c, inv[f][:, None]]
        return np.concatenate((c, comm, inv[comm]))

    # operation count from sigma over the q-operation graph, up to the last target position
    dist_ops = closure_bfs(operations, [sidx], len(table),
                           lambda dist, _: dist[cong.targets].max(axis=-1).min() >= 0)
    # word length over the conjugates of sigma^{±1}, per class: the classes
    # of C L are those of rep(C) L, as the letters L are closed under E(q)
    letters = np.zeros(len(table), dtype=bool)
    letters[members[cls[[sidx, inv[sidx]]]]] = True
    letters = letters.nonzero()[0]
    dist_word = closure_bfs(lambda f: cls[mul[members[f, 0][:, None], letters]], [cls[0]], len(members))

    ops, word = (_least(dist).tolist() for dist in (dist_ops[cong.targets], dist_word[cls[cong.targets]]))
    pairs = permutations(range(1, table.n + 1), 2)
    return {p: WidthResult(p, None if o < 0 else o, None if w < 0 else w) for p, o, w in zip(pairs, ops, word)}


def _least(dist: np.ndarray) -> np.ndarray:
    """Least non-negative int32 distance along the last axis, -1 where none is.

    Read as unsigned, -1 is the largest value.  A target is never the
    identity, so its word distance is never 0.
    """
    return dist.view(np.uint32).min(axis=-1).view(np.int32)


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
    for k in range(len(table)):
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
    lines.append(f"  group_order={len(table)}")
    lines.append(f"  noncentral={len(table) - len(table.center)}")
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
    for g in gens:
        if g.n != 2 or g.ring != ring or determinant(g) != ring.one:
            raise ValueError("generators must be SL_2 matrices over Z/m")
    if m % target_level != 0:
        raise ValueError("target_level must divide the modulus")

    # the subgroup, as base-m codes, closed from I (code m^3 + 1): in a finite
    # group the products of the generators already include their inverses
    gen_mats = np.array([g.key() for g in gens], dtype=np.int64).reshape(-1, 2, 2)
    dist = closure_bfs(lambda f: _encode(_decode(f, m, 2)[:, None] @ gen_mats % m, m), [m**3 + 1], m**4)
    gamma = np.flatnonzero(dist >= 0)
    gamma_mats = _decode(gamma, m, 2)

    # target congruence subgroup: SL_2 matrices = I mod target_level, as codes
    lv = target_level % m
    reach = np.arange(0, m, lv) if lv else np.zeros(1, dtype=np.int64)
    a, b, c, d = ((1 + reach) % m)[:, None, None, None], reach[:, None, None], reach[:, None], (1 + reach) % m
    target_arr = (((a * m + b) * m + c) * m + d)[(a * d - b * c) % m == 1]

    # a sum of l subgroup elements lies at distance l - 1 from the subgroup:
    # the search stops once every target is covered, or at l = max_terms
    dist = closure_bfs(lambda f: _encode((_decode(f, m, 2)[:, None] + gamma_mats) % m, m), gamma, m**4,
                       lambda dist, depth: depth >= max_terms - 1 or dist[target_arr].min() >= 0)
    covered_at = None if (far := dist[target_arr]).min() < 0 else int(far.max()) + 1
    # cumulative layer sizes; once the sums close, the last size repeats up to max_terms
    sizes = np.cumsum(np.bincount(dist[dist >= 0], minlength=covered_at or max(max_terms, 1))).tolist()
    return SumSetReport(m, gamma.size, tuple(sizes), covered_at, target_level, target_arr.size)


# -- the explicit five-term identity ------------------------------------------


def verify_sum_identity(m: int, a: int, b: int, c: int, d: int):
    """Check the five-term decomposition of [[1+m^2 a, mb], [mc, 1+m^2 d]]
    as (2m^2-3) I plus four explicit subgroup elements; exact integers.

    Returns (equal, lhs, rhs) with both sides as 2x2 integer tuples.
    """
    lhs = ((1 + m * m * a, m * b), (m * c, 1 + m * m * d))
    terms = sum_identity_terms(m, a, b, c, d)
    rhs = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*terms))
    return rhs == lhs, lhs, rhs


def sum_identity_terms(m: int, a: int, b: int, c: int, d: int):
    """The five summands of verify_sum_identity, for term-by-term inspection."""
    return [
        ((2 * m * m - 3, 0), (0, 2 * m * m - 3)),
        ((1, m * (b - 2)), (0, 1)),
        ((1, 0), (m * (c - a - d + 4), 1)),
        ((1 + m * m * (a - 2), m), (m * (a - 2), 1)),
        ((1, m), (m * (d - 2), 1 + m * m * (d - 2))),
    ]
