"""Exact n x n matrices over a RingSpec and the group-theoretic primitives.

A matrix stores its entries once, as payload rows: a tuple of row tuples of
the canonical payloads that RingElement.payload holds.  Products,
determinants, inverses, sums, the text format and the predicates run on
those payloads through the ring's kernel; a RingElement is made only when a
caller reads an entry (e, row, column, rows).  SqMatrix.from_raw is the one
way in from raw values or RingElements.

Indices are 1-based throughout the public API and the text formats, and
0-based on payload rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import (
    BadIndices,
    DimensionMismatch,
    MismatchedRings,
    NotInvertible,
    ZeroIdeal,
)
from .rings import Ideal, RingElement, RingSpec


@dataclass(frozen=True)
class SqMatrix:
    """Immutable square matrix; payload holds its entries as payload rows.

    payload is keyword-only: SqMatrix(ring, n, payload=rows) takes canonical
    payloads and does not coerce them; SqMatrix.from_raw(ring, rows) coerces
    raw values and checks RingElements against the ring.
    """

    ring: RingSpec
    n: int
    payload: tuple[tuple, ...] = field(kw_only=True)

    def __post_init__(self):
        if self.n < 2:
            raise DimensionMismatch("dimension must be >= 2")
        payload = tuple(map(tuple, self.payload))
        if len(payload) != self.n or any(len(r) != self.n for r in payload):
            raise DimensionMismatch("ragged matrix")
        object.__setattr__(self, "payload", payload)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_raw(ring: RingSpec, raw_rows) -> "SqMatrix":
        """Rows of ints, coefficient lists, (n, k) pairs or RingElements of ring."""
        rows = [[ring.el(x).payload for x in r] for r in raw_rows]
        return SqMatrix(ring, len(rows), payload=rows)

    # -- accessors (1-based); each boxes the entries it returns --------------

    def e(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.payload[i - 1][j - 1])

    def column(self, j: int) -> tuple[RingElement, ...]:
        return tuple(RingElement(self.ring, r[j - 1]) for r in self.payload)

    def row(self, i: int) -> tuple[RingElement, ...]:
        return tuple(RingElement(self.ring, x) for x in self.payload[i - 1])

    @property
    def rows(self) -> tuple[tuple[RingElement, ...], ...]:
        return tuple(tuple(RingElement(self.ring, x) for x in r) for r in self.payload)

    def key(self):
        """Hashable canonical key (entries only; ring fixed by context)."""
        return self.payload

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "SqMatrix"):
        if (self.ring is not other.ring and self.ring != other.ring) or self.n != other.n:
            raise MismatchedRings("matrix shape or ring mismatch")

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        self._check(other)
        return SqMatrix(self.ring, self.n, payload=_mul_rows(self.ring.kernel, self.payload, other.payload))

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        self._check(other)
        add = self.ring.kernel.add
        rows = [list(map(add, ra, rb)) for ra, rb in zip(self.payload, other.payload)]
        return SqMatrix(self.ring, self.n, payload=rows)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        self._check(other)
        k = self.ring.kernel
        rows = [[k.add(a, k.neg(b)) for a, b in zip(ra, rb)] for ra, rb in zip(self.payload, other.payload)]
        return SqMatrix(self.ring, self.n, payload=rows)

    def __pow__(self, k: int) -> "SqMatrix":
        if k < 0:
            return mat_inv(self) ** (-k)
        out = identity(self.ring, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @property
    def is_identity(self) -> bool:
        return self == identity(self.ring, self.n)

    def __repr__(self) -> str:
        fmt = self.ring.kernel.format
        entries = "; ".join(" ".join(map(fmt, r)) for r in self.payload)
        return f"SqMatrix[{entries} over {self.ring.descriptor()}]"


def _identity_rows(k, n: int) -> list[list]:
    return [[k.one if i == j else k.zero for j in range(n)] for i in range(n)]


def identity(ring: RingSpec, n: int) -> SqMatrix:
    return SqMatrix(ring, n, payload=_identity_rows(ring.kernel, n))


def _check_position(n: int, i: int, j: int):
    if i == j or not (1 <= i <= n) or not (1 <= j <= n):
        raise BadIndices(f"bad elementary position ({i}, {j}) for n={n}")


def elementary(ring: RingSpec, n: int, i: int, j: int, a) -> SqMatrix:
    """I + a*e_ij with i != j (1-based indices)."""
    _check_position(n, i, j)
    rows = _identity_rows(ring.kernel, n)
    rows[i - 1][j - 1] = ring.el(a).payload
    return SqMatrix(ring, n, payload=rows)


def basis_matrix(ring: RingSpec, n: int, i: int, j: int) -> SqMatrix:
    """The matrix unit e_ij (1 in position (i, j), 0 elsewhere)."""
    k = ring.kernel
    rows = [[k.zero] * n for _ in range(n)]
    rows[i - 1][j - 1] = k.one
    return SqMatrix(ring, n, payload=rows)


# -- the payload core ------------------------------------------------------------
#
# Products, determinants, inverses and elementary row and column operations
# on payload rows, combined by the ring's kernel.  _add_row and _add_col
# work in place on lists of row lists.  Indices here are 0-based.


def _mul_rows(k, a, b) -> list[list]:
    add, mul = k.add, k.mul
    cols = list(zip(*b))
    return [[reduce(add, map(mul, r, c)) for c in cols] for r in a]


def _add_row(k, rows, i: int, j: int, a):
    """row_i += a * row_j, in place."""
    add, mul = k.add, k.mul
    rows[i] = [add(x, mul(a, y)) for x, y in zip(rows[i], rows[j])]


def _add_col(k, rows, i: int, j: int, a):
    """col_j += col_i * a, in place."""
    add, mul = k.add, k.mul
    for r in rows:
        r[j] = add(r[j], mul(r[i], a))


def _det_cofactor(k, rows):
    """Cofactor expansion along the first row, skipping zero entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return k.add(k.mul(rows[0][0], rows[1][1]), k.neg(k.mul(rows[0][1], rows[1][0])))
    acc = k.zero
    for j, piv in enumerate(rows[0]):
        if not k.is_zero(piv):
            term = k.mul(piv, _det_cofactor(k, [r[:j] + r[j + 1:] for r in rows[1:]]))
            acc = k.add(acc, term if j % 2 == 0 else k.neg(term))
    return acc


def _det_bareiss(k, rows):
    """Fraction-free elimination; every division is exact over a domain."""
    add, mul, neg = k.add, k.mul, k.neg
    a = [list(r) for r in rows]
    n = len(a)
    prev = k.one
    sign = 1
    for c in range(n - 1):
        if k.is_zero(a[c][c]):
            swap = next((r for r in range(c + 1, n) if not k.is_zero(a[r][c])), None)
            if swap is None:
                return k.zero
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = k.div(add(mul(a[i][j], a[c][c]), neg(mul(a[i][c], a[c][j]))), prev)
        prev = a[c][c]
    d = a[n - 1][n - 1]
    return d if sign > 0 else neg(d)


# -- determinant and inverse ---------------------------------------------------


def determinant(m: SqMatrix) -> RingElement:
    """Exact determinant: cofactor expansion for n <= 4, Bareiss over domains
    otherwise (Bareiss division is invalid over non-domains)."""
    det = _det_cofactor if m.n <= 4 or not m.ring.is_domain else _det_bareiss
    return RingElement(m.ring, det(m.ring.kernel, m.payload))


def mat_inv(m: SqMatrix) -> SqMatrix:
    """Exact inverse via the adjugate; requires the determinant to be a unit.

    The determinant is the first-row expansion over the same cofactors."""
    k = m.ring.kernel
    n = m.n

    def cofactor(i, j):
        c = _det_cofactor(k, [r[:j] + r[j + 1:] for rr, r in enumerate(m.payload) if rr != i])
        return k.neg(c) if (i + j) % 2 else c

    cof = [[cofactor(i, j) for j in range(n)] for i in range(n)]
    d = reduce(k.add, map(k.mul, m.payload[0], cof[0]))
    dinv = k.inverse(d)
    if dinv is None:
        raise NotInvertible(f"determinant {k.format(d)} is not a unit")
    return SqMatrix(m.ring, n, payload=[[k.mul(dinv, cof[j][i]) for j in range(n)] for i in range(n)])


def commutator(g: SqMatrix, h: SqMatrix) -> SqMatrix:
    """[g, h] = g h g^-1 h^-1."""
    return g * h * mat_inv(g) * mat_inv(h)


def conjugate(g: SqMatrix, s: SqMatrix) -> SqMatrix:
    """s g s^-1."""
    return s * g * mat_inv(s)


# -- predicates ----------------------------------------------------------------


def is_scalar(g: SqMatrix) -> bool:
    c, zero = g.payload[0][0], g.ring.kernel.zero
    return all(x == (c if i == j else zero) for i, r in enumerate(g.payload) for j, x in enumerate(r))


def is_central(g: SqMatrix) -> bool:
    """True iff g commutes with every elementary(i, j, 1), i.e. iff g is scalar.

    Over any commutative ring, g (I + e_ij) = (I + e_ij) g reduces to
    g e_ij = e_ij g.  The left side is column i of g placed in column j; the
    right side is row j of g placed in row i.  Comparing them gives
    g[r][i] = 0 for r != i and g[i][i] = g[j][j].  Over all i != j, g is
    therefore scalar, and scalar matrices commute with everything.
    """
    return is_scalar(g)


def _off_identity(g: SqMatrix) -> list:
    """The nonzero entries of g - I, as payloads."""
    k = g.ring.kernel
    minus_one = k.neg(k.one)
    return [e for i, r in enumerate(g.payload) for j, x in enumerate(r)
            if not k.is_zero(e := k.add(x, minus_one) if i == j else x)]


def in_congruence_subgroup(g: SqMatrix, ideal: Ideal) -> bool:
    """True iff g = I mod ideal: one kernel division per nonzero entry of g - I."""
    if g.ring is not ideal.ring and g.ring != ideal.ring:
        raise MismatchedRings("element outside the ideal's ring")
    k, d = g.ring.kernel, ideal.canonical.payload
    diff = _off_identity(g)
    return not diff if k.is_zero(d) else all(k.div(e, d) is not None for e in diff)


@dataclass(frozen=True)
class CongruenceDatum:
    """Largest i with the matrix congruent to I modulo ideal^i, capped."""

    ideal: Ideal
    level: int | None  # None: beyond every checked power
    is_identity: bool  # distinguishes the identity from a cap overflow


def congruence_level(g: SqMatrix, ideal: Ideal, cap: int = 64) -> CongruenceDatum:
    """Largest i <= cap with all entries of g - I in ideal^i.

    d^i (d the canonical generator) is built once per level, and each nonzero
    entry of g - I is tested by kernel division; a zero d^i (Z/m only)
    divides no nonzero entry.  A chain that stabilises still runs to the cap."""
    if ideal.is_zero:
        raise ZeroIdeal("congruence level against the zero ideal")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    k = g.ring.kernel
    diff = _off_identity(g)
    if not diff:
        return CongruenceDatum(ideal, None, True)
    d, di = ideal.canonical.payload, k.one
    for i in range(1, cap + 1):
        di = k.mul(di, d)
        if any(k.div(e, di) is None for e in diff):
            return CongruenceDatum(ideal, i - 1, False)
    return CongruenceDatum(ideal, None, False)


def embed_affine(gamma: SqMatrix, v, side: str, n: int) -> SqMatrix:
    """Block embedding of (gamma, v) into dimension n.

    side="column": [[gamma, v], [0, 1]]; side="row": [[1, v^T], [0, gamma]].
    """
    if gamma.n != n - 1:
        raise DimensionMismatch(f"gamma must have dimension {n - 1}")
    ring = gamma.ring
    v = [ring.el(x).payload for x in v]
    if len(v) != n - 1:
        raise DimensionMismatch(f"v must have {n - 1} entries")
    zero, one = ring.kernel.zero, ring.kernel.one
    if side == "column":
        rows = [r + (x,) for r, x in zip(gamma.payload, v)] + [(zero,) * (n - 1) + (one,)]
    elif side == "row":
        rows = [(one, *v)] + [(zero,) + r for r in gamma.payload]
    else:
        raise ValueError("side must be 'column' or 'row'")
    return SqMatrix(ring, n, payload=rows)


# -- text format ----------------------------------------------------------------


def format_matrix(m: SqMatrix) -> str:
    """Matrix text format: line 1 "<n> <ring-descriptor>", then n rows."""
    fmt = m.ring.kernel.format
    lines = [f"{m.n} {m.ring.descriptor()}"] + [" ".join(map(fmt, r)) for r in m.payload]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> SqMatrix:
    lines = [ln for ln in text.strip().splitlines()]
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("matrix header must be '<n> <ring-descriptor>'")
    n = int(head[0])
    ring = RingSpec.parse(head[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        items = ln.split()
        if len(items) != n:
            raise ValueError(f"row has {len(items)} entries, expected {n}")
        rows.append([ring.kernel.parse(t) for t in items])
    return SqMatrix(ring, n, payload=rows)
