"""Exact n x n matrices over a RingSpec and the group-theoretic primitives.

Indices are 1-based throughout the public API and the text formats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadIndices,
    DimensionMismatch,
    MismatchedRings,
    NotInvertible,
    ZeroIdeal,
)
from .rings import (
    Ideal,
    RingElement,
    RingSpec,
    exact_div,
    format_element,
    parse_element,
    unit_check,
)


@dataclass(frozen=True)
class SqMatrix:
    """Immutable square matrix with exact entries."""

    ring: RingSpec
    n: int
    rows: tuple[tuple[RingElement, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise DimensionMismatch("dimension must be >= 2")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise DimensionMismatch("ragged matrix")
        for r in self.rows:
            for e in r:
                if e.ring != self.ring:
                    raise MismatchedRings("entry outside the matrix ring")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_raw(ring: RingSpec, raw_rows) -> "SqMatrix":
        rows = tuple(tuple(ring.el(x) for x in r) for r in raw_rows)
        return SqMatrix(ring, len(rows), rows)

    # -- accessors (1-based) -------------------------------------------------

    def e(self, i: int, j: int) -> RingElement:
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[RingElement, ...]:
        return tuple(self.rows[i][j - 1] for i in range(self.n))

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self.rows[i - 1]

    def key(self):
        """Hashable canonical key (entries only; ring fixed by context)."""
        return tuple(tuple(e.payload for e in r) for r in self.rows)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "SqMatrix"):
        if self.ring != other.ring or self.n != other.n:
            raise MismatchedRings("matrix shape or ring mismatch")

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        self._check(other)
        n = self.n
        cols = tuple(zip(*other.rows))
        rows = tuple(
            tuple(_dot(self.rows[i], cols[j]) for j in range(n)) for i in range(n)
        )
        return SqMatrix(self.ring, n, rows)

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        self._check(other)
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )
        return SqMatrix(self.ring, self.n, rows)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )
        return SqMatrix(self.ring, self.n, rows)

    def scale(self, c: RingElement) -> "SqMatrix":
        rows = tuple(tuple(c * e for e in r) for r in self.rows)
        return SqMatrix(self.ring, self.n, rows)

    def transpose(self) -> "SqMatrix":
        return SqMatrix(self.ring, self.n, tuple(zip(*self.rows)))

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
        return "SqMatrix[" + "; ".join(
            " ".join(format_element(e) for e in r) for r in self.rows
        ) + f" over {self.ring.descriptor()}]"


def _dot(row, col) -> RingElement:
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def identity(ring: RingSpec, n: int) -> SqMatrix:
    one, zero = ring.one, ring.zero
    rows = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    return SqMatrix(ring, n, rows)


def elementary(ring: RingSpec, n: int, i: int, j: int, a) -> SqMatrix:
    """I + a*e_ij with i != j (1-based indices)."""
    if i == j or not (1 <= i <= n) or not (1 <= j <= n):
        raise BadIndices(f"bad elementary position ({i}, {j}) for n={n}")
    a = ring.el(a)
    rows = [list(r) for r in identity(ring, n).rows]
    rows[i - 1][j - 1] = a
    return SqMatrix(ring, n, tuple(tuple(r) for r in rows))


def basis_matrix(ring: RingSpec, n: int, i: int, j: int) -> SqMatrix:
    """The matrix unit e_ij (1 in position (i, j), 0 elsewhere)."""
    rows = [[ring.zero] * n for _ in range(n)]
    rows[i - 1][j - 1] = ring.one
    return SqMatrix(ring, n, tuple(tuple(r) for r in rows))


# -- determinant and inverse ---------------------------------------------------


def determinant(m: SqMatrix) -> RingElement:
    """Exact determinant: cofactor expansion for n <= 4, Bareiss over domains
    otherwise (Bareiss division is invalid over non-domains)."""
    if m.n <= 4 or not m.ring.is_domain:
        return _det_cofactor(m.rows, m.ring)
    return _det_bareiss(m)


def _det_cofactor(rows, ring: RingSpec) -> RingElement:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero
    sign = 1
    for j in range(n):
        piv = rows[0][j]
        if not piv.is_zero:
            minor = tuple(
                tuple(r[jj] for jj in range(n) if jj != j) for r in rows[1:]
            )
            term = piv * _det_cofactor(minor, ring)
            acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return acc


def _det_bareiss(m: SqMatrix) -> RingElement:
    ring = m.ring
    n = m.n
    a = [list(r) for r in m.rows]
    prev = ring.one
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero:
            swap = next((r for r in range(k + 1, n) if not a[r][k].is_zero), None)
            if swap is None:
                return ring.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = exact_div(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else -d


def mat_inv(m: SqMatrix) -> SqMatrix:
    """Exact inverse via the adjugate; requires the determinant to be a unit."""
    d = determinant(m)
    dinv = unit_check(d)
    if dinv is None:
        raise NotInvertible(f"determinant {format_element(d)} is not a unit")
    n = m.n
    ring = m.ring
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(m.rows[r][c] for c in range(n) if c != i)
                for r in range(n)
                if r != j
            )
            cof = _det_cofactor(minor, ring) if n > 1 else ring.one
            if (i + j) % 2 == 1:
                cof = -cof
            row.append(dinv * cof)
        rows.append(tuple(row))
    return SqMatrix(ring, n, tuple(rows))


def commutator(g: SqMatrix, h: SqMatrix) -> SqMatrix:
    """[g, h] = g h g^-1 h^-1."""
    return g * h * mat_inv(g) * mat_inv(h)


def conjugate(g: SqMatrix, s: SqMatrix) -> SqMatrix:
    """s g s^-1."""
    return s * g * mat_inv(s)


# -- predicates ----------------------------------------------------------------


def is_scalar(g: SqMatrix) -> bool:
    c = g.rows[0][0]
    for i in range(g.n):
        for j in range(g.n):
            want = c if i == j else g.ring.zero
            if g.rows[i][j] != want:
                return False
    return True


def is_central(g: SqMatrix) -> bool:
    """True iff g commutes with every elementary(i, j, 1)."""
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            if i == j:
                continue
            s = elementary(g.ring, g.n, i, j, 1)
            if g * s != s * g:
                return False
    return True


def in_congruence_subgroup(g: SqMatrix, ideal: Ideal) -> bool:
    """True iff g = I mod ideal (entrywise)."""
    one = identity(g.ring, g.n)
    diff = g - one
    return all(ideal.contains(e) for r in diff.rows for e in r)


@dataclass(frozen=True)
class CongruenceDatum:
    """Largest i with the matrix congruent to I modulo ideal^i, capped."""

    ideal: Ideal
    level: int | None  # None: beyond every checked power
    is_identity: bool  # distinguishes the identity from a cap overflow

    @property
    def capped(self) -> bool:
        return self.level is None and not self.is_identity


def congruence_level(g: SqMatrix, ideal: Ideal, cap: int = 64) -> CongruenceDatum:
    """Largest i <= cap with all entries of g - I in ideal^i."""
    if ideal.is_zero:
        raise ZeroIdeal("congruence level against the zero ideal")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    one = identity(g.ring, g.n)
    if g == one:
        return CongruenceDatum(ideal, None, True)
    diff = [e for r in (g - one).rows for e in r]
    level = 0
    for i in range(1, cap + 1):
        if all(ideal.power_contains(e, i) for e in diff):
            level = i
        else:
            return CongruenceDatum(ideal, level, False)
    return CongruenceDatum(ideal, None, False)


def embed_affine(gamma: SqMatrix, v, side: str, n: int) -> SqMatrix:
    """Block embedding of (gamma, v) into dimension n.

    side="column": [[gamma, v], [0, 1]]; side="row": [[1, v^T], [0, gamma]].
    """
    if gamma.n != n - 1:
        raise DimensionMismatch(f"gamma must have dimension {n - 1}")
    ring = gamma.ring
    v = [ring.el(x) for x in v]
    if len(v) != n - 1:
        raise DimensionMismatch(f"v must have {n - 1} entries")
    zero, one = ring.zero, ring.one
    if side == "column":
        rows = [tuple(gamma.rows[i]) + (v[i],) for i in range(n - 1)]
        rows.append(tuple([zero] * (n - 1) + [one]))
    elif side == "row":
        rows = [(one,) + tuple(v)]
        for i in range(n - 1):
            rows.append((zero,) + tuple(gamma.rows[i]))
    else:
        raise ValueError("side must be 'column' or 'row'")
    return SqMatrix(ring, n, tuple(rows))


# -- text format ----------------------------------------------------------------


def format_matrix(m: SqMatrix) -> str:
    """Matrix text format: line 1 "<n> <ring-descriptor>", then n rows."""
    lines = [f"{m.n} {m.ring.descriptor()}"]
    for r in m.rows:
        lines.append(" ".join(format_element(e) for e in r))
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
        rows.append(tuple(parse_element(ring, t) for t in items))
    return SqMatrix(ring, n, tuple(rows))
