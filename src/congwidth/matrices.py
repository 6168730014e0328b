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
from functools import cache, lru_cache, reduce

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
        if len(payload) != self.n or not all(map(self.n.__eq__, map(len, payload))):
            raise DimensionMismatch("ragged matrix")
        object.__setattr__(self, "payload", payload)

    @staticmethod
    def _of(ring: RingSpec, n: int, payload: tuple) -> "SqMatrix":
        """Unchecked: for kernel outputs, already n tuples of n canonical payloads."""
        (m := object.__new__(SqMatrix)).__dict__.update(ring=ring, n=n, payload=payload)
        return m

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
        return SqMatrix._of(self.ring, self.n, _mul_rows(self.ring.kernel, self.payload, other.payload))

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
    def text(self) -> str:
        """Matrix text format: line 1 "<n> <ring-descriptor>", then n rows; rendered once into __dict__."""
        text = self.__dict__.get("text")
        if text is None:
            fmt = self.ring.kernel.format
            text = self.__dict__["text"] = "\n".join(
                [f"{self.n} {self.ring.descriptor()}"] + [" ".join(map(fmt, r)) for r in self.payload]) + "\n"
        return text

    @property
    def is_identity(self) -> bool:
        return self == identity(self.ring, self.n)

    def __repr__(self) -> str:
        fmt = self.ring.kernel.format
        entries = "; ".join(" ".join(map(fmt, r)) for r in self.payload)
        return f"SqMatrix[{entries} over {self.ring.descriptor()}]"


def _unchecked(cls, **fields):
    """A frozen dataclass without its __init__, as SqMatrix._of: for fields already checked."""
    (obj := object.__new__(cls)).__dict__.update(fields)
    return obj


@lru_cache(maxsize=16)
def _identity_payload(k, n: int) -> tuple[tuple, ...]:
    return tuple(tuple(k.one if i == j else k.zero for j in range(n)) for i in range(n))


def identity(ring: RingSpec, n: int) -> SqMatrix:
    return SqMatrix(ring, n, payload=_identity_payload(ring.kernel, n))


def _check_position(n: int, i: int, j: int):
    if i == j or not (1 <= i <= n) or not (1 <= j <= n):
        raise BadIndices(f"bad elementary position ({i}, {j}) for n={n}")


def elementary(ring: RingSpec, n: int, i: int, j: int, a) -> SqMatrix:
    """I + a*e_ij with i != j (1-based indices)."""
    _check_position(n, i, j)
    rows = list(map(list, _identity_payload(ring.kernel, n)))
    rows[i - 1][j - 1] = ring.el(a).payload
    return SqMatrix(ring, n, payload=rows)


# -- the payload core ------------------------------------------------------------
#
# Products, determinants, inverses and elementary row and column operations
# on payload rows, combined by the ring's kernel.  _add_row and _add_col
# work in place, skipping zero entries of the source.  Indices here are 0-based.
# Up to KERNEL_MAX, products and cofactors run straight-line code built once
# per n from n alone (as dataclasses builds __init__): the loops' row-by-
# column sums and first-row cofactor expansion, each minor formed once.
# That code grows combinatorially with n, so larger n keep the loops for
# products and take the characteristic polynomial for cofactors.

KERNEL_MAX = 4


def _tup(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _compile(ops: str, mats: str, n: int, lines: list[str], ret: str):
    """def kernel(*ops, *mats), each n x n matrix x unpacked to locals x{i}_{j}."""
    unpack = [f"{_tup(_tup(f'{x}{i}_{j}' for j in range(n)) for i in range(n))} = {x}" for x in mats]
    exec("\n    ".join([f"def kernel({ops}, {', '.join(mats)}):", *unpack, *lines, f"return {ret}"]), ns := {})
    return ns["kernel"]


@cache
def _mul_kernel(n: int):
    """(add, mul, a, b) -> the rows of a b, as tuples."""
    rows = [[reduce(lambda acc, t: f"add({acc}, mul(a{i}_{t}, b{t}_{j}))", range(1, n), f"mul(a{i}_0, b0_{j})")
             for j in range(n)] for i in range(n)]
    return _compile("add, mul", "ab", n, [], _tup(map(_tup, rows)))


@cache
def _cofactor_kernel(n: int):
    """(add, mul, neg, a) -> (det a, the rows of its adjugate)."""
    lines = []

    @cache  # so each minor is assigned once
    def minor(rows, cols):  # first-row expansion
        if len(rows) == 1:
            return f"a{rows[0]}_{cols[0]}"
        terms = [f"{'neg' * (t % 2)}(mul(a{rows[0]}_{c}, {minor(rows[1:], cols[:t] + cols[t + 1:])}))"
                 for t, c in enumerate(cols)]
        lines.append(f"m{len(lines)} = " + reduce(lambda acc, t: f"add({acc}, {t})", terms[1:], terms[0]))
        return f"m{len(lines) - 1}"

    full = tuple(range(n))
    det = minor(full, full)  # row j of the adjugate below holds the cofactors of column j
    adj = _tup(_tup(f"{'neg' * ((i + j) % 2)}({minor(full[:i] + full[i + 1:], full[:j] + full[j + 1:])})"
                    for i in full) for j in full)
    return _compile("add, mul, neg", "a", n, lines, f"{det}, {adj}")


def _mul_rows(k, a, b) -> tuple[tuple, ...]:
    if len(a) <= KERNEL_MAX:
        return _mul_kernel(len(a))(k.add, k.mul, a, b)
    add, mul = k.add, k.mul
    cols = list(zip(*b))
    return tuple(tuple(reduce(add, map(mul, r, c)) for c in cols) for r in a)


def _add_row(k, rows, i: int, j: int, a, src=None):
    """row_i += a * row_j, row_j read from src (default rows), in place."""
    add, mul, is_zero = k.add, k.mul, k.is_zero
    rows[i] = [x if is_zero(y) else add(x, mul(a, y)) for x, y in zip(rows[i], (src or rows)[j])]


def _add_col(k, rows, i: int, j: int, a, src=None):
    """col_j += col_i * a, col_i read from src (default rows), in place."""
    add, mul, is_zero = k.add, k.mul, k.is_zero
    for r, s in zip(rows, src or rows):
        if not is_zero(y := s[i]):
            r[j] = add(r[j], mul(y, a))


def _charpoly(k, rows) -> list:
    """[1, c_1, ..., c_n] with det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n, by
    Berkowitz's division-free recursion over the leading minors A_r: with
    A_(r+1) = [[A_r, C], [R, a]], its polynomial is A_r's convolved with
    (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C).  About n^4 / 4 ring products."""
    add, mul, neg = k.add, k.mul, k.neg
    poly = [k.one]
    for r, row in enumerate(rows):
        col, vec = [k.one, neg(row[r])], [rows[i][r] for i in range(r)]  # vec: A_r^t C
        for _ in range(r):
            col.append(neg(reduce(add, map(mul, row, vec))))  # map stops row at R
            vec = [reduce(add, map(mul, rows[i], vec)) for i in range(r)]
        poly = [reduce(add, (mul(col[i - j], poly[j]) for j in range(min(i, r) + 1))) for i in range(r + 2)]
    return poly


# -- determinant and inverse ---------------------------------------------------


def determinant(m: SqMatrix) -> RingElement:
    """Exact determinant from _cofactors, which divides by nothing and so
    holds over every ring, domain or not."""
    return RingElement(m.ring, _cofactors(m.ring.kernel, m.payload)[0])


def _cofactors(k, rows) -> tuple:
    """(det, the adjugate's rows): the kernel up to KERNEL_MAX, else from the
    characteristic polynomial.  By Cayley-Hamilton, B = A^(n-1) + c_1 A^(n-2)
    + ... + c_(n-1) I, by Horner's rule, has A B = -c_n I; det A and the
    adjugate are (-1)^(n-1) times -c_n and B."""
    n = len(rows)
    if n <= KERNEL_MAX:
        return _cofactor_kernel(n)(k.add, k.mul, k.neg, rows)
    *c, cn = _charpoly(k, rows)
    adj = _identity_payload(k, n)
    for ci in c[1:]:
        adj = tuple(tuple(k.add(x, ci) if i == j else x for j, x in enumerate(r))
                    for i, r in enumerate(_mul_rows(k, adj, rows)))
    return (k.neg(cn), adj) if n % 2 else (cn, tuple(tuple(map(k.neg, r)) for r in adj))


def mat_inv(m: SqMatrix) -> SqMatrix:
    """Exact inverse via the adjugate; requires the determinant to be a unit.

    Determinant and adjugate come from one _cofactors call; a determinant
    whose inverse is one (every SL_n input) scales nothing."""
    k = m.ring.kernel
    d, adj = _cofactors(k, m.payload)
    dinv = k.inverse(d)
    if dinv is None:
        raise NotInvertible(f"determinant {k.format(d)} is not a unit")
    return SqMatrix._of(m.ring, m.n, adj if dinv == k.one else tuple(tuple(k.mul(dinv, c) for c in r) for r in adj))


def commutator(g: SqMatrix, h: SqMatrix) -> SqMatrix:
    """[g, h] = g h g^-1 h^-1."""
    return g * h * mat_inv(g) * mat_inv(h)


def conjugate(g: SqMatrix, s: SqMatrix) -> SqMatrix:
    """s g s^-1."""
    return s * g * mat_inv(s)


# -- predicates ----------------------------------------------------------------


def is_central(g: SqMatrix) -> bool:
    """True iff g commutes with every elementary(i, j, 1), i.e. iff g is scalar.

    Over any commutative ring, g (I + e_ij) = (I + e_ij) g reduces to
    g e_ij = e_ij g.  The left side is column i of g placed in column j; the
    right side is row j of g placed in row i.  Comparing them gives
    g[r][i] = 0 for r != i and g[i][i] = g[j][j].  Over all i != j, g is
    therefore scalar, and scalar matrices commute with everything.
    """
    c, zero = g.payload[0][0], g.ring.kernel.zero
    return all(x == (c if i == j else zero) for i, r in enumerate(g.payload) for j, x in enumerate(r))


def _off_identity(g: SqMatrix) -> list[tuple]:
    """The nonzero entries of g - I, as (row, column, payload), 0-based."""
    k = g.ring.kernel
    minus_one = k.neg(k.one)
    return [(i, j, e) for i, r in enumerate(g.payload) for j, x in enumerate(r)
            if not k.is_zero(e := k.add(x, minus_one) if i == j else x)]


def in_congruence_subgroup(g: SqMatrix, ideal: Ideal) -> bool:
    """True iff g = I mod ideal: one kernel division per nonzero entry of g - I."""
    if g.ring is not ideal.ring and g.ring != ideal.ring:
        raise MismatchedRings("element outside the ideal's ring")
    k, d = g.ring.kernel, ideal.canonical.payload
    diff = _off_identity(g)
    return not diff if k.is_zero(d) else all(k.div(e, d) is not None for _, _, e in diff)


@dataclass(frozen=True)
class CongruenceDatum:
    """Largest i with the matrix congruent to I modulo ideal^i, capped."""

    ideal: Ideal
    level: int | None  # None: beyond every checked power
    is_identity: bool  # distinguishes the identity from a cap overflow


def congruence_level(g: SqMatrix, ideal: Ideal, cap: int = 64) -> CongruenceDatum:
    """Largest i <= cap with all entries of g - I in ideal^i.

    Each nonzero entry of g - I, walked in place, is divided by d, d^2, ... (d
    the canonical generator, each power built once, on first reach) up to the
    lowest level seen so far; the first entry outside the ideal gives level 0.
    A zero d^i (Z/m only) divides no nonzero entry.  A chain that stabilises
    still runs to the cap."""
    if g.ring is not ideal.ring and g.ring != ideal.ring:
        raise MismatchedRings("element outside the ideal's ring")
    if ideal.is_zero:
        raise ZeroIdeal("congruence level against the zero ideal")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    k = g.ring.kernel
    add, is_zero, div, minus_one = k.add, k.is_zero, k.div, k.neg(k.one)
    d, powers, level = ideal.canonical.payload, [k.one, ideal.canonical.payload], None  # powers[i] = d^i
    for i, r in enumerate(g.payload):
        for j, x in enumerate(r):
            if is_zero(e := add(x, minus_one) if i == j else x):
                continue
            t, top = 0, cap if level is None else level
            while t < top:
                if t + 1 == len(powers):
                    powers.append(k.mul(powers[t], d))
                if div(e, powers[t + 1]) is None:
                    break
                t += 1
            if t == 0:
                return CongruenceDatum(ideal, 0, False)
            level = t
    return CongruenceDatum(ideal, None if level in (None, cap) else level, level is None)


# -- text format ----------------------------------------------------------------


def format_matrix(m: SqMatrix) -> str:
    """The matrix text format (SqMatrix.text), rendered once per matrix."""
    return m.text


def parse_matrix(text: str) -> SqMatrix:
    lines = text.strip().splitlines()
    head = lines[0].split() if lines else []
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
