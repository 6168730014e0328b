"""The certificate core: reduction traces, the builder that checks them
while they are recorded, and byte-exact replay.  Nothing here searches;
reduction.py finds the steps and records them through the builder.

A reduction trace records, step by step, transformations of the forms
g -> s g s^-1, g -> [g, s], g -> [s, g] with s drawn from the subgroup
generated by elementary matrices with entries in the ideal q.  The word
length of the current element (as a product of conjugates of the input and
its inverse) starts at 1, is preserved by conjugation, and doubles under
either commutator kind, so a trace of at most 9 steps certifies a word of
length at most 2**9 = 512.  Dimension-2 traces draw their conjugators from
the full congruence subgroup and may also use an "append" step
(g -> g * s sigma^e s^-1) that adds one letter.

The invariants are written once, in the trace builder, under a per-kind
policy: "reduce" (elementary witnesses, 9 steps, 512 letters, stage bounds),
"sl2" (witnesses in the congruence subgroup of SL_2, 4 letters) and "partial"
(stages 2-4 called alone: elementary witnesses only).  Every step enters the
builder one way, record(kind, witness, case): the witness is the conjugator
s itself or the elementary factors of s, whose product it forms once (I
with their entries set when no factor's column is another's row).  It checks
the input's preconditions when it starts, each witness as it records a step,
and the budgets and single-entry output when the trace is taken.  Replay is a
fresh builder fed the input and the witnesses a serialized trace records; the
trace is accepted only if the rebuilt one serializes to the same bytes.

The builder carries (g, g^-1).  A witness s acts by sparse row and column
updates with the nonzero entries of S = s - I and S' = s^-1 - I, and a
commutator is one low-rank update of I: with one elementary factor a
rank-one update, about n^2 + 3n ring products.  S' = -S whenever S^2 = 0,
which holds for elementary factors that share a column or a row, so for
every reduce step.  The input's cofactors, expanded once, give its determinant
and sigma^-1 (the adjugate); a witness is inverted only when S^2 != 0.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass

from .errors import (
    CentralInput,
    NotCongruent,
    NotSL,
    ReplayMismatch,
    TraceFormatError,
    UnsupportedRing,
    ZeroIdeal,
)
from .matrices import (
    SqMatrix,
    _add_col,
    _add_row,
    _check_position,
    _cofactors,
    _identity_payload,
    _mul_rows,
    _off_identity,
    _unchecked,
    determinant,
    format_matrix,
    in_congruence_subgroup,
    is_central,
    mat_inv,
    parse_matrix,
)
from .rings import Ideal, RingElement, RingSpec, format_element, parse_element, parse_ideal

CONJUGATE = "Conjugate"
COMM_RIGHT = "CommRight"  # g -> [g, s]
COMM_LEFT = "CommLeft"  # g -> [s, g]
APPEND = "Append"  # g -> g * (s sigma^e s^-1)

TRACE_HEADER = "congwidth-trace v3"
MAX_STEPS = 9
MAX_WORD = 512
STAGE_BOUNDS = {"affine": 4, "translate": 1, "single": 1, "relocate": 3}


@dataclass(frozen=True)
class ElemFactor:
    i: int
    j: int
    a: RingElement


@dataclass(frozen=True)
class ElemFactorization:
    """An ordered product of elementary matrices equal to target."""

    factors: tuple[ElemFactor, ...]
    target: SqMatrix

    @property
    def count(self) -> int:
        return len(self.factors)

    @staticmethod
    def of(ring: RingSpec, n: int, factors: tuple[ElemFactor, ...]) -> "ElemFactorization":
        """The factorization of E_1 (E_2 (... E_k)): with no i a j, I + sum a e_ij; else by row operations."""
        k = ring.kernel
        rows = list(map(list, _identity_payload(k, n)))
        flat = len(factors) == 1 or {f.i for f in factors}.isdisjoint(f.j for f in factors)
        for f in reversed(factors):
            _check_position(n, f.i, f.j)
            if flat:
                rows[f.i - 1][f.j - 1] = k.add(rows[f.i - 1][f.j - 1], ring.el(f.a).payload)
            else:
                _add_row(k, rows, f.i - 1, f.j - 1, ring.el(f.a).payload)
        return _unchecked(ElemFactorization, factors=factors, target=SqMatrix._of(ring, n, tuple(map(tuple, rows))))

    def product(self) -> SqMatrix:
        return ElemFactorization.of(self.target.ring, self.target.n, self.factors).target


@dataclass(frozen=True)
class QOperation:
    """One trace transformation, with a membership witness for s.

    With s_factors, s is their product, and each factor has off-diagonal entry
    in the ideal (s_member "elem"); without, s is only certified to lie in the
    congruence subgroup (s_member "congruence", the dimension-2 shortcut).
    """

    kind: str
    s: SqMatrix
    s_factors: ElemFactorization | None = None
    exp: int = 1  # Append only

    @property
    def s_member(self) -> str:
        return "congruence" if self.s_factors is None else "elem"


@dataclass(frozen=True)
class TraceStep:
    op: QOperation
    result: SqMatrix
    word_length: int
    case: str


@dataclass(frozen=True)
class ReductionTrace:
    kind: str  # "reduce" | "sl2"
    input: SqMatrix
    ideal: Ideal
    target: object  # (i, j) for "reduce", "E12"/"E21" for "sl2"
    steps: tuple[TraceStep, ...]

    @property
    def output(self) -> SqMatrix:
        return self.steps[-1].result if self.steps else self.input

    @property
    def word_length(self) -> int:
        return self.steps[-1].word_length if self.steps else 1

    def stage_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for st in self.steps:
            stage = st.case.split(".", 1)[0]
            counts[stage] = counts.get(stage, 0) + 1
        return counts

    @property
    def text(self) -> str:
        """The serialized trace (v3), rendered once into __dict__; its matrices are SqMatrix.text.
        The header states the claim (kind, the ideal's canonical generator, target), M0 the ring and n.
        A witness is stated once: an elem step's as sfac factors, a congruence step's as a matrix."""
        if "text" in self.__dict__:
            return self.__dict__["text"]
        if self.kind not in ("reduce", "sl2"):
            raise ValueError("only full reduce/sl2 traces serialize")
        ids: list[SqMatrix] = [self.input]

        def ref(m: SqMatrix) -> str:  # the next entry of the matrix table
            ids.append(m)
            return f"M{len(ids) - 1}"

        lines = [
            TRACE_HEADER,
            f"kind {self.kind}",
            f"ideal {format_element(self.ideal.canonical)}",
            ("target " + (f"{self.target[0]} {self.target[1]}" if self.kind == "reduce" else str(self.target))),
            "input M0",
        ]
        for st in self.steps:
            fac = st.op.s_factors
            witness = f"s={ref(st.op.s)}" if fac is None else "sfac=" + (
                "|".join(f"{f.i},{f.j}:{format_element(f.a)}" for f in fac.factors) or "-")
            extra = f" exp={st.op.exp}" if st.op.kind == APPEND else ""
            lines.append(f"step kind={st.op.kind} result={ref(st.result)} len={st.word_length} "
                         f"case={st.case} {witness}{extra}")
        lines.append(f"output M{len(ids) - 1}")
        lines.append(f"matrices {len(ids)}")
        for k, m in enumerate(ids):
            lines += [f"M{k}", m.text.rstrip("\n")]
        lines.append("end")
        self.__dict__["text"] = text = "\n".join(lines) + "\n"
        return text


# -- preconditions, per-kind policy and the checking builder ----------------------


def _check_reduce_preconditions(sigma: SqMatrix, q: Ideal, det):
    if sigma.n < 3:
        raise UnsupportedRing("the full reduction needs dimension >= 3")
    if not sigma.ring.is_domain:
        raise UnsupportedRing("the full reduction needs an integral domain")
    _check_congruence_input(sigma, q, det)


def _check_sl2_preconditions(sigma: SqMatrix, q: Ideal, det):
    if sigma.n != 2:
        raise UnsupportedRing("the unit shortcut is a dimension-2 tool")
    _check_congruence_input(sigma, q, det)


def _check_congruence_input(sigma: SqMatrix, q: Ideal, det):
    if q.is_zero:
        raise ZeroIdeal("reduction ideal must be nonzero")
    if det != sigma.ring.kernel.one:
        raise NotSL("input must have determinant 1")
    if not in_congruence_subgroup(sigma, q):
        raise NotCongruent("input is not congruent to I modulo the ideal")
    if is_central(sigma):
        raise CentralInput("input is central")


@dataclass(frozen=True)
class _Policy:
    """What a trace kind certifies; None leaves that invariant unchecked."""

    member: str  # the one witness tag allowed
    max_steps: int | None
    max_word: int | None
    stage_bounds: dict[str, int] | None
    position: Callable[[object], tuple[int, int] | None] | None  # target -> output entry
    preconditions: Callable[[SqMatrix, Ideal, object], None] | None  # (sigma, q, det payload)


_SL2_TARGETS = {"E12": (1, 2), "E21": (2, 1)}
_POLICIES = {
    "reduce": _Policy("elem", MAX_STEPS, MAX_WORD, STAGE_BOUNDS, tuple, _check_reduce_preconditions),
    "sl2": _Policy("congruence", None, 4, None, _SL2_TARGETS.get, _check_sl2_preconditions),
    "partial": _Policy("elem", None, None, None, None, None),
}


def _by_column(entries) -> list:
    """(row, column, x) entries as [(t, [(r, x), ...]), ...], by column t."""
    cols: dict = {}
    for r, t, x in entries:
        cols.setdefault(t, []).append((r, x))
    return list(cols.items())


def _witness(k, op: QOperation):
    """A checked op's witness s = I + S, s^-1 = I + S' as (S, S', flat,
    opposite), S and S' by their nonzero columns.  Opposite: S' = -S, which
    holds when S^2 = 0; else S' comes from mat_inv(s).
    Flat: no column S reads is a row it writes, so S^2 = 0 and both act in place."""
    s, fs = op.s, op.s_factors.factors if op.s_factors is not None else ()
    if len(fs) == 1:  # S = a e_ij: every reduce commutator
        (f,) = fs
        return [(f.j - 1, [(f.i - 1, f.a.payload)])], [(f.j - 1, [(f.i - 1, k.neg(f.a.payload))])], True, True
    entries, square = _off_identity(s), {}  # S^2 from the products S[r][t] S[t][c]
    for (r, t, a), (u, c, b) in itertools.product(entries, repeat=2):
        if u == t:
            square[r, c] = k.add(square.get((r, c), k.zero), k.mul(a, b))
    if opposite := all(map(k.is_zero, square.values())):
        inv = [(r, t, k.neg(a)) for r, t, a in entries]
    else:  # s has determinant 1, so its adjugate is exact
        inv = _off_identity(mat_inv(s))
    return _by_column(entries), _by_column(inv), not square, opposite


def _apply(k, x, left, right, flat: bool) -> list:
    """x -> (I + L) x (I + R) in place on the rows x (lists where R acts), L and R by
    their nonzero columns; unless flat, each pass reads x's entries from before it."""
    for cols, add in ((left, _add_row), (right, _add_col)):
        src = x if flat or not cols else [tuple(r) for r in x]
        for t, entries in cols:
            for r, a in entries:
                add(k, x, r, t, a, src)
    return x


def _commutator(k, g, ginv, cols, inv_cols, flat: bool, opposite: bool) -> tuple[tuple, tuple]:
    """The rows of [g, s] = (I + W)(I + S') and [g, s]^-1 = (I + S)(I + W'), W = (g S) g^-1, W' = -W if
    opposite, else (g S') g^-1: each row of I + W built once, then S' applied.  No zero operand is multiplied."""
    add, mul, neg, is_zero, zero, one = k.add, k.mul, k.neg, k.is_zero, k.zero, k.one

    def w_row(gq, cols) -> list:  # row q of (g S) g^-1: (g S)[q, t] g^-1[t] over the columns t of S
        w = None
        for t, entries in cols:
            d = None
            for r, a in entries:
                if not is_zero(x := gq[r]):
                    d = mul(x, a) if d is None else add(d, mul(x, a))
            if d is not None and not is_zero(d):
                w = ([zero if is_zero(z) else mul(d, z) for z in ginv[t]] if w is None
                     else [e if is_zero(z) else add(e, mul(d, z)) for e, z in zip(w, ginv[t])])
        return w

    out, hinv = [], []
    for q, gq in enumerate(g):
        if (h := w_row(gq, cols)) is None:  # row q of g S is zero, and so of g S' = -(g S) s^-1
            hi = tuple(h := [one if c == q else zero for c in range(len(gq))])
        else:
            hi = list(map(neg, h)) if opposite else w_row(gq, inv_cols)
            h[q], hi[q] = add(h[q], one), add(hi[q], one)
        src = h if flat else tuple(h)
        for t, entries in inv_cols:
            for r, a in entries:
                if not is_zero(x := src[r]):
                    h[t] = add(h[t], mul(x, a))
        out.append(tuple(h))
        hinv.append(tuple(hi))
    return tuple(out), tuple(map(tuple, _apply(k, hinv, cols, (), flat)))  # (I + S) h^-1


class _Builder:
    """Records a trace and checks every invariant of its kind on the way:
    the input preconditions on construction, each step's witness as it is
    recorded, and the budgets and output support when the trace is taken.
    record is the one way a step enters; it alone builds a QOperation and
    its TraceStep."""

    def __init__(self, sigma: SqMatrix, q: Ideal, kind: str):
        self.policy = _POLICIES[kind]
        det, adj = _cofactors(sigma.ring.kernel, sigma.payload)  # the one expansion of the input
        if self.policy.preconditions:
            self.policy.preconditions(sigma, q, det)
        self.sigma = self.g = sigma
        self.sigma_inv = SqMatrix._of(sigma.ring, sigma.n, adj) if det == sigma.ring.kernel.one else mat_inv(sigma)
        self._ginv = self.sigma_inv.payload  # g^-1, as payload rows
        self.q = q
        self.kind = kind
        self.wl = 1
        self.steps: list[TraceStep] = []

    def record(self, kind: str, witness, case: str, exp: int = 1):
        """Record the step g -> kind(g, s).  The witness is s itself, a
        matrix in the congruence subgroup, or the elementary factors (i, j, a)
        whose product is s; either is checked against the policy first."""
        k = len(self.steps) + 1
        ring = self.sigma.ring
        fac = None if isinstance(witness, SqMatrix) else ElemFactorization.of(ring, self.sigma.n, tuple(
            _unchecked(ElemFactor, i=i, j=j, a=ring.el(a)) for i, j, a in witness))
        op = _unchecked(QOperation, kind=kind, s=witness if fac is None else fac.target, s_factors=fac, exp=exp)
        member = self.policy.member
        if op.s_member != member:
            raise ReplayMismatch(f"step {k}: {self.kind} steps need {member!r} witnesses")
        if op.s_factors is not None:
            for f in op.s_factors.factors:
                if f.a.is_zero or not self.q.contains(f.a):
                    raise ReplayMismatch(
                        f"step {k}: witness factor entry {format_element(f.a)} not a nonzero ideal element"
                    )
        elif not in_congruence_subgroup(op.s, self.q) or determinant(op.s) != ring.one:
            raise ReplayMismatch(f"step {k}: s is not a determinant-1 matrix congruent to I mod the ideal")
        if kind == APPEND and exp not in (1, -1):
            raise ReplayMismatch(f"step {k}: an appended letter conjugates sigma^1 or sigma^-1, not sigma^{exp}")
        self._step(op)
        self.steps.append(_unchecked(TraceStep, op=op, result=self.g, word_length=self.wl, case=case))

    ginv = property(lambda self: SqMatrix._of(self.sigma.ring, self.sigma.n, self._ginv))  # g^-1, a matrix

    def _step(self, op: QOperation):
        """Map (g, g^-1) to the step's image and its inverse, and the word
        length to the step's: kept by a conjugation, doubled by a commutator,
        one more after an appended letter.

        The witness acts as s = I + S and s^-1 = I + S' (_witness).  A
        commutator is one low-rank update for every witness: h = g s g^-1 is
        I + W with W = (g S) g^-1, and h^-1 is I - W when S' = -S, else I + W'
        with W' = (g S') g^-1; then [g, s] = h s^-1 and [g, s]^-1 = s h^-1."""
        ring, n = self.sigma.ring, self.sigma.n
        k = ring.kernel
        g, ginv = self.g.payload, self._ginv
        cols, inv_cols, flat, opposite = _witness(k, op)
        if op.kind == CONJUGATE:  # s x s^-1 = (I + S) x (I + S') on fresh rows
            g, ginv = (tuple(map(tuple, _apply(k, [list(r) for r in x], cols, inv_cols, flat))) for x in (g, ginv))
        elif op.kind in (COMM_RIGHT, COMM_LEFT):
            g, ginv = _commutator(k, g, ginv, cols, inv_cols, flat, opposite)
            g, ginv = (g, ginv) if op.kind == COMM_RIGHT else (ginv, g)  # [s, g] = [g, s]^-1
            self.wl *= 2
        elif op.kind == APPEND:  # g (s sigma^e s^-1), inverse (s sigma^-e s^-1) g^-1
            pos, neg = (self.sigma, self.sigma_inv) if op.exp == 1 else (self.sigma_inv, self.sigma)
            pos, neg = (_apply(k, [list(r) for r in x.payload], cols, inv_cols, flat) for x in (pos, neg))
            g, ginv = _mul_rows(k, g, pos), _mul_rows(k, neg, ginv)
            self.wl += 1
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        self.g, self._ginv = SqMatrix._of(ring, n, g), ginv

    def trace(self, target) -> ReductionTrace:
        trace = ReductionTrace(self.kind, self.sigma, self.q, target, tuple(self.steps))
        p = self.policy
        if p.max_steps is not None and len(trace.steps) > p.max_steps:
            raise ReplayMismatch(f"{len(trace.steps)} steps exceed the budget {p.max_steps}")
        if p.max_word is not None and trace.word_length > p.max_word:
            raise ReplayMismatch(f"word length {trace.word_length} exceeds {p.max_word}")
        if p.stage_bounds is not None:
            for stage, count in trace.stage_counts().items():
                if count > p.stage_bounds.get(stage, 0):
                    raise ReplayMismatch(f"stage {stage} used {count} operations")
        if p.position is not None:
            pos = p.position(target)
            # sigma and every witness lie in Gamma(q), so the entry at pos lies in q
            if _support(trace.output) != [pos]:
                raise ReplayMismatch(f"output is not supported exactly at {target}")
        return trace


def _support(g: SqMatrix) -> list[tuple[int, int]]:
    """The positions where g differs from the identity."""
    return [(i + 1, j + 1) for i, j, _ in _off_identity(g)]


# -- serialization -----------------------------------------------------------------


def serialize_trace(trace: ReductionTrace) -> str:
    """The trace's text (ReductionTrace.text), rendered once per trace."""
    return trace.text


def replay_trace(text: str) -> ReductionTrace:
    """Rebuild a serialized trace and accept the text only if the rebuilt
    trace serializes to exactly the same bytes.

    Another version is refused by its first line.  Only what a fresh builder
    consumes is read: the kind, ideal and target lines, the input M0 (its
    `<n> <ring>` line gives the size and the ring) and, per step, its kind,
    case and exponent with its witness (the sfac factors, else the next matrix
    of the table).  The builder re-checks the input, every witness and the
    finished trace; the byte comparison covers the rest, the ledger included,
    and a first difference there is a format error naming the line.

    The rebuild stops with a replay mismatch at the first step whose result
    differs from the text the file records for it, so the work stays bounded
    by the file (a repeated commutator step doubles the length of the
    entries); that check renders the text the byte comparison reuses."""
    if not text.startswith(first := TRACE_HEADER + "\n"):  # another version: nothing after it is read
        raise TraceFormatError(f"line 1: expected {first!r}")
    try:
        trace = _rebuild(text.split("\n"))
        again = serialize_trace(trace)
    except ValueError as exc:  # bad integers, ring elements or matrices
        raise TraceFormatError(f"malformed trace: {exc}") from exc
    if again == text:
        return trace
    # lines with their terminating newline, so a missing or extra one differs too
    want, got = (re.findall(r"[^\n]*\n|[^\n]+", t) for t in (again, text))
    k = next(k for k, (a, b) in enumerate(itertools.zip_longest(want, got)) if a != b)
    expected = repr(want[k]) if k < len(want) else "the end of the file"
    raise TraceFormatError(f"line {k + 1}: expected {expected}")


def _rebuild(lines: list[str]) -> ReductionTrace:
    """A fresh builder fed what the serialized lines record of the input and
    the witnesses; the other lines are left to the byte comparison.  The
    ring and the size n are the input's: n, read from M0's `<n> <ring>`
    line, locates the recorded matrices.  Every later one is n x n or
    refused: a result is compared as n x n text, a reduce step refuses any
    matrix, and an sl2 witness is read from n + 1 = 3 lines, and no matrix
    is smaller than 2 x 2."""
    kind, ideal, target = (ln.partition(" ")[2] for ln in lines[1:4])
    if kind not in ("reduce", "sl2"):
        raise TraceFormatError(f"unknown trace kind {kind!r}")
    steps = list(itertools.takewhile(lambda ln: ln.startswith("step "), lines[5:]))
    top = 7 + len(steps)  # the line before M0's text: its label
    n = int("".join(lines[top + 1:top + 2]).partition(" ")[0])  # a missing line reads as "", no integer
    target = tuple(map(int, target.split())) if kind == "reduce" else target

    def recorded(k: int) -> str:
        """The text of matrix Mk: the n + 1 lines after its label."""
        start = top + k * (n + 2) + 1
        return "\n".join(lines[start:start + n + 1]) + "\n"

    sigma = parse_matrix(recorded(0))
    b = _Builder(sigma, parse_ideal(sigma.ring, ideal), kind)
    m = 0  # the last matrix read: a congruence witness comes just before its result
    for k, line in enumerate(steps, start=1):
        attrs = dict(tok.partition("=")[::2] for tok in line.split()[1:])
        if "sfac" in attrs:
            witness = [] if attrs["sfac"] == "-" else [_factor(sigma.ring, f) for f in attrs["sfac"].split("|")]
        else:
            witness = parse_matrix(recorded(m := m + 1))
        b.record(attrs.get("kind", ""), witness, attrs.get("case", ""), int(attrs.get("exp", 1)))
        if format_matrix(b.g) != recorded(m := m + 1):
            raise ReplayMismatch(f"replay mismatch at step {k}")
    return b.trace(target)


def _factor(ring: RingSpec, text: str) -> tuple[int, int, RingElement]:
    """One sfac entry "i,j:a"."""
    ij, _, a = text.partition(":")
    i, j = ij.split(",")
    return int(i), int(j), parse_element(ring, a)
