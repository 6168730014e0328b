"""Reduction of non-central congruence matrices to prescribed elementary
positions with a certified operation and word-length budget.

A reduction trace records, step by step, transformations of the forms
g -> s g s^-1, g -> [g, s], g -> [s, g] with s drawn from the subgroup
generated by elementary matrices with entries in the ideal q.  The word
length of the current element (as a product of conjugates of the input and
its inverse) starts at 1, is preserved by conjugation, and doubles under
either commutator kind, so a trace of at most 9 steps certifies a word of
length at most 2**9 = 512.

Dimension 2 is served separately by a unit-conjugation shortcut whose
conjugators live in the full congruence subgroup; its traces additionally
use an "append" step (g -> g * s sigma^e s^-1) that adds one letter.

The invariants are written once, in the trace builder, under a per-kind
policy: "reduce" (elementary witnesses, 9 steps, 512 letters, stage bounds),
"sl2" (witnesses in the congruence subgroup of SL_2, 4 letters) and "partial"
(the stage entry points: elementary witnesses only).  Every step enters the
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
and sigma^-1 (the adjugate); a congruence conjugator is inverted only when S^2 != 0.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass

from .errors import (
    CentralInput,
    NoUnitFound,
    NotCongruent,
    NotSL,
    ReplayMismatch,
    SearchExhausted,
    TraceFormatError,
    TrivialInput,
    UnsupportedRing,
    ZeroIdeal,
)
from .factorization import ElemFactor, ElemFactorization
from .matrices import (
    SqMatrix,
    _add_col,
    _add_row,
    _cofactors,
    _mul_rows,
    _off_identity,
    _unchecked,
    determinant,
    format_matrix,
    identity,
    in_congruence_subgroup,
    is_central,
    mat_inv,
    parse_matrix,
)
from .rings import (
    Ideal,
    RingElement,
    RingSpec,
    exact_div,
    format_element,
    is_unimodular,
    is_unit,
    parse_element,
    parse_ideal,
    unit_check,
)

CONJUGATE = "Conjugate"
COMM_RIGHT = "CommRight"  # g -> [g, s]
COMM_LEFT = "CommLeft"  # g -> [s, g]
APPEND = "Append"  # g -> g * (s sigma^e s^-1)

MAX_STEPS = 9
MAX_WORD = 512
STAGE_BOUNDS = {"affine": 4, "translate": 1, "single": 1, "relocate": 3}


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
    seed: int = 0

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
        """The serialized trace, rendered once into __dict__; its matrices are SqMatrix.text."""
        if "text" in self.__dict__:
            return self.__dict__["text"]
        if self.kind not in ("reduce", "sl2"):
            raise ValueError("only full reduce/sl2 traces serialize")
        ids: list[SqMatrix] = [self.input]
        lines = [
            "congwidth-trace v1",
            f"kind {self.kind}",
            f"seed {self.seed}",
            f"ring {self.input.ring.descriptor()}",
            f"n {self.input.n}",
            "ideal " + " ".join(format_element(g) for g in self.ideal.generators),
            ("target " + (f"{self.target[0]} {self.target[1]}" if self.kind == "reduce" else str(self.target))),
            "input M0",
        ]
        for st in self.steps:
            sid = len(ids)
            ids.append(st.op.s)
            rid = len(ids)
            ids.append(st.result)
            factors = st.op.s_factors.factors if st.op.s_factors is not None else ()
            sfac = "|".join(f"{f.i},{f.j}:{format_element(f.a)}" for f in factors) or "-"
            extra = f" exp={st.op.exp}" if st.op.kind == APPEND else ""
            lines.append(
                f"step kind={st.op.kind} s=M{sid} result=M{rid} len={st.word_length} "
                f"case={st.case} smem={st.op.s_member} sfac={sfac}{extra}"
            )
        out_id = len(ids) - 1 if self.steps else 0
        lines.append(f"output M{out_id}")
        lines.append(f"matrices {len(ids)}")
        for k, m in enumerate(ids):
            lines += [f"M{k}", m.text.rstrip("\n")]
        lines.append("end")
        self.__dict__["text"] = text = "\n".join(lines) + "\n"
        return text


def expand_trace_word(trace: ReductionTrace) -> list[tuple[SqMatrix, int]]:
    """Explicit word over conjugates of the input: a list of (s, exp) letters
    whose product s1 sigma^e1 s1^-1 * ... equals the trace output."""
    word: list[tuple[SqMatrix, int]] = [(identity(trace.input.ring, trace.input.n), 1)]
    for st in trace.steps:
        op = st.op
        if op.kind == CONJUGATE:
            word = [(op.s * c, e) for (c, e) in word]
        elif op.kind == COMM_RIGHT:
            word = word + [(op.s * c, -e) for (c, e) in reversed(word)]
        elif op.kind == COMM_LEFT:
            word = [(op.s * c, e) for (c, e) in word] + [(c, -e) for (c, e) in reversed(word)]
        elif op.kind == APPEND:
            word = word + [(op.s, op.exp)]
    return word


def word_product(trace: ReductionTrace) -> SqMatrix:
    out = identity(trace.input.ring, trace.input.n)
    sigma = trace.input
    for s, e in expand_trace_word(trace):
        out = out * (s * (sigma ** e) * mat_inv(s))
    return out


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
    holds when S^2 = 0; else S' comes from the inverse factors or mat_inv(s).
    Flat: no column S reads is a row it writes, so S^2 = 0 and both act in place."""
    s, fac = op.s, op.s_factors
    fs = () if fac is None else fac.factors
    if len(fs) == 1:  # S = a e_ij: every reduce commutator
        (f,) = fs
        return [(f.j - 1, [(f.i - 1, f.a.payload)])], [(f.j - 1, [(f.i - 1, k.neg(f.a.payload))])], True, True
    entries, square = _off_identity(s), {}  # S^2 from the products S[r][t] S[t][c]
    for (r, t, a), (u, c, b) in itertools.product(entries, repeat=2):
        if u == t:
            square[r, c] = k.add(square.get((r, c), k.zero), k.mul(a, b))
    if opposite := all(map(k.is_zero, square.values())):
        inv = [(r, t, k.neg(a)) for r, t, a in entries]
    else:
        inv = _off_identity(mat_inv(s) if fac is None else ElemFactorization.of(
            s.ring, s.n, tuple(ElemFactor(f.i, f.j, -f.a) for f in reversed(fs))).target)
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

    def __init__(self, sigma: SqMatrix, q: Ideal, kind: str, seed: int):
        self.policy = _POLICIES[kind]
        det, adj = _cofactors(sigma.ring.kernel, sigma.payload)  # the one expansion of the input
        if self.policy.preconditions:
            self.policy.preconditions(sigma, q, det)
        self.sigma = self.g = sigma
        self.sigma_inv = SqMatrix._of(sigma.ring, sigma.n, adj) if det == sigma.ring.kernel.one else mat_inv(sigma)
        self._ginv = self.sigma_inv.payload  # g^-1, as payload rows
        self.q = q
        self.kind = kind
        self.seed = seed
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
        trace = ReductionTrace(self.kind, self.sigma, self.q, target, tuple(self.steps), self.seed)
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
            if _support(trace.output) != [pos]:
                raise ReplayMismatch(f"output is not supported exactly at {target}")
            if not self.q.contains(trace.output.e(*pos)):
                raise ReplayMismatch("output entry is outside the ideal")
        return trace


# -- stable-range shift ----------------------------------------------------------


@dataclass(frozen=True)
class SRWitness:
    """A shift t with (a_1 + t_1 a_n^2, ..., a_{n-1} + t_{n-1} a_n^2) unimodular."""

    t: tuple[RingElement, ...]
    shifted: tuple[RingElement, ...]
    bezout: tuple[RingElement, ...]


def unimodular_square_shift(alpha: list[RingElement], bound: int = 10**4) -> SRWitness:
    """Find t with the first n-1 coordinates of alpha, each shifted by
    t_i * a_n^2, unimodular; certified by an extended-gcd Bezout witness.
    The first t tried is zero, so a unimodular prefix comes back unshifted."""
    ring = alpha[0].ring
    n = len(alpha)
    prefix = list(alpha[: n - 1])
    an2 = an if (an := alpha[n - 1]).is_zero else an * an
    tried = 0
    pool: list[RingElement] = []
    shell = 0
    while tried < bound:
        # elements newly available at this shell, in a fixed order; only a
        # finite ring runs out of them
        new = [RingElement(ring, a) for a in ring.kernel.shell(shell)] if shell else [ring.zero]
        if not new:
            break
        pool.extend(new)
        # tuples whose maximal shell is the current one
        for t in _tuples_with_max_shell(pool, new, n - 1):
            tried += 1
            shifted = tuple(p if ti.is_zero or an2.is_zero else p + ti * an2 for p, ti in zip(prefix, t))
            ok, coeffs = is_unimodular(list(shifted))
            if ok:
                return SRWitness(tuple(t), shifted, tuple(coeffs))
            if tried >= bound:
                break
        shell += 1
    raise SearchExhausted("no unimodular shift found", bound)


def _tuples_with_max_shell(pool, new, width):
    """All width-tuples over pool using at least one element of new."""
    new_keys = {id(x) for x in new}
    for combo in itertools.product(pool, repeat=width):
        if any(id(x) in new_keys for x in combo):
            yield combo


# -- block-form helpers ----------------------------------------------------------


def in_upper_affine(g: SqMatrix) -> bool:
    """Bottom row equals (0, ..., 0, 1)."""
    k = g.ring.kernel
    return g.payload[-1] == (k.zero,) * (g.n - 1) + (k.one,)


def in_lower_affine(g: SqMatrix) -> bool:
    """First column equals (1, 0, ..., 0)."""
    k = g.ring.kernel
    return [r[0] for r in g.payload] == [k.one] + [k.zero] * (g.n - 1)


def _commutes(g: SqMatrix, i: int, j: int) -> bool:
    """Whether g commutes with I + a e_ij, a != 0 in a domain: column i of g
    is zero off row i, row j of g is zero off column j, and g_ii = g_jj."""
    k, p, i, j = g.ring.kernel, g.payload, i - 1, j - 1
    return (p[i][i] == p[j][j] and all(k.is_zero(r[i]) for c, r in enumerate(p) if c != i)
            and all(k.is_zero(x) for c, x in enumerate(p[j]) if c != j))


# -- the four reduction stages -----------------------------------------------------


def _case1_finish(b: _Builder, tag: str) -> str:
    """From [g, tau] = I: g has first column u*e_1; one commutator with a
    block-embedded elementary lands in the lower affine copy."""
    g = b.g
    n = g.n
    ring = g.ring
    k = ring.kernel
    q0 = b.q.canonical
    assert is_unit(g.e(1, 1)) and all(k.is_zero(r[0]) for r in g.payload[1:]), (
        "commuting case must pin the first column to a unit multiple of e_1"
    )
    sub = SqMatrix(ring, n - 1, payload=[r[1:] for r in g.payload[1:]])
    for i, j in itertools.permutations(range(1, n), 2):
        if not _commutes(sub, i, j):
            b.record(COMM_RIGHT, [(i + 1, j + 1, q0)], tag + ".block")
            assert in_lower_affine(b.g) and not is_central(b.g)
            return "lower"
    # sub is scalar t*I and the commuting relation forces t = u
    assert is_central(sub)
    assert sub.payload[0][0] == g.payload[0][0], "commuting case forces matching corner units"
    j0 = next((idx for idx, e in enumerate(g.payload[0][1:]) if not k.is_zero(e)), None)
    if j0 is None:
        raise CentralInput("scalar matrix slipped through the central filter")
    b.record(COMM_RIGHT, [(j0 + 2, 2 if j0 != 0 else 3, q0)], tag + ".scalar")
    assert in_lower_affine(b.g) and not is_central(b.g)
    return "lower"


def _affine_stage(b: _Builder) -> str:
    """Stage 1: at most 4 operations into one of the affine copies
    (bottom row e_n, "upper", or first column e_1, "lower")."""
    g = b.g
    n = g.n
    q0 = b.q.canonical
    if in_upper_affine(g):
        return "upper"
    if in_lower_affine(g):
        return "lower"
    tau_fac = [(1, 2, q0)]  # tau = I + q0 e_12
    if _commutes(g, 1, 2):
        return _case1_finish(b, "affine.commuting")

    alpha = g.column(1)
    an = alpha[n - 1]
    wit = unimodular_square_shift(alpha)
    shift = [] if an.is_zero else [(i + 1, n, an * t) for i, t in enumerate(wit.t) if not t.is_zero]
    if shift:
        b.record(CONJUGATE, shift, "affine.split.shift")
    # the shift adds t_i a_n times row n to row i and leaves row n alone
    assert b.g.column(1)[: n - 1] == wit.shifted, "shift witness must match the shifted prefix"
    lam_fac = [] if an.is_zero else [(n, k + 1, -(an * dk)) for k, dk in enumerate(wit.bezout) if not dk.is_zero]
    b.record(COMM_RIGHT, tau_fac, "affine.split.comm")
    if lam_fac:
        b.record(CONJUGATE, lam_fac, "affine.split.conj")
    rho = b.g
    assert not is_central(rho), "conjugated commutator must stay non-central"
    if _commutes(rho, 1, 2):
        return _case1_finish(b, "affine.split.recommuting")
    b.record(COMM_RIGHT, tau_fac, "affine.split.comm2")
    assert in_upper_affine(b.g) and not is_central(b.g)
    return "upper"


def _translate_stage(b: _Builder, loc: str):
    """Stage 2: at most one commutator into pure translation block form.

    For g = [[gamma, v], [0, 1]] the witness is the first column of gamma
    off the identity; for g = [[1, u], [0, gamma]] the first row of gamma^-1,
    a block of the carried g^-1."""
    n = b.g.n
    if loc == "upper":
        wit, case = min(((j, n) for _, j in _support(b.g) if j < n), default=None), "translate.col"
    elif loc == "lower":
        wit, case = min(((1, i) for i, _ in _support(b.ginv) if i > 1), default=None), "translate.row"
    else:
        raise ValueError(f"unknown affine location {loc!r}")
    if wit is None:  # gamma = I
        return
    b.record(COMM_RIGHT, [(*wit, b.q.canonical)], case)
    assert not is_central(b.g), "translation part must be nonzero"


def _support(g: SqMatrix) -> list[tuple[int, int]]:
    """The positions where g differs from the identity."""
    return [(i + 1, j + 1) for i, j, _ in _off_identity(g)]


def _single_stage(b: _Builder):
    """Stage 3: at most one commutator from translation form to a single
    off-diagonal entry at the canonical corner of the form ((1, n) for
    column and row translations, (n, 1) for bottom translations)."""
    g = b.g
    n = g.n
    q0 = b.q.canonical
    sup = _support(g)
    if not sup:
        raise CentralInput("identity reached before the single-entry stage")
    if all(j == n and i < n for (i, j) in sup):
        if sup == [(1, n)]:
            return
        b0 = min(i for (i, _) in sup if i != 1)
        b.record(COMM_RIGHT, [(1, b0, q0)], "single.col")
    elif all(i == 1 and j > 1 for (i, j) in sup):
        j0 = min(j for (_, j) in sup if j != n)
        b.record(COMM_RIGHT, [(j0, n, q0)], "single.row")
    elif all(i == n and j < n for (i, j) in sup):
        if sup == [(n, 1)]:
            return
        a0 = min(j for (_, j) in sup if j != 1)
        b.record(COMM_RIGHT, [(a0, 1, q0)], "single.bottom")
    else:
        raise ValueError("matrix is not in a translation block form")
    assert len(_support(b.g)) == 1, "single-entry stage must isolate one entry"


def _relocate_stage(b: _Builder, target: tuple[int, int]):
    """Stage 4: at most 3 commutators moving a single entry to the target."""
    n = b.g.n
    q0 = b.q.canonical
    i, j = target
    guard = 0
    while True:
        sup = _support(b.g)
        if len(sup) != 1:
            raise TrivialInput("relocation needs a single nonzero entry")
        k, l = sup[0]
        if (k, l) == (i, j):
            return
        guard += 1
        assert guard <= 3, "relocation exceeded three moves"
        if j == l:
            b.record(COMM_LEFT, [(i, k, q0)], "relocate.same-col")
        elif i == k:
            b.record(COMM_RIGHT, [(l, j, q0)], "relocate.same-row")
        elif k != j:
            b.record(COMM_RIGHT, [(l, j, q0)], "relocate.pivot")
        elif i != l:
            b.record(COMM_LEFT, [(i, k, q0)], "relocate.corner.direct")
        else:
            h = next(x for x in range(1, n + 1) if x not in (k, l))
            b.record(COMM_LEFT, [(h, k, q0)], "relocate.corner.detour")


# Public per-stage entry points: each returns a partial trace (kind
# "partial", seed 0, validated for replay and witnesses but not for output
# support) plus stage-specific data.


def reduce_to_affine(sigma: SqMatrix, q: Ideal):
    """Stage 1 as a standalone call: returns (partial trace, location)."""
    _check_reduce_preconditions(sigma, q, determinant(sigma).payload)
    b = _Builder(sigma, q, "partial", 0)
    loc = _affine_stage(b)
    return b.trace(("affine", loc)), loc


def strip_to_translation(g: SqMatrix, q: Ideal, loc: str) -> ReductionTrace:
    """Stage 2 as a standalone call on a matrix in an affine copy."""
    if is_central(g):
        raise CentralInput("translation stage needs a non-central input")
    b = _Builder(g, q, "partial", 0)
    _translate_stage(b, loc)
    return b.trace(("translate", loc))


def translation_to_elementary(g: SqMatrix, q: Ideal) -> ReductionTrace:
    """Stage 3 as a standalone call on a translation-form matrix."""
    if is_central(g):
        raise CentralInput("single-entry stage needs a non-central input")
    b = _Builder(g, q, "partial", 0)
    _single_stage(b)
    return b.trace(("single",))


def relocate_elementary(g: SqMatrix, q: Ideal, target: tuple[int, int]) -> ReductionTrace:
    """Stage 4 as a standalone call on a single-entry matrix."""
    b = _Builder(g, q, "partial", 0)
    _relocate_stage(b, target)
    return b.trace(("relocate", target))


def reduce_full(sigma: SqMatrix, q: Ideal, target: tuple[int, int], seed: int = 0) -> ReductionTrace:
    """Full pipeline: affine copy, translation form, single entry, relocation.

    Produces a replayable trace with at most 9 operations and certified word
    length at most 512 whose output is a nontrivial element supported exactly
    at the target position with entry in the ideal.
    """
    b = _Builder(sigma, q, "reduce", seed)
    i, j = target
    if not (1 <= i <= sigma.n and 1 <= j <= sigma.n and i != j):
        raise ValueError(f"bad target {target}")
    if len(_support(sigma)) == 1:
        _relocate_stage(b, target)
    else:
        loc = _affine_stage(b)
        _translate_stage(b, loc)
        _single_stage(b)
        _relocate_stage(b, target)
    return b.trace(target)


# -- dimension-2 unit shortcut ----------------------------------------------------


def _theta(m: SqMatrix) -> SqMatrix:
    """The inverse-transpose automorphism of SL_2; swaps E12 and E21."""
    (a, bb), (c, d) = m.payload
    neg = m.ring.kernel.neg
    return SqMatrix(m.ring, 2, payload=((d, neg(c)), (neg(bb), a)))


class _Mirror:
    """An E21 builder as the E12 searches see it: sigma, g and each recorded
    witness through theta, and each case tagged "sl2.mirror|"."""

    def __init__(self, b: _Builder):
        self.b, self.sigma = b, _theta(b.sigma)

    g = property(lambda self: _theta(self.b.g))

    def record(self, kind: str, witness: SqMatrix, case: str, exp: int = 1):
        self.b.record(kind, _theta(witness), "sl2.mirror|" + case, exp)


def _congruent_units(q: Ideal) -> list[RingElement]:
    """The units u = 1 mod q among those the ring's kernel offers, in its order."""
    ring = q.ring
    units = (RingElement(ring, u) for u in ring.kernel.units())
    return [u for u in units if q.contains(u - ring.one)]


def _upper_eta(a: RingElement, beta: RingElement, units, q: Ideal) -> SqMatrix | None:
    """The first eta = [[u, z], [0, u^-1]], u over units and then z over 0,
    ±q0, ..., ±8 q0 (q0 the canonical generator of q), with [y, eta] a
    nontrivial E12 element for y = [[a, beta], [0, a^-1]]; None if none is.
    Its corner a u (z d + c), d = a - a^-1, c = beta (u^-1 - u), is linear in
    z: z = 0 when c != 0, else q0 when q0 d != 0, as (k q0) d = k (q0 d)."""
    q0 = q.canonical
    q0_moves = not (q0 * (a - unit_check(a))).is_zero
    for u in units:
        uinv = unit_check(u)
        c_moves = not (beta * (uinv - u)).is_zero
        if c_moves or q0_moves:
            return SqMatrix.from_raw(a.ring, ((u, 0 if c_moves else q0), (0, uinv)))
    return None


def _try_upper_commutator(b: _Builder | _Mirror, q: Ideal) -> bool:
    """sigma = [[a, beta], [0, a^-1]]: one commutator with an _upper_eta."""
    if (eta := _upper_eta(*b.sigma.row(1), _congruent_units(q), q)) is None:
        return False
    b.record(COMM_RIGHT, eta, "sl2.comm-upper")
    return True


def _try_unit_conjugates(b: _Builder | _Mirror, q: Ideal) -> bool:
    """The unit-conjugation path, for sigma = [[a, beta], [c, d]] with c != 0.
    With u - 1 = w c^2, s = 1 + u + u^2 + u^3 and t = a c w s (so t c = a(u^4 - 1)),
    the witnesses E = [[u^2, -t u^-2], [0, u^-2]] and S = [[d - t c, t a - beta],
    [-c, a]] give S [E, sigma] S^-1 = Y = [[u^-4, c w s (a u^4 - d)],
    [0, u^4]]: two conjugates of sigma^{±1}.  If Y is not already in E12 one
    further commutator with [[u^4, z], [0, u^-4]] lands there."""
    sigma = b.sigma
    ring = sigma.ring
    one = ring.one
    (a, beta), (c, d) = sigma.rows
    c2 = c * c
    # c^2 = 0 (c nonzero, over Z/m) leaves no w with u - 1 = w c^2 to divide out
    if c2.is_zero:
        return False
    c2_ideal = Ideal(ring, (c2,))
    for u in _congruent_units(q):
        # u must be 1 mod c^2 A
        if not c2_ideal.contains(u - one):
            continue
        w = exact_div(u - one, c2)
        u2 = u * u
        u2inv = unit_check(u2)
        u4 = u2 * u2
        s = u2 * u + u2 + u + one
        t = a * c * w * s  # in q, as c is
        v, qprime = u2inv * u2inv, c * w * s * (a * u4 - d)  # the first row of Y
        zmat = _upper_eta(v, qprime, [u4], q)
        if zmat is None and not (v == one and not qprime.is_zero):
            continue
        b.record(COMM_LEFT, SqMatrix.from_raw(ring, ((u2, -(t * u2inv)), (0, u2inv))), "sl2.unit")
        b.record(CONJUGATE, SqMatrix.from_raw(ring, ((d - t * c, t * a - beta), (-c, a))), "sl2.unit.conj")
        if zmat is not None:
            b.record(COMM_RIGHT, zmat, "sl2.unit.comm")
        return True
    return False


def _try_square(b: _Builder | _Mirror) -> bool:
    """sigma^2 can be a nontrivial E12 element (e.g. -I times a unipotent)."""
    if _support(b.sigma * b.sigma) != [(1, 2)]:
        return False
    b.record(APPEND, identity(b.sigma.ring, 2), "sl2.square", exp=1)
    return True


def _try_pair_search(b: _Builder | _Mirror, q: Ideal, budget: int) -> bool:
    """Finite rings only: search short products of congruence-subgroup
    conjugates of sigma^{±1} that land in E12, shortest first.

    Phase A tries all two-letter products of class elements, phase B all
    three-letter products starting with sigma itself (up to a final
    conjugation into E12), and phase C upgrades a two-letter upper-triangular
    product by one further commutator (four letters).

    Elements are indices into the SL_2 table, multiplied by its product
    primitive (not its full product table, which large groups cannot have).
    Each phase scans its products in row-major order and takes the first
    hit; the budget counts the products scanned.
    """
    sigma = b.sigma
    ring = sigma.ring
    if not ring.is_finite:
        return False
    # imported here: loading numpy before the rest of the package raised the
    # peak RSS of `import congwidth` by ~1.3 MB
    import numpy as np  # noqa: PLC0415

    from .census import enumerate_sl  # noqa: PLC0415

    table = enumerate_sl(2, ring)
    prod, inv, mats, element = table.product, table.inv, table.mats, table.element
    conjugators = table.congruent(q)
    sig = table.idx(sigma)

    def class_of(base) -> tuple[np.ndarray, np.ndarray]:
        # each conjugate s base s^-1 once, with its first witness s, in order
        vals = prod(prod(conjugators, base), inv[conjugators])
        first = np.sort(np.unique(vals, return_index=True)[1])
        return vals[first], conjugators[first]

    cls_pos = class_of(sig)
    cls_neg = class_of(inv[sig])
    checked = 0

    def scan(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The products left[r] * right[c] in row-major order, as far as the budget reaches."""
        rows = -(-(budget - checked) // len(right))
        return prod(left[:rows, None], right).ravel()[:budget - checked]

    def first_hit(left: np.ndarray, right: np.ndarray, hit: np.ndarray):
        """(r, c) of the first scanned product that hit marks; None if no
        product is a hit, False if the budget runs out first."""
        nonlocal checked
        found = np.flatnonzero(hit[scan(left, right)])
        if found.size:
            return divmod(int(found[0]), len(right))
        if len(left) * len(right) > budget - checked:
            return False
        checked += len(left) * len(right)
        return None

    def emit_two(gx: int, gy: int, ey: int):
        """Ops realizing (gx sigma gx^-1)(gy sigma^ey gy^-1)."""
        eta = element(prod(inv[gx], gy))
        b.record(COMM_RIGHT if ey == -1 else APPEND, eta, "sl2.pair")
        if gx != 0:
            b.record(CONJUGATE, element(gx), "sl2.pair.conj")

    # Phase A: two letters.  (-1,-1) products are inverses of (+1,+1) ones
    # and E12 is inversion-closed.  A (-1,+1) product A^-1 B = X in E12 \ {1}
    # (A, B conjugates of sigma) is never new either: sigma is in Gamma(q),
    # so X is, so C = X^-1 A X is a conjugate of sigma too, and the (+1,-1)
    # product B C^-1 = X is a hit in the pattern scanned first.
    e12 = (mats[:, 1, 0] == 0) & (mats[:, 0, 0] == 1) & (mats[:, 1, 1] == 1) & (mats[:, 0, 1] != 0)
    for (xv, xg), ((yv, yg), ey) in ((cls_pos, (cls_neg, -1)), (cls_pos, (cls_pos, 1))):
        hit = first_hit(xv, yv, e12)
        if hit is False:
            return False
        if hit is not None:
            emit_two(xg[hit[0]], yg[hit[1]], ey)
            assert _support(b.g) == [(1, 2)]
            return True

    # Which elements can be conjugated into E12 \ {1}, with a witness: the
    # first s^-1 t s, over t = E12(a) by a and then s by index.
    t = np.array(table.target_elementaries(1, 2, q), dtype=np.int64)
    reached = prod(prod(inv[conjugators], t[:, None]), conjugators).ravel()
    vals, first = np.unique(reached, return_index=True)
    into_e12 = np.full(len(table), -1, dtype=np.int64)
    into_e12[vals] = conjugators[first % len(conjugators)]

    # Phase B: three letters sigma * Y2 * Y3, then conjugate into place.
    lv, lg = (np.concatenate(pair) for pair in zip(cls_pos, cls_neg))
    hit = first_hit(prod(sig, lv), lv, into_e12 >= 0)
    if hit is False:
        return False
    if hit is not None:
        y2, y3 = hit
        for y in hit:
            b.record(APPEND, element(lg[y]), "sl2.pair.append", exp=1 if y < len(cls_pos[0]) else -1)
        if (s := into_e12[prod(prod(sig, lv[y2]), lv[y3])]) != 0:
            b.record(CONJUGATE, element(s), "sl2.pair.conj")
        assert _support(b.g) == [(1, 2)]
        return True

    # Phase C: a two-letter upper-triangular product upgraded by one commutator.
    (xv, xg), (yv, yg) = cls_pos, cls_neg
    w = scan(xv, yv)
    for k in np.flatnonzero((mats[w, 1, 0] == 0) & (w != 0)):
        (v, qprime), (_, vinv) = element(w[k]).rows
        if (zmat := _upper_eta(v, qprime, [vinv], q)) is not None:
            emit_two(xg[k // len(yv)], yg[k % len(yv)], -1)
            b.record(COMM_RIGHT, zmat, "sl2.pair.comm")
            assert _support(b.g) == [(1, 2)]
            return True
    return False


def sl2_unit_reduction(
    sigma: SqMatrix,
    q: Ideal,
    side: str = "E12",
    *,
    pair_budget: int = 10**6,
    seed: int = 0,
) -> ReductionTrace:
    """Produce a nontrivial element of E12(q) (or E21(q)) as a product of at
    most 4 conjugates of sigma^{±1} by congruence-subgroup elements.

    Search spaces: the units u = 1 mod q per ring kind (Z: {1,-1}; Z/m: the
    unit group; Z[1/p]: ±p^k for |k| <= 8; F_p[x]: nonzero constants), the
    upper entries z in {0, q0} for the canonical generator q0 of q (a
    commutator's corner is linear in z, so z = k q0 helps only if q0 does),
    and over finite rings products of at most four conjugates, scanning at
    most pair_budget products.  Exhaustion raises NoUnitFound.  E21 runs the
    E12 searches on theta(sigma) through a _Mirror of the one builder.
    """
    b = _Builder(sigma, q, "sl2", seed)
    if side not in _SL2_TARGETS:
        raise ValueError("side must be 'E12' or 'E21'")
    view = b if side == "E12" else _Mirror(b)
    found = (
        _support(view.sigma) == [(1, 2)]  # already a nontrivial element of E12(q): a one-letter word
        or (_try_upper_commutator(view, q) if view.sigma.e(2, 1).is_zero else _try_unit_conjugates(view, q))
        or _try_square(view)
        or _try_pair_search(view, q, pair_budget)
    )
    if not found:
        raise NoUnitFound(f"no unit in the configured search space produces a nontrivial {side} element")
    return b.trace(side)


# -- serialization -----------------------------------------------------------------


def serialize_trace(trace: ReductionTrace) -> str:
    """The trace's text (ReductionTrace.text), rendered once per trace."""
    return trace.text


def replay_trace(text: str) -> ReductionTrace:
    """Rebuild a serialized trace and accept the text only if the rebuilt
    trace serializes to exactly the same bytes.

    Only what a fresh builder consumes is read: the header, the input M0 and,
    per step, its kind, case, witness tag and exponent with the witness (the
    sfac factors of an elem step, the conjugator of a congruence step).  The
    builder re-checks the input, every witness and the finished trace; the
    byte comparison covers the rest, recorded results and ledger included.
    A first difference inside a recorded step matrix is a replay mismatch at
    that step; any other is a format error naming the line.

    The rebuild stops with a replay mismatch at the first step whose result
    differs from the matrix the file records for it, so the work stays
    bounded by the file (a repeated commutator step doubles the length of
    the entries)."""
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
    steps = len(trace.steps)
    # eight header lines, a line per step, output and count lines, then each
    # matrix as its label and the n + 1 lines of format_matrix
    block, row = divmod(k - 10 - steps, trace.input.n + 2)
    if row and 1 <= block <= 2 * steps:
        raise ReplayMismatch(f"replay mismatch at step {(block + 1) // 2}")
    expected = repr(want[k]) if k < len(want) else "the end of the file"
    raise TraceFormatError(f"line {k + 1}: expected {expected}")


def _rebuild(lines: list[str]) -> ReductionTrace:
    """A fresh builder fed what the serialized lines record of the input and
    the witnesses; the other lines are left to the byte comparison.  The
    input's ring and size are the trace's: the header's n only locates the
    recorded matrices, and each one read must be n x n."""
    kind, seed, _, n, ideal, target = (ln.partition(" ")[2] for ln in lines[1:7])
    if kind not in ("reduce", "sl2"):
        raise TraceFormatError(f"unknown trace kind {kind!r}")
    n = int(n)
    steps = list(itertools.takewhile(lambda ln: ln.startswith("step "), lines[8:]))
    target = tuple(map(int, target.split())) if kind == "reduce" else target

    def recorded(k: int) -> str:
        """The text of matrix Mk: the n + 1 lines after its label."""
        start = 10 + len(steps) + k * (n + 2) + 1
        return "\n".join(lines[start:start + n + 1]) + "\n"

    def matrix(k: int) -> SqMatrix:
        m = parse_matrix(recorded(k))
        if m.n != n:
            raise TraceFormatError(f"M{k} is {m.n} x {m.n}, the header says n {n}")
        return m

    sigma = matrix(0)
    b = _Builder(sigma, parse_ideal(sigma.ring, ideal), kind, int(seed))
    for k, line in enumerate(steps, start=1):
        attrs = dict(tok.partition("=")[::2] for tok in line.split()[1:])
        if attrs.get("smem") == "elem":
            sfac = attrs.get("sfac", "")
            witness = [] if sfac == "-" else [_factor(sigma.ring, f) for f in sfac.split("|")]
        else:
            witness = matrix(2 * k - 1)
        b.record(attrs.get("kind", ""), witness, attrs.get("case", ""), int(attrs.get("exp", 1)))
        if format_matrix(b.g) != recorded(2 * k):  # fills the text serialize_trace reuses
            raise ReplayMismatch(f"replay mismatch at step {k}")
    return b.trace(target)


def _factor(ring: RingSpec, text: str) -> tuple[int, int, RingElement]:
    """One sfac entry "i,j:a"."""
    ij, _, a = text.partition(":")
    i, j = ij.split(",")
    return int(i), int(j), parse_element(ring, a)
