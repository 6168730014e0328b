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
(the stage entry points: elementary witnesses only).  The builder checks the
input's preconditions when it starts, each witness as it records a step, and
the budgets and single-entry output when the trace is taken.  Replay is a
fresh builder fed the parsed steps.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, replace

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
    _box,
    _mul_rows,
    _unbox,
    determinant,
    elementary,
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

    s_member "elem" means s carries an elementary factorization whose factors
    all have off-diagonal entry in the ideal; "congruence" means s is only
    certified to lie in the congruence subgroup (dimension-2 shortcut).
    """

    kind: str
    s: SqMatrix
    s_factors: ElemFactorization | None = None
    s_member: str = "elem"
    exp: int = 1  # Append only


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


def _next_word_length(kind: str, wl: int) -> int:
    if kind == CONJUGATE:
        return wl
    if kind in (COMM_RIGHT, COMM_LEFT):
        return 2 * wl
    if kind == APPEND:
        return wl + 1
    raise ValueError(f"unknown op kind {kind!r}")


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


def _check_reduce_preconditions(sigma: SqMatrix, q: Ideal):
    if sigma.n < 3:
        raise UnsupportedRing("the full reduction needs dimension >= 3")
    if not sigma.ring.is_domain:
        raise UnsupportedRing("the full reduction needs an integral domain")
    _check_congruence_input(sigma, q)


def _check_sl2_preconditions(sigma: SqMatrix, q: Ideal):
    if sigma.n != 2:
        raise UnsupportedRing("the unit shortcut is a dimension-2 tool")
    _check_congruence_input(sigma, q)


def _check_congruence_input(sigma: SqMatrix, q: Ideal):
    if q.is_zero:
        raise ZeroIdeal("reduction ideal must be nonzero")
    if determinant(sigma) != sigma.ring.one:
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
    preconditions: Callable[[SqMatrix, Ideal], None] | None


_SL2_TARGETS = {"E12": (1, 2), "E21": (2, 1)}
_POLICIES = {
    "reduce": _Policy("elem", MAX_STEPS, MAX_WORD, STAGE_BOUNDS, tuple, _check_reduce_preconditions),
    "sl2": _Policy("congruence", None, 4, None, _SL2_TARGETS.get, _check_sl2_preconditions),
    "partial": _Policy("elem", None, None, None, None, None),
}


class _Builder:
    """Records a trace and checks every invariant of its kind on the way:
    the input preconditions on construction, each step's witness as it is
    recorded, and the budgets and output support when the trace is taken.

    The input is inverted once; after that each step maps the pair
    (g, g^-1) to its image without a further inverse, on payload rows."""

    def __init__(self, sigma: SqMatrix, q: Ideal, kind: str, seed: int):
        if kind not in _POLICIES:
            raise ReplayMismatch(f"unknown trace kind {kind!r}")
        self.policy = _POLICIES[kind]
        if self.policy.preconditions:
            self.policy.preconditions(sigma, q)
        self.sigma = sigma
        self.sigma_inv = mat_inv(sigma)
        self.q = q
        self.kind = kind
        self.seed = seed
        self.g = sigma
        self._g, self._ginv = _unbox(sigma), _unbox(self.sigma_inv)
        self.wl = 1
        self.steps: list[TraceStep] = []

    @property
    def ginv(self) -> SqMatrix:
        return _box(self.sigma.ring, self._ginv)

    def apply(self, kind: str, s: SqMatrix, case: str, exp: int = 1):
        """Record a step by s, certified to lie in the congruence subgroup."""
        self.record(QOperation(kind, s, None, "congruence", exp), case)

    def apply_elem(self, kind: str, factors, case: str):
        """Record a step by the product s of the elementary factors (i, j, a)."""
        ring = self.sigma.ring
        fac = ElemFactorization.of(ring, self.sigma.n, tuple(ElemFactor(i, j, ring.el(a)) for i, j, a in factors))
        self.record(QOperation(kind, fac.target, fac), case)

    def record(self, op: QOperation, case: str):
        k = len(self.steps) + 1
        member = self.policy.member
        if op.s_member != member:
            raise ReplayMismatch(f"step {k}: {self.kind} steps need {member!r} witnesses, got {op.s_member!r}")
        if member == "elem":
            if op.s_factors is None:
                raise ReplayMismatch(f"step {k}: missing elementary witness")
            if op.s_factors.product() != op.s:
                raise ReplayMismatch(f"step {k}: witness does not multiply to s")
            for f in op.s_factors.factors:
                if f.a.is_zero or not self.q.contains(f.a):
                    raise ReplayMismatch(
                        f"step {k}: witness factor entry {format_element(f.a)} not a nonzero ideal element"
                    )
        elif not in_congruence_subgroup(op.s, self.q) or determinant(op.s) != op.s.ring.one:
            raise ReplayMismatch(f"step {k}: s is not a determinant-1 matrix congruent to I mod the ideal")
        if op.kind == APPEND and op.exp not in (1, -1):
            raise ReplayMismatch(f"step {k}: an appended letter conjugates sigma^1 or sigma^-1, not sigma^{op.exp}")
        self._step(op, self._conjugation(op))
        self.wl = _next_word_length(op.kind, self.wl)
        self.steps.append(TraceStep(op, self.g, self.wl, case))

    def _conjugation(self, op: QOperation):
        """X -> s X s^-1 on payload rows, for a witness record has checked."""
        k = self.sigma.ring.kernel
        if op.s_member == "elem":
            # s = E_1 ... E_r: s X is row operations by E_r, ..., E_1, and X s^-1
            # column operations by the factors of s^-1 (inverse_factors) in order
            ops = [(_add_row, f) for f in reversed(op.s_factors.factors)]
            ops += [(_add_col, f) for f in op.s_factors.inverse_factors()]

            def conj(x):
                x = [list(r) for r in x]
                for add, f in ops:
                    add(k, x, f.i - 1, f.j - 1, f.a.payload)
                return x

            return conj
        s, sinv = _unbox(op.s), _unbox(mat_inv(op.s))
        return lambda x: _mul_rows(k, _mul_rows(k, s, x), sinv)

    def _step(self, op: QOperation, conj):
        """Map (g, g^-1) to the step's image and its inverse."""
        k = self.sigma.ring.kernel
        g, ginv = self._g, self._ginv
        if op.kind == CONJUGATE:
            g, ginv = conj(g), conj(ginv)
        elif op.kind == COMM_RIGHT:  # [g, s] = g (s g^-1 s^-1), inverse (s g s^-1) g^-1
            g, ginv = _mul_rows(k, g, conj(ginv)), _mul_rows(k, conj(g), ginv)
        elif op.kind == COMM_LEFT:  # [s, g] = (s g s^-1) g^-1, inverse g (s g^-1 s^-1)
            g, ginv = _mul_rows(k, conj(g), ginv), _mul_rows(k, g, conj(ginv))
        elif op.kind == APPEND:  # g (s sigma^e s^-1), inverse (s sigma^-e s^-1) g^-1
            pos, neg = (self.sigma, self.sigma_inv) if op.exp == 1 else (self.sigma_inv, self.sigma)
            g, ginv = _mul_rows(k, g, conj(_unbox(pos))), _mul_rows(k, conj(_unbox(neg)), ginv)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        self._g, self._ginv = g, ginv
        self.g = _box(self.sigma.ring, g)

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


def validate_trace(trace: ReductionTrace):
    """Replay a trace through a fresh builder, which re-checks the input, every
    step and the finished trace; raise on the first broken invariant."""
    b = _Builder(trace.input, trace.ideal, trace.kind, trace.seed)
    for k, st in enumerate(trace.steps, start=1):
        b.record(st.op, st.case)
        if b.g != st.result:
            raise ReplayMismatch(f"replay mismatch at step {k}")
        if b.wl != st.word_length:
            raise ReplayMismatch(f"step {k}: word-length ledger expected {b.wl}, recorded {st.word_length}")
    b.trace(trace.target)


# -- stable-range shift ----------------------------------------------------------


@dataclass(frozen=True)
class SRWitness:
    """A shift t with (a_1 + t_1 a_n^2, ..., a_{n-1} + t_{n-1} a_n^2) unimodular."""

    t: tuple[RingElement, ...]
    shifted: tuple[RingElement, ...]
    bezout: tuple[RingElement, ...]


def unimodular_square_shift(alpha: list[RingElement], bound: int = 10**4) -> SRWitness:
    """Find t with the first n-1 coordinates of alpha, each shifted by
    t_i * a_n^2, unimodular; certified by an extended-gcd Bezout witness."""
    ring = alpha[0].ring
    n = len(alpha)
    prefix = list(alpha[: n - 1])
    an2 = alpha[n - 1] * alpha[n - 1]
    ok, coeffs = is_unimodular(prefix)
    if ok:
        zero = tuple(ring.zero for _ in range(n - 1))
        return SRWitness(zero, tuple(prefix), tuple(coeffs))

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
            shifted = tuple(p + ti * an2 for p, ti in zip(prefix, t))
            ok, coeffs = is_unimodular(list(shifted))
            if ok:
                return SRWitness(tuple(t), shifted, tuple(coeffs))
            if tried >= bound:
                break
        shell += 1
    raise SearchExhausted("no unimodular shift found", bound)


def _tuples_with_max_shell(pool, new, width):
    """All width-tuples over pool using at least one element of new."""
    if not new:
        return
    new_keys = {id(x) for x in new}
    for combo in itertools.product(pool, repeat=width):
        if any(id(x) in new_keys for x in combo):
            yield combo


# -- block-form helpers ----------------------------------------------------------


def in_upper_affine(g: SqMatrix) -> bool:
    """Bottom row equals (0, ..., 0, 1)."""
    return g.row(g.n) == identity(g.ring, g.n).row(g.n)


def in_lower_affine(g: SqMatrix) -> bool:
    """First column equals (1, 0, ..., 0)."""
    return g.column(1) == identity(g.ring, g.n).column(1)


def _commutes(a: SqMatrix, b: SqMatrix) -> bool:
    return a * b == b * a


# -- the four reduction stages -----------------------------------------------------


def _case1_finish(b: _Builder, tag: str) -> str:
    """From [g, tau] = I: g has first column u*e_1; one commutator with a
    block-embedded elementary lands in the lower affine copy."""
    g = b.g
    n = g.n
    ring = g.ring
    q0 = b.q.canonical
    u = g.e(1, 1)
    col = g.column(1)
    assert is_unit(u) and all(col[r].is_zero for r in range(1, n)), (
        "commuting case must pin the first column to a unit multiple of e_1"
    )
    sub = SqMatrix(ring, n - 1, tuple(tuple(g.rows[i][1:]) for i in range(1, n)))
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            if not _commutes(sub, elementary(ring, n - 1, i, j, q0)):
                b.apply_elem(COMM_RIGHT, [(i + 1, j + 1, q0)], tag + ".block")
                assert in_lower_affine(b.g) and not is_central(b.g)
                return "lower"
    # sub is scalar t*I and the commuting relation forces t = u
    t = sub.e(1, 1)
    assert all(
        sub.e(i, j) == (t if i == j else ring.zero)
        for i in range(1, n)
        for j in range(1, n)
    )
    assert t == u, "commuting case forces matching corner units"
    v = [g.rows[0][j] for j in range(1, n)]
    j0 = next((idx for idx, e in enumerate(v) if not e.is_zero), None)
    if j0 is None:
        raise CentralInput("scalar matrix slipped through the central filter")
    k = 1 if j0 != 0 else 2
    b.apply_elem(COMM_RIGHT, [(j0 + 2, k + 1, q0)], tag + ".scalar")
    assert in_lower_affine(b.g) and not is_central(b.g)
    return "lower"


def _affine_stage(b: _Builder) -> str:
    """Stage 1: at most 4 operations into one of the affine copies
    (bottom row e_n, "upper", or first column e_1, "lower")."""
    g = b.g
    n = g.n
    ring = g.ring
    q0 = b.q.canonical
    if in_upper_affine(g):
        return "upper"
    if in_lower_affine(g):
        return "lower"
    tau = elementary(ring, n, 1, 2, q0)
    tau_fac = [(1, 2, q0)]
    if _commutes(g, tau):
        return _case1_finish(b, "affine.commuting")

    alpha = list(g.column(1))
    ok, coeffs = is_unimodular(alpha[: n - 1])
    if not ok:
        wit = unimodular_square_shift(alpha)
        an = alpha[n - 1]
        b.apply_elem(CONJUGATE, [(i + 1, n, an * t) for i, t in enumerate(wit.t) if not (an * t).is_zero],
                     "affine.split.shift")
        alpha = list(b.g.column(1))
        ok, coeffs = is_unimodular(alpha[: n - 1])
        assert ok, "shift witness must leave a unimodular prefix"

    an = alpha[n - 1]
    lam_fac = [(n, k + 1, -(an * dk)) for k, dk in enumerate(coeffs) if not (an * dk).is_zero]
    b.apply_elem(COMM_RIGHT, tau_fac, "affine.split.comm")
    if lam_fac:
        b.apply_elem(CONJUGATE, lam_fac, "affine.split.conj")
    rho = b.g
    assert not is_central(rho), "conjugated commutator must stay non-central"
    if _commutes(rho, tau):
        return _case1_finish(b, "affine.split.recommuting")
    b.apply_elem(COMM_RIGHT, tau_fac, "affine.split.comm2")
    assert in_upper_affine(b.g) and not is_central(b.g)
    return "upper"


def _translate_stage(b: _Builder, loc: str):
    """Stage 2: at most one commutator into pure translation block form.

    For g = [[gamma, v], [0, 1]] it scans the columns of gamma; for
    g = [[1, u], [0, gamma]] the rows of gamma^-1, a block of the carried g^-1."""
    n = b.g.n
    k = b.g.ring.kernel
    if loc == "upper":
        lines, shift, case = list(zip(*b._g)), 0, "translate.col"
    elif loc == "lower":
        lines, shift, case = b._ginv, 1, "translate.row"
    else:
        raise ValueError(f"unknown affine location {loc!r}")
    k0 = next(
        (idx for idx in range(n - 1)
         if any(x != (k.one if c == idx + shift else k.zero) for c, x in enumerate(lines[idx + shift]))),
        None,
    )
    if k0 is None:  # gamma = I
        return
    i, j = (k0 + 1, n) if loc == "upper" else (1, k0 + 2)
    b.apply_elem(COMM_RIGHT, [(i, j, b.q.canonical)], case)
    assert not is_central(b.g), "translation part must be nonzero"


def _support(g: SqMatrix) -> list[tuple[int, int]]:
    one = identity(g.ring, g.n)
    return [(i + 1, j + 1) for i in range(g.n) for j in range(g.n) if g.rows[i][j] != one.rows[i][j]]


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
        b.apply_elem(COMM_RIGHT, [(1, b0, q0)], "single.col")
    elif all(i == 1 and j > 1 for (i, j) in sup):
        if sup == [(1, n)]:
            return
        j0 = min(j for (_, j) in sup if j != n)
        b.apply_elem(COMM_RIGHT, [(j0, n, q0)], "single.row")
    elif all(i == n and j < n for (i, j) in sup):
        if sup == [(n, 1)]:
            return
        a0 = min(j for (_, j) in sup if j != 1)
        b.apply_elem(COMM_RIGHT, [(a0, 1, q0)], "single.bottom")
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
            b.apply_elem(COMM_LEFT, [(i, k, q0)], "relocate.same-col")
        elif i == k:
            b.apply_elem(COMM_RIGHT, [(l, j, q0)], "relocate.same-row")
        elif k != j:
            b.apply_elem(COMM_RIGHT, [(l, j, q0)], "relocate.pivot")
        elif i != l:
            b.apply_elem(COMM_LEFT, [(i, k, q0)], "relocate.corner.direct")
        else:
            h = next(x for x in range(1, n + 1) if x not in (k, l))
            b.apply_elem(COMM_LEFT, [(h, k, q0)], "relocate.corner.detour")


# Public per-stage entry points: each returns a partial trace (kind
# "partial", validated for replay and witnesses but not for output support)
# plus stage-specific data.


def reduce_to_affine(sigma: SqMatrix, q: Ideal, seed: int = 0):
    """Stage 1 as a standalone call: returns (partial trace, location)."""
    _check_reduce_preconditions(sigma, q)
    b = _Builder(sigma, q, "partial", seed)
    loc = _affine_stage(b)
    return b.trace(("affine", loc)), loc


def strip_to_translation(g: SqMatrix, q: Ideal, loc: str, seed: int = 0) -> ReductionTrace:
    """Stage 2 as a standalone call on a matrix in an affine copy."""
    if is_central(g):
        raise CentralInput("translation stage needs a non-central input")
    b = _Builder(g, q, "partial", seed)
    _translate_stage(b, loc)
    return b.trace(("translate", loc))


def translation_to_elementary(g: SqMatrix, q: Ideal, seed: int = 0) -> ReductionTrace:
    """Stage 3 as a standalone call on a translation-form matrix."""
    if is_central(g):
        raise CentralInput("single-entry stage needs a non-central input")
    b = _Builder(g, q, "partial", seed)
    _single_stage(b)
    return b.trace(("single",))


def relocate_elementary(g: SqMatrix, q: Ideal, target: tuple[int, int], seed: int = 0) -> ReductionTrace:
    """Stage 4 as a standalone call on a single-entry matrix."""
    b = _Builder(g, q, "partial", seed)
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
    a, bb = m.rows[0]
    c, d = m.rows[1]
    return SqMatrix(m.ring, 2, ((d, -c), (-bb, a)))


# z runs over 0, ±q0, ..., ±8 q0 for the canonical generator q0 of the ideal
_Z_MULTIPLES = 8


def _congruent_units(q: Ideal) -> list[RingElement]:
    """The units u = 1 mod q among those the ring's kernel offers, in its order."""
    ring = q.ring
    units = (RingElement(ring, u) for u in ring.kernel.units())
    return [u for u in units if q.contains(u - ring.one)]


def _z_candidates(q: Ideal) -> list[RingElement]:
    q0 = q.canonical
    ring = q.ring
    out = [ring.zero]
    for k in range(1, _Z_MULTIPLES + 1):
        out.append(q0 * ring.el(k))
        out.append(-(q0 * ring.el(k)))
    return out


def _upgrade(y: SqMatrix, q: Ideal) -> SqMatrix | None:
    """For y = [[v, q'], [0, v^-1]] in the congruence subgroup: the first
    s = [[v^-1, z], [0, v]] over the z candidates with [y, s] a nontrivial
    E12 element, entry (z + q')(v - v^-1) != 0; None if no z does, as when
    v^2 = 1."""
    v, qprime = y.rows[0]
    vinv = unit_check(v)
    for z in _z_candidates(q):
        if not ((z + qprime) * (v - vinv)).is_zero:
            return SqMatrix(v.ring, 2, ((vinv, z), (v.ring.zero, v)))
    return None


def _try_upper_commutator(b: _Builder, q: Ideal) -> bool:
    """sigma upper triangular: [sigma, eta] with eta upper triangular in the
    congruence subgroup is upper unipotent, with entry a*u*(z(a - a^-1) + b(u^-1 - u))."""
    ring = b.sigma.ring
    for u in _congruent_units(q):
        uinv = unit_check(u)
        for z in _z_candidates(q):
            eta = SqMatrix(ring, 2, ((u, z), (ring.zero, uinv)))
            if not (b.g * eta * b.ginv * mat_inv(eta)).rows[0][1].is_zero:
                b.apply(COMM_RIGHT, eta, "sl2.comm-upper")
                return True
    return False


def _try_unit_conjugates(b: _Builder, q: Ideal) -> bool:
    """The unit-conjugation path, for sigma with c = sigma_21 != 0: two
    conjugates of sigma^{±1} multiply to an upper-triangular
    Y = [[u^-4, *], [0, u^4]]; if Y is not already in E12 one further
    commutator with [[u^4, z], [0, u^-4]] lands there."""
    sigma = b.sigma
    ring = sigma.ring
    one = ring.one
    a = sigma.e(1, 1)
    c = sigma.e(2, 1)
    c2 = c * c
    # c^2 = 0 (c nonzero, over Z/m) leaves no w with u - 1 = w c^2 to divide out
    if c2.is_zero:
        return False
    for u in _congruent_units(q):
        # u must be 1 mod c^2 A
        if not Ideal(ring, (c2,)).contains(u - one):
            continue
        w = exact_div(u - one, c2)
        u2 = u * u
        t = a * c * w * (u2 * u + u2 + u + one)  # t c = a (u^4 - 1)
        if not q.contains(t):
            continue
        wmat = SqMatrix(ring, 2, ((one, t), (ring.zero, one)))
        dmat = SqMatrix(ring, 2, ((u2, ring.zero), (ring.zero, unit_check(u2))))
        emat = mat_inv(wmat) * dmat
        conj_s = wmat * b.sigma_inv
        y = conj_s * (emat * sigma * mat_inv(emat) * b.sigma_inv) * mat_inv(conj_s)
        assert y.rows[1][0].is_zero, "t cancels the corner"
        zmat = _upgrade(y, q)
        if zmat is None and not _is_e12_nontrivial(y):
            continue
        b.apply(COMM_LEFT, emat, "sl2.unit")
        b.apply(CONJUGATE, conj_s, "sl2.unit.conj")
        if zmat is not None:
            b.apply(COMM_RIGHT, zmat, "sl2.unit.comm")
        return True
    return False


def _is_e12_nontrivial(m: SqMatrix) -> bool:
    ring = m.ring
    return (
        m.rows[1][0].is_zero
        and m.rows[0][0] == ring.one
        and m.rows[1][1] == ring.one
        and not m.rows[0][1].is_zero
    )


def _try_square(b: _Builder) -> bool:
    """sigma^2 can be a nontrivial E12 element (e.g. -I times a unipotent)."""
    if not _is_e12_nontrivial(b.sigma * b.sigma):
        return False
    b.apply(APPEND, identity(b.sigma.ring, 2), "sl2.square", exp=1)
    return True


def _try_pair_search(b: _Builder, q: Ideal, budget: int) -> bool:
    """Finite rings only: search short products of congruence-subgroup
    conjugates of sigma^{±1} that land in E12, shortest first.

    Phase A tries all two-letter products of class elements, phase B all
    three-letter products starting with sigma itself (up to a final
    conjugation into E12), and phase C upgrades a two-letter upper-triangular
    product by one further commutator (four letters).

    Elements are indices into the SL_2 table, multiplied by its product
    primitive (not its full product table, which large groups cannot have).
    Each phase scans its products in row-major order and takes the first
    hit; every product scanned costs one unit of budget.
    """
    sigma = b.sigma
    ring = sigma.ring
    if not ring.is_finite:
        return False
    # imported here: loading numpy before the rest of the package raised the
    # peak RSS of `import congwidth` by ~1.3 MB
    import numpy as np  # noqa: PLC0415

    from .census import enumerate_sl  # noqa: PLC0415

    table = enumerate_sl(2, ring, budget=budget)
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

    def emit_two(gx: int, ex: int, gy: int, ey: int):
        """Ops realizing (gx sigma^ex gx^-1)(gy sigma^ey gy^-1)."""
        eta = element(prod(inv[gx], gy))
        if ex == 1:
            if ey == -1:
                b.apply(COMM_RIGHT, eta, "sl2.pair")
            else:
                b.apply(APPEND, eta, "sl2.pair", exp=1)
        else:
            assert ey == 1, "(-1, -1) pairs are found through their inverses"
            b.apply(COMM_LEFT, eta, "sl2.pair")
            b.apply(CONJUGATE, element(prod(gx, inv[sig])), "sl2.pair.conj")
            return
        if gx != 0:
            b.apply(CONJUGATE, element(gx), "sl2.pair.conj")

    # Phase A: two letters.  (-1,-1) products are inverses of (+1,+1) ones
    # and E12 is inversion-closed, so three sign patterns suffice.
    e12 = (mats[:, 1, 0] == 0) & (mats[:, 0, 0] == 1) & (mats[:, 1, 1] == 1) & (mats[:, 0, 1] != 0)
    for ((xv, xg), ex), ((yv, yg), ey) in (
        ((cls_pos, 1), (cls_neg, -1)),
        ((cls_pos, 1), (cls_pos, 1)),
        ((cls_neg, -1), (cls_pos, 1)),
    ):
        hit = first_hit(xv, yv, e12)
        if hit is False:
            return False
        if hit is not None:
            emit_two(xg[hit[0]], ex, yg[hit[1]], ey)
            assert _is_e12_nontrivial(b.g)
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
            b.apply(APPEND, element(lg[y]), "sl2.pair.append", exp=1 if y < len(cls_pos[0]) else -1)
        if (s := into_e12[prod(prod(sig, lv[y2]), lv[y3])]) != 0:
            b.apply(CONJUGATE, element(s), "sl2.pair.conj")
        assert _is_e12_nontrivial(b.g)
        return True

    # Phase C: a two-letter upper-triangular product upgraded by one commutator.
    (xv, xg), (yv, yg) = cls_pos, cls_neg
    w = scan(xv, yv)
    for k in np.flatnonzero((mats[w, 1, 0] == 0) & (w != 0)):
        if (zmat := _upgrade(element(w[k]), q)) is not None:
            emit_two(xg[k // len(yv)], 1, yg[k % len(yv)], -1)
            b.apply(COMM_RIGHT, zmat, "sl2.pair.comm")
            assert _is_e12_nontrivial(b.g)
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
    upper entries z over 0, ±q0, ..., ±8 q0 for the canonical generator q0 of
    q, and over finite rings products of at most four conjugates (at most
    pair_budget of them).  Exhaustion raises NoUnitFound.
    """
    b = _Builder(sigma, q, "sl2", seed)
    if side not in _SL2_TARGETS:
        raise ValueError("side must be 'E12' or 'E21'")
    if side == "E21":
        inner = sl2_unit_reduction(_theta(sigma), q, "E12", pair_budget=pair_budget, seed=seed)
        for st in inner.steps:
            b.record(replace(st.op, s=_theta(st.op.s)), "sl2.mirror|" + st.case)
        return b.trace("E21")

    found = (
        _is_e12_nontrivial(sigma)  # already a nontrivial element of E12(q): a one-letter word
        or (_try_upper_commutator(b, q) if sigma.e(2, 1).is_zero else _try_unit_conjugates(b, q))
        or _try_square(b)
        or _try_pair_search(b, q, pair_budget)
    )
    if not found:
        raise NoUnitFound(
            "no unit in the configured search space produces a nontrivial E12 element"
        )
    return b.trace("E12")


# -- serialization -----------------------------------------------------------------


def serialize_trace(trace: ReductionTrace) -> str:
    if trace.kind not in ("reduce", "sl2"):
        raise ValueError("only full reduce/sl2 traces serialize")
    ids: list[SqMatrix] = [trace.input]
    lines = [
        "congwidth-trace v1",
        f"kind {trace.kind}",
        f"seed {trace.seed}",
        f"ring {trace.input.ring.descriptor()}",
        f"n {trace.input.n}",
        "ideal " + " ".join(format_element(g) for g in trace.ideal.generators),
        ("target " + (f"{trace.target[0]} {trace.target[1]}" if trace.kind == "reduce" else str(trace.target))),
        "input M0",
    ]
    for st in trace.steps:
        sid = len(ids)
        ids.append(st.op.s)
        rid = len(ids)
        ids.append(st.result)
        if st.op.s_member == "elem":
            fac = st.op.s_factors
            sfac = "|".join(
                f"{f.i},{f.j}:{format_element(f.a)}" for f in fac.factors
            ) or "-"
        else:
            sfac = "-"
        extra = f" exp={st.op.exp}" if st.op.kind == APPEND else ""
        lines.append(
            f"step kind={st.op.kind} s=M{sid} result=M{rid} len={st.word_length} "
            f"case={st.case} smem={st.op.s_member} sfac={sfac}{extra}"
        )
    out_id = len(ids) - 1 if trace.steps else 0
    lines.append(f"output M{out_id}")
    lines.append(f"matrices {len(ids)}")
    for k, m in enumerate(ids):
        lines.append(f"M{k}")
        lines.append(format_matrix(m).rstrip("\n"))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> ReductionTrace:
    """Parse a serialized reduce or sl2 trace; any malformed text raises
    TraceFormatError."""
    try:
        return _parse_lines(text.splitlines())
    except ValueError as exc:  # bad integers, ring elements or matrices
        raise TraceFormatError(f"malformed trace: {exc}") from exc


def _parse_lines(lines: list[str]) -> ReductionTrace:
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise TraceFormatError("unexpected end of trace")
        ln = lines[pos]
        pos += 1
        return ln

    def expect_prefix(prefix: str) -> str:
        ln = take()
        if not ln.startswith(prefix):
            raise TraceFormatError(f"expected {prefix!r}, got {ln!r}")
        return ln[len(prefix):]

    def ref(label: str) -> SqMatrix:
        k = int(label[1:]) if label.startswith("M") else -1
        if not 0 <= k < len(mats):
            raise TraceFormatError(f"matrix reference {label!r} out of range")
        return mats[k]

    if take() != "congwidth-trace v1":
        raise TraceFormatError("bad magic line")
    kind = expect_prefix("kind ")
    if kind not in ("reduce", "sl2"):
        raise TraceFormatError(f"unknown trace kind {kind!r}")
    seed = int(expect_prefix("seed "))
    ring = RingSpec.parse(expect_prefix("ring "))
    n = int(expect_prefix("n "))
    if n < 1:
        raise TraceFormatError(f"bad dimension {n}")
    gens = tuple(parse_element(ring, t) for t in expect_prefix("ideal ").split())
    ideal = Ideal(ring, gens)
    target_raw = expect_prefix("target ")
    if kind == "reduce":
        i, j = target_raw.split()
        target: object = (int(i), int(j))
    else:
        target = target_raw
    input_label = expect_prefix("input ")

    step_lines = []
    while pos < len(lines) and lines[pos].startswith("step "):
        step_lines.append(take()[len("step "):])
    if expect_prefix("output ") != f"M{2 * len(step_lines)}":
        raise TraceFormatError("output is not the last step's result")
    count = int(expect_prefix("matrices "))
    mats: list[SqMatrix] = []
    for k in range(count):
        label = take()
        if label != f"M{k}":
            raise TraceFormatError(f"expected matrix label M{k}, got {label!r}")
        m = parse_matrix("\n".join(take() for _ in range(n + 1)))
        if m.ring != ring or m.n != n:
            raise TraceFormatError(f"M{k} is not a {n}x{n} matrix over {ring.descriptor()}")
        mats.append(m)
    if take() != "end":
        raise TraceFormatError("missing end marker")

    steps = []
    for k, raw in enumerate(step_lines, start=1):
        # exactly the keys serialize_trace writes, each once
        tokens = [tok.partition("=")[::2] for tok in raw.split()]
        attrs = dict(tokens)
        keys = ["kind", "s", "result", "len", "case", "smem", "sfac"]
        keys += ["exp"] if attrs.get("kind") == APPEND else []
        missing = [key for key in keys if key not in attrs]
        if missing:
            raise TraceFormatError(f"step {k} is missing {', '.join(missing)}")
        if len(tokens) != len(keys):
            raise TraceFormatError(f"step {k} has an unknown or repeated key")
        if attrs["smem"] != "elem" and attrs["sfac"] != "-":
            raise TraceFormatError(f"step {k}: {attrs['smem']} steps carry sfac=-")
        if attrs["kind"] not in (CONJUGATE, COMM_RIGHT, COMM_LEFT, APPEND):
            raise TraceFormatError(f"step {k}: unknown op kind {attrs['kind']!r}")
        s = ref(attrs["s"])
        fac = None
        if attrs["smem"] == "elem":
            factors = []
            if attrs["sfac"] != "-":
                for part in attrs["sfac"].split("|"):
                    ij, _, a = part.partition(":")
                    fi, fj = ij.split(",")
                    factors.append(ElemFactor(int(fi), int(fj), parse_element(ring, a)))
            fac = ElemFactorization(tuple(factors), s)
        op = QOperation(attrs["kind"], s, fac, attrs["smem"], int(attrs.get("exp", 1)))
        steps.append(TraceStep(op, ref(attrs["result"]), int(attrs["len"]), attrs["case"]))
    return ReductionTrace(kind, ref(input_label), ideal, target, tuple(steps), seed)


def replay_trace(text: str) -> ReductionTrace:
    """Parse and fully re-verify a serialized trace."""
    trace = parse_trace(text)
    validate_trace(trace)
    return trace
