"""Reduction of non-central congruence matrices to prescribed elementary
positions with a certified operation and word-length budget: the searches.

The staged pipeline (affine, translate, single, relocate) takes a matrix of
dimension >= 3 to a single elementary entry in at most 9 steps.  Dimension 2
is served separately by a unit-conjugation shortcut whose conjugators live in
the full congruence subgroup; its traces additionally use an "append" step
(g -> g * s sigma^e s^-1) that adds one letter.  Every search records its
steps through the checking trace builder of certificate.py, which also
serializes and replays the traces; serialize_trace and replay_trace are
re-exported here for the callers that import them from this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certificate import (
    APPEND,
    COMM_LEFT,
    COMM_RIGHT,
    CONJUGATE,
    ReductionTrace,
    _Builder,
    _SL2_TARGETS,
    _support,
    replay_trace,
    serialize_trace,
)
from .errors import CentralInput, NoUnitFound, SearchExhausted, TrivialInput
from .matrices import SqMatrix, identity, is_central, mat_inv
from .rings import Ideal, RingElement, exact_div, is_unimodular, is_unit, unit_check


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
    # g = u*I off its first row is not central, so that row has a nonzero entry past the corner
    j0 = next(idx for idx, e in enumerate(g.payload[0][1:]) if not k.is_zero(e))
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




def _single_stage(b: _Builder):
    """Stage 3: at most one commutator from translation form to a single
    off-diagonal entry at the canonical corner of the form ((1, n) for
    column and row translations, (n, 1) for bottom translations)."""
    g = b.g
    n = g.n
    q0 = b.q.canonical
    sup = _support(g)  # never empty: every caller has excluded central input
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
    b = _Builder(sigma, q, "reduce", 0)  # its preconditions, from the builder's one cofactor expansion
    loc = _affine_stage(b)
    return ReductionTrace("partial", sigma, q, ("affine", loc), tuple(b.steps)), loc


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
