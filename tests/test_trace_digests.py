"""Golden digests of serialized traces from fixed seeds.

The digests were recorded before the trace checks moved into the builder;
any change to the trace bytes (steps, witnesses, case tags, matrix table)
shows up here.  The same traces also check the builder's carried inverse
against the defining formula of each step, and gate its inversions (one
cofactor expansion of the input, no characteristic polynomial), its dense
matrix products and ring products (none with a zero operand in a step, a row or
column operation or a stage's RingElement product), the elementary
products it forms, the RingElements made per step, the matrices replay
parses and the matrices serialize and replay render to text.  The dimension-2 shortcut's inputs over
Z and Z[1/5] gate its matrix products and inversions.
"""

import collections
import contextlib
import hashlib
import random
import sys

import pytest

import congwidth.certificate as certificate
import congwidth.matrices as matrices
import congwidth.reduction as reduction
from congwidth.certificate import APPEND, COMM_LEFT, COMM_RIGHT, CONJUGATE, _Builder, replay_trace, serialize_trace
from congwidth.errors import CongwidthError, ReplayMismatch
from congwidth.matrices import SqMatrix, elementary, identity, is_central, mat_inv
from congwidth.reduction import reduce_full, sl2_unit_reduction
from congwidth.rings import Ideal, RingElement, RingSpec, unit_check
from conftest import elements

Z = RingSpec.integers()
P2 = RingSpec.poly_over_fp(2)
P3 = RingSpec.poly_over_fp(3)
L5 = RingSpec.localized_integers(5)

# name -> (ring, n, ideal generator, entry sampler)
CLASSES = {
    "z3": (Z, 3, Z.el(2), lambda rng: Z.el(2 * rng.choice((-3, -2, -1, 1, 2, 3)))),
    "z4": (Z, 4, Z.el(2), lambda rng: Z.el(2 * rng.choice((-3, -2, -1, 1, 2, 3)))),
    "p2": (P2, 3, P2.x(), lambda rng: P2.x() * P2.el([1, rng.randint(0, 1)])),
    "l5": (
        L5, 3, L5.el(2),
        lambda rng: L5.el((2 * rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-1, 0, 1)))),
    ),
}

REDUCE_DIGESTS = {
    "z3": "8b7767be32744d288743b990558691ee940e327add289da5024989443ee13dbf",
    "z4": "5de9c635e392652650268957a72ff7e81760142446997de9b1ce564cf7590cb8",
    "p2": "2d435cb6b07924cd366a6b5427930eff1b664acac770a4bced273570f48fdfbc",
    "l5": "40cef9cdd3731375d2fe522ecea359a7d2dc1bd022f8c5075339da4711aaf40e",
}
SL2_F5_DIGEST = "b666052fa8c581db09c9f85ab1636708c62a42aa861e2975b987f3e6d475b99d"

# The dimension-2 shortcut over infinite rings: name -> (ring, ideal generator,
# units u with u = 1 mod the ideal for diagonal factors, entry coefficient sampler)
SL2_INFINITE = {
    "z": (Z, Z.el(2), (Z.el(-1),), lambda rng: Z.el(rng.choice((-2, -1, 1, 2)))),
    "l5": (
        L5, L5.el(2), (L5.el(5), L5.el((1, -1)), L5.el(-1)),
        lambda rng: L5.el((rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-1, 0, 1)))),
    ),
    "p3": (P3, P3.x(), (), lambda rng: P3.el([rng.randint(1, 2), rng.randint(0, 2)])),
}
# sha256 over both sides of 120 inputs each: serialized traces, or the
# exception's type and message
SL2_INFINITE_DIGESTS = {
    "z": "91689177d093996afbf1be466667ad9a9ce7e42c0b90393cbda74ba71198901f",
    "l5": "5d4a02a0f2eb8a078aa82d2c225f8ca91f76c16ecbf3b751d7fd401bd93896a1",
    "p3": "8abf93df6a0f85b912208db342246dfcf73dfaf15de7133b2b09dd837aae73c3",
}


def _sigma(ring, n, entry, rng, factors=8):
    while True:
        g = identity(ring, n)
        for _ in range(factors):
            i, j = rng.sample(range(1, n + 1), 2)
            g = g * elementary(ring, n, i, j, entry(rng))
        if not is_central(g):
            return g


def _digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _sl2_inputs(name, count=120):
    """count seeded random non-central elements of the congruence subgroup,
    with the ideal: products of one to three factors, each an elementary
    matrix with entry in the ideal or a diagonal unit matrix."""
    ring, q0, units, coeff = SL2_INFINITE[name]
    q = Ideal(ring, (q0,))
    rng = random.Random(8191)
    out = []
    while len(out) < count:
        g = identity(ring, 2)
        for _ in range(rng.randint(1, 3)):
            if units and rng.random() < 0.3:
                u = rng.choice(units)
                g = g * SqMatrix.from_raw(ring, ((u, ring.zero), (ring.zero, unit_check(u))))
            else:
                i, j = rng.choice(((1, 2), (2, 1)))
                g = g * elementary(ring, 2, i, j, q0 * coeff(rng))
        if not is_central(g):
            out.append((g, q))
    return out


def _sl2_outcomes(name):
    """sl2_unit_reduction on both sides of the _sl2_inputs: each serialized
    trace, or the exception's type and message."""
    out = []
    for g, q in _sl2_inputs(name):
        for side in ("E12", "E21"):
            try:
                out.append(serialize_trace(sl2_unit_reduction(g, q, side)))
            except CongwidthError as exc:
                out.append(f"{type(exc).__name__}: {exc}\n")
    return out


def _square_is_zero(s: SqMatrix, mul) -> bool:
    """Whether (s - I)^2 = 0, by the product mul."""
    d = s - identity(s.ring, s.n)
    return mul(d, d) == d - d


def test_sl2_shortcut_decides_on_entries(monkeypatch):
    """Over an infinite ring the shortcut's searches read entries: the only
    matrix product is sigma * sigma in _try_square, and the only inversions
    are the builder's, of its input (the adjugate of its one cofactor
    expansion) and of each congruence witness s with (s - I)^2 != 0
    (otherwise s^-1 = 2I - s)."""
    products, inversions = [], []
    real_mul, real_inv, real_cofactors = SqMatrix.__mul__, certificate.mat_inv, certificate._cofactors
    builder = (certificate._Builder.__init__.__code__, certificate._witness.__code__)

    def counted_mul(self, other):
        products.append(sys._getframe(1).f_code.co_name)
        return real_mul(self, other)

    def counted(real):
        def inverting(*args):
            inversions.append(sys._getframe(1).f_code in builder)
            return real(*args)
        return inverting

    inputs = _sl2_inputs("z") + _sl2_inputs("l5")
    monkeypatch.setattr(SqMatrix, "__mul__", counted_mul)
    for module in (certificate, reduction):
        monkeypatch.setattr(module, "mat_inv", counted(real_inv))
    monkeypatch.setattr(certificate, "_cofactors", counted(real_cofactors))
    cases, witnesses = set(), [0, 0]
    for g, q in inputs:
        for side in ("E12", "E21"):
            products.clear()
            inversions.clear()
            try:
                steps = sl2_unit_reduction(g, q, side).steps
            except CongwidthError:
                steps = ()
            cases.update(st.case.rpartition("|")[2] for st in steps)
            assert products in ([], ["_try_square"]), products
            inverted = sum(not _square_is_zero(st.op.s, real_mul) for st in steps)
            assert all(inversions) and len(inversions) == 1 + inverted  # one builder on either side
            witnesses[0] += inverted
            witnesses[1] += len(steps) - inverted
    assert {"sl2.unit", "sl2.unit.comm", "sl2.comm-upper", "sl2.square"} <= cases
    assert all(witnesses), witnesses  # steps that invert their witness, and steps that do not


def _reduce_inputs(name):
    ring, n, q0, entry = CLASSES[name]
    q = Ideal(ring, (q0,))
    rng = random.Random(4099)
    targets = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return [(_sigma(ring, n, entry, rng), q, targets[k % len(targets)]) for k in range(8)]


@pytest.fixture(scope="module")
def reduce_traces():
    return {name: [reduce_full(*args) for args in _reduce_inputs(name)] for name in CLASSES}


@pytest.fixture(scope="module")
def sl2_f5_traces(sl2_f5, ring_f5):
    q = Ideal.of(ring_f5, 1)
    return [
        sl2_unit_reduction(g, q, side)
        for k, g in enumerate(elements(sl2_f5))
        if k not in sl2_f5.center
        for side in ("E12", "E21")
    ]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_reduce_full_digest(name, reduce_traces):
    assert _digest(serialize_trace(t) for t in reduce_traces[name]) == REDUCE_DIGESTS[name]


def test_sl2_f5_digest(sl2_f5_traces):
    assert _digest(serialize_trace(t) for t in sl2_f5_traces) == SL2_F5_DIGEST


@pytest.mark.parametrize("name", sorted(SL2_INFINITE))
def test_sl2_infinite_ring_digest(name):
    assert _digest(_sl2_outcomes(name)) == SL2_INFINITE_DIGESTS[name]


def _reference_apply_qop(op, g, sigma):
    """The step's image of g by its defining formula; sigma is the trace input."""
    if op.kind == CONJUGATE:
        return op.s * g * mat_inv(op.s)
    if op.kind == COMM_RIGHT:
        return g * op.s * mat_inv(g) * mat_inv(op.s)
    if op.kind == COMM_LEFT:
        return op.s * g * mat_inv(op.s) * mat_inv(g)
    if op.kind == APPEND:
        return g * op.s * (sigma ** op.exp) * mat_inv(op.s)
    raise ValueError(f"unknown op kind {op.kind!r}")


def test_builder_steps_match_reference_and_carry_the_inverse(reduce_traces, sl2_f5_traces):
    traces = [t for ts in reduce_traces.values() for t in ts] + sl2_f5_traces
    steps = 0
    for trace in traces:
        b = _Builder(trace.input, trace.ideal, trace.kind)
        prev = trace.input
        for st in trace.steps:
            fac = st.op.s_factors
            b.record(st.op.kind, st.op.s if fac is None else [(f.i, f.j, f.a) for f in fac.factors], st.case, st.op.exp)
            assert b.g == st.result == _reference_apply_qop(st.op, prev, trace.input)
            assert (b.g * b.ginv).is_identity
            prev = st.result
            steps += 1
    assert steps > 500


def test_no_step_leaves_its_element_unchanged(reduce_traces, sl2_f5_traces):
    """Every recorded step changes the element it acts on: a step whose
    result equals the one before it spends an operation of the budget and a
    step for nothing.  (The affine stage once conjugated E32(x^2) by E31(x),
    which commutes with it, on the seventh p2 input.)"""
    traces = [t for ts in reduce_traces.values() for t in ts] + sl2_f5_traces
    for trace in traces:
        before = [trace.input] + [st.result for st in trace.steps]
        unchanged = [st.case for st, prev in zip(trace.steps, before) if st.result == prev]
        assert not unchanged, f"steps {unchanged} leave the element unchanged"
    assert sum(len(t.steps) for t in traces) > 500


def test_reduce_and_replay_make_few_ring_elements_per_step(ring_element_count):
    # matrices hold payload rows; only entry reads and witness scalars box
    for name in CLASSES:
        for args in _reduce_inputs(name):
            ring_element_count()
            trace = reduce_full(*args)
            made = ring_element_count()
            text = serialize_trace(trace)
            ring_element_count()
            replay_trace(text)
            replayed = ring_element_count()
            steps = len(trace.steps)
            assert steps > 0
            assert made <= 20 * steps, f"reduce_full on {name} made {made} ring elements in {steps} steps"
            assert replayed <= 10 * steps, f"replay_trace on {name} made {replayed} ring elements in {steps} steps"


def test_reduce_and_replay_invert_once(monkeypatch):
    """The builder inverts its input by its one cofactor expansion (the
    adjugate of a determinant-1 input), and nothing calls mat_inv."""
    calls = []
    real_inv, real_cofactors = certificate.mat_inv, certificate._cofactors
    for module in (certificate, reduction):
        monkeypatch.setattr(module, "mat_inv", lambda m: calls.append("mat_inv") or real_inv(m))
    monkeypatch.setattr(certificate, "_cofactors", lambda k, rows: calls.append("_cofactors") or real_cofactors(k, rows))
    for name in CLASSES:
        for args in _reduce_inputs(name):
            calls.clear()
            text = serialize_trace(reduce_full(*args))
            assert calls == ["_cofactors"], f"reduce_full on {name} inverted by {calls}"
            calls.clear()
            replay_trace(text)
            assert calls == ["_cofactors"], f"replay_trace on {name} inverted by {calls}"


def test_reduce_to_affine_expands_the_input_once(monkeypatch):
    """The affine stage's entry point checks its input under the reduce
    policy, through the builder's one cofactor expansion: nothing else
    expands the input's cofactors, under either module's name."""
    calls = []
    for module in (matrices, certificate):
        real = module._cofactors
        monkeypatch.setattr(module, "_cofactors", lambda k, rows, real=real: calls.append(rows) or real(k, rows))
    for sigma, q, _ in _reduce_inputs("z3"):
        calls.clear()
        trace, loc = reduction.reduce_to_affine(sigma, q)
        assert trace.kind == "partial" and trace.target == ("affine", loc)
        assert calls == [sigma.payload], f"reduce_to_affine expanded {len(calls)} cofactor matrices"


def test_reduce_and_replay_expand_no_loop_determinant(monkeypatch):
    """For n <= 4 the NotSL check reads the determinant of the builder's
    cofactor kernel: the characteristic polynomial _charpoly never runs."""
    calls = []
    real = matrices._charpoly
    monkeypatch.setattr(matrices, "_charpoly", lambda k, rows: calls.append(rows) or real(k, rows))
    for name in CLASSES:
        for args in _reduce_inputs(name):
            text = serialize_trace(reduce_full(*args))
            assert not calls, f"reduce_full on {name} ran {len(calls)} characteristic polynomials"
            replay_trace(text)
            assert not calls, f"replay_trace on {name} ran {len(calls)} characteristic polynomials"


def test_reduce_and_replay_make_no_dense_products(monkeypatch):
    """Every reduce commutator has one elementary factor and is a rank-one
    update, so neither run multiplies two matrices.  The ring products per
    step, the input's determinant and inverse included, stay under 5 n^2:
    on these inputs at most 26.0 (n = 3) and 44.2 (n = 4), against at least
    78.7 and 177.9 with two dense products per commutator."""
    inputs = [(args, CLASSES[name][1]) for name in CLASSES for args in _reduce_inputs(name)]
    dense, muls = [], [0]
    real_rows, real_kernel = matrices._mul_rows, matrices._mul_kernel
    for module in (matrices, certificate):
        monkeypatch.setattr(module, "_mul_rows", lambda *a: dense.append(a) or real_rows(*a))
    # the straight-line product kernels, however they are reached
    monkeypatch.setattr(matrices, "_mul_kernel", lambda n: lambda *a: dense.append(a) or real_kernel(n)(*a))
    for kernel in {CLASSES[name][0].kernel for name in CLASSES}:
        def counted(a, b, real=kernel.mul):
            muls[0] += 1
            return real(a, b)

        monkeypatch.setitem(vars(kernel), "mul", counted)
    for args, n in inputs:
        muls[0] = 0
        trace = reduce_full(*args)
        made, steps = muls[0], len(trace.steps)
        muls[0] = 0
        replay_trace(serialize_trace(trace))
        assert len(dense) == 0, f"{len(dense)} dense products in {steps} steps"
        assert made <= 5 * n * n * steps, f"reduce_full made {made} ring products in {steps} steps (n = {n})"
        assert muls[0] <= 5 * n * n * steps, f"replay_trace made {muls[0]} ring products in {steps} steps (n = {n})"


def test_reduce_and_replay_multiply_no_zero_operand(monkeypatch):
    """The builder's steps (every function of certificate.py), the searches
    of reduction.py and the row and column operations _add_row and _add_col
    make no ring product with a zero operand, and the searches make none
    through the kernel; each product's caller is read from the frame, a
    comprehension's as the function around it."""
    row_ops = {matrices._add_row.__code__: "_add_row", matrices._add_col.__code__: "_add_col"}
    files = {certificate.__file__: "certificate", reduction.__file__: "reduction"}
    products, zero_operand = collections.Counter(), collections.Counter()
    for kernel in {CLASSES[name][0].kernel for name in CLASSES}:
        def counted(a, b, real=kernel.mul, is_zero=kernel.is_zero):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            code = frame.f_code
            caller = row_ops.get(code, files.get(code.co_filename))
            if caller:
                products[caller] += 1
                zero_operand[caller] += is_zero(a) or is_zero(b)
            return real(a, b)

        monkeypatch.setitem(vars(kernel), "mul", counted)
    for name in CLASSES:
        for args in _reduce_inputs(name):
            replay_trace(serialize_trace(reduce_full(*args)))
    assert set(products) == {"_add_row", "_add_col", "certificate"}, products
    assert not +zero_operand, f"zero-operand products {dict(zero_operand)} of {dict(products)}"


def test_reduce_and_replay_multiply_no_zero_ring_element(monkeypatch):
    """The stages' RingElement products (the affine stage's shift and Bezout
    multipliers, the stable-range shift's t_i a_n^2) skip zero operands too;
    each product's caller is read from the frame, a comprehension's as the
    function around it."""
    products, zero_operand = collections.Counter(), collections.Counter()
    real = RingElement.__mul__

    def counted(a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        if frame.f_code.co_filename in (certificate.__file__, reduction.__file__):
            products[frame.f_code.co_name] += 1
            zero_operand[frame.f_code.co_name] += a.is_zero or b.is_zero
        return real(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    for name in CLASSES:
        for args in _reduce_inputs(name):
            replay_trace(serialize_trace(reduce_full(*args)))
    assert products, "no RingElement product from reduction.py or certificate.py was seen"
    assert not +zero_operand, f"zero-operand products {dict(zero_operand)} of {dict(products)}"


def test_reduce_and_replay_multiply_each_witness_once(monkeypatch):
    calls = []
    real = certificate.ElemFactorization.of
    monkeypatch.setattr(certificate.ElemFactorization, "of", staticmethod(lambda *a: calls.append(a) or real(*a)))
    for name in CLASSES:
        for args in _reduce_inputs(name):
            calls.clear()
            trace = reduce_full(*args)
            elem = sum(1 for st in trace.steps if st.op.s_member == "elem")
            assert elem > 0 and len(calls) == elem, f"reduce_full on {name}: {len(calls)} products for {elem} steps"
            text = serialize_trace(trace)
            calls.clear()
            replay_trace(text)
            assert len(calls) == elem, f"replay_trace on {name}: {len(calls)} products for {elem} steps"


def test_replay_parses_the_input_and_congruence_witnesses_only(monkeypatch, sl2_f5_traces):
    calls = []
    real = certificate.parse_matrix
    monkeypatch.setattr(certificate, "parse_matrix", lambda text: calls.append(text) or real(text))
    for name in CLASSES:
        for args in _reduce_inputs(name):
            text = serialize_trace(reduce_full(*args))
            calls.clear()
            replay_trace(text)
            assert len(calls) == 1, f"replay_trace on {name} parsed {len(calls)} matrices"
    for trace in sl2_f5_traces:
        text = serialize_trace(trace)
        calls.clear()
        replay_trace(text)
        assert len(calls) <= 1 + len(trace.steps), f"replay_trace parsed {len(calls)} matrices"


def _count_renders(monkeypatch) -> list:
    """The matrices rendered to text from now on: the reads of SqMatrix.text
    that find no text memoized in the matrix's __dict__."""
    rendered, text = [], SqMatrix.text.fget

    def counted(m):
        if "text" not in m.__dict__:
            rendered.append(m)
        return text(m)

    monkeypatch.setattr(SqMatrix, "text", property(counted))
    return rendered


def test_reduce_and_replay_format_each_matrix_once(monkeypatch):
    """A trace of s steps, c of them congruence steps, records 1 + s + c
    matrices: the input, each step's result and each congruence witness (an
    elementary witness is written as its factors alone).  Serializing
    renders each once, a second serialization renders none, and replay
    renders each result once, in the step check whose text the byte
    comparison reuses.  The trace's own text is kept too: a second
    serialization returns the same string."""
    traces = [(name, reduce_full(*args)) for name in CLASSES for args in _reduce_inputs(name)]
    for g, q in _sl2_inputs("l5", 20):
        with contextlib.suppress(CongwidthError):
            traces.append(("sl2 l5", sl2_unit_reduction(g, q, "E12")))
    rendered = _count_renders(monkeypatch)
    for name, trace in traces:
        matrices = 1 + len(trace.steps) + sum(st.op.s_factors is None for st in trace.steps)
        rendered.clear()
        text = serialize_trace(trace)
        assert len(rendered) == matrices, f"serialize_trace on {name} rendered {len(rendered)} matrices"
        rendered.clear()
        assert serialize_trace(trace) is text and not rendered, f"a second serialize_trace on {name} rendered"
        replay_trace(text)
        assert len(rendered) <= matrices, f"replay_trace on {name} rendered {len(rendered)} matrices"
    assert any(st.op.s_factors is None for _, trace in traces for st in trace.steps)


def test_flipped_result_entry_is_refused_after_serializing():
    """Text is rendered from a matrix's own entries, never taken from the
    input: a result whose recorded entry is changed after the trace has been
    serialized (and every matrix text kept) is still a replay mismatch."""
    for name in CLASSES:
        ring, n = CLASSES[name][:2]
        k = ring.kernel
        for args in _reduce_inputs(name):
            trace = reduce_full(*args)
            text = serialize_trace(trace)
            steps = len(trace.steps)
            replay_trace(text)
            for step in range(1, steps + 1):
                lines = text.split("\n")
                row = 7 + steps + step * (n + 2) + 2  # first row of M(step), the result of the step
                entries = lines[row].split(" ")
                entries[0] = k.format(k.add(k.parse(entries[0]), k.one))
                lines[row] = " ".join(entries)
                with pytest.raises(ReplayMismatch, match=f"replay mismatch at step {step}$"):
                    replay_trace("\n".join(lines))
