"""Golden digests of serialized traces from fixed seeds.

The digests were recorded before the trace checks moved into the builder;
any change to the trace bytes (steps, witnesses, case tags, matrix table)
shows up here.  The same traces also check the builder's carried inverse
against the defining formula of each step, and gate its inverse count.
"""

import hashlib
import random

import pytest

import congwidth.reduction as reduction
from congwidth.errors import CongwidthError
from congwidth.matrices import SqMatrix, elementary, identity, is_central, mat_inv
from congwidth.reduction import (
    APPEND,
    COMM_LEFT,
    COMM_RIGHT,
    CONJUGATE,
    _Builder,
    reduce_full,
    replay_trace,
    serialize_trace,
    sl2_unit_reduction,
)
from congwidth.rings import Ideal, RingSpec, unit_check

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
    "z3": "6a6ad3e2a40d2edbec50b73610f9f9b53061855bd590f3e875dbc91d0eb6b24c",
    "z4": "d8658d1f596dc2d9a2732e19a64630d42b9380bf3129be1fa0533e63d0c7c900",
    "p2": "d31497e86940614e6ab80d9d3e6c68b84e4c6ea8778c4e54b543e58659fecabd",
    "l5": "fe02df0c0262ffee909124404efeeff3452a44a2ad0153154d0cb9108cf9852e",
}
SL2_F5_DIGEST = "2d1d1767dd5f73ea1b5b6734a4d1b522a40423c36179dc48b4bacc7d748310d1"

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
    "z": "02f1d2f7c078cafad8f0e48c84b03b7a8e43b95672ccab47a0c2bc427422f626",
    "l5": "6ee2bb93601ac70c4379115d7b1a1ff766f2ee135e49bcec3e6e2b036027b6f4",
    "p3": "cae3e394ef029606278e6e70daccd30d0f93cfe3a3747cf669b9df14c8bee22d",
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


def _sl2_outcomes(name, count=120):
    """sl2_unit_reduction on both sides of seeded random non-central elements
    of the congruence subgroup: products of one to three factors, each an
    elementary matrix with entry in the ideal or a diagonal unit matrix."""
    ring, q0, units, coeff = SL2_INFINITE[name]
    q = Ideal(ring, (q0,))
    rng = random.Random(8191)
    out = []
    while len(out) < 2 * count:
        g = identity(ring, 2)
        for _ in range(rng.randint(1, 3)):
            if units and rng.random() < 0.3:
                u = rng.choice(units)
                g = g * SqMatrix(ring, 2, ((u, ring.zero), (ring.zero, unit_check(u))))
            else:
                i, j = rng.choice(((1, 2), (2, 1)))
                g = g * elementary(ring, 2, i, j, q0 * coeff(rng))
        if is_central(g):
            continue
        for side in ("E12", "E21"):
            try:
                out.append(serialize_trace(sl2_unit_reduction(g, q, side)))
            except CongwidthError as exc:
                out.append(f"{type(exc).__name__}: {exc}\n")
    return out


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
        for k, g in enumerate(sl2_f5.elements)
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
        b = _Builder(trace.input, trace.ideal, trace.kind, trace.seed)
        prev = trace.input
        for st in trace.steps:
            b.record(st.op, st.case)
            assert b.g == st.result == _reference_apply_qop(st.op, prev, trace.input)
            assert (b.g * b.ginv).is_identity
            prev = st.result
            steps += 1
    assert steps > 500


def test_reduce_and_replay_invert_once(monkeypatch):
    calls = []
    real = reduction.mat_inv
    monkeypatch.setattr(reduction, "mat_inv", lambda m: calls.append(m) or real(m))
    for name in CLASSES:
        for args in _reduce_inputs(name):
            calls.clear()
            text = serialize_trace(reduce_full(*args))
            assert len(calls) <= 1, f"reduce_full on {name} inverted {len(calls)} matrices"
            calls.clear()
            replay_trace(text)
            assert len(calls) <= 1, f"replay_trace on {name} inverted {len(calls)} matrices"
