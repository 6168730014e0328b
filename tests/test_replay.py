"""Replay as a trust boundary: inputs, witnesses and malformed files.

Each repro below was accepted (or crashed with a traceback) before the
trace invariants moved into the builder.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congwidth.certificate as certificate
from congwidth.cli import main
from congwidth.errors import (
    CongwidthError,
    NotCongruent,
    NotSL,
    ReplayMismatch,
    TraceFormatError,
    UnsupportedRing,
    ZeroIdeal,
)
from congwidth.certificate import (
    APPEND,
    CONJUGATE,
    ElemFactor,
    ElemFactorization,
    QOperation,
    ReductionTrace,
    TraceStep,
    replay_trace,
    serialize_trace,
)
from congwidth.matrices import SqMatrix, conjugate, elementary, identity, is_central, mat_inv
from congwidth.reduction import reduce_full, relocate_elementary, sl2_unit_reduction
from congwidth.rings import Ideal, RingSpec
from test_trace_digests import CLASSES, _reduce_inputs

Z = RingSpec.integers()
L5 = RingSpec.localized_integers(5)

PARTIAL_TRACE = """congwidth-trace v1
kind partial
seed 0
ring Z
n 3
ideal 2
target 1 2
input M0
output M0
matrices 1
M0
3 Z
5 0 0
0 1 0
0 0 1
end
"""


def _golden_text() -> str:
    return serialize_trace(reduce_full(elementary(Z, 3, 1, 3, 2), Ideal.of(Z, 2), (1, 2)))


def _replay_cli(tmp_path, text, capsys):
    path = tmp_path / "t.trace"
    path.write_text(text)
    rc = main(["replay", "--in", str(path)])
    return rc, capsys.readouterr().err


# -- inputs are re-checked -------------------------------------------------------------


def test_replay_rejects_noncongruent_input():
    # E13(1) is not = I mod 2, yet [E13(1), E32(2)] = E12(2) sits in the ideal
    q = Ideal.of(Z, 2)
    part = relocate_elementary(elementary(Z, 3, 1, 3, 1), q, (1, 2))
    assert [s.case for s in part.steps] == ["relocate.same-row"]
    text = serialize_trace(ReductionTrace("reduce", part.input, q, (1, 2), part.steps, 0))
    with pytest.raises(NotCongruent):
        replay_trace(text)


def test_sl2_rejects_determinant_five():
    # over Z[1/5] the matrix is = I mod 2 but has det 5
    sigma = SqMatrix.from_raw(L5, [[5, 0], [2, 1]])
    with pytest.raises(NotSL):
        sl2_unit_reduction(sigma, Ideal.of(L5, 2), "E12")


# -- witness policy per trace kind -------------------------------------------------------


def test_reduce_steps_need_elementary_witnesses():
    text = _golden_text()
    stripped = text.replace("smem=elem sfac=3,2:2", "smem=congruence sfac=-")
    assert stripped != text
    with pytest.raises(ReplayMismatch, match="witnesses"):
        replay_trace(stripped)


def test_sl2_conjugator_must_have_determinant_one():
    q = Ideal.of(L5, 2)
    trace = sl2_unit_reduction(SqMatrix.from_raw(L5, [[1, 0], [2, 1]]), q, "E12")
    flip = SqMatrix.from_raw(L5, [[-1, 0], [0, 1]])  # = I mod 2, det -1
    out = flip * trace.output * mat_inv(flip)
    extra = TraceStep(QOperation(CONJUGATE, flip), out, trace.word_length, "sl2.unit.conj")
    bad = ReductionTrace("sl2", trace.input, q, "E12", trace.steps + (extra,), 0)
    replay_trace(serialize_trace(trace))
    with pytest.raises(ReplayMismatch, match="step 4"):
        replay_trace(serialize_trace(bad))


def test_sl2_appended_letter_is_sigma_to_plus_or_minus_one():
    # sigma * sigma^2 = sigma^3 was accepted as a two-letter word
    q = Ideal.of(Z, 2)
    sigma = SqMatrix.from_raw(Z, [[1, 2], [0, 1]])

    def append(exp):
        op = QOperation(APPEND, identity(Z, 2), None, exp)
        step = TraceStep(op, sigma ** (1 + exp), 2, "sl2.square")
        return serialize_trace(ReductionTrace("sl2", sigma, q, "E12", (step,), 0))

    assert replay_trace(append(1)).output == sigma * sigma
    with pytest.raises(ReplayMismatch, match="step 1"):
        replay_trace(append(2))


# Self-consistent forgeries: every recorded result is what the builder computes
# once the one check they break is switched off, and such a builder accepts them.


def test_reduce_witness_factor_outside_the_ideal_is_refused(tmp_path, capsys):
    # a first conjugator E12(1) over Z with ideal 2, then a genuine reduction of
    # its result: replay ok steps=3 word_length=4 without the entry check
    q = Ideal.of(Z, 2)
    sigma = elementary(Z, 3, 2, 3, 2)
    fac = ElemFactorization.of(Z, 3, (ElemFactor(1, 2, Z.el(1)),))
    h = conjugate(sigma, fac.target)
    first = TraceStep(QOperation(CONJUGATE, fac.target, fac), h, 1, "affine.split.conj")
    text = serialize_trace(ReductionTrace("reduce", sigma, q, (1, 2), (first,) + reduce_full(h, q, (1, 2)).steps, 0))
    message = "step 1: witness factor entry 1 not a nonzero ideal element"
    with pytest.raises(ReplayMismatch, match=f"^{message}$"):
        replay_trace(text)
    assert _replay_cli(tmp_path, text, capsys) == (1, f"error: {message}\n")


def test_sl2_appended_exponent_two_is_refused(tmp_path, capsys):
    # sigma^2, then an exp=2 letter recorded as sigma^2 sigma^-1, the result a
    # builder that read any exponent other than 1 as -1 computes
    q = Ideal.of(Z, 2)
    sigma = SqMatrix.from_raw(Z, [[1, 2], [0, 1]])
    steps = tuple(TraceStep(QOperation(APPEND, identity(Z, 2), None, exp), out, wl, "sl2.square")
                  for exp, out, wl in ((1, sigma * sigma, 2), (2, sigma, 3)))
    text = serialize_trace(ReductionTrace("sl2", sigma, q, "E12", steps, 0))
    message = "step 2: an appended letter conjugates sigma^1 or sigma^-1, not sigma^2"
    with pytest.raises(ReplayMismatch) as refusal:
        replay_trace(text)
    assert str(refusal.value) == message
    assert _replay_cli(tmp_path, text, capsys) == (1, f"error: {message}\n")


# -- budgets, checked when the trace is taken -----------------------------------------------


def test_reduce_replay_refuses_a_tenth_step():
    # ten conjugations by E21(2), each recorded with its correct result: the
    # ledger stays at one letter, so only the step budget is exceeded
    q = Ideal.of(Z, 2)
    sigma = elementary(Z, 3, 1, 3, 2)
    fac = ElemFactorization.of(Z, 3, (ElemFactor(2, 1, Z.el(2)),))
    steps, g = [], sigma
    for _ in range(10):
        g = conjugate(g, fac.target)
        steps.append(TraceStep(QOperation(CONJUGATE, fac.target, fac), g, 1, "affine.split.conj"))
    text = serialize_trace(ReductionTrace("reduce", sigma, q, (1, 2), tuple(steps), 0))
    with pytest.raises(ReplayMismatch, match=r"^10 steps exceed the budget 9$"):
        replay_trace(text)
    # nine of them pass the budget and stop at the next invariant
    nine = serialize_trace(ReductionTrace("reduce", sigma, q, (1, 2), tuple(steps[:9]), 0))
    with pytest.raises(ReplayMismatch, match="^stage affine used 9 operations$"):
        replay_trace(nine)


def test_reduce_replay_refuses_an_output_off_the_target():
    # a genuine reduction to (1, 2) whose target line names (1, 3): every step
    # and budget holds, and only the output's position is refused
    text = serialize_trace(reduce_full(elementary(Z, 3, 1, 3, 2), Ideal.of(Z, 2), (1, 2)))
    assert "\ntarget 1 2\n" in text
    with pytest.raises(ReplayMismatch, match=r"^output is not supported exactly at \(1, 3\)$"):
        replay_trace(text.replace("\ntarget 1 2\n", "\ntarget 1 3\n"))


def test_sl2_replay_refuses_a_fifth_letter():
    # sigma times four appended letters sigma: the word sigma^5 has five letters
    q = Ideal.of(Z, 2)
    sigma = SqMatrix.from_raw(Z, [[1, 2], [0, 1]])
    steps = tuple(TraceStep(QOperation(APPEND, identity(Z, 2), None, 1), sigma ** (k + 1), k + 1, "sl2.square")
                  for k in range(1, 5))
    with pytest.raises(ReplayMismatch, match="^word length 5 exceeds 4$"):
        replay_trace(serialize_trace(ReductionTrace("sl2", sigma, q, "E12", steps, 0)))
    assert replay_trace(serialize_trace(ReductionTrace("sl2", sigma, q, "E12", steps[:3], 0))).word_length == 4


# -- refusals of the reduction entry points ------------------------------------------------


def test_reductions_refuse_the_zero_ideal():
    zero = Ideal.of(Z, 0)
    with pytest.raises(ZeroIdeal, match="^reduction ideal must be nonzero$"):
        reduce_full(elementary(Z, 3, 1, 3, 2), zero, (1, 2))
    with pytest.raises(ZeroIdeal, match="^reduction ideal must be nonzero$"):
        sl2_unit_reduction(elementary(Z, 2, 1, 2, 2), zero, "E12")


def test_the_unit_shortcut_is_for_dimension_two():
    with pytest.raises(UnsupportedRing, match="dimension-2"):
        sl2_unit_reduction(elementary(Z, 3, 1, 3, 2), Ideal.of(Z, 2), "E12")


@pytest.mark.parametrize("target", [(1, 1), (0, 2), (1, 4)])
def test_reduce_full_refuses_a_bad_target(target):
    with pytest.raises(ValueError, match=rf"^bad target \({target[0]}, {target[1]}\)$"):
        reduce_full(elementary(Z, 3, 1, 3, 2), Ideal.of(Z, 2), target)


def test_sl2_unit_reduction_refuses_a_bad_side():
    with pytest.raises(ValueError, match="^side must be 'E12' or 'E21'$"):
        sl2_unit_reduction(elementary(Z, 2, 1, 2, 2), Ideal.of(Z, 2), "E13")


# -- malformed files ------------------------------------------------------------------


def test_partial_kind_does_not_replay(tmp_path, capsys):
    with pytest.raises(TraceFormatError, match="kind"):
        replay_trace(PARTIAL_TRACE)
    rc, err = _replay_cli(tmp_path, PARTIAL_TRACE, capsys)
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


def _cut_after_m0(text: str, n: int) -> str:
    lines = text.split("\n")
    m0 = lines.index("M0")
    return "\n".join(lines[: m0 + 5]).replace("\nn 3\n", f"\nn {n}\n")


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda t: "\n".join(t.splitlines()[:9]) + "\n", id="truncated"),
        pytest.param(lambda t: t.replace(" len=2", ""), id="missing-len"),
        pytest.param(lambda t: t.replace("s=M1", "s=M9"), id="reference-out-of-range"),
        pytest.param(lambda t: t.replace("\nn 3\n", "\nn -1\n"), id="negative-dimension"),
        # cut after M0: its rows and an empty line still read as a 3 x 3 matrix
        pytest.param(lambda t: _cut_after_m0(t, 4), id="header-n-above-input"),
        pytest.param(lambda t: _cut_after_m0(t, 100000), id="header-n-far-above-input"),
        pytest.param(lambda t: _cut_after_m0(t, 4).replace("sfac=3,2:2", "sfac=4,1:2"), id="factor-outside-input"),
    ],
)
def test_malformed_trace_is_a_format_error(mutate, tmp_path, capsys):
    bad = mutate(_golden_text())
    with pytest.raises(TraceFormatError):
        replay_trace(bad)
    rc, err = _replay_cli(tmp_path, bad, capsys)
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new, error",
    [
        pytest.param("\n1 4 0\n", "\n1 04 0\n", ReplayMismatch, id="leading-zero-entry"),
        pytest.param("\nM1\n", "\x0bM1\n", TraceFormatError, id="vertical-tab-line-break"),
    ],
)
def test_only_canonical_bytes_replay(old, new, error, tmp_path, capsys):
    # both encode the same trace and were accepted: 04 parses as 4, and
    # splitlines breaks lines at a vertical tab
    text = _golden_text()
    assert text.count(old) == 1
    bad = text.replace(old, new)
    with pytest.raises(error):
        replay_trace(bad)
    rc, err = _replay_cli(tmp_path, bad, capsys)
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line, error, message",
    [
        pytest.param(17, TraceFormatError, "line 18: expected '1 0,1,1 0,1,1\\n'", id="input-entry"),
        pytest.param(22, ReplayMismatch, "replay mismatch at step 1", id="step-entry"),
    ],
)
def test_f2_entry_with_a_trailing_zero_is_refused(line, error, message, tmp_path, capsys):
    # 1,0 parses as the element 1 of F2[x]; only the byte comparison refuses it
    lines = serialize_trace(reduce_full(*_reduce_inputs("p2")[0])).split("\n")
    assert lines[line].startswith("1 ")
    lines[line] = "1,0" + lines[line][1:]
    bad = "\n".join(lines)
    with pytest.raises(error) as refusal:
        replay_trace(bad)
    assert str(refusal.value) == message
    rc, err = _replay_cli(tmp_path, bad, capsys)
    assert rc == 1 and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "trace, entry, message",
    [
        pytest.param(lambda: reduce_full(*_reduce_inputs("l5")[0]), "2*3^1",
                     "literal base 3 does not match ring prime 5", id="loc-literal-base"),
        pytest.param(lambda: sl2_unit_reduction(SqMatrix.from_raw(RingSpec.integers_mod(5), [[3, 1], [2, 1]]),
                                                Ideal.of(RingSpec.integers_mod(5), 1), "E12"), "7",
                     "residue 7 out of range for Z/5", id="zmod-residue"),
    ],
)
def test_input_literal_outside_the_ring_is_a_format_error(trace, entry, message, tmp_path, capsys):
    # the input's first entry rewritten: the ring's kernel refuses the literal
    lines = serialize_trace(trace()).split("\n")
    row = lines.index("M0") + 2
    lines[row] = " ".join([entry] + lines[row].split(" ")[1:])
    bad = "\n".join(lines)
    with pytest.raises(TraceFormatError, match=f"^malformed trace: {re.escape(message)}$"):
        replay_trace(bad)
    assert _replay_cli(tmp_path, bad, capsys) == (1, f"error: malformed trace: {message}\n")


def test_format_error_names_the_first_differing_line():
    lines = _golden_text().split("\n")
    lines[2] = "seed +0"
    with pytest.raises(TraceFormatError, match=r"line 3: expected 'seed 0\\n'"):
        replay_trace("\n".join(lines))
    with pytest.raises(TraceFormatError, match="line 28: expected the end of the file"):
        replay_trace(_golden_text() + "\n")
    with pytest.raises(TraceFormatError, match=r"line 27: expected 'end\\n'"):
        replay_trace(_golden_text()[:-1])


def _matrix_lines(text: str, n: int):
    """The lines of a reduce trace and the line index of each matrix label Mm."""
    lines = text.split("\n")
    steps = sum(ln.startswith("step ") for ln in lines)
    return lines, steps, [10 + steps + m * (n + 2) for m in range(2 * steps + 1)]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_changed_witness_matrix_is_a_replay_mismatch_at_its_step(name):
    """Replay parses no elementary witness matrix: a changed entry of the
    witness M(2k - 1) of step k differs from the text of the witness the
    rebuild forms, which reports it at step k, wherever the entry is."""
    ring, n = CLASSES[name][:2]
    k = ring.kernel
    for args in _reduce_inputs(name):
        text = serialize_trace(reduce_full(*args))
        lines, steps, labels = _matrix_lines(text, n)
        for step in range(1, steps + 1):
            bad = list(lines)
            row, col = labels[2 * step - 1] + 2 + step % n, (step + 1) % n  # one entry of M(2 step - 1)
            entries = bad[row].split(" ")
            entries[col] = k.format(k.add(k.parse(entries[col]), k.one))
            bad[row] = " ".join(entries)
            with pytest.raises(ReplayMismatch, match=f"^replay mismatch at step {step}$"):
                replay_trace("\n".join(bad))


def test_two_changed_step_matrices_are_refused_at_the_earlier_step():
    """The rebuild checks each step's witness text before the next step's
    result: a changed witness of step 1 is reported at step 1, not at the
    changed result of a later step."""
    ring, n = CLASSES["z3"][:2]
    k = ring.kernel
    for args in _reduce_inputs("z3"):
        lines, steps, labels = _matrix_lines(serialize_trace(reduce_full(*args)), n)
        for later in range(2, steps + 1):
            bad = list(lines)
            for m in (1, 2 * later):  # the witness M1 of step 1, the result of step `later`
                entries = bad[labels[m] + 2].split(" ")
                entries[0] = k.format(k.add(k.parse(entries[0]), k.one))
                bad[labels[m] + 2] = " ".join(entries)
            with pytest.raises(ReplayMismatch, match="^replay mismatch at step 1$"):
                replay_trace("\n".join(bad))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_changed_matrix_label_is_a_format_error_at_its_line(name):
    """Replay locates matrices by position, not by label: a changed label
    line is a format error that names the line and the label expected."""
    n = CLASSES[name][1]
    for args in _reduce_inputs(name)[:2]:
        lines, _, labels = _matrix_lines(serialize_trace(reduce_full(*args)), n)
        for m, line in enumerate(labels):
            assert lines[line] == f"M{m}"
            bad = lines[:line] + [f"M{m + 1}"] + lines[line + 1:]
            message = f"line {line + 1}: expected {repr(f'M{m}' + chr(10))}"
            with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
                replay_trace("\n".join(bad))


def test_replay_stops_at_the_first_step_whose_result_differs(monkeypatch):
    # each copy of a commutator step doubles the length of the entries: the
    # rebuild must stop at the first copy, not run all thirty
    lines = CORPUS[0].split("\n")
    k = next(k for k, ln in enumerate(lines) if ln.startswith("step kind=CommRight"))
    bad = "\n".join(lines[: k + 1] + [lines[k]] * 30 + lines[k + 1:])
    recorded = []
    real = certificate._Builder.record

    def record(self, kind, witness, case, exp=1):
        recorded.append(case)
        assert len(recorded) <= k - 6, "the rebuild went past the first repeated step"
        real(self, kind, witness, case, exp)

    monkeypatch.setattr(certificate._Builder, "record", record)
    with pytest.raises(ReplayMismatch, match=f"replay mismatch at step {k - 6}$"):
        replay_trace(bad)


def _sl2_text() -> str:
    trace = sl2_unit_reduction(SqMatrix.from_raw(L5, [[1, 0], [2, 1]]), Ideal.of(L5, 2), "E12")
    return serialize_trace(trace)


@pytest.mark.parametrize(
    "kind, old, new",
    [
        pytest.param("reduce", " sfac=3,2:2", " sfac=3,2:2 foo=1", id="unknown-key"),
        pytest.param("reduce", " sfac=3,2:2", " sfac=3,2:2 exp=3", id="exp-on-commright"),
        pytest.param("sl2", "smem=congruence sfac=-", "smem=congruence sfac=1,2:2", id="sfac-on-congruence"),
        pytest.param("reduce", " case=", " case=bogus case=", id="repeated-key"),
    ],
)
def test_step_line_carries_exactly_the_serialized_keys(kind, old, new, tmp_path, capsys):
    text = _golden_text() if kind == "reduce" else _sl2_text()
    assert old in text
    bad = text.replace(old, new, 1)
    with pytest.raises(TraceFormatError):
        replay_trace(bad)
    rc, err = _replay_cli(tmp_path, bad, capsys)
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "kind, tag, message",
    [
        pytest.param("reduce", "smem=elem", r"^step 1: reduce steps need 'elem' witnesses$", id="reduce"),
        pytest.param("sl2", "smem=congruence", r"^line 9: expected 'step .* smem=congruence ", id="sl2"),
    ],
)
def test_unknown_witness_tag_is_refused(kind, tag, message, tmp_path, capsys):
    # the refusal names what the trace kind needs, not a tag the file never held
    text = _golden_text() if kind == "reduce" else _sl2_text()
    assert tag in text
    bad = text.replace(tag, "smem=foo", 1)
    with pytest.raises(CongwidthError, match=message):
        replay_trace(bad)
    rc, err = _replay_cli(tmp_path, bad, capsys)
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


def _fuzz_corpus() -> list[str]:
    rng = random.Random(5)
    q = Ideal.of(Z, 2)
    sigma = identity(Z, 3)
    while is_central(sigma):
        for _ in range(6):
            i, j = rng.sample(range(1, 4), 2)
            sigma = sigma * elementary(Z, 3, i, j, 2 * rng.choice((-2, -1, 1, 2)))
    F5 = RingSpec.integers_mod(5)
    pair = SqMatrix.from_raw(F5, [[3, 1], [2, 1]])  # the pair search: Append steps
    return [
        serialize_trace(reduce_full(sigma, q, (2, 3))),
        serialize_trace(sl2_unit_reduction(SqMatrix.from_raw(L5, [[1, 2], [0, 1]]), Ideal.of(L5, 2), "E21")),
        serialize_trace(sl2_unit_reduction(pair, Ideal.of(F5, 1), "E12")),
    ]


CORPUS = _fuzz_corpus()


def _mutants(text: str):
    lines = text.splitlines(keepends=True)
    return st.one_of(
        st.integers(0, len(text)).map(lambda k: text[:k]),
        st.integers(0, len(lines) - 1).map(lambda k: "".join(lines[:k] + lines[k + 1:])),
        st.sampled_from(
            [
                (k, t)
                for k, ln in enumerate(lines)
                if ln.startswith("step ")
                for t in range(1, len(ln.split()))
            ]
        ).map(
            lambda kt: "".join(
                lines[: kt[0]]
                + [" ".join(w for m, w in enumerate(lines[kt[0]].split()) if m != kt[1]) + "\n"]
                + lines[kt[0] + 1:]
            )
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_trace_is_rejected_or_unchanged(data):
    text = data.draw(st.sampled_from(CORPUS))
    mutant = data.draw(_mutants(text))
    try:
        again = replay_trace(mutant)
    except CongwidthError:
        return
    assert serialize_trace(again) == text


def _byte_flips(text: str):
    """One bit of one byte flipped; the file is read back as latin-1."""
    data = text.encode("latin-1")
    return st.tuples(st.integers(0, len(data) - 1), st.integers(0, 7)).map(
        lambda kb: (data[: kb[0]] + bytes([data[kb[0]] ^ (1 << kb[1])]) + data[kb[0] + 1:]).decode("latin-1")
    )


def _value_swaps(text: str):
    """The values of one key swapped between two step lines."""
    lines = text.splitlines(keepends=True)
    steps = {k: dict(tok.split("=", 1) for tok in ln.split()[1:]) for k, ln in enumerate(lines) if ln.startswith("step ")}

    def swap(choice):
        a, b, key = choice
        out = list(lines)
        for k, other in ((a, b), (b, a)):
            attrs = dict(steps[k], **{key: steps[other][key]})
            out[k] = "step " + " ".join(f"{kk}={v}" for kk, v in attrs.items()) + "\n"
        return "".join(out)

    return st.sampled_from(
        [(a, b, key) for a in steps for b in steps if a < b for key in steps[a] if key in steps[b]]
    ).map(swap)


def _certified(trace: ReductionTrace):
    """What a trace certifies.  Its labels are left out: the seed, the
    ideal's generators (the ideal is kept) and the case tags (a reduce trace
    keeps its stage counts)."""
    steps = tuple((s.op, s.result, s.word_length) for s in trace.steps)
    stages = trace.stage_counts() if trace.kind == "reduce" else None
    return trace.kind, trace.input, trace.ideal.canonical, trace.target, steps, stages


CERTIFIED = [_certified(replay_trace(text)) for text in CORPUS]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flipped_or_swapped_trace_is_rejected_or_certifies_the_same(data):
    k = data.draw(st.integers(0, len(CORPUS) - 1))
    mutant = data.draw(st.one_of(_byte_flips(CORPUS[k]), _value_swaps(CORPUS[k])))
    try:
        again = replay_trace(mutant)
    except CongwidthError:
        return
    # only canonical bytes replay; a changed label leaves the same certificate
    assert serialize_trace(again) == mutant
    assert _certified(again) == CERTIFIED[k]
