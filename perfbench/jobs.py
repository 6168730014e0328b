"""Inputs, jobs and correctness gates shared by the timed and traced runs.

Every input is generated here from the workload seed; the library only
receives the generated matrices, ideals, targets and config files.  The
gates check outputs with code of their own rather than trusting the
library's validator, and return a list of problems (empty when correct).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from congwidth import Ideal, RingSpec, elementary, identity, is_central
from congwidth.census import enumerate_sl, sl_order, width_census_csv
from congwidth.norms import (
    FiltrationChain,
    MatrixGroupDomain,
    axiom_harness,
    conjugation_closure,
    filtration_norm,
    word_norm_eval,
)
from congwidth.reduction import reduce_full, replay_trace, serialize_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MAX_STEPS = 9
MAX_WORD = 512
STAGE_BOUNDS = {"affine": 4, "translate": 1, "single": 1, "relocate": 3}
CLI_TIMEOUT_S = 60.0  # a child past this is killed and its job fails

Z = RingSpec.integers()
P2 = RingSpec.poly_over_fp(2)
L5 = RingSpec.localized_integers(5)

# Certificate job classes: ring, dimension, ideal.  z3 is the paper's
# headline case; the other three reach the ring layer through its other
# kernels, so a Z-only fast path that slows them shows up.
REDUCE_CLASSES = {
    "z3": (Z, 3, Ideal.of(Z, 2)),
    "z4": (Z, 4, Ideal.of(Z, 2)),
    "poly3": (P2, 3, Ideal.of(P2, [0, 1])),
    "loc3": (L5, 3, Ideal.of(L5, 2)),
}
# Fixed proportions, shuffled per cycle: z3 is 11 of every 20 jobs.
REDUCE_CYCLE = ["z3"] * 11 + ["z4"] * 3 + ["poly3"] * 3 + ["loc3"] * 3
REDUCE_FACTORS = 10

# Census groups: (group, ideal).  sl3f2, the acceptance census, splits its
# time between table build and BFS; sl2f5 spends a little more in BFS;
# sl2z8 is almost all table build, over a non-field ring with a proper
# ideal.  A table-build gain that costs BFS therefore shows.
CENSUS_JOBS = {
    "sl3f2": ("SL3,F2", "1"),
    "sl2f5": ("SL2,F5", "1"),
    "sl2z8": ("SL2,Z/8", "2"),
}
CENSUS_SIGMAS = 64  # sigma per group in a timed census run

# Norm jobs: config bodies; samples and harness seed are appended per job.
NORM_JOBS = {
    "filtration": "tag=filtration\nring=Z\nn=3\nideal=2\ncap=64\n",
    "word": "tag=word\ngroup=SL2,F5\n",
}
NORM_SAMPLES = 1000
# Harness seeds whose CLI report digests were recorded at the seed commit.
NORM_HARNESS_SEEDS = tuple(range(8))
# A timed run splits each norm's 1000 samples into harness calls:
# name -> samples per call.  Word calls are 20x cheaper per sample, so they
# are larger and fewer; 40 filtration calls to 5 word calls keep the
# latency p90 inside the filtration class instead of on a gap between two.
NORM_CHUNK = {"filtration": 25, "word": 200}
# Harness seeds of those calls; their report digests were recorded too.
NORM_CHUNK_SEEDS = tuple(range(64))


def expected() -> dict:
    """Output digests recorded at the seed commit by record_expected.py."""
    return json.loads((HERE / "expected.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run one child process to completion.

    Returns (wall seconds, exit code, peak RSS in MB).  The child's own
    rusage comes from wait4, so set-up children never inflate a job's RSS.
    """
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=cli_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        deadline = t0 + CLI_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "congwidth.cli", *args]


# -- reduce ------------------------------------------------------------------


class ReduceJob(NamedTuple):
    cls: str
    sigma: object
    ideal: Ideal
    target: tuple[int, int]


def _entry(cls: str, rng: random.Random):
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    if cls in ("z3", "z4"):
        return Z.el(2 * c)
    if cls == "loc3":
        return L5.el((2 * c, rng.choice((-1, 0, 0, 1))))
    x = P2.x()
    return x * P2.el([1, rng.randint(0, 1)])


def sample_sigma(cls: str, rng: random.Random):
    """A non-central product of random elementary matrices in Gamma(q)."""
    ring, n, _ = REDUCE_CLASSES[cls]
    while True:
        g = identity(ring, n)
        for _ in range(REDUCE_FACTORS):
            i, j = rng.sample(range(1, n + 1), 2)
            g = g * elementary(ring, n, i, j, _entry(cls, rng))
        if not is_central(g):
            return g


def targets(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def reduce_stream(seed: int):
    """Endless seeded stream of certificate jobs; every target is cycled."""
    rng = random.Random(seed)
    used = {cls: 0 for cls in REDUCE_CLASSES}
    while True:
        cycle = list(REDUCE_CYCLE)
        rng.shuffle(cycle)
        for cls in cycle:
            ring, n, q = REDUCE_CLASSES[cls]
            ts = targets(n)
            target = ts[(used[cls] + seed) % len(ts)]
            used[cls] += 1
            yield ReduceJob(cls, sample_sigma(cls, rng), q, target)


def take(stream, count: int) -> list[ReduceJob]:
    return [next(stream) for _ in range(count)]


class ReduceOutcome(NamedTuple):
    latency_s: float
    replay_s: float
    trace: object
    text: str
    again_text: str


def run_reduce_job(job: ReduceJob) -> ReduceOutcome:
    """reduce_full, serialize, replay, re-serialize: one certificate job."""
    t0 = time.perf_counter()
    trace = reduce_full(job.sigma, job.ideal, job.target)
    text = serialize_trace(trace)
    t1 = time.perf_counter()
    again = replay_trace(text)
    t2 = time.perf_counter()
    again_text = serialize_trace(again)
    t3 = time.perf_counter()
    return ReduceOutcome(t3 - t0, t2 - t1, trace, text, again_text)


def stage_counts(trace) -> dict[str, int]:
    counts: dict[str, int] = {}
    for st in trace.steps:
        stage = st.case.split(".", 1)[0]
        counts[stage] = counts.get(stage, 0) + 1
    return counts


def reduce_problems(job: ReduceJob, out: ReduceOutcome) -> list[str]:
    trace = out.trace
    problems = []
    if out.again_text != out.text:
        problems.append("re-serialized trace differs from the original")
    if trace.input != job.sigma or tuple(trace.target) != tuple(job.target):
        problems.append("trace input or target differs from the job")
    if len(trace.steps) > MAX_STEPS:
        problems.append(f"{len(trace.steps)} steps > {MAX_STEPS}")
    if trace.word_length > MAX_WORD:
        problems.append(f"word length {trace.word_length} > {MAX_WORD}")
    for stage, count in stage_counts(trace).items():
        if count > STAGE_BOUNDS.get(stage, 0):
            problems.append(f"stage {stage} used {count} operations")
    out_m = trace.output
    ring = out_m.ring
    for r in range(1, out_m.n + 1):
        for c in range(1, out_m.n + 1):
            e = out_m.e(r, c) - (ring.one if r == c else ring.zero)
            if (r, c) == tuple(job.target):
                if e.is_zero or not job.ideal.contains(e):
                    problems.append("target entry is zero or outside the ideal")
            elif not e.is_zero:
                problems.append(f"output has support off the target at ({r}, {c})")
    return problems


def replay_problems(text: str) -> list[str]:
    """Problems of a serialized trace as a verifier sees it."""
    try:
        replay_trace(text)
    except Exception as exc:  # any rejection, typed or not, is a failure
        return [f"replay rejected the trace: {type(exc).__name__}: {exc}"]
    return []


# -- census ------------------------------------------------------------------


def census_paths(name: str) -> tuple[Path, Path]:
    return WORK / f"census-{name}.csv", WORK / f"census-{name}.err"


def census_argv(name: str, out: Path) -> list[str]:
    group, ideal = CENSUS_JOBS[name]
    return ["census", "--group", group, "--ideal", ideal, "--seed", "0", "--out", str(out)]


def census_group(name: str) -> tuple[int, RingSpec]:
    sl, ring = CENSUS_JOBS[name][0].split(",", 1)
    if ring.startswith("F"):
        ring = "Z/" + ring[1:]
    return int(sl[2:]), RingSpec.parse(ring)


def summary_value(text: str, key: str) -> int:
    """An integer field of a census CSV's summary block (-1 when absent)."""
    lines = text.splitlines()
    tail = lines[lines.index("summary {") + 1:] if "summary {" in lines else []
    fields = dict(tok.split("=", 1) for ln in tail for tok in ln.split() if "=" in tok)
    try:
        return int(fields.get(key, -1))
    except ValueError:
        return -1


def census_table(name: str):
    """The group table and ideal of a census job, built in process."""
    n, ring = census_group(name)
    return enumerate_sl(n, ring), Ideal.of(ring, int(CENSUS_JOBS[name][1]))


def census_rows(k: int, result: dict) -> list[str]:
    """CSV rows of one sigma's width_bfs result, as the census writes them."""
    rows = []
    for (i, j) in sorted(result):
        r = result[(i, j)]
        if r.unreachable:
            rows.append(f"{k},unreachable,unreachable,{i}{j}")
        else:
            rows.append(f"{k},{r.min_ops},{r.min_word},{i}{j}")
    return rows


def rows_by_sigma(text: str) -> dict[int, list[str]]:
    lines = text.splitlines()
    out: dict[int, list[str]] = {}
    for row in lines[lines.index("sigma_index,min_ops,min_len,target") + 1:lines.index("summary {")]:
        out.setdefault(int(row.split(",", 1)[0]), []).append(row)
    return out


def census_problems(text: str, n: int, ring: RingSpec, expected_sha: str | None) -> list[str]:
    problems = []
    lines = text.splitlines()
    try:
        body = lines.index("sigma_index,min_ops,min_len,target")
        summary = lines.index("summary {")
    except ValueError:
        return ["census output lacks its header or summary"]
    rows = lines[body + 1:summary]
    order = summary_value(text, "group_order")
    noncentral = summary_value(text, "noncentral")
    if order != sl_order(n, ring):
        problems.append(f"group order {order} != sl_order {sl_order(n, ring)}")
    if len(rows) != noncentral * n * (n - 1):
        problems.append(f"{len(rows)} rows != {noncentral} non-central x {n * (n - 1)} targets")
    for row in rows:
        _, ops, word, _ = row.split(",")
        if ops == "unreachable":
            continue
        if not (0 <= int(ops) <= MAX_STEPS and 0 < int(word) <= MAX_WORD):
            problems.append(f"row {row!r} breaks the 9/512 bounds")
            break
    if expected_sha is not None and sha256(text) != expected_sha:
        problems.append("census output digest differs from the seed commit")
    return problems


def reachable_pairs(text: str) -> tuple[int, int]:
    """(useful pairs, pairs searched) of a census CSV."""
    lines = text.splitlines()
    rows = lines[lines.index("sigma_index,min_ops,min_len,target") + 1:lines.index("summary {")]
    return sum(1 for r in rows if "unreachable" not in r), len(rows)


# -- norm --------------------------------------------------------------------

AXIOMS = ("positivity", "definiteness", "symmetry", "triangle", "conjugation")


def norm_config(name: str, harness_seed: int) -> str:
    return NORM_JOBS[name] + f"samples={NORM_SAMPLES}\nseed={harness_seed}\n"


def norm_paths(name: str, harness_seed: int) -> tuple[Path, Path, Path]:
    stem = WORK / f"norm-{name}-{harness_seed}"
    return stem.with_suffix(".cfg"), stem.with_suffix(".txt"), stem.with_suffix(".err")


def write_norm_config(name: str, harness_seed: int) -> Path:
    cfg, _, _ = norm_paths(name, harness_seed)
    cfg.write_text(norm_config(name, harness_seed))
    return cfg


def build_norms() -> dict:
    """The filtration and word norms, built as the CLI builds them from NORM_JOBS."""
    gens = [elementary(Z, 3, i, j, 1) for i, j in targets(3)]
    filtration = filtration_norm(FiltrationChain(MatrixGroupDomain(Z, 3, gens, 8), Ideal.of(Z, 2), 64))
    f5 = RingSpec.integers_mod(5)
    table = enumerate_sl(2, f5)
    seeds = [table.idx(elementary(f5, 2, i, j, 1)) for i, j in targets(2)]
    word = word_norm_eval(table, conjugation_closure(table, seeds))
    return {"filtration": filtration, "word": word}


def norm_problems(text: str, samples: int, expected_sha: str | None) -> list[str]:
    problems = []
    axiom_lines = [ln for ln in text.splitlines() if ln.startswith("axiom=")]
    seen = []
    for ln in axiom_lines:
        fields = dict(tok.split("=", 1) for tok in ln.split())
        seen.append(fields.get("axiom"))
        if fields.get("samples") != str(samples):
            problems.append(f"axiom {fields.get('axiom')} ran {fields.get('samples')} samples")
        if fields.get("violations") != "0":
            problems.append(f"axiom {fields.get('axiom')} has violations={fields.get('violations')}")
    if tuple(seen) != AXIOMS:
        problems.append(f"report covers axioms {seen}")
    if expected_sha is not None and sha256(text) != expected_sha:
        problems.append("norm report digest differs from the seed commit")
    return problems


# -- gate self-test ----------------------------------------------------------


def _flip_step_result(text: str) -> str:
    """Change the first entry of the first step's result matrix."""
    lines = text.splitlines()
    step = next(ln for ln in lines if ln.startswith("step "))
    rid = next(tok for tok in step.split() if tok.startswith("result="))[len("result="):]
    k = lines.index(rid, lines.index(next(ln for ln in lines if ln.startswith("matrices "))))
    row = lines[k + 2].split()
    row[0] = str(int(row[0]) + 2)
    lines[k + 2] = " ".join(row)
    return "\n".join(lines) + "\n"


def _alter_first_minimum(text: str) -> str:
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln[:1].isdigit() and "unreachable" not in ln)
    idx, ops, word, tgt = lines[k].split(",")
    lines[k] = ",".join((idx, str(int(ops) + 1), word, tgt))
    return "\n".join(lines) + "\n"


def gate_self_test() -> list[str]:
    """Feed the gates three corrupted outputs; each must count as a failure.

    Returns the corruptions that slipped through (empty when the gate works).
    """
    missed = []
    job = next(j for j in reduce_stream(0) if j.cls == "z3")  # integer entries to flip
    good = run_reduce_job(job)
    if reduce_problems(job, good) or replay_problems(good.text):
        missed.append("the gate rejects a correct trace")
    if not replay_problems(_flip_step_result(good.text)):
        missed.append("a trace with a flipped step-result entry passed")

    f3 = RingSpec.integers_mod(3)
    csv = width_census_csv(enumerate_sl(2, f3), Ideal.of(f3, 1))
    digest = expected()["selftest"]["census_sl2f3"]
    if census_problems(csv, 2, f3, digest):
        missed.append("the gate rejects a correct census CSV")
    if not census_problems(_alter_first_minimum(csv), 2, f3, digest):
        missed.append("a census CSV with an altered minimum passed")

    table = enumerate_sl(2, f3)
    gens = [table.idx(elementary(f3, 2, i, j, 1)) for i, j in ((1, 2), (2, 1))]
    report = axiom_harness(word_norm_eval(table, conjugation_closure(table, gens)), 50, 0).render()
    bad = report.replace("violations=0", "violations=1", 1)
    if norm_problems(report, 50, None):
        missed.append("the gate rejects a correct norm report")
    if not norm_problems(bad, 50, sha256(bad)):
        missed.append("a norm report with a nonzero violation passed")
    return missed
