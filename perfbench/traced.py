"""The traced run: per-layer numbers from spans around public calls.

Every per-layer metric is reported by every workload's traced run, so the
traced run is one suite whose inputs come from the workload seed:

- rings, matrices, factorization: timed loops over operands taken from the
  generated certificate jobs and from SL_2(Z/8);
- reduction: the four public stage entry points, reduce_full, serialize and
  replay on two cycles of certificate jobs, with the stage-equivalence check
  (the stages' steps must equal reduce_full's for the same sigma);
- census: the SL3,F2 census as a traced cold CLI job, plus table builds and
  width BFS over every sigma for SL2,F5 and SL2,Z/8 in process;
- norms and cli: both norm jobs as traced cold CLI jobs, and in-process
  sample/value loops.

Metrics are returned as name -> (value, unit, sample count).
"""

from __future__ import annotations

import json
import operator
import random
import statistics
import sys
import time
from collections import defaultdict

import jobs
from tracing import Recorder, duration, patched, self_times

from congwidth import Ideal, RingSpec, elementary, identity
from congwidth.census import width_bfs
from congwidth.matrices import SqMatrix, congruence_level, mat_inv
from congwidth.reduction import (
    reduce_full,
    reduce_to_affine,
    relocate_elementary,
    replay_trace,
    serialize_trace,
    strip_to_translation,
    translation_to_elementary,
)

LAYERS = ("rings", "matrices", "factorization", "reduction", "census", "norms", "cli")
STAGES = ("affine", "translate", "single", "relocate")
REDUCE_JOBS = 2 * len(jobs.REDUCE_CYCLE)
PROBE_REPEATS = 5
NORM_PROBE_SAMPLES = 200
Z8 = RingSpec.integers_mod(8)


class Suite:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rec = Recorder()
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str, count: int):
        self.metrics[name] = (value, unit, count)

    def fail(self, what: str, problems: list[str]):
        self.failed += 1
        self.problems.append(f"{what}: {'; '.join(problems)}")

    def probe(self, name: str, layer: str, fn, items: list) -> float:
        """Seconds per call of fn over the items, best of the repeats.

        The best repeat, like the timed run's best pass, is the figure that
        repeats on a machine shared with other tenants.
        """
        per_call = []
        for _ in range(PROBE_REPEATS):
            with self.rec.span(name, layer) as sp:
                for item in items:
                    fn(*item)
            per_call.append(duration(sp) / len(items))
        return min(per_call)

    # -- cold CLI jobs under span wrappers -----------------------------------

    def traced_cli(self, label: str, args: list[str]) -> dict:
        spans_path = jobs.WORK / f"spans-{label}.json"
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(jobs.HERE / "cli_child.py"), str(spans_path), *args]
        with self.rec.span(label, "cli") as sp:
            _, status, _ = jobs.run_child(argv, jobs.WORK / f"{label}.err")
        first = len(self.rec.spans)
        if spans_path.exists():
            self.rec.adopt(json.loads(spans_path.read_text()), sp["id"])
        return {"span": sp, "status": status, "children": self.rec.spans[first:]}


def _pairs(items: list) -> list[tuple]:
    return [(items[k], items[(k + 1) % len(items)]) for k in range(len(items))]


def _entries(mats: list) -> list:
    return [e for m in mats for row in m.rows for e in row]


def _zmod_matrices(rng: random.Random, count: int) -> list:
    out = []
    for _ in range(count):
        g = identity(Z8, 2)
        for _ in range(6):
            i, j = rng.sample((1, 2), 2)
            g = g * elementary(Z8, 2, i, j, rng.randrange(1, 8))
        out.append(g)
    return out


def _support_size(g) -> int:
    one = identity(g.ring, g.n)
    return sum(1 for r in range(1, g.n + 1) for c in range(1, g.n + 1) if g.e(r, c) != one.e(r, c))


def _op_signature(steps) -> list[tuple]:
    return [(st.op, st.result, st.case) for st in steps]


def run_stages(rec: Recorder, job: jobs.ReduceJob):
    """The four public stage calls in reduce_full's order.

    Returns (concatenated steps, stage -> seconds).
    """
    steps, secs = [], {}
    g, q = job.sigma, job.ideal
    if _support_size(g) == 1:  # reduce_full relocates single-entry inputs directly
        calls = [("relocate", lambda g: relocate_elementary(g, q, job.target))]
    else:
        loc = {}

        def affine(g):
            trace, loc["loc"] = reduce_to_affine(g, q)
            return trace

        calls = [
            ("affine", affine),
            ("translate", lambda g: strip_to_translation(g, q, loc["loc"])),
            ("single", lambda g: translation_to_elementary(g, q)),
            ("relocate", lambda g: relocate_elementary(g, q, job.target)),
        ]
    for stage, call in calls:
        with rec.span(stage, "reduction") as sp:
            trace = call(g)
        secs[stage] = duration(sp)
        steps.extend(trace.steps)
        g = trace.output
    return steps, secs


def reduction_segment(s: Suite, batch: list[jobs.ReduceJob]):
    untraced = []
    for job in batch:
        t0 = time.perf_counter()
        reduce_full(job.sigma, job.ideal, job.target)
        untraced.append(time.perf_counter() - t0)

    stage_ms = defaultdict(list)
    validate, serialize, replay, ratio = [], [], [], []
    steps, words, ops = [], [], defaultdict(list)
    traces = []
    for k, job in enumerate(batch):
        s.rec.job = f"reduce-{k}-{job.cls}"
        s.attempted += 1
        try:
            with s.rec.span("certificate_job", "bench"):
                stage_steps, secs = run_stages(s.rec, job)
                with s.rec.span("reduce_full", "reduction") as sp:
                    trace = reduce_full(job.sigma, job.ideal, job.target)
                full = duration(sp)
                with s.rec.span("serialize_trace", "reduction") as sp:
                    text = serialize_trace(trace)
                serialize_s = duration(sp)
                with s.rec.span("replay_trace", "reduction") as sp:
                    again = replay_trace(text)
                replay_s = duration(sp)
                again_text = serialize_trace(again)
        except Exception as exc:  # a library error fails the job, not the run
            s.fail(s.rec.job, [f"{type(exc).__name__}: {exc}"])
            continue
        problems = jobs.reduce_problems(job, jobs.ReduceOutcome(full, replay_s, trace, text, again_text))
        if _op_signature(stage_steps) != _op_signature(trace.steps):
            problems.append("stage calls do not reproduce reduce_full's steps")
        if problems:
            s.fail(s.rec.job, problems)
            continue
        for stage, sec in secs.items():
            stage_ms[stage].append(sec * 1e3)
        validate.append((full - sum(secs.values())) * 1e3)
        serialize.append(serialize_s)
        replay.append(replay_s)
        ratio.append(full / untraced[k])
        counts = jobs.stage_counts(trace)
        for stage in STAGES:
            ops[stage].append(counts.get(stage, 0))
        steps.append(len(trace.steps))
        words.append(trace.word_length)
        traces.append((job, trace))
    s.rec.job = None

    for stage in STAGES:
        vals = stage_ms[stage]
        s.put(f"reduction.stage_ms.{stage}", statistics.median(vals) if vals else 0.0, "ms", len(vals))
        s.put(f"reduction.stage_ops.{stage}", statistics.mean(ops[stage]), "count", len(ops[stage]))
    s.put("reduction.validate_ms", statistics.median(validate), "ms", len(validate))
    s.put("reduction.serialize_ms", statistics.median(serialize) * 1e3, "ms", len(serialize))
    s.put("reduction.replay_ms", statistics.median(replay) * 1e3, "ms", len(replay))
    s.put("reduction.steps", statistics.mean(steps), "count", len(steps))
    s.put("reduction.word_length", statistics.mean(words), "count", len(words))
    s.put("trace.overhead_pct", (statistics.median(ratio) - 1.0) * 100.0, "%", len(ratio))
    return traces


def count_matrix_calls(s: Suite, batch: list[jobs.ReduceJob]):
    """SqMatrix.__mul__ and mat_inv calls per z3 certificate."""
    import congwidth.reduction as reduction

    calls = {"mul": 0, "inv": 0}
    mul, inv = SqMatrix.__mul__, reduction.mat_inv

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counted_inv(m):
        calls["inv"] += 1
        return inv(m)

    z3 = [job for job in batch if job.cls == "z3"]
    with patched([(SqMatrix, "__mul__", counted_mul), (reduction, "mat_inv", counted_inv)]):
        for job in z3:
            reduce_full(job.sigma, job.ideal, job.target)
    s.put("matrices.mul_calls.z3", calls["mul"] / len(z3), "count", len(z3))
    s.put("matrices.inv_calls.z3", calls["inv"] / len(z3), "count", len(z3))


def kernel_probes(s: Suite, batch: list[jobs.ReduceJob], traces):
    by_cls = defaultdict(list)
    for job in batch:
        by_cls[job.cls].append(job.sigma)
    zmod = _zmod_matrices(s.rng, 16)
    operands = {
        "z": _entries(by_cls["z3"]),
        "zmod": _entries(zmod),
        "poly": _entries(by_cls["poly3"]),
        "loc": _entries(by_cls["loc3"]),
    }
    for kind, elems in operands.items():
        pairs = _pairs(elems) * 20
        s.put(f"rings.mul_ns.{kind}", s.probe(f"mul.{kind}", "rings", operator.mul, pairs) * 1e9, "ns", len(pairs))
        s.put(f"rings.add_ns.{kind}", s.probe(f"add.{kind}", "rings", operator.add, pairs) * 1e9, "ns", len(pairs))

    for name, mats in (("z3", by_cls["z3"]), ("z4", by_cls["z4"]), ("poly3", by_cls["poly3"]), ("zmod", zmod)):
        pairs = _pairs(mats) * 4
        s.put(f"matrices.mul_us.{name}", s.probe(f"mul.{name}", "matrices", operator.mul, pairs) * 1e6, "us", len(pairs))
    for name in ("z3", "z4"):
        items = [(m,) for m in by_cls[name]] * 2
        s.put(f"matrices.inv_us.{name}", s.probe(f"inv.{name}", "matrices", mat_inv, items) * 1e6, "us", len(items))
    q = jobs.REDUCE_CLASSES["z3"][2]
    items = [(m, q) for m in by_cls["z3"]]
    s.put("matrices.congruence_level_us.z3",
          s.probe("congruence_level.z3", "matrices", congruence_level, items) * 1e6, "us", len(items))

    witnesses = [(st.op.s_factors,) for job, tr in traces if job.cls == "z3" for st in tr.steps]
    s.put("factorization.product_us.z3",
          s.probe("product.z3", "factorization", lambda f: f.product(), witnesses) * 1e6, "us", len(witnesses))


def _bfs_spans(s: Suite, table, sigmas: list[int], ideal: Ideal) -> tuple[list[float], int, int]:
    """Median-ready BFS times in ms, useful pairs, pairs searched."""
    times, useful, searched = [], 0, 0
    for k in sigmas:
        with s.rec.span("width_bfs", "census") as sp:
            res = width_bfs(table, k, ideal)
        times.append(duration(sp) * 1e3)
        searched += len(res)
        useful += sum(1 for r in res.values() if not r.unreachable)
    return times, useful, searched


def census_segment(s: Suite):
    exp = jobs.expected()["census_cli"]
    name = "sl3f2"
    csv, _ = jobs.census_paths(name)
    csv.unlink(missing_ok=True)
    s.rec.job = f"census-{name}"
    s.attempted += 1
    run = s.traced_cli(f"cli-census-{name}", jobs.census_argv(name, csv))
    s.rec.job = None
    n, ring = jobs.census_group(name)
    text = csv.read_text() if csv.exists() else ""
    problems = ([f"exit status {run['status']}"] if run["status"] else []) + (
        jobs.census_problems(text, n, ring, exp[name]) if text else ["no output file"])
    if problems:
        s.fail(f"census {name}", problems)
        return
    by_name = defaultdict(list)
    for sp in run["children"]:
        by_name[sp["name"]].append(duration(sp))
    useful, searched = jobs.reachable_pairs(text)
    s.put("census.table_build_s.sl3f2", by_name["enumerate_sl"][0], "s", 1)
    s.put("census.bfs_ms.sl3f2", statistics.median(by_name["width_bfs"]) * 1e3, "ms", len(by_name["width_bfs"]))
    s.put("census.csv_s", by_name["width_census_csv"][0], "s", 1)
    s.put("census.group_order", jobs.summary_value(text, "group_order"), "count", 1)
    s.put("census.reachable_ratio.sl3f2", useful / searched, "ratio", searched)
    s.put("cli.overhead_s.census", self_times(s.rec.spans)[run["span"]["id"]], "s", 1)

    for name in ("sl2f5", "sl2z8"):
        s.rec.job = f"census-{name}"
        with s.rec.span("enumerate_sl", "census") as sp:
            table, ideal = jobs.census_table(name)
        s.put(f"census.table_build_s.{name}", duration(sp), "s", 1)
        noncentral = [k for k in range(len(table.elements)) if k not in table.center]
        times, useful, searched = _bfs_spans(s, table, noncentral, ideal)
        s.put(f"census.bfs_ms.{name}", statistics.median(times), "ms", len(times))
        s.put(f"census.reachable_ratio.{name}", useful / searched, "ratio", searched)
    s.rec.job = None


def norm_segment(s: Suite):
    exp = jobs.expected()["norm"]
    overheads = []
    for name in jobs.NORM_JOBS:
        hseed = s.rng.choice(jobs.NORM_HARNESS_SEEDS)
        cfg = jobs.write_norm_config(name, hseed)
        _, txt, _ = jobs.norm_paths(name, hseed)
        txt.unlink(missing_ok=True)
        s.rec.job = f"norm-{name}"
        s.attempted += 1
        run = s.traced_cli(f"cli-norm-{name}", ["norm", "--config", str(cfg), "--out", str(txt)])
        text = txt.read_text() if txt.exists() else ""
        problems = ([f"exit status {run['status']}"] if run["status"] else []) + (
            jobs.norm_problems(text, jobs.NORM_SAMPLES, exp[name][str(hseed)]) if text else ["no output file"])
        if problems:
            s.fail(f"norm {name} seed {hseed}", problems)
            continue
        spans = {sp["name"]: duration(sp) for sp in run["children"]}
        s.put(f"norms.harness_s.{name}", spans["axiom_harness"], "s", 1)
        if name == "word":
            s.put("norms.closure_ms.word", spans["conjugation_closure"] * 1e3, "ms", 1)
            s.put("norms.word_eval_ms", spans["word_norm_eval"] * 1e3, "ms", 1)
        overheads.append(self_times(s.rec.spans)[run["span"]["id"]])
    s.rec.job = None
    if overheads:
        s.put("cli.overhead_s.norm", statistics.median(overheads), "s", len(overheads))

    norms = jobs.build_norms()
    dom = norms["filtration"].domain
    rng = s.rng
    s.put("norms.sample_us.filtration",
          s.probe("sample.filtration", "norms", dom.sample, [(rng,)] * NORM_PROBE_SAMPLES) * 1e6,
          "us", NORM_PROBE_SAMPLES)
    for name, norm in norms.items():
        elems = [(norm.domain.sample(rng),) for _ in range(NORM_PROBE_SAMPLES)]
        s.put(f"norms.value_us.{name}", s.probe(f"value.{name}", "norms", norm.value, elems) * 1e6,
              "us", len(elems))


def cli_startup(s: Suite):
    walls = []
    for _ in range(3):
        with s.rec.span("cli_help", "cli") as sp:
            _, status, _ = jobs.run_child(jobs.cli_argv("--help"), jobs.WORK / "cli-help.err")
        if status:
            s.fail("cli --help", [f"exit status {status}"])
        walls.append(duration(sp))
    s.put("cli.startup_s", statistics.median(walls), "s", len(walls))


def run(seed: int):
    """Run the whole suite; returns the Suite with metrics and spans."""
    s = Suite(seed)
    batch = jobs.take(jobs.reduce_stream(seed), REDUCE_JOBS)
    traces = reduction_segment(s, batch)
    count_matrix_calls(s, batch)
    kernel_probes(s, batch, traces)
    census_segment(s)
    norm_segment(s)
    cli_startup(s)
    selfs = self_times(s.rec.spans)
    totals = defaultdict(float)
    for sp, t in zip(s.rec.spans, selfs):
        totals[sp["layer"]] += t
    for layer in LAYERS:
        s.put(f"self_s.{layer}", totals[layer], "s", sum(1 for sp in s.rec.spans if sp["layer"] == layer))
    s.put("trace.spans", len(s.rec.spans), "count", 1)
    return s
