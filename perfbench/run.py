"""congwidth benchmark: one command, two workloads, timed or traced.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one job at a time, all in process):

- reduce: certificate jobs (reduce_full, serialize_trace, replay_trace,
  re-serialize) over SL_3(Z), SL_4(Z), SL_3(F_2[x]) and SL_3(Z[1/5]);
- finite: width_bfs for sampled sigma of SL3,F2, SL2,F5 and SL2,Z/8
  --ideal 2, after each table and full census is built once and checked;
  and axiom_harness calls adding up to 1000 samples per norm, on the
  filtration norm on SL_3(Z) and the word norm on SL_2(F_5).

Cold CLI runs of census and norm are timed by the traced run.

--trace 0 measures the end-to-end metrics with tracing off (timed.py);
--trace 1 runs the traced layer suite (traced.py).  Every output is
checked; the last line of standard output is one JSON object with correct,
attempted, failed and metrics.  The exit status is 0 only when every job
passed its check.  A result file with metadata and sample counts is written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("reduce", "finite")
# Reserved for checking a claimed gain after the change is written; never
# use it while developing or tuning.
HELD_OUT_SEED = 7919


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- result ------------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "congwidth").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def report(args, metrics, details, attempted, failed, problems, extra=None) -> int:
    correct = failed == 0 and not problems and bool(metrics)
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")
    for name, (value, unit, count) in details.items():
        print(f"detail {name} = {value:.6g} {unit} (n={count})")
    print(f"detail failed_ratio = {failed / max(attempted, 1):.6g} (n={attempted})")
    for p in problems:
        print(f"FAIL {p}")
    RESULTS.mkdir(exist_ok=True)
    result = {
        "meta": metadata(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "details": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in details.items()},
        "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if extra is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(extra) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "congwidth" / "__init__.py").is_file():
        print(f"error: no congwidth sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs
    import timed

    if args.setup_probe:
        timed.generate_inputs(args.workload, args.seed)
        return 0

    jobs.WORK.mkdir(exist_ok=True)
    missed = jobs.gate_self_test()
    problems = [f"gate self-test: {m}" for m in missed]
    if not missed:
        print("gate self-test: 3 of 3 corrupted outputs counted as failures")

    if args.trace:
        import traced

        suite = traced.run(args.seed)
        return report(args, suite.metrics, {}, suite.attempted, suite.failed,
                      problems + suite.problems, extra=suite.rec.spans)

    t = timed.timed_run(args.workload, args.seed, args.seconds)
    return report(args, timed.end_to_end(t), timed.details(args.workload, t), t.attempted, t.failed,
                  problems + t.problems)


if __name__ == "__main__":
    sys.exit(main())
