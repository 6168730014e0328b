"""Measure the spread of the end-to-end metrics and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --seeds 11-20 --seconds 45 --write

For each set of seeds and each workload it makes one timed run per seed,
one after another, and prints each metric's median, quartiles and spread
(interquartile range over median, quartiles as statistics.quantiles(n=4)
gives them), and how far the median moved from the first set.  With
--write it also makes one traced run (seed 1) and writes
perfbench/BASELINE.json.  A set of ten 45-second runs on both workloads
takes about 20 minutes on a 2-CPU Xeon.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["exit"] = out.returncode
    return result


def summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                     "spread": round((q3 - q1) / med, 4), "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", action="append", required=True, help="a seed range such as 1-10; repeatable")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--write", action="store_true", help="also make a traced run and write BASELINE.json")
    args = p.parse_args()
    workloads = args.workload or list(run.WORKLOADS)

    sets = {}
    for label, seeds in zip("abcdefgh", map(seed_range, args.seeds)):
        sets[f"set_{label}"] = {}
        for workload in workloads:
            results = []
            for seed in seeds:
                r = one_run(workload, seed, args.seconds, 0)
                print(workload, seed, r["exit"], {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                      flush=True)
                results.append(r)
            s = sets[f"set_{label}"][workload] = {
                "seeds": seeds,
                "all_correct": all(r["correct"] and r["exit"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": summary(results),
            }
            first = sets["set_a"][workload]["metrics"]
            for name, m in s["metrics"].items():
                moved = m["median"] / first[name]["median"] - 1
                print(f"  {label} {workload:7s} {name:16s} median {m['median']:<12.6g} spread {m['spread']:.4f}"
                      f"  moved {moved:+.4f}", flush=True)

    if args.write:
        meta = run.metadata(argparse.Namespace(workload=None, seed=None, seconds=args.seconds, trace=0))
        traced = one_run(workloads[0], 1, args.seconds, 1)
        baseline = {
            "about": f"Seed-commit figures of the benchmark: per workload, one timed run per seed at "
                     f"--seconds {args.seconds}, in {len(sets)} sets of seeds; and one traced run. "
                     "spread = (q3 - q1) / median.",
            "git_commit": meta["git_commit"],
            "source_sha256": meta["source_sha256"],
            "machine": {k: meta[k] for k in ("python", "numpy", "nproc", "cpu_model")},
            "held_out_seed": run.HELD_OUT_SEED,
            **sets,
            "traced": {"seed": 1, "metrics": traced["metrics"]},
        }
        (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
