"""Record the output digests the correctness gate compares against.

Run once at the commit whose outputs are the reference:

    python3 perfbench/record_expected.py

It runs every census and norm job the benchmark checks, in process and
through the CLI, checks the outputs with the structural gate, and writes
their digests to perfbench/expected.json.  Later runs of the benchmark fail
any job whose output digest differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from congwidth import Ideal, RingSpec  # noqa: E402
from congwidth.census import enumerate_sl, width_census_csv  # noqa: E402
from congwidth.norms import axiom_harness  # noqa: E402


def main() -> int:
    jobs.WORK.mkdir(exist_ok=True)
    out = {"census": {}, "census_cli": {}, "norm": {}, "norm_chunk": {}, "selftest": {}}
    for name in jobs.CENSUS_JOBS:
        table, ideal = jobs.census_table(name)
        text = width_census_csv(table, ideal)
        problems = jobs.census_problems(text, table.n, table.ring, None)
        if problems:
            print(f"census {name}: {problems}", file=sys.stderr)
            return 1
        out["census"][name] = jobs.sha256(text)
        csv, err = jobs.census_paths(name)
        _, rc, _ = jobs.run_child(jobs.cli_argv(*jobs.census_argv(name, csv)), err)
        text = csv.read_text()
        n, ring = jobs.census_group(name)
        problems = jobs.census_problems(text, n, ring, None)
        if rc or problems:
            print(f"census {name}: rc={rc} {problems}", file=sys.stderr)
            return 1
        out["census_cli"][name] = jobs.sha256(text)
    norms = jobs.build_norms()
    for name in jobs.NORM_JOBS:
        out["norm_chunk"][name] = {}
        for seed in jobs.NORM_CHUNK_SEEDS:
            text = axiom_harness(norms[name], jobs.NORM_CHUNK[name], seed).render()
            problems = jobs.norm_problems(text, jobs.NORM_CHUNK[name], None)
            if problems:
                print(f"norm chunk {name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            out["norm_chunk"][name][str(seed)] = jobs.sha256(text)
    for name in jobs.NORM_JOBS:
        out["norm"][name] = {}
        for seed in jobs.NORM_HARNESS_SEEDS:
            cfg = jobs.write_norm_config(name, seed)
            _, txt, err = jobs.norm_paths(name, seed)
            _, rc, _ = jobs.run_child(jobs.cli_argv("norm", "--config", str(cfg), "--out", str(txt)), err)
            text = txt.read_text()
            problems = jobs.norm_problems(text, jobs.NORM_SAMPLES, None)
            if rc or problems:
                print(f"norm {name} seed {seed}: rc={rc} {problems}", file=sys.stderr)
                return 1
            out["norm"][name][str(seed)] = jobs.sha256(text)
    f3 = RingSpec.integers_mod(3)
    out["selftest"]["census_sl2f3"] = jobs.sha256(width_census_csv(enumerate_sl(2, f3), Ideal.of(f3, 1)))
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
