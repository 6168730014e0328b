"""Command-line entry point.

Subcommands: reduce, replay, decompose, norm, census, sumid, sumset.
Exit status: 0 on success, 1 on domain errors, 2 on usage errors.
All randomness flows from --seed; identical invocations produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import permutations

from .certificate import replay_trace, serialize_trace
from .census import enumerate_sl, sum_set_census, verify_sum_identity, width_census_csv
from .factorization import census_csv, decompose_elementary, factor_count_census
from .errors import CongwidthError
from .matrices import SqMatrix, elementary, parse_matrix
from .norms import (
    FiltrationChain,
    MatrixGroupDomain,
    axiom_harness,
    conjugation_closure,
    dirac_norm,
    filtration_norm,
    padic_sup_norm,
    word_norm_eval,
    z2_mixed_norm,
)
from .reduction import reduce_full, sl2_unit_reduction
from .rings import RingSpec, format_element, is_prime, parse_ideal


def _arg(parse):
    """An argparse type that reports the ValueError of parse as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


def _target_type(text: str) -> tuple[int, int]:
    try:
        i, j = text.split(",")
        return int(i), int(j)
    except ValueError:
        raise argparse.ArgumentTypeError(f"target must be 'i,j', got {text!r}")


def _parse_group(text: str) -> tuple[int, RingSpec]:
    """'SL<n>,<ring>', where F<p> stands for Z/p and p must be prime."""
    try:
        sl, ring = text.split(",", 1)
        if not sl.startswith("SL"):
            raise ValueError
        n = int(sl[2:])
    except ValueError:
        raise ValueError(f"group must look like 'SL3,F2', got {text!r}") from None
    is_field = ring.startswith("F") and ring[1:].isdigit()
    spec = RingSpec.parse("Z/" + ring[1:] if is_field else ring)  # its own message on failure
    if is_field and not is_prime(spec.modulus):
        raise ValueError(f"{ring} is not a field: {spec.modulus} is not prime")
    return n, spec


_IDEAL_HELP = "ideal generators separated by spaces, each written as a matrix entry (F2[x]: 0,1 is x)"


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if v <= 0:
        raise argparse.ArgumentTypeError("budgets and counts must be positive")
    return v


_HEADER_SEED = "echoed in the output header only; this command draws no random numbers"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="congwidth")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("reduce", help="reduce a congruence matrix to a target elementary position")
    pr.add_argument("--ring", type=_arg(RingSpec.parse), required=True)
    pr.add_argument("--ideal", required=True, help=_IDEAL_HELP)
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--target", type=_target_type, required=True,
                    help="i,j; in dimension 2, 1,2 or 2,1 runs the unit shortcut for E12 or E21")
    pr.add_argument("--seed", type=int, default=0, help="echoed on the trace's seed line only; nothing is random")
    pr.add_argument("--out", default=None)

    pp = sub.add_parser("replay", help="verify a serialized trace")
    pp.add_argument("--in", dest="infile", required=True)

    pd = sub.add_parser("decompose", help="factor an SL matrix into elementary matrices")
    pd.add_argument("--in", dest="infile", required=True)
    pd.add_argument("--seed", type=int, default=0, help=_HEADER_SEED)
    pd.add_argument("--out", default=None)

    pn = sub.add_parser("norm", help="build a norm from a config file and run the axiom harness")
    pn.add_argument("--config", required=True)
    pn.add_argument("--out", default=None)

    pc = sub.add_parser("census", help="exhaustive width census over a finite group")
    pc.add_argument("--group", type=_arg(_parse_group), required=True, help="e.g. SL3,F2 or SL2,Z/4")
    pc.add_argument("--ideal", default="1", help=_IDEAL_HELP)
    pc.add_argument("--budget", type=_positive_int, default=10**6)
    pc.add_argument("--factors", action="store_true",
                    help="histogram elementary-factorization counts instead of widths")
    pc.add_argument("--seed", type=int, default=0, help=_HEADER_SEED)
    pc.add_argument("--out", default=None)

    ps = sub.add_parser("sumid", help="check the five-term sum decomposition")
    ps.add_argument("--tuple", dest="tup", default=None, help="m,a,b,c,d")
    ps.add_argument("--random", type=int, default=0, help="check N random tuples")
    ps.add_argument("--seed", type=int, default=0)

    pt = sub.add_parser("sumset", help="sum-set growth of a subgroup modulo m")
    pt.add_argument("--mod", type=int, required=True)
    pt.add_argument("--gen-scale", type=int, required=True, help="k for the two shears with entry k")
    pt.add_argument("--max-terms", type=_positive_int, required=True)
    pt.add_argument("--target-level", type=_positive_int, required=True)
    pt.add_argument("--budget", type=_positive_int, default=10**6)
    pt.add_argument("--seed", type=int, default=0, help=_HEADER_SEED)
    pt.add_argument("--out", default=None)

    return p


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _read_matrix(path: str) -> SqMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read())


_SL2_SIDES = {(1, 2): "E12", (2, 1): "E21"}


def _cmd_reduce(args) -> int:
    sigma = _read_matrix(args.infile)
    if sigma.ring != args.ring:
        raise CongwidthError("matrix ring does not match --ring")
    q = parse_ideal(args.ring, args.ideal)
    if sigma.n != 2:
        trace = reduce_full(sigma, q, args.target, seed=args.seed)
    elif (side := _SL2_SIDES.get(args.target)) is None:
        raise CongwidthError("dimension 2 reduces to target 1,2 or 2,1, got {},{}".format(*args.target))
    else:
        trace = sl2_unit_reduction(sigma, q, side, seed=args.seed)
    _emit(serialize_trace(trace), args.out)
    return 0


def _cmd_replay(args) -> int:
    with open(args.infile) as fh:
        trace = replay_trace(fh.read())
    sys.stdout.write(f"replay ok steps={len(trace.steps)} word_length={trace.word_length}\n")
    return 0


def _cmd_decompose(args) -> int:
    g = _read_matrix(args.infile)
    fac = decompose_elementary(g)
    ok = fac.product() == g
    lines = [f"# congwidth decompose seed={args.seed} count={fac.count} verified={'true' if ok else 'false'}"]
    for f in fac.factors:
        lines.append(f"factor {f.i} {f.j} {format_element(f.a)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _parse_config(path: str) -> dict[str, str]:
    """A norm config's key=value lines; the command pops each key it reads."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = (part.strip() for part in line.partition("="))
            if key in cfg:
                raise CongwidthError(f"norm config repeats {key}=")
            cfg[key] = val
    return cfg


def _unit_elementaries(ring: RingSpec, n: int) -> list[SqMatrix]:
    """The generators I + e_ij of the default domains and word norms."""
    return [elementary(ring, n, i, j, 1) for i, j in permutations(range(1, n + 1), 2)]


def _sampler_size(cfg: dict[str, str], key: str, default: str) -> int:
    """A radius= or box=; 0 would sample only the identity, on which every norm passes."""
    size = int(cfg.pop(key, default))
    if size == 0:
        raise CongwidthError(f"norm config {key}=0 samples only the identity")
    return size


def _cmd_norm(args) -> int:
    cfg = _parse_config(args.config)
    tag = cfg.pop("tag", None)

    def need(key: str) -> str:
        if key not in cfg:
            raise CongwidthError(f"norm config tag={tag} needs {key}=")
        return cfg.pop(key)

    samples = int(cfg.pop("samples", "1000"))
    seed = int(cfg.pop("seed", "0"))
    if tag == "dirac":
        ring = RingSpec.parse(cfg.pop("ring", "Z"))
        n = int(cfg.pop("n", "2"))
        norm = dirac_norm(MatrixGroupDomain(ring, n, _unit_elementaries(ring, n), _sampler_size(cfg, "radius", "8")))
    elif tag == "filtration":
        ring = RingSpec.parse(cfg.pop("ring", "Z"))
        n = int(cfg.pop("n", "3"))
        ideal = parse_ideal(ring, need("ideal"))
        dom = MatrixGroupDomain(ring, n, _unit_elementaries(ring, n), _sampler_size(cfg, "radius", "8"))
        norm = filtration_norm(FiltrationChain(dom, ideal, int(cfg.pop("cap", "64"))))
    elif tag == "z2mixed":
        norm = z2_mixed_norm(int(need("p")), _sampler_size(cfg, "box", "1000"))
    elif tag == "padic-sup":
        ring = RingSpec.parse(cfg.pop("ring", "Z"))
        ideal = parse_ideal(ring, need("ideal"))
        norm = padic_sup_norm(ideal, int(need("p")), _sampler_size(cfg, "box", "64"))
    elif tag == "word":
        n, ring = _parse_group(need("group"))
        table = enumerate_sl(n, ring, budget=int(cfg.pop("budget", "1000000")))
        seeds = [table.idx(g) for g in _unit_elementaries(ring, n)]
        norm = word_norm_eval(table, conjugation_closure(table, seeds))
    else:
        raise CongwidthError(f"unknown norm tag {tag!r}")
    if cfg:  # the keys no branch read
        raise CongwidthError(f"norm config tag={tag} has unknown keys {', '.join(k + '=' for k in sorted(cfg))}")
    report = axiom_harness(norm, samples, seed)
    header = f"# congwidth norm tag={tag} seed={seed}\n"
    _emit(header + report.render(), args.out)
    return 0 if report.passed else 1


def _cmd_census(args) -> int:
    n, ring = args.group
    if args.factors:
        hist, mx, order = factor_count_census(n, ring, budget=args.budget)
        text = census_csv(hist, mx, order)
    else:
        table = enumerate_sl(n, ring, budget=args.budget)
        text = width_census_csv(table, parse_ideal(ring, args.ideal))
    header = f"# congwidth census group=SL{n},{ring.descriptor()} seed={args.seed}\n"
    _emit(header + text, args.out)
    return 0


def _cmd_sumid(args) -> int:
    tuples = []
    if args.tup:
        parts = [int(x) for x in args.tup.split(",")]
        if len(parts) != 5:
            raise CongwidthError("--tuple needs five integers m,a,b,c,d")
        tuples.append(tuple(parts))
    if args.random:
        rng = random.Random(args.seed)
        for _ in range(args.random):
            tuples.append(tuple(rng.randint(-50, 50) for _ in range(5)))
    if not tuples:
        raise CongwidthError("supply --tuple or --random")
    for t in tuples:
        ok, lhs, rhs = verify_sum_identity(*t)
        if not ok:
            sys.stdout.write(f"MISMATCH tuple={t} lhs={lhs} rhs={rhs}\n")
            return 1
    sys.stdout.write(f"OK checked={len(tuples)}\n")
    return 0


def _cmd_sumset(args) -> int:
    ring = RingSpec.integers_mod(args.mod)
    k = args.gen_scale
    gens = [
        SqMatrix.from_raw(ring, [[1, k], [0, 1]]),
        SqMatrix.from_raw(ring, [[1, 0], [k, 1]]),
    ]
    report = sum_set_census(gens, args.mod, args.max_terms, args.target_level, budget=args.budget)
    header = f"# congwidth sumset mod={args.mod} seed={args.seed}\n"
    _emit(header + report.render(), args.out)
    return 0


_DISPATCH = {
    "reduce": _cmd_reduce,
    "replay": _cmd_replay,
    "decompose": _cmd_decompose,
    "norm": _cmd_norm,
    "census": _cmd_census,
    "sumid": _cmd_sumid,
    "sumset": _cmd_sumset,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (CongwidthError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
