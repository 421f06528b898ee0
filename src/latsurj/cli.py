"""Command-line entry point wiring all modules together.

Subcommands: sample, certify, snf, predict, experiment, fourier.  Options
resolve as defaults < config file (key=value lines) < LATSURJ_* environment
variables < explicit flags; the fully resolved configuration is logged to
stderr before each run.  Exit codes: 0 success/pass, 1 check failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .certifier import is_surjective, verify_certificate
from .ensembles import (
    IID_RECT,
    SYMMETRIC_PLUS,
    EnsembleSpec,
    parse_distribution,
    parse_weight,
    sample_matrix,
)
from .exact_linalg import IntMatrix, cokernel, format_matrix, parse_matrix, smith_normal_form
from .experiments import (
    CORANK,
    EXPOSURE,
    SINGULARITY,
    SYMMETRIC,
    TRIVIAL,
    ExperimentConfig,
    run_experiment,
)
from .fq import (
    FqDistribution,
    check_level_set_nesting,
    cosine_sweep,
    field_for_order,
    kneser_exhaustive,
    level_set_sweep,
    lo_bound_check,
    lo_exhaustive_grid,
    spectrum_subgroup_check,
)
from .predictions import corank_prediction, trivial_cokernel_all_primes, trivial_cokernel_prediction

ENV_PREFIX = "LATSURJ_"

# option names that a config-file line or a LATSURJ_<NAME> variable may set;
# each applies only to an optional flag of the chosen subcommand, whose type
# and choices it passes like the flag itself; argparse demands a required
# flag, such as --n, before any override is read
_OVERRIDABLE = (
    "m", "u", "p", "q", "k", "dist", "trials", "seed", "B", "threads", "out", "format",
    "tolerance", "min_frequency", "max_singular", "mode", "primes", "kind",
)


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _apply_overrides(parser: argparse.ArgumentParser, args: argparse.Namespace, argv: Sequence[str]):
    """argv parsed again with config-file and environment values as the
    chosen subcommand's defaults: argparse uses a default only for a flag
    argv leaves out, so explicit flags win; environment beats config.
    Every override is checked, even beside its flag."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = [key for key in file_values if key not in _OVERRIDABLE]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}; choose from {', '.join(_OVERRIDABLE)}")
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    values = {}
    for action in command._actions:
        key = action.dest
        if key not in _OVERRIDABLE or not action.option_strings:
            continue
        source = ENV_PREFIX + key.upper()
        raw = os.environ.get(source)
        if raw is None:
            source, raw = f"config {key}", file_values.get(key)
        if raw is None:
            continue
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            raise ValueError(f"{source}={raw!r} is not a valid {action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{source}={raw!r}: choose from {', '.join(map(str, action.choices))}")
        values[key] = value
    command.set_defaults(**values)
    return parser.parse_args(argv)


def _log_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if not k.startswith("_") and k != "func"}
    print(f"resolved-config: {json.dumps(resolved, default=str, sort_keys=True)}", file=sys.stderr)


def _read_matrix_arg(path: str) -> IntMatrix:
    if path == "-":
        return parse_matrix(sys.stdin.read())
    with open(path) as fh:
        return parse_matrix(fh.read())


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------


def _cmd_sample(args) -> int:
    dist = parse_distribution(args.dist)
    position = {"trial": args.trial, "attempt": args.attempt}
    if args.kind == SYMMETRIC_PLUS:
        spec = EnsembleSpec(SYMMETRIC_PLUS, args.n, dist, args.seed, u=args.u or 0, **position)
    else:
        m = args.m if args.m is not None else args.n + (args.u or 0)
        spec = EnsembleSpec(IID_RECT, args.n, dist, args.seed, m=m, **position)
    _write_output(format_matrix(sample_matrix(spec)), args.out)
    return 0


def _cmd_certify(args) -> int:
    matrix = _read_matrix_arg(args.matrix)
    start = time.perf_counter()
    cert = is_surjective(matrix)
    elapsed = (time.perf_counter() - start) * 1000
    doc = cert.to_dict()
    doc["timing_ms"] = round(elapsed, 3)
    if args.verify:
        doc["verified"] = verify_certificate(matrix, cert)
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if cert.is_surjective else 1


def _cmd_snf(args) -> int:
    matrix = _read_matrix_arg(args.matrix)
    if args.full:
        dec = smith_normal_form(matrix)
        text = (
            "# left\n" + format_matrix(dec.left)
            + "# diag\n" + format_matrix(dec.diag)
            + "# right\n" + format_matrix(dec.right)
        )
        _write_output(text, args.out)
        return 0
    structure = cokernel(matrix)
    doc = {
        "invariant_factors": list(structure.invariant_factors),
        "free_rank": structure.free_rank,
        "trivial": structure.is_trivial,
    }
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_predict(args) -> int:
    if args.what == "corank":
        pred = corank_prediction(args.q, args.k)
    elif args.primes:
        ps = tuple(int(t) for t in args.primes.split(","))
        pred = trivial_cokernel_prediction(ps, args.u)
    else:
        pred = trivial_cokernel_all_primes(args.u)
    print(f"{pred.value:.9f} tail_bound={pred.truncation_bound:.3e} terms={pred.terms_used}")
    return 0


# experiment kind on the command line -> ExperimentConfig.experiment
_EXPERIMENTS = {
    "corank": CORANK,
    "trivial": TRIVIAL,
    "singularity": SINGULARITY,
    "exposure": EXPOSURE,
    "symmetric": SYMMETRIC,
}


def _cmd_experiment(args) -> int:
    dist = parse_distribution(args.dist)
    primes = tuple(int(t) for t in args.primes.split(",")) if args.primes else None
    kind = _EXPERIMENTS[args.kind]
    mode = args.mode
    if kind == TRIVIAL and primes and mode == "default":
        mode = "p_restricted"
    cfg = ExperimentConfig(
        experiment=kind,
        n=args.n,
        trials=args.trials,
        master_seed=args.seed,
        dist=dist,
        u=args.u,
        p=args.p,
        primes=primes,
        b=args.B,
        mode=mode,
        tolerance=args.tolerance,
        min_frequency=args.min_frequency,
        max_singular=args.max_singular,
        threads=args.threads,
    )
    report = run_experiment(cfg)
    report.meta["invocation"] = list(args._argv)
    report.meta["threads"] = args.threads
    if args.format == "csv":
        if kind == EXPOSURE:
            rows = report.extra["runs"]
            text = "seed,d0_per_modulus,batches,total_extra_columns,achieved\n"
            text += "\n".join(rows) + "\n"
            _write_output(text, args.out)
        else:
            _write_output(report.to_csv(), args.out)
    else:
        _write_output(report.to_json() + "\n", args.out)
    return 0 if report.all_pass else 1


def _cmd_fourier(args) -> int:
    if args.action == "check":
        fld = field_for_order(args.q)
        weights = [parse_weight(t, "--mu") for t in args.mu.split(",")]
        mu = FqDistribution(fld, tuple(weights))
        w = [int(t) for t in args.w.split(",")]
        failures = 0
        nest = check_level_set_nesting(mu, w, args.v, args.k)  # a bad level or k exits before any line
        res = lo_bound_check(mu, w, args.r)
        print(f"lo_bound: lhs={res.lhs:.6g} rhs={res.rhs:.6g} holds={res.holds}")
        failures += 0 if res.holds else 1
        print(f"level_set_nesting(v={args.v}, k={args.k}): holds={nest}")
        failures += 0 if nest else 1
        sub = spectrum_subgroup_check(mu)
        print(
            f"spectrum_subgroup: alpha={sub.alpha} hypothesis_ok={sub.hypothesis_ok} holds={sub.holds}"
        )
        if sub.hypothesis_ok and sub.holds is False:
            failures += 1
        return 1 if failures else 0

    # sweep
    total_violations = 0
    q_list = [int(t) for t in args.q_list.split(",")]
    max_m = args.max_m
    max_den = args.max_den
    for q in q_list:
        rep = lo_exhaustive_grid(q, max_m=max_m, max_den=max_den)
        print(f"lo grid q={q}: {rep.cases} cases, {len(rep.violations)} violations")
        total_violations += len(rep.violations)
    for n in range(1, args.kneser_n + 1):
        rep = kneser_exhaustive(n)
        print(f"kneser Z/{n}: {rep.cases} pairs, {len(rep.violations)} violations")
        total_violations += len(rep.violations)
    rep = cosine_sweep(instances=args.cosine_instances, seed=args.seed)
    print(f"cosine sweep: {rep.cases} instances, {len(rep.violations)} violations")
    total_violations += len(rep.violations)
    rep = level_set_sweep(pairs=args.nesting_pairs, seed=args.seed)
    print(f"level-set nesting sweep: {rep.cases} instances, {len(rep.violations)} violations")
    total_violations += len(rep.violations)
    return 1 if total_violations else 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsurj",
        description="Integer-matrix surjectivity certification and Monte Carlo verification",
    )
    parser.add_argument("--config", help="key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample a matrix and print it")
    p_sample.add_argument("--kind", choices=[IID_RECT, SYMMETRIC_PLUS], default=IID_RECT)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--m", type=int)
    p_sample.add_argument("--u", type=int)
    p_sample.add_argument("--dist", default="uniform01")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--trial", type=int, default=0, help="trial index of the draw's stream position")
    p_sample.add_argument("--attempt", type=int, default=0, help="attempt of the draw's stream position")
    p_sample.add_argument("--out")
    p_sample.set_defaults(func=_cmd_sample)

    p_cert = sub.add_parser("certify", help="decide surjectivity with a certificate")
    p_cert.add_argument("matrix", help="matrix file ('-' for stdin)")
    p_cert.add_argument("--verify", action="store_true", help="re-check the certificate")
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=_cmd_certify)

    p_snf = sub.add_parser("snf", help="Smith form / cokernel of a matrix")
    p_snf.add_argument("matrix")
    p_snf.add_argument("--full", action="store_true", help="print the full decomposition")
    p_snf.add_argument("--out")
    p_snf.set_defaults(func=_cmd_snf)

    p_pred = sub.add_parser("predict", help="closed-form limiting probabilities")
    p_pred.add_argument("what", choices=["corank", "trivial"])
    p_pred.add_argument("--q", type=int, default=2)
    p_pred.add_argument("--k", type=int, default=0)
    p_pred.add_argument("--u", type=int, default=1)
    p_pred.add_argument("--primes", help="comma-separated prime set (trivial only)")
    p_pred.set_defaults(func=_cmd_predict)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiments vs predictions")
    p_exp.add_argument("kind", choices=list(_EXPERIMENTS))
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--u", type=int)
    p_exp.add_argument("--p", type=int)
    p_exp.add_argument("--dist", default="uniform01")
    p_exp.add_argument("--trials", type=int, default=1000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--B", type=float, default=1.0)
    p_exp.add_argument(
        "--threads", type=int, default=1,
        help="worker threads, default 1; more speed up the det-mode singularity runner, whose "
        "determinants run inside numpy without the GIL, and leave the other runners as fast or "
        "slower; every experiment hands them chunks of up to 256 trials, cut for this many "
        "workers, and starts at most as many threads as there are CPUs or chunks (output is "
        "identical for any value)",
    )
    p_exp.add_argument("--mode", default="default")
    p_exp.add_argument("--primes", help="restrict to this prime set (trivial)")
    p_exp.add_argument("--tolerance", type=float, default=0.02)
    p_exp.add_argument("--min-frequency", type=float, dest="min_frequency")
    p_exp.add_argument("--max-singular", type=int, dest="max_singular")
    p_exp.add_argument("--format", choices=["json", "csv"], default="json")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=_cmd_experiment)

    p_fourier = sub.add_parser("fourier", help="anti-concentration checks and sweeps")
    p_fourier.add_argument("action", choices=["check", "sweep"])
    p_fourier.add_argument("--q", type=int, default=2)
    p_fourier.add_argument("--mu", help="comma-separated weights over F_q", default="1/2,1/2")
    p_fourier.add_argument("--w", help="comma-separated coefficients", default="1")
    p_fourier.add_argument("--r", type=int, default=0)
    p_fourier.add_argument("--v", type=float, default=0.5)
    p_fourier.add_argument("--k", type=int, default=2)
    p_fourier.add_argument("--q-list", default="2,3,4,5", dest="q_list")
    p_fourier.add_argument("--max-m", type=int, default=4, dest="max_m")
    p_fourier.add_argument("--max-den", type=int, default=4, dest="max_den")
    p_fourier.add_argument("--kneser-n", type=int, default=8, dest="kneser_n")
    p_fourier.add_argument("--cosine-instances", type=int, default=10_000, dest="cosine_instances")
    p_fourier.add_argument("--nesting-pairs", type=int, default=200, dest="nesting_pairs")
    p_fourier.add_argument("--seed", type=int, default=0)
    p_fourier.set_defaults(func=_cmd_fourier)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_overrides(parser, args, argv)
        args._argv = argv
        _log_config(args)
        return args.func(args)
    except (ValueError, OSError, OverflowError, RuntimeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
