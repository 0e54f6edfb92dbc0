"""Command-line front door.

Subcommands: ``certify`` (full matrix certification), ``dft-limit``
(missing-sample uniqueness limit), ``gen`` (matrix construction to CSV),
``recon`` (greedy recovery of one measurement vector), and ``experiment``
(Monte-Carlo recovery sweep). All indices on flags and in reports are 0-based.

Exit status: 0 on success, 1 on any input error, 2 when ``certify`` or
``dft-limit`` results are approximate because the evaluation budget ran out
(suppressed by ``--allow-approx``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dft_uniqueness as dftu
from . import matrix_core as mc
from . import recon
from ._linalg import DEFAULT_BUDGET
from .certify import certify


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes
    def error(self, message):
        raise _UsageError(message)


def _finish(args, text: str, approx: str | None = None) -> int:
    """Write ``text`` to ``--out`` or stdout; exit status 2 when a budget cut the result.

    ``approx``, set only when the result is a lower bound, completes the
    warning; ``--allow-approx`` keeps the status at 0.
    """
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if approx and not args.allow_approx:
        print(f"warning: budget exhausted, {approx}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cscert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a measurement matrix from CSV")
    p.add_argument("--matrix", required=True, help="matrix CSV path")
    p.add_argument("--kmax", type=int, default=None, help="highest RIP order (default min(M, 5))")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                   help="max submatrix evaluations for spark, and again for the RIP profile")
    p.add_argument("--normalize", action="store_true",
                   help="normalize columns before certification")
    p.add_argument("--allow-approx", action="store_true",
                   help="exit 0 even if the budget truncated a sweep")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("dft-limit", help="guaranteed-unique sparsity for missing samples")
    p.add_argument("--n", type=int, default=None, help="signal length (power of two)")
    p.add_argument("--missing", default=None, help="comma-separated missing positions")
    p.add_argument("--pattern", default=None,
                   help="pattern file: first line N, second line missing positions")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                   help="max row sets the exact zero-set sweeps evaluate; the top level tests "
                        "column subsets instead when they are fewer and its row sets would fit")
    p.add_argument("--allow-approx", action="store_true",
                   help="exit 0 even if the budget truncated the sweep")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="construct a matrix and write it to CSV")
    p.add_argument("kind", choices=("gaussian", "partial-idft", "random-fourier"))
    p.add_argument("--out", required=True, help="destination CSV path")
    p.add_argument("--rows", type=int, default=None, help="gaussian: measurement count")
    p.add_argument("--cols", type=int, default=None, help="gaussian: coefficient count")
    p.add_argument("--seed", type=int, default=0, help="gaussian / random times seed")
    p.add_argument("--n", type=int, default=None, help="Fourier: number of harmonics")
    p.add_argument("--positions", default=None, help="partial-idft: sample positions")
    p.add_argument("--interval", type=float, default=1.0, help="random-fourier: interval length")
    p.add_argument("--times", default=None, help="random-fourier: explicit sample instants")
    p.add_argument("--count", type=int, default=None,
                   help="random-fourier: draw this many uniform random instants")
    p.add_argument("--normalize", action="store_true", help="scale columns to unit energy")

    p = sub.add_parser("recon", help="recover one sparse vector with matching pursuit")
    p.add_argument("--matrix", required=True)
    p.add_argument("--measurements", required=True,
                   help="CSV with one measurement value per line")
    p.add_argument("--k", type=int, required=True, help="number of atoms to select")
    p.add_argument("--tol", type=float, default=recon.DEFAULT_RESIDUAL_TOL,
                   help="residual stopping tolerance")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="Monte-Carlo recovery-rate sweep")
    p.add_argument("--matrix", required=True)
    p.add_argument("--ks", required=True, help="comma-separated sparsities to test")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=recon.DEFAULT_RECOVERY_TOL,
                   help="relative l2 error counted as exact recovery")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    return parser


def _cmd_certify(args) -> int:
    if args.kmax is not None and args.kmax < 1:
        raise _UsageError("--kmax must be positive")
    a = mc.load_matrix_csv(args.matrix)
    if args.normalize:
        a = mc.normalize_columns(a)
    report = certify(a, k_max=args.kmax, budget=args.budget)
    text = report.to_json() if args.format == "json" else report.to_text()
    return _finish(args, text, None if report.all_exact else "results are lower bounds")


def _cmd_dft_limit(args) -> int:
    if args.pattern is not None:
        if args.n is not None or args.missing is not None:
            raise _UsageError("--pattern excludes --n/--missing")
        pattern = dftu.load_pattern(args.pattern)
    else:
        if args.n is None:
            raise _UsageError("either --pattern or --n is required")
        missing = mc.parse_list(args.missing or "", "--missing")
        pattern = dftu.MissingSamplePattern.of(args.n, missing)
    result = dftu.dft_sparsity_limit(pattern, budget=args.budget)
    text = result.to_json() if args.format == "json" else result.to_text()
    return _finish(args, text, None if result.exact else "k_max is a lower bound")


def _drawn_times(seed: int, count: int, interval: float):
    # a generator: nothing is drawn until the builder has checked --n and --interval
    yield from np.sort(np.random.default_rng(seed).random(count) * interval)


def _cmd_gen(args) -> int:
    if args.kind == "gaussian":
        if args.rows is None or args.cols is None:
            raise _UsageError("gaussian needs --rows and --cols")
        a = mc.build_gaussian(args.rows, args.cols, args.seed)
        if args.normalize:
            a = mc.normalize_columns(a)
    elif args.kind == "partial-idft":
        if args.n is None or args.positions is None:
            raise _UsageError("partial-idft needs --n and --positions")
        positions = mc.parse_list(args.positions, "--positions")
        a = mc.build_partial_idft(args.n, positions, normalize=args.normalize)
    else:
        if args.n is None:
            raise _UsageError("random-fourier needs --n")
        if args.times is not None:
            times = mc.parse_list(args.times, "--times", float)
        elif args.count is not None:
            if args.count < 1:
                raise _UsageError("--count must be positive")
            times = _drawn_times(args.seed, args.count, args.interval)
        else:
            raise _UsageError("random-fourier needs --times or --count")
        a = mc.build_random_partial_fourier(args.n, args.interval, times,
                                            normalize=args.normalize)
    mc.save_matrix_csv(a, args.out)
    return 0


def _load_measurements(path) -> np.ndarray:
    vec = mc.load_matrix_csv(path)
    if vec.cols != 1:
        raise _UsageError(f"{path}: expected one measurement per line, got {vec.cols} columns")
    return vec.entries[:, 0]


def _cmd_recon(args) -> int:
    if args.k < 1:
        raise _UsageError("--k must be positive")
    recon.check_tol(args.tol, "--tol")
    a = mc.load_matrix_csv(args.matrix)
    y = _load_measurements(args.measurements)
    x, residual = recon.omp(a, y, k_target=args.k, residual_tol=args.tol)
    if args.format == "json":
        d = {
            "length": x.length,
            "support": list(x.support),
            "values": [[v.real, v.imag] for v in x.values],
            "residual": residual,
        }
        text = json.dumps(d, indent=2) + "\n"
    else:
        lines = [f"recovered {x.nnz} atoms, residual {residual}"]
        lines += [f"  x[{i}] = {v}" for i, v in zip(x.support, x.values)]
        text = "\n".join(lines) + "\n"
    return _finish(args, text)


def _cmd_experiment(args) -> int:
    recon.check_tol(args.tol, "--tol")
    a = mc.load_matrix_csv(args.matrix)
    ks = mc.parse_list(args.ks, "--ks")
    if not ks:
        raise _UsageError("--ks must name at least one sparsity")
    report = recon.monte_carlo(a, ks, trials=args.trials, seed=args.seed,
                               recovery_tol=args.tol)
    return _finish(args, report.to_json() if args.format == "json" else report.to_csv())


_COMMANDS = {
    "certify": _cmd_certify,
    "dft-limit": _cmd_dft_limit,
    "gen": _cmd_gen,
    "recon": _cmd_recon,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise _UsageError("--seed must be non-negative")
        if not getattr(args, "budget", 1) >= 1:
            raise _UsageError(f"--budget must be at least 1, got {args.budget}")
        # a sweep can take minutes; a report with nowhere to go must fail before it
        if getattr(args, "out", None) and not Path(args.out).parent.is_dir():
            raise _UsageError(f"--out: no such directory: {Path(args.out).parent}")
        return _COMMANDS[args.command](args)
    except (_UsageError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
