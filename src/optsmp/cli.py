"""Command-line front end: batch sweeps in, CSV/text reports out.

Subcommands: ``bounds`` (tradeoff report over a parameter grid or protocol
family), ``simulate`` (exact protocol error evaluation), ``verify``
(property suites), ``dcc`` (brute-force deterministic communication cost),
``rank`` (truncated-subspace dimension). Outputs are deterministic functions
of (config, seed): identical runs produce byte-identical files. Exit codes:
0 success, 1 internal failure or failed verification, 2 invalid
configuration, a config or output path that cannot be used, a stdout that
cannot be written, or an internal limit (support, dimension, photon or
input cap) reached, 141 when the reader of stdout closed it before the
output ended.

The front end restates no rule of another layer: ``verify`` names its
suites and default seed and refuses an unknown suite, and CPython's
int-to-str digit limit decides which ranks ``rank`` prints. This module
imports only the numpy-free modules (``bounds``, ``combinatorics``,
``errors``), so ``rank``, ``dcc`` and ``bounds`` run without loading numpy,
which would take most of a fresh process's time. ``simulate`` and
``verify`` import what they use when they run.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterable, Mapping, Sequence

from .bounds import (
    CSV_HEADER,
    ReportPoint,
    build_report,
    qfp_report_points,
)
from .combinatorics import (
    DCC_N_CAP,
    count_rank,
    deterministic_cc_matrix,
    equality_function,
    log_rank_bounds,
    markov_photon_cutoff,
)
from .errors import (
    ConfigError,
    DimensionCapError,
    InputCapError,
    OptSmpError,
    PhotonCapError,
    SupportCapError,
)

DCC_CONVENTION = (
    "protocol-tree depth; leaves are monochromatic rectangles; answer bit not charged"
)
MU_CONVENTION = "per-party-max"
DEFAULT_DELTA = 1e-4


#: Fresh temp-file names tried before an atomic write gives up.
TEMP_NAME_TRIES = 100


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write via a sibling temp file and rename; no partial files on failure.

    A symlink is followed: its target is replaced and the link stays a
    link. An existing target that is not a regular file (a FIFO or a
    device) is written in place with a plain ``open``, since a rename would
    replace it with a file. The temp file is created with mode 0o666 less
    the umask, the mode a plain ``open`` gives a new file
    (``tempfile.mkstemp`` would give 0o600, which the rename keeps). A
    directory is refused before any temp file is made, and a path that
    cannot be written is a :class:`ConfigError`."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output file {path}: Is a directory")
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory = os.path.dirname(os.path.abspath(target))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
    try:
        if not os.path.isfile(target) and os.path.exists(target):
            with open(target, "w") as handle:
                handle.writelines(chunks)
            return
        for _ in range(TEMP_NAME_TRIES):
            tmp = os.path.join(directory, f".optsmp-{os.urandom(6).hex()}.tmp")
            try:
                fd = os.open(tmp, flags, 0o666)
                break
            except FileExistsError:
                continue
        else:
            raise FileExistsError(f"no free temporary file name in {directory}")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text ``chunks`` in order to ``out_path`` or stdout.

    Stdout is flushed here. A closed pipe propagates to :func:`main`; any
    other write error becomes a :class:`ConfigError`, after stdout is
    pointed at the null device so the flush at exit has nothing to fail on."""
    if out_path:
        _write_atomic(out_path, chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write to stdout: {exc.strerror or exc}") from exc


def _load_json(path: str) -> object:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


#: Most points one ``bounds`` sweep may have. The count is taken from the
#: range bounds and list lengths, before any range is expanded.
SWEEP_POINT_CAP = 10**5


def _check_sweep(points: int) -> None:
    if points > SWEEP_POINT_CAP:
        raise DimensionCapError(f"sweep has {points} points, above the cap of {SWEEP_POINT_CAP}")


def _int_list(value, field: str) -> list[int]:
    if isinstance(value, Mapping):
        lo, hi = value.get("min"), value.get("max")
        if type(lo) is not int or type(hi) is not int or lo > hi:
            raise ConfigError(f"field '{field}' range needs integer min <= max")
        _check_sweep(hi - lo + 1)
        return list(range(lo, hi + 1))
    if isinstance(value, list) and value and all(type(v) is int for v in value):
        return list(value)
    raise ConfigError(f"field '{field}' must be a list of integers or a min/max range")


def _float_list(value, field: str) -> list[float]:
    if isinstance(value, list) and value and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return [float(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    raise ConfigError(f"field '{field}' must be a number or list of numbers")


# ---------------------------------------------------------------------------
# bounds

def _bounds_points(config: Mapping) -> tuple[list[ReportPoint], str]:
    kind = config.get("kind", "grid")
    if kind == "grid":
        ms = _int_list(config.get("m"), "m")
        mus = _float_list(config.get("mu"), "mu")
        deltas = _float_list(config.get("delta", DEFAULT_DELTA), "delta")
        _check_sweep(len(ms) * len(mus) * len(deltas))
        points = [
            ReportPoint(m=m, mu=mu, delta=delta)
            for m in ms
            for mu in mus
            for delta in deltas
        ]
        return points, "grid"
    if kind == "qfp":
        ns = _int_list(config.get("n"), "n")
        _check_sweep(len(ns))
        mus = _float_list(config.get("mu"), "mu")
        if len(mus) != 1:
            raise ConfigError("field 'mu' must be a single number for the qfp preset")
        deltas = _float_list(config.get("delta", DEFAULT_DELTA), "delta")
        if len(deltas) != 1:
            raise ConfigError("field 'delta' must be a single number for the qfp preset")
        repeats = config.get("repeats", 3)
        if type(repeats) is not int or repeats < 1:
            raise ConfigError("field 'repeats' must be a positive integer")
        return qfp_report_points(ns, mus[0], deltas[0], repeats), "qfp"
    raise ConfigError(f"field 'kind' must be grid|qfp, got {kind!r}")


def cmd_bounds(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    if not isinstance(config, Mapping):
        raise ConfigError("bounds config must be a JSON object")
    points, kind = _bounds_points(config)
    rows = build_report(points)
    lines = [
        "# log_base=2",
        f"# mu_convention={MU_CONVENTION}",
        f"# config_kind={kind}",
        CSV_HEADER,
    ]
    lines.extend(",".join(row.csv_cells()) for row in rows)
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    from .report import csv_rows
    from .smp import evaluate_error, load_protocol
    from .truncation import perturbed_error_bound, transform_protocol

    spec = _load_json(args.config)
    protocol = load_protocol(spec)
    # One set of pairs for both protocols: a sample is drawn from (seed, n).
    report = evaluate_error(protocol, samples=args.samples, seed=args.seed)
    lines = [
        f"# protocol={report.protocol_name} n={protocol.n} m={protocol.m} mu={protocol.mu!r}",
        f"# log_base=2 mu_convention={MU_CONVENTION}",
        f"# message_tail={protocol.message_tail!r}",
    ]
    if report.seed is not None:
        lines.append(
            f"# mode=sampled samples={len(report.pair_errors)} seed={report.seed} "
            f"mean_error={report.mean_error!r} stderr_mean={report.stderr_mean!r}"
        )
    else:
        lines.append(f"# mode=exhaustive pairs={len(report.pair_errors)}")
    lines.append(
        f"# worst_error={report.worst_error!r} worst_pair={report.worst_pair[0]},{report.worst_pair[1]}"
    )
    t_report = None
    if args.truncate is None:
        lines.append("x,y,f,p_error")
    else:
        truncated = transform_protocol(protocol, args.truncate)
        t_report = evaluate_error(truncated, samples=args.samples, seed=args.seed)
        budget = perturbed_error_bound(report.worst_error, math.sqrt(args.truncate))
        cutoff = markov_photon_cutoff(protocol.mu, args.truncate)
        lines.append(f"# truncate_delta={args.truncate!r} cutoff={cutoff}")
        lines.append(
            f"# worst_error_before={report.worst_error!r} "
            f"worst_error_after={t_report.worst_error!r} error_budget={budget!r}"
        )
        lines.append("x,y,f,p_error,p_error_truncated")
    _emit(itertools.chain(["\n".join(lines) + "\n"], csv_rows(report, t_report)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    """Run one suite, or every suite, and print a line per suite. ``verify``
    owns the suite names and default seed, and refuses an unknown name."""
    # One thread for the BLAS and OpenMP pools behind verify's small dense
    # eigh calls, unless the user chose a count: set before numpy first
    # loads, which in a fresh process is the import below. Extra threads
    # only contend for the cores under load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from . import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    names = None if args.suite is None else [args.suite]
    results = verify.run_suites(names, seed=seed, size=args.max, inject_fault=args.inject_fault)
    lines = [f"# seed={seed} size={'default' if args.max is None else args.max}"]
    for res in results:
        lines.append(res.summary_line())
        for failure in res.failures:
            lines.append(f"counterexample suite={res.name} {failure}")
    all_passed = all(r.passed for r in results)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"overall={'pass' if all_passed else 'FAIL'} suites={len(results)} failures={failed}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# dcc

def cmd_dcc(args: argparse.Namespace) -> int:
    spec = _load_json(args.config)
    if not isinstance(spec, Mapping):
        raise ConfigError("dcc config must be a JSON object")
    kind = spec.get("type")
    if kind == "equality":
        n = spec.get("n")
        if type(n) is not int or not 1 <= n <= DCC_N_CAP:
            raise ConfigError(f"field 'n' must be an integer in 1..{DCC_N_CAP}")
        values = equality_function(n)
    elif kind == "table":
        values = spec.get("values")
        sides = [2 << k for k in range(DCC_N_CAP)]
        if not (
            isinstance(values, list)
            and len(values) in sides
            and all(isinstance(row, list) and len(row) == len(values) for row in values)
        ):
            raise ConfigError(
                f"field 'values' must be a square list of row lists with side in {sides}"
            )
    else:
        raise ConfigError(f"field 'type' must be equality|table, got {kind!r}")
    cost = deterministic_cc_matrix(values)
    _emit([f"D={cost}\nconvention={DCC_CONVENTION}\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# rank

def _check_printable_estimate(modes: int, cutoff: int) -> None:
    """Refuse C(cutoff + modes, modes) before it is counted when an lgamma
    estimate of its digit count clears the limit by at least one digit, so
    no huge binomial is built only to be refused. The margin also covers the
    rounding of the lgamma terms, a few ulps of the largest. Nearer the
    limit, or past lgamma's range, :func:`cmd_rank` decides when it converts
    the exact count; invalid arguments are left for ``count_rank`` to report."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or modes < 1 or cutoff < 0:
        return
    try:
        ln_total = math.lgamma(cutoff + modes + 1)
    except OverflowError:
        return
    ln_rank = ln_total - math.lgamma(cutoff + 1) - math.lgamma(modes + 1)
    if ln_rank - 8 * sys.float_info.epsilon * ln_total >= (limit + 1) * math.log(10):
        raise DimensionCapError(
            f"rank has about {math.floor(ln_rank / math.log(10)) + 1} decimal digits, above "
            f"the {limit}-digit int-to-str limit; log2_rank={ln_rank / math.log(2)!r}"
        )


def cmd_rank(args: argparse.Namespace) -> int:
    """Print C(a + m, m) and its log2, with the closed-form bounds when the
    cutoff comes from ``--mu``. CPython decides whether the rank can be
    printed: a rank past its int-to-str digit limit is an internal limit."""
    if args.a is None and args.mu is None:
        raise ConfigError("rank needs either a cutoff argument or --mu")
    cutoff = args.a if args.a is not None else markov_photon_cutoff(args.mu, args.delta)
    _check_printable_estimate(args.m, cutoff)
    if args.a is not None:
        result = count_rank(args.m, args.a)
        head, tail = f"m={result.modes} a={result.cutoff}", ""
    else:
        result = log_rank_bounds(args.m, args.mu, args.delta)
        head = f"m={args.m} mu={args.mu!r} delta={args.delta!r} a={result.cutoff}"
        tail = f" bound_photon={result.bound_photon!r} bound_mode={result.bound_mode!r}"
    try:
        rank = str(result.rank)
    except ValueError as exc:
        raise DimensionCapError(
            f"rank has {math.floor(math.log10(result.rank)) + 1} decimal digits, above the "
            f"{sys.get_int_max_str_digits()}-digit int-to-str limit; log2_rank={result.log2_rank!r}"
        ) from exc
    _emit([f"{head} rank={rank} log2_rank={result.log2_rank!r}{tail}\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="optsmp",
        description="Photon-truncation and communication tradeoff reports for optical SMP protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="tradeoff report over a grid or protocol family")
    p_bounds.add_argument("--config", required=True, help="JSON sweep description")
    p_bounds.add_argument("--out", help="output CSV path (stdout when omitted)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="exact error report for a protocol description")
    p_sim.add_argument("--config", required=True, help="JSON protocol description")
    p_sim.add_argument("--out", help="output CSV path (stdout when omitted)")
    p_sim.add_argument("--truncate", type=float, help="also evaluate the cutoff-truncated protocol at this delta")
    p_sim.add_argument("--samples", type=int, help="sampled mode: number of input pairs")
    p_sim.add_argument("--seed", type=int, help="seed for sampled mode")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", help="run one suite instead of all")
    p_verify.add_argument("--seed", type=int, help="ensemble seed (verify.DEFAULT_SEED when omitted)")
    p_verify.add_argument(
        "--max", type=int, help="suite size (cases or sweep bound), up to each suite's cap"
    )
    p_verify.add_argument("--out", help="write the summary to this path")
    p_verify.add_argument(
        "--inject-fault",
        help="test mode: make the named suite's tolerance unsatisfiable (it must be in the run)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dcc = sub.add_parser("dcc", help=f"exact deterministic communication cost (n <= {DCC_N_CAP})")
    p_dcc.add_argument("--config", required=True, help="JSON function table")
    p_dcc.add_argument("--out", help="output path (stdout when omitted)")
    p_dcc.set_defaults(func=cmd_dcc)

    p_rank = sub.add_parser("rank", help="dimension of the photon-cutoff subspace")
    p_rank.add_argument("m", type=int, help="mode count")
    p_rank.add_argument("a", type=int, nargs="?", help="photon cutoff")
    p_rank.add_argument("--mu", type=float, help="derive the cutoff from mu and --delta")
    p_rank.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p_rank.add_argument("--out", help="output path (stdout when omitted)")
    p_rank.set_defaults(func=cmd_rank)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout: write no more, not even in the final
        # flush at exit, and exit as a shell reports a SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SupportCapError, DimensionCapError, PhotonCapError, InputCapError) as exc:
        print(f"error: internal limit: {exc}", file=sys.stderr)
        return 2
    except OptSmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
