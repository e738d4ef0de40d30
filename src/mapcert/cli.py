"""Command-line surface: analyze one map, sweep the dimension grid, or
generate seeded test documents.

Exit codes are a stable contract: 0 success, 2 parse/schema/flag errors,
3 positivity-heuristic failure in analyze, 4 a sweep cell matching neither
closed-form candidate, 5 an internal failure (two zero routes disagreeing,
an oracle that does not settle, a linear-algebra routine that fails), which
is never the input's fault, and 141 (128 + SIGPIPE, what a shell reports for
a writer killed by a closed pipe) when stdout is closed before the output is
written, as in ``mapcert analyze DOC | head -1``; nothing more is printed
then.  Output is a pure function of (input, flags, seed, tool version);
nothing time- or path-dependent is ever printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certify import certify_exposed, certify_optimal
from .documents import (
    CertificateDocument,
    MapDocument,
    SweepDocument,
    certificate_to_record,
    content_digest,
    matrix_to_payload,
    parse_map_file,
    render_certificate_document,
    render_map_document,
    to_map_operator,
    zero_set_summary,
)
from .errors import CrossCheckError, MapcertError, OracleUnstable
from .experiments import (
    DEFAULT_M_RANGE,
    DEFAULT_N_RANGE,
    NEITHER_RULE,
    random_kraus_operators,
    random_rank_operator,
    run_dimension_sweep,
    run_rank2_count_check,
    sweep_cells,
)
from .linalg import DEFAULT_TOL
from .maps import is_positive_heuristic
from .zeros import harvest_zeros

__all__ = ["build_parser", "main"]


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N..M, got {text!r}")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return list(range(lo, hi + 1))


def _integer_from(low: int):
    """An argparse type: an integer of at least ``low``, reported with its flag before any output."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcert",
        description="Numerical certificates of optimality and exposedness for positive maps.",
    )
    parser.add_argument("--version", action="version", version=f"mapcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="harvest zeros and certify one map document")
    analyze.add_argument("file", help="path to a map document (JSON)")
    analyze.add_argument("--seed", type=_integer_from(0), default=0)
    analyze.add_argument("--tol", type=float, default=None, help="override rank_rel_tol")
    analyze.add_argument("--starts", type=_integer_from(1), default=None, help="harvest start budget")
    analyze.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser("sweep", help="measure strong dimensions over an (n, m, rank) grid")
    sweep.add_argument("--n-range", type=_parse_range, default=DEFAULT_N_RANGE, metavar="A[..B]")
    sweep.add_argument("--m-range", type=_parse_range, default=DEFAULT_M_RANGE, metavar="A[..B]")
    sweep.add_argument("--seed", type=_integer_from(0), default=0)
    sweep.add_argument("--json", default=None, metavar="PATH")
    sweep.set_defaults(func=_cmd_sweep)

    generate = sub.add_parser("generate", help="write a seeded map document to stdout")
    generate.add_argument("--kind", required=True, choices=("conjugation", "random-cp", "random-choi"))
    generate.add_argument("--n", type=_integer_from(1), required=True)
    generate.add_argument("--m", type=_integer_from(1), required=True)
    generate.add_argument("--rank", type=int, default=None, help="conjugation only")
    generate.add_argument("--kraus", type=int, default=None, help="random-cp only")
    generate.add_argument(
        "--transposed",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="conjugation only; defaults to transposed",
    )
    generate.add_argument("--seed", type=_integer_from(0), default=0)
    generate.set_defaults(func=_cmd_generate)
    return parser


def _tolerances(args):
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOL
    return dataclasses.replace(DEFAULT_TOL, rank_rel_tol=args.tol)


def _cmd_analyze(args) -> int:
    data = Path(args.file).read_bytes()
    doc = parse_map_file(data)
    tol = _tolerances(args)
    phi = to_map_operator(doc)
    digest = content_digest(doc)
    headline = f"map: {doc.kind} {phi.dim_in} -> {phi.dim_out}"
    if doc.kind == "conjugation":
        headline += " (transposed)" if doc.transposed else " (untransposed)"
    print(headline)
    print(f"digest: {digest}")
    positivity = is_positive_heuristic(phi, tol=tol, seed=args.seed)
    if not positivity.passed:
        print(f"positivity heuristic: FAILED (worst value {positivity.worst_value:.6e})")
        print("worst input direction:", _format_vector(positivity.worst_vector))
        return 3
    print(f"positivity heuristic: passed (worst value {positivity.worst_value:.3e})")
    zs = harvest_zeros(phi, seed=args.seed, tol=tol, starts=args.starts)
    optimal = certify_optimal(phi, zs, tol)
    exposed = certify_exposed(phi, zs, tol)
    print(f"zero pairs kept: {len(zs.pairs)} (saturated: {'yes' if zs.saturated else 'no'})")
    print(f"irreducible: {'yes' if exposed.irreducible else 'no'}; "
          f"irreducible on image: {'yes' if exposed.irreducible_on_image else 'no'}")
    print(f"Optimal: {optimal.verdict}  (weak span {optimal.measured_dim} / {optimal.required_dim})")
    print(f"Exposed: {exposed.verdict}  (strong span {exposed.measured_dim} / {exposed.required_dim})")
    print(f"note: {exposed.conditional_note}")
    if args.json:
        report = CertificateDocument(
            input_digest=digest,
            certificates=[certificate_to_record(optimal), certificate_to_record(exposed)],
            zero_set_summary=zero_set_summary(zs, optimal.measured_dim, exposed.measured_dim),
            tool_version=__version__,
            seed=args.seed,
            tolerances=dataclasses.asdict(tol),
        )
        Path(args.json).write_bytes(render_certificate_document(report))
    return 0


def _format_vector(vec) -> str:
    if vec is None:
        return "(none)"
    return "[" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in vec) + "]"


_SWEEP_HEADER = f"{'n':>3} {'m':>3} {'rank':>4} {'measured':>8} {'input-rule':>10} {'output-rule':>11} {'target':>6}  agrees"


def _sweep_row(report) -> str:
    return (
        f"{report.n:>3} {report.m:>3} {report.rank_v:>4} {report.measured_strong_dim:>8} "
        f"{report.formula_input_rule:>10} {report.formula_output_rule:>11} "
        f"{report.strong_target:>6}  {report.agrees_with}"
    )


def _cmd_sweep(args) -> int:
    rank2 = {}
    if 2 in args.n_range:
        print(f"rank-2 count check (n=2, target 4m-2), seed {args.seed}")
        print(_SWEEP_HEADER)
        for m in args.m_range:
            if m < 2:
                continue
            rank2[m] = run_rank2_count_check(m, seed=args.seed)
            print(_sweep_row(rank2[m]))
        print()
    print(f"dimension sweep, seed {args.seed}")
    print(_SWEEP_HEADER)
    reports = []
    for n, m, rank_v in sweep_cells(args.n_range, args.m_range):
        # the rank-2 check above measured every (2, m, 2) grid cell
        report = rank2[m] if (n, rank_v) == (2, 2) else run_dimension_sweep(n, m, rank_v, seed=args.seed)
        reports.append(report)
        print(_sweep_row(report))
    if args.json:
        doc = SweepDocument(
            sweep=[dataclasses.asdict(r) for r in reports],
            tool_version=__version__,
            seed=args.seed,
            tolerances=dataclasses.asdict(DEFAULT_TOL),
        )
        Path(args.json).write_bytes(render_certificate_document(doc))
    if any(r.agrees_with == NEITHER_RULE for r in reports):
        print("at least one cell matched neither closed-form candidate", file=sys.stderr)
        return 4
    return 0


def _cmd_generate(args) -> int:
    if args.rank is not None and args.kind != "conjugation":
        print("error: --rank is only valid for --kind conjugation", file=sys.stderr)
        return 2
    if args.transposed is not None and args.kind != "conjugation":
        print("error: --transposed is only valid for --kind conjugation", file=sys.stderr)
        return 2
    if args.kraus is not None and args.kind != "random-cp":
        print("error: --kraus is only valid for --kind random-cp", file=sys.stderr)
        return 2
    n, m, seed = args.n, args.m, args.seed
    if args.kind == "conjugation":
        rank_v = args.rank if args.rank is not None else min(n, m)
        v = random_rank_operator(n, m, rank_v, seed=seed)
        doc = MapDocument(
            kind="conjugation",
            dim_in=n,
            dim_out=m,
            payload=matrix_to_payload(v),
            transposed=True if args.transposed is None else args.transposed,
            meta={"generator": "random-rank", "rank": str(rank_v), "seed": str(seed)},
        )
    elif args.kind == "random-cp":
        count = args.kraus if args.kraus is not None else 3
        kraus = random_kraus_operators(n, m, count, seed=seed)
        doc = MapDocument(
            kind="kraus",
            dim_in=n,
            dim_out=m,
            payload=[matrix_to_payload(k) for k in kraus],
            meta={"generator": "random-cp", "kraus": str(count), "seed": str(seed)},
        )
    else:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
        choi = g @ g.conj().T
        doc = MapDocument(
            kind="choi",
            dim_in=n,
            dim_out=m,
            payload=matrix_to_payload(choi),
            meta={"generator": "random-choi", "seed": str(seed)},
        )
    sys.stdout.write(render_map_document(doc).decode("utf-8"))
    return 0


def _stdout_to_devnull():
    """Point stdout's file descriptor, if it has one, at os.devnull, so that
    flushing what is left at interpreter exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; fold exits into codes
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # an OSError, so caught before the input arms
        _stdout_to_devnull()
        return 141
    except (CrossCheckError, OracleUnstable, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError: caught here, before the input arms
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (MapcertError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
