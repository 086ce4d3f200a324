"""Batch CLI wiring the pipeline end to end.

Commands: ``ccr``, ``crosseff``, ``shapley``, ``allocate``, ``pipeline``.
Exit codes: 0 ok, 2 I/O problem, 3 validation or usage error, 4 numerical
degeneracy.  Reports go to stdout in CSV or JSON; ``--out`` additionally
writes the command's main artifact (the cross-efficiency matrix for
``crosseff``, the report itself elsewhere).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import allocation, dea, game, report
from .dataset import (
    CrossEfficiencyMatrix,
    DataError,
    GroupAssignment,
    ParseError,
    ValidationError,
    _parse_cell,
    load_dataset,
    load_groups,
    load_matrix,
    write_matrix,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_DEGENERATE = 4

# computed values are printed at 2 decimals; half a print unit separates
# "rounds the same" from a genuine mismatch against a fixture
FIXTURE_TOL = 0.005


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 3
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="revalloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("ccr", "per-DMU self-efficiency scores"),
        ("crosseff", "cross-efficiency matrix (written to --out, default matrix.csv)"),
        ("shapley", "share triples from a matrix fixture or a dataset"),
        ("allocate", "allocation plan with optimistic/pessimistic brackets"),
        ("pipeline", "dataset -> matrix -> shares -> allocation in one run"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", help="dataset CSV path")
        p.add_argument("--matrix", help="cross-efficiency matrix CSV path")
        p.add_argument("--groups", help="explicit ally groups CSV (overrides --clusters)")
        p.add_argument("--clusters", type=int, help="cluster the DMUs into H ally groups")
        p.add_argument("--revenue", type=float, help="common revenue to allocate")
        p.add_argument("--empty-coalition", choices=("exclude", "unit", "calibrate"),
                       default=game.DEFAULT_EMPTY_COALITION,
                       help="handling of the undefined empty-coalition share term")
        p.add_argument("--reference", help="per-DMU reference shares CSV for calibrate")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", type=_decimals, default=2,
                       help="display decimals in CSV reports")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reruns")
        p.add_argument("--out", help="artifact path (matrix for crosseff, report otherwise)")
    return parser


def _decimals(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        rep = _run(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DataError, allocation.AllocationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (dea.SolverFailure, game.DegenerateDenominatorError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO

    text = rep.to_json() if args.format == "json" else rep.to_csv(args.precision)
    sys.stdout.write(text)
    if args.out and args.command != "crosseff":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _run(args) -> report.Report:
    handler = {
        "ccr": cmd_ccr,
        "crosseff": cmd_crosseff,
        "shapley": cmd_shapley,
        "allocate": cmd_allocate,
        "pipeline": cmd_pipeline,
    }[args.command]
    return handler(args)


# ------------------------------------------------------------------ commands

def cmd_ccr(args) -> report.Report:
    if not args.input:
        raise _UsageError("ccr requires --input")
    data = load_dataset(args.input)
    theta = dea.ccr_all(data).theta
    discrepancies = []
    if args.matrix:
        fixture = load_matrix(args.matrix)
        _check_names(fixture, data.names)
        for name, ours, theirs in zip(data.names, theta, fixture.diagonal()):
            if abs(ours - theirs) > FIXTURE_TOL:
                discrepancies.append(
                    f"self-efficiency mismatch for {name}: computed {ours:.6f}, "
                    f"fixture diagonal {theirs:.6f}"
                )
    results = {"theta": {"names": list(data.names), "values": theta.tolist()}}
    return _report(args, results, discrepancies)


def cmd_crosseff(args) -> report.Report:
    if not args.input:
        raise _UsageError("crosseff requires --input")
    data = load_dataset(args.input)
    groups = _resolve_groups(args, data)
    matrix = dea.cross_efficiency_matrix(data, groups)
    theta = matrix.diagonal()  # the self-scores, solved once inside the matrix build
    discrepancies = []
    if args.matrix:
        fixture = load_matrix(args.matrix)
        _check_names(fixture, data.names)
        diff = np.abs(matrix.values - fixture.values)
        d, j = np.unravel_index(int(diff.argmax()), diff.shape)
        discrepancies.append(
            f"matrix regeneration vs fixture: max abs deviation {diff.max():.6f} "
            f"at ({data.names[d]}, {data.names[j]}); "
            f"{int((diff > FIXTURE_TOL).sum())}/{diff.size} entries differ beyond {FIXTURE_TOL}"
        )
    out_path = args.out or "matrix.csv"
    write_matrix(matrix, out_path)  # full precision so downstream reruns agree
    results = {
        "theta": {"names": list(data.names), "values": theta.tolist()},
        "matrix": {"names": matrix.names, "values": matrix.values.tolist()},
    }
    return _report(args, results, discrepancies)


def cmd_shapley(args) -> report.Report:
    matrix, results, discrepancies = _obtain_matrix(args)
    triple, convention, notes = _compute_triples(args, matrix)
    discrepancies.extend(notes)
    results["shapley"] = _shapley_payload(matrix.names, triple, convention)
    return _report(args, results, discrepancies)


def cmd_allocate(args) -> report.Report:
    if args.revenue is None:
        raise _UsageError("allocate requires --revenue")
    matrix, results, discrepancies = _obtain_matrix(args)
    triple, convention, notes = _compute_triples(args, matrix)
    discrepancies.extend(notes)
    plan = allocation.allocate(triple, args.revenue, names=matrix.names)
    results["shapley"] = _shapley_payload(matrix.names, triple, convention)
    results["allocation"] = _allocation_payload(plan)
    return _report(args, results, discrepancies)


def cmd_pipeline(args) -> report.Report:
    if not args.input:
        raise _UsageError("pipeline requires --input")
    if args.revenue is None:
        raise _UsageError("pipeline requires --revenue")
    data = load_dataset(args.input)
    groups = _resolve_groups(args, data)
    matrix = dea.cross_efficiency_matrix(data, groups)
    theta = matrix.diagonal()  # the self-scores, solved once inside the matrix build
    triple, convention, notes = _compute_triples(args, matrix)
    plan = allocation.allocate(triple, args.revenue, names=matrix.names)
    results = {
        "theta": {"names": list(data.names), "values": theta.tolist()},
        "matrix": {"names": matrix.names, "values": matrix.values.tolist()},
        "shapley": _shapley_payload(matrix.names, triple, convention),
        "allocation": _allocation_payload(plan),
    }
    return _report(args, results, notes)


# ------------------------------------------------------------------- helpers

def _resolve_groups(args, data) -> GroupAssignment:
    if args.groups:
        return load_groups(args.groups, data.names)
    if args.clusters is not None:
        return dea.cluster_groups(data, args.clusters)
    return GroupAssignment.single_group(data.n)


def _obtain_matrix(args):
    """Matrix fixture or computed-from-dataset, exactly one source."""
    if bool(args.input) == bool(args.matrix):
        raise _UsageError(f"{args.command} requires exactly one of --input or --matrix")
    if args.matrix:
        return load_matrix(args.matrix), {}, []
    data = load_dataset(args.input)
    groups = _resolve_groups(args, data)
    matrix = dea.cross_efficiency_matrix(data, groups)
    results = {"matrix": {"names": matrix.names, "values": matrix.values.tolist()}}
    return matrix, results, []


def _compute_triples(args, matrix: CrossEfficiencyMatrix):
    """Apply the empty-coalition flag, calibrating against a reference if asked.

    Calibration runs the game once: the ``unit`` triple is the ``exclude``
    triple plus the empty-coalition term.
    """
    calibrate = args.empty_coalition == "calibrate"
    if calibrate:
        if not args.reference:
            raise _UsageError("--empty-coalition calibrate requires --reference")
        reference = _load_reference(args.reference, matrix.names)
    try:
        triple = game.shapley_triples(matrix, "exclude" if calibrate else args.empty_coalition)
    except game.DegenerateDenominatorError as err:
        raise game.DegenerateDenominatorError(err.player, err.mask, matrix.names) from None
    if not calibrate:
        return triple, args.empty_coalition, []
    triples = {"exclude": triple, "unit": game.include_empty_coalition(triple)}
    fits = {c: float(np.abs(triples[c].phi - reference).max()) for c in game.EMPTY_CONVENTIONS}
    winner = min(game.EMPTY_CONVENTIONS, key=lambda c: fits[c])
    note = (
        "empty-coalition calibration: "
        + ", ".join(f"{c} max-abs-dev {fits[c]:.4f}" for c in game.EMPTY_CONVENTIONS)
        + f"; selected {winner}"
    )
    return triples[winner], winner, [note]


def _load_reference(path, names) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
                if row and any(c.strip() for c in row)]
    if not rows or [h.strip() for h in rows[0][1]] != ["dmu", "phi"]:
        raise ValidationError("reference file must have header 'dmu,phi'")
    table = {}
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"reference line {lineno}: expected 2 fields, got {len(row)}")
        table[row[0].strip()] = _parse_cell(row[1], f"reference line {lineno}")
    missing = [nm for nm in names if nm not in table]
    if missing:
        raise ValidationError(f"reference is missing DMUs {missing}")
    return np.array([table[nm] for nm in names])


def _check_names(matrix: CrossEfficiencyMatrix, names) -> None:
    if matrix.names != list(names):
        raise ValidationError(
            f"matrix names {matrix.names} do not match dataset names {list(names)}"
        )


def _shapley_payload(names, triple, convention) -> dict:
    return {
        "names": list(names),
        "empty_coalition": convention,
        "phi_lower": triple.phi_lower.tolist(),
        "phi": triple.phi.tolist(),
        "phi_upper": triple.phi_upper.tolist(),
    }


def _allocation_payload(plan) -> dict:
    return {
        "names": plan.names,
        "revenue": plan.revenue,
        "shares": plan.shares.tolist(),
        "lower": plan.lower.tolist(),
        "central": plan.central.tolist(),
        "upper": plan.upper.tolist(),
    }


def _report(args, results, discrepancies) -> report.Report:
    config = {
        "command": args.command,
        "input": args.input,
        "matrix": args.matrix,
        "groups": args.groups,
        "clusters": args.clusters,
        "revenue": args.revenue,
        "empty_coalition": args.empty_coalition,
        "reference": args.reference,
        "format": args.format,
        "precision": args.precision,
        "out": args.out,
    }
    provenance = report.build_provenance(
        {
            "input": args.input,
            "matrix": args.matrix,
            "groups": args.groups,
            "reference": args.reference,
        },
        timestamp=not args.no_timestamp,
    )
    return report.Report(
        command=args.command,
        config=config,
        provenance=provenance,
        results=results,
        discrepancies=discrepancies,
    )


if __name__ == "__main__":
    sys.exit(main())
