"""Batch CLI wiring the pipeline end to end.

Commands: ``ccr``, ``crosseff``, ``shapley``, ``allocate``, ``pipeline``.
Each runs a prefix or suffix of one chain of stages, in a fixed order:
self-scores (theta), the cross-efficiency matrix, the share triples, and
the allocation.  Game-stage commands take the matrix from ``--input`` or a
``--matrix`` fixture; dataset commands given ``--matrix`` compare their
result with the fixture in the report's discrepancy ledger.  An input flag
the command would not read is a usage error.

Exit codes: 0 ok, 2 I/O problem (also a failed ``--out`` write), 3
validation or usage error, 4 numerical degeneracy.  Reports go to stdout in
CSV or JSON; ``--out`` additionally writes the command's main artifact (the
cross-efficiency matrix for ``crosseff``, the report itself elsewhere).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import allocation, dea, game, report
from .dataset import (
    CrossEfficiencyMatrix,
    DataError,
    GroupAssignment,
    ValidationError,
    load_dataset,
    load_groups,
    load_matrix,
    load_reference,
    write_matrix,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_DEGENERATE = 4

# computed values are printed at 2 decimals; half a print unit separates
# "rounds the same" from a genuine mismatch against a fixture
FIXTURE_TOL = 0.005
# CSV cells are formatted at --precision decimals; 17 shows every digit of a
# float in [0.1, 1), and a larger value would only pad each cell with zeros
MAX_PRECISION = 17


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
        p.add_argument("--input", type=_path, help="dataset CSV path")
        p.add_argument("--matrix", type=_path, help="cross-efficiency matrix CSV path")
        p.add_argument("--groups", type=_path,
                       help="explicit ally groups CSV (not with --clusters)")
        p.add_argument("--clusters", type=int, help="cluster the DMUs into H ally groups")
        p.add_argument("--revenue", type=float, help="common revenue to allocate")
        p.add_argument("--empty-coalition", choices=(*game.EMPTY_CONVENTIONS, "calibrate"),
                       default=game.DEFAULT_EMPTY_COALITION,
                       help="handling of the undefined empty-coalition share term")
        p.add_argument("--reference", type=_path,
                       help="per-DMU reference shares CSV for calibrate")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", type=_decimals, default=2,
                       help=f"display decimals in CSV reports (0-{MAX_PRECISION})")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reruns")
        p.add_argument("--out", type=_path,
                       help="artifact path (matrix for crosseff, report otherwise)")
    return parser


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    return text


def _decimals(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    decimals = int(text)
    if decimals > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"expected at most {MAX_PRECISION} decimals, got {text!r}")
    return decimals


# command -> (the flags it requires, in the order they are checked; the
# input flags it reads; the stages whose results it reports).  "source"
# means exactly one of --input and --matrix.
_DATASET = ("input", "matrix", "groups", "clusters")
_GAME = _DATASET + ("empty_coalition", "reference")
COMMANDS = {
    "ccr": (("input",), ("input", "matrix"), ("theta",)),
    "crosseff": (("input",), _DATASET, ("theta", "matrix")),
    "shapley": (("source",), _GAME, ("matrix", "shapley")),
    "allocate": (("revenue", "source"), _GAME + ("revenue",), ("matrix", "shapley", "allocation")),
    "pipeline": (("input", "revenue"), _GAME + ("revenue",), tuple(report.CSV_SECTIONS)),
}
# every input flag, with its value when it is not given
INPUT_FLAGS = {"input": None, "matrix": None, "groups": None, "clusters": None, "revenue": None,
               "empty_coalition": game.DEFAULT_EMPTY_COALITION, "reference": None}

# exception -> exit code; a failure anywhere, the --out write included, exits here
EXIT_CODES = {
    _UsageError: EXIT_VALIDATION,
    DataError: EXIT_VALIDATION,
    allocation.AllocationError: EXIT_VALIDATION,
    dea.SolverFailure: EXIT_DEGENERATE,
    game.DegenerateDenominatorError: EXIT_DEGENERATE,
    OSError: EXIT_IO,
}

# config keys after "command", in report order, and the input files hashed
CONFIG_KEYS = (*INPUT_FLAGS, "format", "precision", "out")
INPUT_FILES = ("input", "matrix", "groups", "reference")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        rep = _run(args)
        text = rep.to_json() if args.format == "json" else rep.to_csv(args.precision)
        if args.out and args.command != "crosseff":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(text)
    except tuple(EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(err, cls))
    return EXIT_OK


def _run(args) -> report.Report:
    required, reads, stages = COMMANDS[args.command]
    for flag in required:
        if flag == "source":
            if bool(args.input) == bool(args.matrix):
                raise _UsageError(f"{args.command} requires exactly one of --input or --matrix")
        elif getattr(args, flag) is None:
            raise _UsageError(f"{args.command} requires --{flag}")
    _check_unread(args, reads)
    data = load_dataset(args.input) if args.input else None
    fixture = load_matrix(args.matrix) if args.matrix else None
    if data is not None and fixture is not None and fixture.names != list(data.names):
        raise ValidationError(
            f"matrix names {fixture.names} do not match dataset names {list(data.names)}")
    # refuse bad game inputs before any stage runs
    reference = None
    if "shapley" in stages:
        names = (data or fixture).names
        if args.empty_coalition == "calibrate":
            if not args.reference:
                raise _UsageError("--empty-coalition calibrate requires --reference")
            reference = load_reference(args.reference, names)
        game.check_coalition_cap(len(names))
    if "allocation" in stages:
        allocation.check_revenue(args.revenue)
    # hashed before any stage runs, so an --out over an input cannot change it
    provenance = report.build_provenance({role: getattr(args, role) for role in INPUT_FILES},
                                         timestamp=not args.no_timestamp)
    sections, ledger = {}, []
    matrix = fixture

    if data is not None:  # theta and matrix stages
        if "matrix" in stages:
            matrix = dea.cross_efficiency_matrix(data, _resolve_groups(args, data))
            theta = matrix.diagonal()  # the self-scores, solved once inside the matrix build
            sections["matrix"] = {"names": matrix.names, "values": matrix.values.tolist()}
        else:
            theta = dea.ccr_all(data).theta
        if "theta" in stages:
            sections["theta"] = {"names": list(data.names), "values": theta.tolist()}
        if fixture is not None:
            ledger += _fixture_notes(fixture, matrix, theta, data.names)
        if args.command == "crosseff":
            write_matrix(matrix, args.out or "matrix.csv")  # full precision so reruns agree

    if "shapley" in stages:
        triple, convention, notes = _compute_triples(args, matrix, reference)
        ledger += notes
        sections["shapley"] = {
            "names": list(matrix.names),
            "empty_coalition": convention,
            "phi_lower": triple.phi_lower.tolist(),
            "phi": triple.phi.tolist(),
            "phi_upper": triple.phi_upper.tolist(),
        }
    if "allocation" in stages:
        plan = allocation.allocate(triple, args.revenue, names=matrix.names)
        sections["allocation"] = {
            "names": plan.names,
            "revenue": plan.revenue,
            "shares": plan.shares.tolist(),
            "lower": plan.lower.tolist(),
            "central": plan.central.tolist(),
            "upper": plan.upper.tolist(),
        }

    return report.Report(
        config={"command": args.command, **{key: getattr(args, key) for key in CONFIG_KEYS}},
        provenance=provenance,
        results=sections,
        discrepancies=ledger,
    )


def _check_unread(args, reads) -> None:
    """Refuse a given input flag that this run would not read."""
    needs = {"groups": (args.input, "--input"), "clusters": (args.input, "--input"),
             "reference": (args.empty_coalition == "calibrate", "--empty-coalition calibrate")}
    for flag, unset in INPUT_FLAGS.items():
        name = "--" + flag.replace("_", "-")
        if getattr(args, flag) == unset:
            continue
        if flag not in reads:
            raise _UsageError(f"{args.command} does not read {name}")
        if flag in needs and not needs[flag][0]:
            raise _UsageError(f"{args.command} reads {name} only with {needs[flag][1]}")
    if args.groups and args.clusters is not None:
        raise _UsageError("--groups and --clusters are exclusive")


def _resolve_groups(args, data) -> GroupAssignment | None:
    """The ally groups that ``--groups`` or ``--clusters`` give, else None (one group)."""
    if args.groups:
        return load_groups(args.groups, data.names)
    if args.clusters is not None:
        return dea.cluster_groups(data, args.clusters)
    return None


def _fixture_notes(fixture, matrix, theta, names) -> list[str]:
    """Ledger lines comparing a computed stage with a ``--matrix`` fixture.

    Without a computed matrix (``ccr``, where ``matrix`` is the fixture
    itself) only the fixture's diagonal is compared, against the self-scores.
    """
    if matrix is fixture:
        return [
            f"self-efficiency mismatch for {name}: computed {ours:.6f}, "
            f"fixture diagonal {theirs:.6f}"
            for name, ours, theirs in zip(names, theta, fixture.diagonal())
            if abs(ours - theirs) > FIXTURE_TOL
        ]
    diff = np.abs(matrix.values - fixture.values)
    d, j = np.unravel_index(int(diff.argmax()), diff.shape)
    return [
        f"matrix regeneration vs fixture: max abs deviation {diff.max():.6f} "
        f"at ({names[d]}, {names[j]}); "
        f"{int((diff > FIXTURE_TOL).sum())}/{diff.size} entries differ beyond {FIXTURE_TOL}"
    ]


def _compute_triples(args, matrix: CrossEfficiencyMatrix, reference):
    """Both conventions' triples from one game, and the one that the
    empty-coalition flag, or calibration against ``reference``, picks."""
    exclude = game.shapley_triples(matrix)
    triples = {"exclude": exclude, "unit": game.include_empty_coalition(exclude)}
    if reference is None:
        return triples[args.empty_coalition], args.empty_coalition, []
    fits = {c: float(np.abs(triples[c].phi - reference).max()) for c in game.EMPTY_CONVENTIONS}
    winner = min(game.EMPTY_CONVENTIONS, key=lambda c: fits[c])
    note = (
        "empty-coalition calibration: "
        + ", ".join(f"{c} max-abs-dev {fits[c]:.4f}" for c in game.EMPTY_CONVENTIONS)
        + f"; selected {winner}"
    )
    return triples[winner], winner, [note]


if __name__ == "__main__":
    sys.exit(main())
