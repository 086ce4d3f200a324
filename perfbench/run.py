"""Benchmark of revalloc on three workloads, run the way users run it.

    python3 perfbench/run.py --workload bank|coalition|appraisal|all \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client.  With ``--trace 0`` a
round runs every input of the workload once through the CLI
(``python -m revalloc.cli ...``, one child process at a time) and once
through the library in this process, untraced.  With ``--trace 1`` the
CLI call is replaced by ``revalloc.cli.main`` in this process with every
layer's entry points wrapped (see ``layers.py``).  Rounds repeat until
``--seconds`` have passed.  Every output is compared with the first one
of its input, and that one is checked once, after the loop, against
computations made apart from the package (``checks.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# pin BLAS threads before numpy loads, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from layers import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"   # scratch inputs and span files, inside the checkout
BANK_DATA = ROOT / "tests" / "data" / "bank_data.csv"
BANK_REVENUE = 2900.0
APPRAISAL_INPUTS_PER_RUN = 3  # seeded datasets per run; their LP work differs by 5-10%
APPRAISAL_DRAWS = 5  # draws per dataset before one the package refuses is kept
MATRIX_RANGE_FAULT = "matrix entries must lie in [0, 1]"

END_TO_END = {"setup_s": "s", "call_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: ("s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "count")
               for name in LAYER_METRICS}
LAYER_UNITS["trace.overhead_s"] = "s"


# ------------------------------------------------------------------ outputs

def report_arrays(text: str) -> dict:
    """The numeric results of a JSON report; fields this benchmark does not know are ignored."""
    results = json.loads(text).get("results", {})
    out = {}
    if "theta" in results:
        out["theta"] = np.asarray(results["theta"]["values"], dtype=float)
    if "matrix" in results:
        out["matrix"] = np.asarray(results["matrix"]["values"], dtype=float)
    for section, keys in (("shapley", ("phi_lower", "phi", "phi_upper")),
                          ("allocation", ("lower", "central", "upper"))):
        for key in keys:
            if key in results.get(section, {}):
                out[key] = np.asarray(results[section][key], dtype=float)
    return out


def plan_arrays(theta=None, matrix=None, triple=None, plan=None) -> dict:
    """The same keys as ``report_arrays``, from library objects."""
    out = {}
    if theta is not None:
        out["theta"] = np.asarray(theta)
    if matrix is not None:
        out["matrix"] = np.asarray(matrix.values)
    if triple is not None:
        out.update(phi_lower=triple.phi_lower, phi=triple.phi, phi_upper=triple.phi_upper)
    if plan is not None:
        out.update(lower=plan.lower, central=plan.central, upper=plan.upper)
    return out


def compare(got: dict, want: dict) -> None:
    checks.require(set(got) == set(want), f"result fields {sorted(got)} != {sorted(want)}")
    for key in want:
        checks.check_same(key, got[key], want[key])


# ---------------------------------------------------------------- workloads

class Case:
    """One input of a workload: its CLI arguments, its library calls, its checks."""

    def __init__(self, argv, load, solve, verify, fields):
        self.argv = argv        # after "python -m revalloc.cli"
        self.load = load        # reads the input, outside the timed region
        self.solve = solve      # library calls from the loaded input to the result
        self.verify = verify    # independent checks of one result
        self.fields = fields    # result fields the report must carry


class Workload:
    extra = None  # optional operation appended to every round

    def warmup(self, loaded) -> None:
        """Run the library once before timing; untimed."""
        self.cases[0].solve(loaded[0])


class Bank(Workload):
    """The paper's 18-branch case through ``pipeline``; the seed picks only the relabelling."""

    name = "bank"

    def __init__(self, seed, tmp):
        import revalloc
        self.revalloc = revalloc
        self.seed = seed
        argv = ["pipeline", "--input", str(BANK_DATA), "--clusters", str(inputs.CLUSTERS),
                "--revenue", repr(BANK_REVENUE), "--format", "json", "--no-timestamp"]
        self.cases = [Case(argv, lambda: revalloc.load_dataset(BANK_DATA), self.solve,
                           self.verify, {"theta", "matrix", "phi_lower", "phi", "phi_upper",
                                         "lower", "central", "upper"})]
        self.perm = self.relabelled = None

    def solve(self, data):
        rv = self.revalloc
        groups = rv.cluster_groups(data, inputs.CLUSTERS)
        theta = rv.ccr_all(data).theta
        matrix = rv.cross_efficiency_matrix(data, groups)
        triple = rv.shapley_triples(matrix)
        plan = rv.allocate(triple, BANK_REVENUE, names=matrix.names)
        return plan_arrays(theta, matrix, triple, plan)

    def warmup(self, loaded):
        E = self.solve(loaded[0])["matrix"]
        self.perm = np.random.default_rng(self.seed).permutation(len(E))
        triple = self.revalloc.shapley_triples(E[np.ix_(self.perm, self.perm)])
        self.relabelled = (triple.phi_lower, triple.phi, triple.phi_upper)

    def verify(self, res):
        _, X, Y = inputs.read_dataset(BANK_DATA)
        labels = checks.average_linkage_groups(X, Y, inputs.CLUSTERS)
        checks.check_matrix(X, Y, res["theta"], res["matrix"], labels)
        shares = checks.check_shares(res["matrix"], res["phi_lower"], res["phi"], res["phi_upper"])
        checks.check_relabelled(shares, self.relabelled, self.perm)
        checks.check_allocation(BANK_REVENUE, shares, res["lower"], res["central"], res["upper"])


class Coalition(Workload):
    """``allocate`` on a seeded 21 x 21 appraisal matrix: the game layer alone."""

    name = "coalition"

    def __init__(self, seed, tmp):
        import revalloc
        self.revalloc = revalloc
        rng = np.random.default_rng([seed, 1])
        self.E = inputs.appraisal_matrix(seed)
        n = self.E.shape[0]
        self.revenue = round(float(rng.uniform(1000.0, 10000.0)), 2)
        self.perm = rng.permutation(n)
        path = tmp / "matrix.csv"
        inputs.write_matrix(path, inputs.names("C", n), self.E)
        argv = ["allocate", "--matrix", str(path), "--revenue", repr(self.revenue),
                "--format", "json", "--no-timestamp"]
        self.cases = [Case(argv, lambda: revalloc.load_matrix(path), self.solve, self.verify,
                           {"phi_lower", "phi", "phi_upper", "lower", "central", "upper"})]
        self.relabelled = None

    def solve(self, matrix):
        triple = self.revalloc.shapley_triples(matrix)
        plan = self.revalloc.allocate(triple, self.revenue, names=matrix.names)
        return plan_arrays(triple=triple, plan=plan)

    def warmup(self, loaded):
        # the relabelled matrix costs the same as the real one, so it doubles as the warm-up
        triple = self.revalloc.shapley_triples(self.E[np.ix_(self.perm, self.perm)])
        self.relabelled = (triple.phi_lower, triple.phi, triple.phi_upper)

    def verify(self, res):
        shares = checks.check_shares(self.E, res["phi_lower"], res["phi"], res["phi_upper"])
        checks.check_relabelled(shares, self.relabelled, self.perm)
        checks.check_allocation(self.revenue, shares, res["lower"], res["central"], res["upper"])


class Appraisal(Workload):
    """``crosseff`` on seeded production datasets: the LP layer alone.

    Every round also runs the row-order operation: ``crosseff`` on fixed
    integer data and on a row-permuted copy, whose matrices must agree up
    to the permutation.  Tied tie-break optima make it fail today.
    """

    name = "appraisal"

    def __init__(self, seed, tmp):
        import revalloc
        self.revalloc = revalloc
        self.cases = []
        for k in range(APPRAISAL_INPUTS_PER_RUN):
            path, X, Y = self.draw(seed, k, tmp)
            argv = ["crosseff", "--input", str(path), "--clusters", str(inputs.CLUSTERS),
                    "--format", "json", "--no-timestamp", "--out", str(tmp / f"matrix{k}.csv")]
            self.cases.append(Case(argv, lambda p=path: revalloc.load_dataset(p), self.solve,
                                   lambda res, X=X, Y=Y: self.verify(res, X, Y),
                                   {"theta", "matrix"}))
        X, Y, groups, self.perm = inputs.row_order_data()
        dmus = inputs.names("R", X.shape[0])
        self.row_order_argv = []
        for tag, order in (("base", np.arange(X.shape[0])), ("permuted", self.perm)):
            data, group_file = tmp / f"rows-{tag}.csv", tmp / f"groups-{tag}.csv"
            inputs.write_dataset(data, [dmus[i] for i in order], X[order], Y[order])
            inputs.write_groups(group_file, [dmus[i] for i in order], groups[order])
            self.row_order_argv.append(
                ["crosseff", "--input", str(data), "--groups", str(group_file), "--format",
                 "json", "--no-timestamp", "--out", str(tmp / f"rows-{tag}-matrix.csv")])
        self.extra = self.row_order

    def draw(self, seed, k, tmp):
        """The run's k-th dataset, drawn again while the package refuses its own matrix.

        On about one seeded dataset in a hundred, the simplex's rounding puts
        an appraisal a few 1e-9 above 1, past the package's own 1e-9
        tolerance, and ``crosseff`` exits 3.  Such an operation fails on some
        seeds only, so its failed share could not repeat from run to run: the
        dataset is left out, named on stderr, and the next draw of the same
        seed takes its place.  The screening solve also serves as warm-up.
        """
        for attempt in range(APPRAISAL_DRAWS):
            key = [seed, k] if attempt == 0 else [seed, k, attempt]
            X, Y = inputs.production_data(key)
            path = tmp / f"dataset{k}.csv"
            inputs.write_dataset(path, inputs.names("D", X.shape[0]), X, Y)
            try:
                self.solve(self.revalloc.load_dataset(path))
            except self.revalloc.ValidationError as err:
                if str(err) != MATRIX_RANGE_FAULT:
                    raise
                print(f"appraisal: dataset {key} left out: {err}", file=sys.stderr)
                continue
            break
        return path, X, Y  # after APPRAISAL_DRAWS refusals the last one stays, and fails

    def warmup(self, loaded) -> None:
        """Every dataset was solved once by ``draw``."""

    def solve(self, data):
        rv = self.revalloc
        groups = rv.cluster_groups(data, inputs.CLUSTERS)
        theta = rv.ccr_all(data).theta
        return plan_arrays(theta, rv.cross_efficiency_matrix(data, groups))

    def verify(self, res, X, Y):
        labels = checks.average_linkage_groups(X, Y, inputs.CLUSTERS)
        checks.check_matrix(X, Y, res["theta"], res["matrix"], labels)

    def row_order(self, run):
        """True when the two matrices agree up to the row permutation."""
        matrices = []
        for argv in self.row_order_argv:
            code, text, _ = run.cli(argv)
            matrix = report_arrays(text).get("matrix") if code == 0 else None
            if matrix is None:
                return False
            matrices.append(matrix)
        base, permuted = matrices
        try:
            checks.check_same("row-order matrix", permuted, base[np.ix_(self.perm, self.perm)])
        except checks.CheckError as err:
            run.note(f"row-order operation failed: {err}")
            return False
        return True


WORKLOADS = {w.name: w for w in (Bank, Coalition, Appraisal)}


# ------------------------------------------------------------------ running

class Run:
    """One run of one workload: child processes, timings, outputs and notes."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_rss_kb = 0
        self.notes = []

    def note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)
            print(message, file=sys.stderr)

    def child(self, argv, stdout):
        """Run one child to its end; returns (exit code, seconds, peak RSS in KB)."""
        measured = self.tmp / "child.json"
        proc = subprocess.Popen([sys.executable, str(CHILD), str(measured)] + argv,
                                stdout=stdout, stderr=subprocess.PIPE, env=self.env, cwd=self.tmp)
        try:
            _, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{CHILD.name} failed: {err.decode(errors='replace')}")
        with open(measured, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["code"] != 0:
            self.note(f"exit {result['code']} from {' '.join(argv[1:])}: "
                      f"{err.decode(errors='replace').strip()}")
        return result["code"], result["seconds"], result["maxrss_kb"]

    def cli(self, argv):
        """One CLI call; returns (exit code, report text, seconds) and records its peak RSS."""
        out = self.tmp / "report.json"
        with open(out, "wb") as fh:
            code, seconds, rss = self.child([sys.executable, "-m", "revalloc.cli"] + argv, fh)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return code, out.read_text(encoding="utf-8"), seconds

    def setup_s(self) -> float:
        """Time from a fresh interpreter to the end of ``import revalloc``."""
        code, elapsed, _ = self.child([sys.executable, "-c", "import revalloc"],
                                      subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("import revalloc failed in a fresh interpreter")
        return elapsed


def traced_cli(tracer: Tracer, argv):
    """``revalloc.cli.main`` in this process with every layer traced."""
    from revalloc import cli

    buf = io.StringIO()
    with tracer.installed(), tracer.operation("cli." + argv[0]), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    run = Run(tmp)
    workload = WORKLOADS[name](seed, tmp)
    cases = workload.cases
    loaded = [case.load() for case in cases]
    workload.warmup(loaded)
    tracer = Tracer()

    reference = [None] * len(cases)
    correct = True
    attempted = failed = rounds = 0
    # per input: CLI seconds, solve seconds, per-layer metrics of traced calls
    call_s, solve_s, layer = ([[] for _ in cases] for _ in range(3))
    setup_s = []

    def accept(k, result) -> None:
        nonlocal correct
        if reference[k] is None:
            reference[k] = result
            return
        try:
            compare(result, reference[k])
        except checks.CheckError as err:
            correct = False
            run.note(f"{name} input {k}: output differs from its first output: {err}")

    def between_operations() -> None:
        # set-up samples spread over the run, so that they see the same machine as the calls
        if not trace:
            setup_s.append(run.setup_s())

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds += 1
        for k, case in enumerate(cases):
            attempted += 1
            if trace:
                code, text = traced_cli(tracer, case.argv)
                layer[k].append(tracer.layer_metrics(len(tracer.counts) - 1))
            else:
                code, text, elapsed = run.cli(case.argv)
                call_s[k].append(elapsed)
            if code != 0:
                failed += 1
            else:
                try:
                    accept(k, report_arrays(text))
                except (ValueError, KeyError) as err:
                    correct = False
                    run.note(f"{name} input {k}: unreadable report: {err!r}")
            between_operations()

            attempted += 1
            t0 = time.perf_counter()
            try:
                result = case.solve(loaded[k])
            except Exception as err:  # a failed operation; the run goes on
                failed += 1
                run.note(f"{name} input {k}: library call raised {err!r}")
            else:
                solve_s[k].append(time.perf_counter() - t0)
                accept(k, result)
            between_operations()
        if workload.extra is not None:
            attempted += 1
            failed += not workload.extra(run)
            between_operations()

    for k, case in enumerate(cases):
        if reference[k] is None:
            correct = False
            continue
        try:
            missing = case.fields - set(reference[k])
            checks.require(not missing, f"report lacks {sorted(missing)}")
            case.verify(reference[k])
        except checks.CheckError as err:
            correct = False
            run.note(f"{name} input {k}: {err}")

    def typical(samples):
        """Mean over the inputs of each input's median sample."""
        return statistics.fmean(statistics.median(v) for v in samples if v)

    if trace:
        metrics = {}
        for metric in LAYER_METRICS:
            if all(metric in op for ops in layer for op in ops):
                metrics[metric] = typical([[op[metric] for op in ops] for ops in layer])
        metrics["trace.overhead_s"] = (typical([[op["solve"] for op in ops] for ops in layer])
                                       - typical(solve_s))
        for missing in tracer.missing:
            run.note(f"entry point {missing} is gone; its metrics are left out")
        tracer.dump(WORK / f"spans-{name}-{seed}.json")
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "call_s": typical(call_s),
            "solve_s": typical(solve_s),
            "peak_rss_mb": run.peak_rss_kb / 1024,
        }
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": int(v) if units[k] == "count" and float(v).is_integer() else v,
                        "unit": units[k]} for k, v in metrics.items()},
        "rounds": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "revalloc" / "__init__.py").is_file() or not BANK_DATA.is_file():
        print(f"error: run from a revalloc checkout; {SRC / 'revalloc'} or {BANK_DATA} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    WORK.mkdir(exist_ok=True)
    for name in names:
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        res = results[name]
        print(f"{name}: seed {args.seed}, {res.pop('rounds')} rounds, attempted "
              f"{res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<24} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
