"""Acceptance suite: one test per criterion, at the pinned tolerances.

Each criterion prints one ``ACCEPTANCE k: PASS/FAIL`` line (run with
``pytest -s`` to see the lines for passing criteria too).

The reference figures come from the two bundled case studies.  Several of
their rows are internally inconsistent with the formulas this package
implements (the case data itself disagrees across its own tables); the
affected asserts are kept at their stated tolerances and fail honestly
rather than being loosened.  README section "Known inconsistencies in the
bundled reference figures" walks through the evidence for each one.
"""

import time

import numpy as np

import revalloc
from revalloc import dea, game
from revalloc.allocation import allocate
from revalloc.game import build_coalition_table, shapley_triples
from revalloc.simplex import LinearProgram, solve

import naive_oracles
from conftest import (
    BANK_REF_ALLOC_CENTRAL,
    BANK_REF_ALLOC_LOWER,
    BANK_REF_ALLOC_UPPER,
    BANK_REF_PHI,
    BANK_REF_PHI_LOWER,
    BANK_REF_PHI_UPPER,
    TOY_REF_ALLOC_CENTRAL,
    TOY_REF_ALLOC_LOWER,
    TOY_REF_ALLOC_UPPER,
    TOY_REF_PHI,
    TOY_REF_PHI_LOWER,
    TOY_REF_PHI_UPPER,
)


def _finish(cid: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {cid}: {status}" + (f" [{detail}]" if detail else "")
    print(line)
    assert not failures, line + "\n  " + "\n  ".join(failures)


def _row_mismatches(label, computed, reference, tol):
    out = []
    for i, (a, b) in enumerate(zip(computed, reference)):
        if abs(a - b) > tol:
            out.append(f"{label}[{i + 1}]: computed {a:.4f} vs reference {b} (tol {tol})")
    return out


def random_matrix(rng, n):
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    return E


def test_criterion_1_toy_share_triples(toy_matrix):
    fits = {}
    triples = {}
    for convention in game.EMPTY_CONVENTIONS:
        triples[convention] = shapley_triples(toy_matrix, empty_coalition=convention)
        fits[convention] = float(np.abs(triples[convention].phi - TOY_REF_PHI).max())
    winner = min(game.EMPTY_CONVENTIONS, key=lambda c: fits[c])

    start = time.perf_counter()
    triple = shapley_triples(toy_matrix, empty_coalition=winner)
    elapsed = time.perf_counter() - start

    failures = []
    if winner != game.DEFAULT_EMPTY_COALITION:
        failures.append(f"calibration winner {winner} is not the default")
    failures += _row_mismatches("phi", triple.phi, TOY_REF_PHI, 0.01)
    failures += _row_mismatches("phi_upper", triple.phi_upper, TOY_REF_PHI_UPPER, 0.01)
    failures += _row_mismatches("phi_lower", triple.phi_lower, TOY_REF_PHI_LOWER, 0.01)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 1s")
    detail = (f"winner={winner}, fit exclude={fits['exclude']:.4f} "
              f"unit={fits['unit']:.4f}, {elapsed * 1e3:.0f}ms")
    _finish("criterion 1 (toy share triples within 0.01)", failures, detail)


def test_criterion_2_toy_allocation(toy_matrix):
    R = 10000.0
    triple = shapley_triples(toy_matrix)
    plan = allocate(triple, R, names=toy_matrix.names)

    failures = []
    # a central row splits R in proportion to the shares, so it sums to R
    if abs(TOY_REF_ALLOC_CENTRAL.sum() - R) > 0.01:
        failures.append(
            f"reference central row sums to {TOY_REF_ALLOC_CENTRAL.sum():.3f}, not R"
        )
    diffs = np.abs(plan.central - TOY_REF_ALLOC_CENTRAL)
    for i, d in enumerate(diffs):
        if d > 10.0:
            failures.append(
                f"central[{i + 1}]: computed {plan.central[i]:.2f} vs "
                f"reference {TOY_REF_ALLOC_CENTRAL[i]} (off by {d:.2f} > 10)"
            )
    # the toy reference bracket rows cannot be derived from the bracket
    # formulas (documented inconsistency); the emitted brackets must instead
    # satisfy the envelope invariants
    if not (plan.lower <= plan.central + 1e-9 * R).all():
        failures.append("lower bracket exceeds central allocation")
    if not (plan.central <= plan.upper + 1e-9 * R).all():
        failures.append("central allocation exceeds upper bracket")
    if not (plan.lower.sum() <= R + 1e-6 * R and plan.upper.sum() >= R - 1e-6 * R):
        failures.append("bracket sums do not envelope the revenue")
    up_gap = np.abs(plan.upper - TOY_REF_ALLOC_UPPER).max()
    lo_gap = np.abs(plan.lower - TOY_REF_ALLOC_LOWER).max()
    print(f"  note: toy reference bracket rows differ from the bracket formulas "
          f"by up to {up_gap:.0f} (upper) / {lo_gap:.0f} (lower) units; "
          f"see README known-inconsistencies")
    _finish("criterion 2 (toy central allocation within 10 units)", failures)


def test_criterion_3_bank_share_triples(bank_matrix):
    start = time.perf_counter()
    triple = shapley_triples(bank_matrix)
    elapsed = time.perf_counter() - start

    failures = []
    failures += _row_mismatches("phi", triple.phi, BANK_REF_PHI, 0.01)
    failures += _row_mismatches("phi_upper", triple.phi_upper, BANK_REF_PHI_UPPER, 0.01)
    failures += _row_mismatches("phi_lower", triple.phi_lower, BANK_REF_PHI_LOWER, 0.01)
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _finish("criterion 3 (bank share triples within 0.01)", failures,
            f"{elapsed * 1e3:.0f}ms")


def test_criterion_4_bank_allocation(bank_matrix):
    plan = allocate(shapley_triples(bank_matrix), 2900.0, names=bank_matrix.names)
    tol = 0.01 * 2900.0

    failures = []
    failures += _row_mismatches("central", plan.central, BANK_REF_ALLOC_CENTRAL, tol)
    failures += _row_mismatches("upper", plan.upper, BANK_REF_ALLOC_UPPER, tol)
    failures += _row_mismatches("lower", plan.lower, BANK_REF_ALLOC_LOWER, tol)
    if int(np.argmax(plan.central)) != 7:
        failures.append("largest central allocation is not DMU_8")
    if int(np.argmin(plan.central)) != 13:
        failures.append("smallest central allocation is not DMU_14")
    _finish("criterion 4 (bank allocation rows within 1% of R)", failures)


def test_criterion_5_self_efficiency_checks(toy_dataset, bank_dataset, bank_matrix):
    theta_toy = dea.ccr_all(toy_dataset).theta
    failures = []
    for i, value in enumerate(theta_toy):
        if abs(value - 1.0) > 1e-6:
            failures.append(f"toy theta[{i + 1}] = {value:.6f}, expected 1.0 within 1e-6")

    # bank side: compare against the fixture diagonal, ledger only
    theta_bank = dea.ccr_all(bank_dataset).theta
    mismatches = [
        f"DMU_{i + 1}: computed {theta_bank[i]:.4f} vs fixture diagonal "
        f"{bank_matrix.values[i, i]:.2f}"
        for i in range(18)
        if abs(theta_bank[i] - bank_matrix.values[i, i]) > 0.005
    ]
    print(f"  bank diagonal ledger ({len(mismatches)} mismatches, recorded not failed):")
    for line in mismatches:
        print(f"    {line}")
    _finish("criterion 5 (toy self-efficiencies all 1.0)", failures)


def test_criterion_6_matrix_regeneration_properties(toy_dataset, bank_dataset):
    failures = []
    for label, ds in (("toy", toy_dataset), ("bank", bank_dataset)):
        theta = dea.ccr_all(ds).theta
        M = dea.cross_efficiency_matrix(ds)
        if np.abs(np.diag(M.values) - theta).max() > 1e-7:
            failures.append(f"{label}: diagonal differs from self-efficiency beyond 1e-7")
        if M.values.min() < 0 or M.values.max() > 1 + 1e-9:
            failures.append(f"{label}: entries leave [0, 1]")
        if (M.values - theta[None, :]).max() > 1e-7:
            failures.append(f"{label}: some appraisal exceeds the target's own score")

        scaled_inputs = ds.raw_inputs.copy()
        scaled_inputs[:, 0] *= 7.0
        scaled_outputs = ds.raw_outputs.copy()
        scaled_outputs[:, -1] *= 0.125
        scaled = revalloc.Dataset(
            names=list(ds.names),
            input_names=list(ds.input_names),
            output_names=list(ds.output_names),
            raw_inputs=scaled_inputs,
            raw_outputs=scaled_outputs,
        )
        M2 = dea.cross_efficiency_matrix(scaled)
        theta2 = dea.ccr_all(scaled).theta
        if np.abs(theta2 - theta).max() > 1e-7:
            failures.append(f"{label}: self-efficiency not invariant to column scaling")
        if np.abs(M2.values - M.values).max() > 1e-7:
            failures.append(f"{label}: matrix not invariant to column scaling")
    _finish("criterion 6 (matrix regeneration properties)", failures)


def test_criterion_7_property_suites(toy_matrix, bank_matrix):
    failures = []

    # coalition worth superadditivity over ALL disjoint pairs (this fails:
    # two lone DMUs are worth 1 each by convention, while their pair is
    # worth the two mutual appraisals, which is almost always less than 2)
    rng = np.random.default_rng(600)
    violations = 0
    checked = 0
    example = None
    for _ in range(200):
        n = int(rng.integers(2, 7))
        E = random_matrix(rng, n)
        worth = build_coalition_table(E).sum_upper
        full = (1 << n) - 1
        for s1 in range(1, full + 1):
            rest = full ^ s1
            s2 = rest
            while s2:
                if s2 > s1:  # each unordered pair once
                    checked += 1
                    if worth[s1 | s2] < worth[s1] + worth[s2] - 1e-9:
                        violations += 1
                        if example is None:
                            example = (n, s1, s2, worth[s1], worth[s2], worth[s1 | s2])
                s2 = (s2 - 1) & rest
    if violations:
        failures.append(
            f"superadditivity: {violations}/{checked} disjoint pairs violated; "
            f"first: n={example[0]}, masks {example[1]}/{example[2]}, "
            f"v={example[3]:.3f}+{example[4]:.3f} > {example[5]:.3f}"
        )

    # share ordering on 200 random matrices
    rng = np.random.default_rng(601)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        triple = shapley_triples(random_matrix(rng, n))
        if not ((triple.phi_lower <= triple.phi + 1e-9).all()
                and (triple.phi <= triple.phi_upper + 1e-9).all()):
            failures.append("share ordering violated on a random matrix")
            break

    # coalition-table DP against the naive per-coalition oracle
    table = build_coalition_table(toy_matrix)
    for mask in range(1, 1 << 5):
        coalition = {j for j in range(5) if mask >> j & 1}
        if abs(table.characteristic(mask)
               - naive_oracles.coalition_worth(toy_matrix.values, coalition)) > 1e-9:
            failures.append(f"toy DP aggregate differs from naive oracle at mask {mask}")
    table18 = build_coalition_table(bank_matrix)
    rng = np.random.default_rng(602)
    for mask in rng.integers(1, 1 << 18, size=1000):
        mask = int(mask)
        coalition = {j for j in range(18) if mask >> j & 1}
        if abs(table18.characteristic(mask)
               - naive_oracles.coalition_worth(bank_matrix.values, coalition)) > 1e-9:
            failures.append(f"bank DP aggregate differs from naive oracle at mask {mask}")
            break
    _finish("criterion 7 (property suites)", failures,
            f"superadditivity pairs checked={checked}")


def test_criterion_8_lp_oracle():
    rng = np.random.default_rng(4242)
    box = 10.0
    failures = []
    seen = {"optimal": 0, "infeasible": 0}
    for trial in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 7))
        rows = []
        for _ in range(k):
            coeffs = rng.uniform(-1, 1, n)
            rel = rng.choice(["<=", ">=", "="], p=[0.6, 0.25, 0.15])
            rows.append((coeffs, rel, float(rng.uniform(-0.2, 1.0))))
        c = rng.uniform(-1, 1, n)
        sense = "max" if rng.integers(2) else "min"
        prog = LinearProgram(objective=c, sense=sense)
        # the box x_i <= box as rows, after the structural ones
        for coeffs, rel, rhs in rows + [(np.eye(n)[i], "<=", box) for i in range(n)]:
            prog.add_constraint(coeffs, rel, rhs)
        sol = solve(prog)
        status, best = naive_oracles.vertex_enumeration_solve(c, sense, rows, box)
        seen[status] = seen.get(status, 0) + 1
        if sol.status != status:
            failures.append(f"trial {trial}: status {sol.status} vs oracle {status}")
        elif status == "optimal" and abs(sol.objective - best) > 1e-7:
            failures.append(
                f"trial {trial}: objective {sol.objective!r} vs oracle {best!r}"
            )
    _finish("criterion 8 (simplex matches vertex enumeration)", failures,
            f"statuses={seen}")


def test_criterion_9_envelope_invariants(toy_matrix, bank_matrix):
    failures = []
    cases = [
        ("toy", shapley_triples(toy_matrix), 10000.0),
        ("bank", shapley_triples(bank_matrix), 2900.0),
    ]
    rng = np.random.default_rng(900)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        triple = shapley_triples(random_matrix(rng, n))
        cases.append((f"random{trial}", triple, float(rng.uniform(1, 1e5))))
    for label, triple, R in cases:
        plan = allocate(triple, R)
        if not (plan.lower <= plan.central + 1e-6 * R).all():
            failures.append(f"{label}: lower > central")
        if not (plan.central <= plan.upper + 1e-6 * R).all():
            failures.append(f"{label}: central > upper")
        if not (plan.lower.sum() <= R + 1e-6 * R <= plan.upper.sum() + 2e-6 * R):
            failures.append(f"{label}: bracket sums do not envelope R")
    _finish("criterion 9 (allocation envelope invariants)", failures,
            f"{len(cases)} allocation plans")
