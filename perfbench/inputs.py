"""Seeded inputs for the benchmark, written as the CSV files the CLI reads.

Every generator takes its seed as an argument and returns plain numpy
arrays; the ``write_*`` helpers turn them into ``dataset.csv``,
``matrix.csv`` and ``groups.csv`` files (full float precision, so the
program reads back exactly the generated values).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

COALITION_N = 21       # one above the package's stored-member-table limit of 20
APPRAISAL_N = 80
APPRAISAL_INPUTS = 3
APPRAISAL_OUTPUTS = 2
ROW_ORDER_N = 40
ROW_ORDER_SEED = 0     # fixed: the row-order operation must fail the same way on every seed
CLUSTERS = 3


def appraisal_matrix(seed, n: int = COALITION_N) -> np.ndarray:
    """Random appraisal matrix with every entry in [0.2, 1].

    Entries stay well above 0: a zero E[i, k] makes the lone-member share
    denominator zero and the program rightly refuses the matrix.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.0, (n, n))


# one fixed technology; the seed draws only the sample of DMUs
ELASTICITY = np.array([[0.45, 0.30, 0.20], [0.20, 0.25, 0.50]])
OUTPUT_SCALE = np.array([12.0, 7.0])


def production_data(seed, n: int = APPRAISAL_N) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic DMUs in three size classes: log-normal inputs, Cobb-Douglas
    outputs times a half-normal inefficiency."""
    rng = np.random.default_rng(seed)
    size = np.array([20.0, 60.0, 180.0])[rng.permutation(np.arange(n) % CLUSTERS)]
    X = size[:, None] * np.exp(rng.normal(0.0, 0.3, (n, APPRAISAL_INPUTS)))
    frontier = np.exp(np.log(X) @ ELASTICITY.T) * OUTPUT_SCALE
    efficiency = np.exp(-np.abs(rng.normal(0.0, 0.3, (n, 1))))
    mix = np.exp(rng.normal(0.0, 0.15, (n, APPRAISAL_OUTPUTS)))
    return X, frontier * efficiency * mix


def row_order_data(n: int = ROW_ORDER_N):
    """Integer data (cells 1-3) with many tied LP optima, groups and a row permutation.

    Seed-independent: the benchmark keeps it as one operation that fails
    on every run while the appraisal matrix depends on CSV row order.
    """
    rng = np.random.default_rng(ROW_ORDER_SEED)
    X = rng.integers(1, 4, (n, APPRAISAL_INPUTS)).astype(float)
    Y = rng.integers(1, 4, (n, APPRAISAL_OUTPUTS)).astype(float)
    groups = np.arange(n) % CLUSTERS + 1
    return X, Y, groups, rng.permutation(n)


def names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1:02d}" for i in range(n)]


def write_dataset(path: Path, dmus: list[str], X: np.ndarray, Y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["dmu"] + [f"x:in{k + 1}" for k in range(X.shape[1])]
                   + [f"y:out{k + 1}" for k in range(Y.shape[1])])
        for name, x, y in zip(dmus, X.tolist(), Y.tolist()):
            w.writerow([name] + [repr(v) for v in x] + [repr(v) for v in y])


def write_matrix(path: Path, dmus: list[str], E: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["dmu"] + dmus)
        for name, row in zip(dmus, E.tolist()):
            w.writerow([name] + [repr(v) for v in row])


def write_groups(path: Path, dmus: list[str], groups: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["dmu", "group"])
        for name, g in zip(dmus, groups.tolist()):
            w.writerow([name, g])


def read_dataset(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a dataset CSV by its ``x:``/``y:`` header prefixes."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    header = [h.strip() for h in rows[0]]
    xs = [i for i, h in enumerate(header) if h.startswith("x:")]
    ys = [i for i, h in enumerate(header) if h.startswith("y:")]
    body = rows[1:]
    X = np.array([[float(r[i]) for i in xs] for r in body])
    Y = np.array([[float(r[i]) for i in ys] for r in body])
    return [r[header.index("dmu")].strip() for r in body], X, Y
