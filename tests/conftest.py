"""Shared fixtures: bundled case-study files and their reference figures."""

from pathlib import Path

import numpy as np
import pytest

import revalloc

DATA = Path(__file__).parent / "data"

TOY_DATA = DATA / "toy_data.csv"
TOY_MATRIX = DATA / "toy_matrix.csv"
TOY_GROUPS = DATA / "toy_groups.csv"
TOY_SHARES_REFERENCE = DATA / "toy_shares_reference.csv"
BANK_DATA = DATA / "bank_data.csv"
BANK_MATRIX = DATA / "bank_matrix.csv"

# Reference figures shipped with the two case studies (printed at 2 decimals).
# Some of these rows are internally inconsistent with the formulas this
# package implements; see README "Known inconsistencies in the bundled
# reference figures".  The acceptance suite pins them as-is.
TOY_REF_PHI = np.array([0.31, 0.19, 0.15, 0.27, 0.09])
TOY_REF_PHI_UPPER = np.array([0.71, 0.61, 0.61, 0.69, 0.65])
TOY_REF_PHI_LOWER = np.array([0.22, 0.11, 0.09, 0.18, 0.06])
TOY_REF_ALLOC_CENTRAL = np.array([3065.85, 1858.07, 1510.14, 2685.508, 907.43])
TOY_REF_ALLOC_UPPER = np.array([3453.94, 2182.48, 1807.82, 3027.706, 1117.30])
TOY_REF_ALLOC_LOWER = np.array([2716.22, 1486.95, 1207.85, 2316.89, 794.28])

BANK_REF_PHI = np.array([
    0.17, 0.24, 0.11, 0.15, 0.13, 0.12, 0.22, 0.27, 0.13,
    0.11, 0.25, 0.14, 0.14, 0.10, 0.24, 0.15, 0.15, 0.13,
])
BANK_REF_PHI_UPPER = np.array([
    0.24, 0.32, 0.16, 0.22, 0.19, 0.17, 0.30, 0.37, 0.27,
    0.16, 0.34, 0.20, 0.19, 0.14, 0.32, 0.21, 0.21, 0.19,
])
BANK_REF_PHI_LOWER = np.array([
    0.08, 0.14, 0.06, 0.08, 0.08, 0.07, 0.13, 0.19, 0.11,
    0.06, 0.17, 0.07, 0.08, 0.05, 0.15, 0.09, 0.07, 0.08,
])
BANK_REF_ALLOC_CENTRAL = np.array([
    161.01, 227.89, 106.89, 147.21, 127.47, 114.29, 213.01, 262.81, 187.30,
    107.98, 244.64, 133.98, 130.75, 93.02, 228.66, 143.71, 143.67, 125.72,
])
BANK_REF_ALLOC_UPPER = np.array([
    356.98, 477.34, 250.80, 329.92, 289.51, 261.64, 452.38, 552.19, 407.40,
    246.09, 515.18, 307.75, 301.04, 220.83, 482.42, 328.05, 320.82, 289.00,
])
BANK_REF_ALLOC_LOWER = np.array([
    57.41, 103.37, 44.86, 60.32, 55.84, 50.35, 91.40, 134.92, 77.88,
    44.99, 121.17, 50.70, 57.27, 31.93, 108.93, 61.42, 51.79, 56.47,
])


@pytest.fixture(scope="session")
def toy_dataset():
    return revalloc.load_dataset(TOY_DATA)


@pytest.fixture(scope="session")
def bank_dataset():
    return revalloc.load_dataset(BANK_DATA)


@pytest.fixture(scope="session")
def toy_matrix():
    return revalloc.load_matrix(TOY_MATRIX)


@pytest.fixture(scope="session")
def bank_matrix():
    return revalloc.load_matrix(BANK_MATRIX)

