"""Checks of the test oracles themselves (the reference Jacobi solver and the
sensitivity probe), independent of the package code they are used to check."""

import math

import numpy as np

from oracle_utils import jacobi_eig_sym, sensitivity_probe

from dpcov.linalg import Dataset, frobenius_dist, reconstruct


class TestJacobiCrossCheck:
    def test_off_diagonal_convergence(self):
        a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 1.0]])
        dec = jacobi_eig_sym(a)
        assert frobenius_dist(reconstruct(dec.basis, dec.values), a) < 1e-11


class TestSensitivityProbe:
    def test_identical_datasets(self):
        rng = np.random.default_rng(31)
        cols = rng.standard_normal((4, 9))
        cols /= np.linalg.norm(cols, axis=0)
        x = Dataset(cols * rng.uniform(0.05, 1.0, size=9))
        probe = sensitivity_probe(x, x)
        assert all(v == 0.0 for v in probe.values())

    def test_zeroed_basis_column(self):
        cols = np.zeros((2, 2))
        cols[0, 0] = 1.0
        cols[1, 1] = 0.5
        x = Dataset(cols)
        primed = cols.copy()
        primed[:, 0] = 0.0
        probe = sensitivity_probe(x, Dataset(primed))
        assert abs(probe["sigma_fro"] - 0.5) < 1e-12
        assert probe["sigma_fro"] <= math.sqrt(2) / 2
