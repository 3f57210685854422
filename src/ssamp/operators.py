"""Sensing operators used by the benchmark.

Five ensembles behind one apply/adjoint interface:

* ``iid_gaussian``      dense N(0, 1/m) entries
* ``subsampled_dct``    m rows of the orthonormal DCT-II, scaled by sqrt(n/m)
* ``subsampled_wht``    m rows of the orthonormal Walsh-Hadamard transform
                        (n must be a power of two), scaled by sqrt(n/m)
* ``quasi_toeplitz``    first m cyclic shifts of one random band row
* ``sparse_bernoulli``  exactly col_weight signed entries per column

All ensembles keep expected column squared norms at one.  Construction is
deterministic in (shape, seed); apply/adjoint are exact adjoints of each
other.  ``column_sign_randomize`` wraps any operator with a random +-1
diagonal on the input side.  scipy is imported by the two ensembles that
use it, when one is built, so the others run on numpy alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinearOperator",
    "KINDS",
    "make_iid_gaussian",
    "make_subsampled_dct",
    "make_subsampled_wht",
    "make_quasi_toeplitz",
    "make_sparse_bernoulli",
    "column_sign_randomize",
]

KINDS = (
    "iid_gaussian",
    "subsampled_dct",
    "subsampled_wht",
    "quasi_toeplitz",
    "sparse_bernoulli",
)


def _check_shape(m: int, n: int):
    if n < 2:
        raise ValueError("operator needs n >= 2 columns")
    if not 1 <= m <= n:
        raise ValueError("operator needs 1 <= m <= n rows")


class LinearOperator:
    """Base class: an m x n linear map with an exact adjoint."""

    default_beta = 1.0  # AMP residual damping used unless one is configured

    def __init__(self, m: int, n: int, kind: str):
        _check_shape(m, n)
        self.m = int(m)
        self.n = int(n)
        self.kind = kind

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_vec(self, v, length, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (length,):
            raise ValueError(f"{name} must have shape ({length},), got {v.shape}")
        return v


class _DenseOperator(LinearOperator):
    def __init__(self, matrix, kind):
        super().__init__(matrix.shape[0], matrix.shape[1], kind)
        self.matrix = matrix

    def apply(self, x):
        return self.matrix @ self._check_vec(x, self.n, "x")

    def adjoint(self, r):
        return self.matrix.T @ self._check_vec(r, self.m, "r")


class _SubsampledDct(LinearOperator):
    def __init__(self, m, n, seed):
        from scipy.fft import dct, idct

        super().__init__(m, n, "subsampled_dct")
        self._dct, self._idct = dct, idct
        rng = np.random.default_rng(seed)
        self.rows = np.sort(rng.choice(n, size=m, replace=False))
        self.scale = np.sqrt(n / m)

    def apply(self, x):
        x = self._check_vec(x, self.n, "x")
        return self.scale * self._dct(x, type=2, norm="ortho")[self.rows]

    def adjoint(self, r):
        r = self._check_vec(r, self.m, "r")
        full = np.zeros(self.n)
        full[self.rows] = r
        return self.scale * self._idct(full, type=2, norm="ortho")


def _fwht(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform in natural (Sylvester) order, unnormalized."""
    a = x.copy()
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h)
        s = a[:, 0, :] + a[:, 1, :]
        d = a[:, 0, :] - a[:, 1, :]
        a = np.stack([s, d], axis=1).reshape(n)
        h *= 2
    return a


class _SubsampledWht(LinearOperator):
    def __init__(self, m, n, seed):
        if n & (n - 1) != 0:
            raise ValueError("subsampled_wht needs n to be a power of two")
        super().__init__(m, n, "subsampled_wht")
        rng = np.random.default_rng(seed)
        self.rows = np.sort(rng.choice(n, size=m, replace=False))
        # sqrt(n/m) row scaling on top of the 1/sqrt(n) orthonormalization
        self.scale = np.sqrt(n / m) / np.sqrt(n)

    def apply(self, x):
        x = self._check_vec(x, self.n, "x")
        return self.scale * _fwht(x)[self.rows]

    def adjoint(self, r):
        r = self._check_vec(r, self.m, "r")
        full = np.zeros(self.n)
        full[self.rows] = r
        # the natural-order transform is symmetric, so adjoint = forward
        return self.scale * _fwht(full)


class _QuasiToeplitz(LinearOperator):
    """Rows are the first m cyclic shifts of one banded random row.

    Only the b band coefficients are random (variance 1/m); storage keeps
    exactly those b numbers plus their zero-padded FFT workspace.
    """

    default_beta = 0.5  # undamped AMP is unstable on these shifted rows

    def __init__(self, m, n, band, seed):
        if not 1 <= band <= n:
            raise ValueError("band width must satisfy 1 <= b <= n")
        super().__init__(m, n, "quasi_toeplitz")
        rng = np.random.default_rng(seed)
        self.coeffs = rng.normal(0.0, 1.0 / np.sqrt(m), size=band)
        row = np.zeros(n)
        row[:band] = self.coeffs
        self._row_fft = np.fft.rfft(row)

    def apply(self, x):
        # y[j] = sum_i row[(i - j) mod n] x[i], j < m  (circular correlation)
        x = self._check_vec(x, self.n, "x")
        full = np.fft.irfft(np.fft.rfft(x) * np.conj(self._row_fft), self.n)
        return full[: self.m]

    def adjoint(self, r):
        r = self._check_vec(r, self.m, "r")
        padded = np.zeros(self.n)
        padded[: self.m] = r
        return np.fft.irfft(np.fft.rfft(padded) * self._row_fft, self.n)


class _SparseBernoulli(LinearOperator):
    def __init__(self, m, n, col_weight, seed):
        import scipy.sparse

        if not 1 <= col_weight <= m:
            raise ValueError("col_weight must satisfy 1 <= col_weight <= m")
        super().__init__(m, n, "sparse_bernoulli")
        rng = np.random.default_rng(seed)
        rows = np.empty((col_weight, n), dtype=np.int64)
        for i in range(n):
            rows[:, i] = rng.choice(m, size=col_weight, replace=False)
        signs = rng.integers(0, 2, size=(col_weight, n)) * 2 - 1
        data = signs / np.sqrt(col_weight)
        cols = np.broadcast_to(np.arange(n), (col_weight, n))
        self._mat = scipy.sparse.csc_matrix(
            (data.ravel(), (rows.ravel(), cols.ravel())), shape=(m, n)
        )

    def apply(self, x):
        return self._mat @ self._check_vec(x, self.n, "x")

    def adjoint(self, r):
        return self._mat.T @ self._check_vec(r, self.m, "r")


class _ColumnSign(LinearOperator):
    def __init__(self, inner: LinearOperator, signs: np.ndarray):
        super().__init__(inner.m, inner.n, inner.kind)
        self.inner = inner
        self.signs = signs
        self.default_beta = inner.default_beta

    def apply(self, x):
        return self.inner.apply(self.signs * self._check_vec(x, self.n, "x"))

    def adjoint(self, r):
        return self.signs * self.inner.adjoint(r)


def make_iid_gaussian(m: int, n: int, seed: int) -> LinearOperator:
    _check_shape(m, n)
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    return _DenseOperator(matrix, "iid_gaussian")


def make_subsampled_dct(m: int, n: int, seed: int) -> LinearOperator:
    return _SubsampledDct(m, n, seed)


def make_subsampled_wht(m: int, n: int, seed: int) -> LinearOperator:
    return _SubsampledWht(m, n, seed)


def make_quasi_toeplitz(m: int, n: int, band: int, seed: int) -> LinearOperator:
    return _QuasiToeplitz(m, n, band, seed)


def make_sparse_bernoulli(m: int, n: int, col_weight: int, seed: int) -> LinearOperator:
    return _SparseBernoulli(m, n, col_weight, seed)


def column_sign_randomize(op: LinearOperator, seed: int) -> LinearOperator:
    """Flip each column's sign by an independent fair coin.

    Wrapping twice with the same seed restores the original action since
    the diagonal squares to the identity.
    """
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=op.n) * 2 - 1).astype(float)
    return _ColumnSign(op, signs)

