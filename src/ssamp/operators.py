"""Sensing operators used by the benchmark.

Five ensembles behind one apply/adjoint interface: two stored matrices, and
three sets of rows of a fast n-point transform.

* ``iid_gaussian``      stored dense N(0, 1/m) entries
* ``subsampled_dct``    m rows of the orthonormal DCT-II, scaled by sqrt(n/m)
* ``subsampled_wht``    m rows of the orthonormal Walsh-Hadamard transform
                        (n must be a power of two), scaled by sqrt(n/m)
* ``quasi_toeplitz``    rows 0..m-1 of the circulant of one random band row
* ``sparse_bernoulli``  stored, exactly col_weight signed entries per column

Expected column squared norms are one, except on quasi-Toeplitz rows: a
band of b coefficients gives them mean b/n, and b <= n - m leaves the last
n - m - b + 1 columns zero (to FFT rounding), unmeasured.  Construction is
deterministic in (shape, seed); apply/adjoint are exact adjoints of each
other.  ``column_sign_randomize`` wraps any operator with a random +-1
diagonal on the input side.  scipy is imported by the two ensembles that
use it, when one is built, so the others run on numpy alone.

``check_number`` is the package's one check of a public scalar argument.
"""

from __future__ import annotations

import math
import numbers
from functools import partial

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
    "check_number",
]

KINDS = (
    "iid_gaussian",
    "subsampled_dct",
    "subsampled_wht",
    "quasi_toeplitz",
    "sparse_bernoulli",
)


def check_number(
    name, value, low=-math.inf, high=math.inf, *, integer=False, open_low=False, finite=True
):
    """Return ``value`` (a float unless ``integer``) if it is a number (an
    integral one with ``integer``) in [low, high], or in (low, high] with
    ``open_low``, and finite unless ``finite`` is false; otherwise raise a
    ValueError naming ``name``.  bool is an int subclass, but True is no
    number here.  NaN fails every range, and an int too large for a float
    is infinite; a number is compared as that float, an integer exactly."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, not {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf if value > 0 else -math.inf
    number = value if integer else real
    above = low < number if open_low else low <= number
    if above and number <= high and (not finite or math.isfinite(real)):
        return number
    rules = [f"{'greater than' if open_low else 'at least'} {low}"] if low > -math.inf else []
    if high < math.inf:
        rules.append(f"at most {high}")
    if finite and (not integer or math.isinf(real)) and len(rules) < 2:
        rules.insert(0, "finite")
    raise ValueError(f"{name} must be {' and '.join(rules)}, not {value!r}")


def _check_shape(m: int, n: int):
    check_number("n", n, 2, integer=True)
    check_number("m", m, 1, n, integer=True)


class LinearOperator:
    """Base class: an m x n linear map with an exact adjoint.

    ``apply`` and ``adjoint`` check the vector's shape and hand it to the
    subclass's ``_apply`` and ``_adjoint``.
    """

    default_beta = 1.0  # AMP residual damping used unless one is configured

    def __init__(self, m: int, n: int, kind: str):
        _check_shape(m, n)
        self.m = int(m)
        self.n = int(n)
        self.kind = kind

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self._check_vec(x, self.n, "x"))

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        return self._adjoint(self._check_vec(r, self.m, "r"))

    def _check_vec(self, v, length, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (length,):
            raise ValueError(f"{name} must have shape ({length},), got {v.shape}")
        return v


class _StoredMatrix(LinearOperator):
    """A dense ndarray or a scipy sparse matrix, kept as ``matrix``."""

    def __init__(self, matrix, kind):
        super().__init__(matrix.shape[0], matrix.shape[1], kind)
        self.matrix = matrix

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, r):
        return self.matrix.T @ r


class _TransformRows(LinearOperator):
    """``scale`` times rows ``rows`` of the n-point transform ``forward``;
    the adjoint zero-fills the other rows and applies ``transpose``."""

    def __init__(self, n, rows, kind, forward, transpose, scale):
        super().__init__(len(rows), n, kind)
        self.rows = rows
        self.scale = scale
        self._forward, self._transpose = forward, transpose

    def _apply(self, x):
        return self.scale * self._forward(x)[self.rows]

    def _adjoint(self, r):
        full = np.zeros(self.n)
        full[self.rows] = r
        return self.scale * self._transpose(full)


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


class _ColumnSign(LinearOperator):
    def __init__(self, inner: LinearOperator, signs: np.ndarray):
        super().__init__(inner.m, inner.n, inner.kind)
        self.inner = inner
        self.signs = signs
        self.default_beta = inner.default_beta

    def _apply(self, x):
        return self.inner.apply(self.signs * x)

    def _adjoint(self, r):
        return self.signs * self.inner.adjoint(r)


def _random_rows(m: int, n: int, seed: int) -> np.ndarray:
    _check_shape(m, n)
    return np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))


def make_iid_gaussian(m: int, n: int, seed: int) -> LinearOperator:
    _check_shape(m, n)
    rng = np.random.default_rng(seed)
    return _StoredMatrix(rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n)), "iid_gaussian")


def make_subsampled_dct(m: int, n: int, seed: int) -> LinearOperator:
    from scipy.fft import dct, idct

    rows = _random_rows(m, n, seed)
    forward, transpose = partial(dct, type=2, norm="ortho"), partial(idct, type=2, norm="ortho")
    return _TransformRows(n, rows, "subsampled_dct", forward, transpose, np.sqrt(n / m))


def make_subsampled_wht(m: int, n: int, seed: int) -> LinearOperator:
    rows = _random_rows(m, n, seed)
    if n & (n - 1) != 0:
        raise ValueError("subsampled_wht needs n to be a power of two")
    # the natural-order transform is symmetric, so it is its own transpose;
    # sqrt(n/m) row scaling on top of the 1/sqrt(n) orthonormalization
    return _TransformRows(n, rows, "subsampled_wht", _fwht, _fwht, np.sqrt(n / m) / np.sqrt(n))


def make_quasi_toeplitz(m: int, n: int, band: int, seed: int) -> LinearOperator:
    """Rows 0..m-1 of the circulant whose first row holds ``band`` random
    coefficients (variance 1/m) and then zeros; only that row's FFT is kept."""
    _check_shape(m, n)
    check_number("band", band, 1, n, integer=True)
    row = np.zeros(n)
    row[:band] = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(m), size=band)
    row_fft = np.fft.rfft(row)
    # row j is the band row shifted by j: y[j] = sum_i row[(i - j) mod n] x[i]
    forward = lambda x: np.fft.irfft(np.fft.rfft(x) * np.conj(row_fft), n)
    transpose = lambda v: np.fft.irfft(np.fft.rfft(v) * row_fft, n)
    op = _TransformRows(n, np.arange(m), "quasi_toeplitz", forward, transpose, 1.0)
    op.default_beta = 0.5  # undamped AMP is unstable on these shifted rows
    return op


def make_sparse_bernoulli(m: int, n: int, col_weight: int, seed: int) -> LinearOperator:
    import scipy.sparse

    _check_shape(m, n)
    check_number("col_weight", col_weight, 1, m, integer=True)
    rng = np.random.default_rng(seed)
    rows = np.empty((col_weight, n), dtype=np.int64)
    for i in range(n):
        rows[:, i] = rng.choice(m, size=col_weight, replace=False)
    signs = rng.integers(0, 2, size=(col_weight, n)) * 2 - 1
    data = signs / np.sqrt(col_weight)
    cols = np.broadcast_to(np.arange(n), (col_weight, n))
    matrix = scipy.sparse.csc_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(m, n))
    return _StoredMatrix(matrix, "sparse_bernoulli")


def column_sign_randomize(op: LinearOperator, seed: int) -> LinearOperator:
    """Flip each column's sign by an independent fair coin.

    Wrapping twice with the same seed restores the original action since
    the diagonal squares to the identity.
    """
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=op.n) * 2 - 1).astype(float)
    return _ColumnSign(op, signs)
