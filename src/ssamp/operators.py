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
diagonal on the input side; an experiment signs the ``SIGNED_KINDS`` always
and no other kind (structurally random matrices: Do et al., IEEE TSP 2012).
Every ensemble runs on numpy alone: the DCT is numpy's real FFT behind
Makhoul's reordering (IEEE TASSP 1980), the sparse matrix a block of row indices.

``check_number`` is the package's one check of a public scalar argument.
"""

from __future__ import annotations

import functools
import math
import numbers
import reprlib

import numpy as np

__all__ = [
    "LinearOperator",
    "KINDS",
    "SIGNED_KINDS",
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
SIGNED_KINDS = ("subsampled_dct", "subsampled_wht", "quasi_toeplitz")


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
        raise ValueError(f"{name} must be {what}, not {_ECHO.repr(value)}")
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
    raise ValueError(f"{name} must be {' and '.join(rules)}, not {_ECHO.repr(value)}")


# a rejected value's repr, cut to 40 characters for an int (10**400 has 401 digits) and
# 60 for other objects, which keeps a numpy scalar whole
_ECHO = reprlib.Repr()
_ECHO.maxother = 60


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
    """A dense ndarray, kept as ``matrix``."""

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


@functools.lru_cache(maxsize=8)
def _dct_twiddles(n: int) -> np.ndarray:
    """Row k's twiddle in Makhoul's DCT-II: exp(-i pi k / 2n) times the
    orthonormal row norm, sqrt(1/n) at k = 0 and sqrt(2/n) after; read-only."""
    c = np.exp(-1j * np.pi / (2 * n) * np.arange(n)) * np.sqrt(2.0 / n)
    c[0] = np.sqrt(1.0 / n)
    c.flags.writeable = False
    return c


class _DCTRows(LinearOperator):
    """``scale`` times rows ``rows`` (sorted) of the orthonormal n-point DCT-II,
    by Makhoul's reordering (IEEE TASSP 1980): v holds x's even entries, then
    its odd ones reversed, and row k is Re(c_k V_k) for V = rfft(v); a row
    k > n/2 reads bin n - k with conj(c_k).  The gather and ``scale`` are
    folded into one twiddle per row.  The adjoint runs the same steps in
    reverse: the rows' conjugate twiddles fill a half spectrum, weighted for
    an unscaled irfft, which sums bins 0 and n/2 once and the others twice."""

    def __init__(self, n, rows, scale):
        super().__init__(len(rows), n, "subsampled_dct")
        self.rows = rows
        c = _dct_twiddles(n)[rows]
        low = rows <= n // 2
        self._bins = np.where(low, rows, n - rows)
        self._twiddles = scale * np.where(low, c, np.conj(c))
        once = (self._bins == 0) | (2 * self._bins == n)
        self._adjoint_twiddles = np.where(once, 1.0, 0.5) * np.conj(self._twiddles)
        self._low = int(np.count_nonzero(low))  # the rows are sorted: the low ones come first

    def _apply(self, x):
        spectrum = np.fft.rfft(np.concatenate((x[0::2], x[1::2][::-1])))[self._bins]
        return (spectrum * self._twiddles).real

    def _adjoint(self, r):
        weighted = self._adjoint_twiddles * r
        low = self._low
        spectrum = np.zeros(self.n // 2 + 1, dtype=complex)
        # rows k and n - k share a bin; the low rows' bins, and the high rows', are distinct
        spectrum[self._bins[:low]] = weighted[:low]
        spectrum[self._bins[low:]] += weighted[low:]
        v = np.fft.irfft(spectrum, self.n, norm="forward")
        x = np.empty(self.n)
        even = (self.n + 1) // 2
        x[0::2], x[1::2] = v[:even], v[even:][::-1]
        return x


class _SparseColumns(LinearOperator):
    """An m x n matrix with the same number w of entries in every column: the
    (w, n) blocks ``rows`` (sorted down each column) and ``data``, and both
    flattened column by column.  Products are summed in column order, as a
    compressed-sparse-column matvec does: apply accumulates into each row
    from 0.0 through bincount, and the adjoint sums each column's w products
    from 0.0 in row order."""

    def __init__(self, m, rows, data):
        super().__init__(m, rows.shape[1], "sparse_bernoulli")
        self.rows, self.data = rows, data
        self._column_rows, self._column_data = rows.T.ravel(), data.T.ravel()

    def _apply(self, x):
        weights = self._column_data * np.repeat(x, len(self.rows))
        return np.bincount(self._column_rows, weights=weights, minlength=self.m)

    def _adjoint(self, r):
        out = np.zeros(self.n)
        for products in self.data * r[self.rows]:
            out += products
        return out


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
    return _DCTRows(n, _random_rows(m, n, seed), np.sqrt(n / m))


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
    _check_shape(m, n)
    check_number("col_weight", col_weight, 1, m, integer=True)
    rng = np.random.default_rng(seed)
    rows = np.empty((col_weight, n), dtype=np.int64)
    for i in range(n):
        rows[:, i] = rng.choice(m, size=col_weight, replace=False)
    signs = rng.integers(0, 2, size=(col_weight, n)) * 2 - 1
    data = signs / np.sqrt(col_weight)
    order = np.argsort(rows, axis=0)
    return _SparseColumns(
        m, np.take_along_axis(rows, order, axis=0), np.take_along_axis(data, order, axis=0)
    )


def column_sign_randomize(op: LinearOperator, seed: int) -> LinearOperator:
    """Flip each column's sign by an independent fair coin.

    Wrapping twice with the same seed restores the original action since
    the diagonal squares to the identity.
    """
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=op.n) * 2 - 1).astype(float)
    return _ColumnSign(op, signs)
