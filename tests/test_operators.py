import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from oracles import dct_ii_matrix, dense_matrix
from ssamp.operators import (
    check_number,
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_sparse_bernoulli,
    make_subsampled_dct,
    make_subsampled_wht,
)


def _all_ops(seed=0):
    return [
        make_iid_gaussian(40, 96, seed),
        make_subsampled_dct(40, 96, seed),
        make_subsampled_wht(40, 128, seed),
        make_quasi_toeplitz(40, 96, 24, seed),
        make_sparse_bernoulli(40, 96, 8, seed),
        column_sign_randomize(make_subsampled_dct(40, 96, seed), seed + 1),
    ]


def test_adjoint_consistency_all_ensembles():
    rng = np.random.default_rng(5)
    for op in _all_ops():
        for _ in range(5):
            x = rng.normal(size=op.n)
            r = rng.normal(size=op.m)
            lhs = float(op.apply(x) @ r)
            rhs = float(x @ op.adjoint(r))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(r)
            assert abs(lhs - rhs) <= bound


def test_construction_deterministic_in_seed():
    rng = np.random.default_rng(9)
    x = rng.normal(size=96)
    xw = rng.normal(size=128)
    for make, vec in [
        (lambda s: make_iid_gaussian(40, 96, s), x),
        (lambda s: make_subsampled_dct(40, 96, s), x),
        (lambda s: make_subsampled_wht(40, 128, s), xw),
        (lambda s: make_quasi_toeplitz(40, 96, 24, s), x),
        (lambda s: make_sparse_bernoulli(40, 96, 8, s), x),
    ]:
        a = make(123).apply(vec)
        b = make(123).apply(vec)
        c = make(124).apply(vec)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_dense_reference_matches_apply():
    rng = np.random.default_rng(2)
    for op in _all_ops():
        dense = dense_matrix(op)
        x = rng.normal(size=op.n)
        assert np.allclose(dense @ x, op.apply(x), rtol=1e-12, atol=1e-12)
        r = rng.normal(size=op.m)
        assert np.allclose(dense.T @ r, op.adjoint(r), rtol=1e-12, atol=1e-12)


def test_mean_column_energy_near_one():
    # quasi-Toeplitz at full band; the mean only concentrates at rate
    # sqrt(2/band), so that instance needs to be reasonably large
    ops = [
        make_iid_gaussian(40, 96, 42),
        make_subsampled_dct(40, 96, 42),
        make_subsampled_wht(40, 128, 42),
        make_quasi_toeplitz(512, 1024, 1024, 42),
        make_sparse_bernoulli(40, 96, 8, 42),
        column_sign_randomize(make_subsampled_dct(40, 96, 42), 43),
    ]
    for op in ops:
        dense = dense_matrix(op)
        col_sq = np.sum(dense**2, axis=0)
        assert abs(np.mean(col_sq) - 1.0) <= 0.15


def test_quasi_toeplitz_band_column_energy():
    # a band of b coefficients spreads mean column energy b/n
    op = make_quasi_toeplitz(512, 1024, 256, 42)
    col_sq = np.sum(dense_matrix(op) ** 2, axis=0)
    assert np.mean(col_sq) == pytest.approx(256 / 1024, rel=0.3)


def test_sparse_bernoulli_columns_exact():
    op = make_sparse_bernoulli(40, 96, 8, 3)
    dense = dense_matrix(op)
    scale = 1.0 / np.sqrt(8)
    for i in range(96):
        col = dense[:, i]
        nz = col[col != 0.0]
        assert nz.size == 8
        assert np.all(np.isin(nz, [scale, -scale]))
        assert np.sum(col**2) == pytest.approx(1.0, rel=1e-12)


def test_sparse_bernoulli_rejects_overweight_columns():
    with pytest.raises(ValueError):
        make_sparse_bernoulli(4, 16, 5, 0)


def test_gaussian_entry_variance():
    op = make_iid_gaussian(100, 400, 7)
    assert np.var(op.matrix) == pytest.approx(1.0 / 100, rel=0.05)
    assert abs(np.mean(op.matrix)) <= 3e-3


def test_full_dct_is_scaled_isometry():
    op = make_subsampled_dct(64, 64, 1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=64)
    assert np.sum(op.apply(x) ** 2) == pytest.approx(np.sum(x**2), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 96, 97, 2048])
def test_dct_matches_dense_cosine_oracle(n):
    """apply and adjoint of 1, ceil(n/2) and n rows against the long-double
    cosine matrix, even and odd n, each error over s |input| with s = sqrt(n/m)
    the rows' norm.  Measured worst 3.9e-16 (n 3 to 2048, up to 20 seeds)."""
    cosines = dct_ii_matrix(n)
    for m in sorted({1, (n + 1) // 2, n}):
        for seed in range(3):
            op = make_subsampled_dct(m, n, seed)
            s = np.sqrt(np.longdouble(n) / m)
            rows = s * cosines[op.rows]
            rng = np.random.default_rng(seed)
            x, r = rng.normal(size=n), rng.normal(size=m)
            for got, want, size in (
                (op.apply(x), rows @ x.astype(np.longdouble), np.linalg.norm(x)),
                (op.adjoint(r), rows.T @ r.astype(np.longdouble), np.linalg.norm(r)),
            ):
                error = np.linalg.norm((got - want).astype(float)) / (float(s) * size)
                assert error <= 8e-16, (m, seed)


def test_sparse_bernoulli_sums_as_a_csc_matvec():
    """Each column's rows are stored sorted, and apply and adjoint give the
    bytes of scipy's compressed-sparse-column product, signed zeros included."""
    for m, n, w in ((40, 96, 8), (150, 500, 8), (8, 16, 5), (900, 3600, 8)):
        op = make_sparse_bernoulli(m, n, w, 7)
        assert np.all(np.diff(op.rows, axis=0) > 0)
        cols = np.broadcast_to(np.arange(n), op.rows.shape)
        csc = scipy.sparse.csc_matrix(
            (op.data.ravel(), (op.rows.ravel(), cols.ravel())), shape=(m, n)
        )
        rng = np.random.default_rng(m)
        for x, r in ((rng.normal(size=n), rng.normal(size=m)), (-np.zeros(n), -np.zeros(m))):
            assert op.apply(x).tobytes() == (csc @ x).tobytes()
            assert op.adjoint(r).tobytes() == (csc.T @ r).tobytes()


def test_wht_matches_hadamard_reference():
    op = make_subsampled_wht(16, 16, 4)
    reference = scipy.linalg.hadamard(16).astype(float) / 4.0
    dense = dense_matrix(op)
    # rows of the materialized operator are a permutation of reference rows
    assert np.allclose(dense, reference[op.rows], atol=1e-12)


def test_wht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        make_subsampled_wht(8, 24, 0)


def test_quasi_toeplitz_matches_circulant_reference():
    m, n, b = 24, 64, 16
    op = make_quasi_toeplitz(m, n, b, 11)
    row = np.zeros(n)
    row[:b] = np.random.default_rng(11).normal(0.0, 1.0 / np.sqrt(m), b)
    reference = np.array([np.roll(row, j) for j in range(m)])
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    assert np.allclose(op.apply(x), reference @ x, atol=1e-12)
    r = rng.normal(size=m)
    assert np.allclose(op.adjoint(r), reference.T @ r, atol=1e-12)


def test_quasi_toeplitz_stores_exactly_band_numbers():
    # row 0 is the band row itself; past the band it is zero to FFT rounding
    row = dense_matrix(make_quasi_toeplitz(32, 64, 20, 5))[0]
    assert np.array_equal(np.flatnonzero(np.abs(row) > 1e-12), np.arange(20))


def test_sign_randomize_twice_restores_action():
    base = make_iid_gaussian(24, 48, 8)
    once = column_sign_randomize(base, 99)
    twice = column_sign_randomize(once, 99)
    x = np.random.default_rng(0).normal(size=48)
    assert not np.allclose(once.apply(x), base.apply(x))
    assert np.allclose(twice.apply(x), base.apply(x), atol=1e-14)


def test_sign_randomize_with_unit_signs_is_identity_wrapper():
    # two wraps with one seed flip each column by a unit sign twice: exact in floating point
    base = make_iid_gaussian(24, 48, 8)
    twice = column_sign_randomize(column_sign_randomize(base, 99), 99)
    rng = np.random.default_rng(1)
    x, r = rng.normal(size=48), rng.normal(size=24)
    assert twice.apply(x).tobytes() == base.apply(x).tobytes()
    assert twice.adjoint(r).tobytes() == base.adjoint(r).tobytes()


def test_sign_randomize_metadata():
    base = make_quasi_toeplitz(24, 48, 12, 8)
    wrapped = column_sign_randomize(base, 3)
    assert wrapped.kind == "quasi_toeplitz"
    assert wrapped.inner is base
    assert set(np.unique(wrapped.signs)) <= {-1.0, 1.0}


def test_shape_validation():
    for op in _all_ops():
        for bad in (np.zeros(op.n - 1), np.zeros((1, op.n))):
            with pytest.raises(ValueError, match="x must have shape"):
                op.apply(bad)
        for bad in (np.zeros(op.n), np.zeros((op.m, 1))):
            with pytest.raises(ValueError, match="r must have shape"):
                op.adjoint(bad)
    with pytest.raises(ValueError):
        make_iid_gaussian(8, 1, 0)
    with pytest.raises(ValueError):
        make_quasi_toeplitz(8, 16, 0, 0)


def test_check_number_names_the_field_for_huge_ints_against_numpy_bounds():
    # 10**400 reads as +inf, so a numpy-float bound rejects it by name and not by OverflowError
    with pytest.raises(ValueError, match=r"^theta must be greater than 0.0 and at most"):
        check_number("theta", 10**400, 0.0, np.finfo(float).max / 2, open_low=True)
    with pytest.raises(ValueError, match=r"^x must be finite and at least 0.0"):
        check_number("x", 10**400, np.float64(0.0))


def test_check_number_caps_the_echoed_value():
    # the rejected value's repr is cut to 40 characters, not all 401 digits of 10**400
    with pytest.raises(ValueError) as info:
        check_number("x", 10**400, np.float64(0.0))
    assert len(str(info.value)) < 100
    assert str(info.value).startswith("x must be finite and at least 0.0, not 1000")
    with pytest.raises(ValueError, match=r"^x must be a number, not 'aaaa.*aaaa'$"):
        check_number("x", "a" * 1000)
    # a numpy scalar is echoed whole
    with pytest.raises(ValueError, match=r"not np\.float64\(0\.30000000000000004\)$"):
        check_number("x", np.float64(0.30000000000000004), 1.0)
