import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssamp.operators import make_iid_gaussian, make_subsampled_dct
from ssamp.signals import SignalSpec, generate, measure, nmse, save_signal


def test_first_sample_anchored_at_zero():
    x = generate(SignalSpec(100, "gaussian_pwc", 1.0, 0), 10)
    assert x[0] == 0.0


def test_jump_count_matches_nonzero_differences():
    x = generate(SignalSpec(500, "gaussian_pwc", 1.0, 1), 40)
    assert np.count_nonzero(np.diff(x)) == 40


def test_force_k_is_exact():
    for k in (0, 1, 17, 99):
        x = generate(SignalSpec(100, "gaussian_pwc", 1.0, 7), k)
        assert np.count_nonzero(np.diff(x)) == k


def test_force_k_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate(SignalSpec(10, "gaussian_pwc", 1.0, 0), 10)
    with pytest.raises(ValueError):
        generate(SignalSpec(10, "gaussian_pwc", 1.0, 0), -1)


def test_bernoulli_jumps_have_fixed_magnitude():
    x = generate(SignalSpec(400, "bernoulli_pwc", 2.5, 3), 40)
    jumps = np.diff(x)
    active = jumps[jumps != 0.0]
    assert active.size == 40
    assert np.allclose(np.abs(active), 2.5)


def test_gaussian_jump_scale():
    x = generate(SignalSpec(20000, "gaussian_pwc", 1.5, 9), 4000)
    jumps = np.diff(x)
    active = jumps[jumps != 0.0]
    assert active.size == 4000
    assert np.std(active) == pytest.approx(1.5, rel=0.05)


def test_generation_deterministic_in_seed():
    spec = SignalSpec(64, "gaussian_pwc", 1.0, 12)
    x1 = generate(spec, 6)
    x2 = generate(spec, 6)
    assert np.array_equal(x1, x2)


def test_measure_noiseless_is_exact():
    op = make_iid_gaussian(32, 64, 0)
    x = generate(SignalSpec(64, "gaussian_pwc", 1.0, 5), 6)
    y = measure(op, x, 0.0, 123)
    assert np.array_equal(y, op.apply(x))


def test_measure_rejects_bad_noise_variance():
    # a NaN delta used to pass the "delta < 0" check and measure without noise
    op = make_iid_gaussian(8, 16, 0)
    for delta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            measure(op, np.zeros(16), delta, 0)


def test_measure_noise_variance():
    op = make_subsampled_dct(2000, 2048, 0)
    x = np.zeros(2048)
    y = measure(op, x, 0.25, 42)
    assert np.var(y) == pytest.approx(0.25, rel=0.1)


def test_nmse_basics():
    x = np.array([1.0, 2.0, -1.0])
    assert nmse(x, x) == 0.0
    assert nmse(x, np.zeros(3)) == pytest.approx(1.0)
    # zero truth falls back to the plain squared norm
    e = np.array([0.3, -0.4, 0.0])
    assert nmse(np.zeros(3), e) == pytest.approx(0.25)


@given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_nmse_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=20) + 1.0
    e = rng.normal(size=20)
    assert nmse(scale * x, scale * (x + e)) == pytest.approx(nmse(x, x + e), rel=1e-9)


def test_signal_text_roundtrip(tmp_path):
    x = generate(SignalSpec(50, "gaussian_pwc", 1.0, 77), 7)
    path = tmp_path / "signal.txt"
    save_signal(path, x)
    assert np.array_equal(np.loadtxt(path), x)


def test_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(1, "gaussian_pwc", 1.0, 0)
    with pytest.raises(ValueError):
        SignalSpec(10, "unknown", 1.0, 0)
    for sigma0 in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SignalSpec(10, "gaussian_pwc", sigma0, 0)
