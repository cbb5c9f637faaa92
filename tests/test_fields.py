"""Arrays, spatial fields, noise span, and the protected signal component."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfs_sense import (NoiseModel, NoSignalComponent, NumericFailure,
                       SensorArray, SpatialField, dfs_condition,
                       effective_signal_gap, orthogonal_complement,
                       sample_field)
from fractions import Fraction


def test_array_validation():
    with pytest.raises(ValueError):
        SensorArray((), ())
    with pytest.raises(ValueError):
        SensorArray((0.0, 0.0), (2, 2))          # duplicate positions
    with pytest.raises(ValueError):
        SensorArray((0.0, 1.0), (2,))            # length mismatch
    with pytest.raises(ValueError):
        SensorArray((0.0, 1.0), (2, 1))          # fewer than 2 levels


def test_site_ladders_exact():
    arr = SensorArray((0.0, 1.0, 2.0), (2, 3, 4))
    assert arr.site_spin_values(0) == (Fraction(-1, 2), Fraction(1, 2))
    assert arr.site_spin_values(1) == (-1, 0, 1)
    assert arr.site_spin_values(2) == (Fraction(-3, 2), Fraction(-1, 2),
                                       Fraction(1, 2), Fraction(3, 2))
    assert arr.total_configurations == 24


def test_spatial_field_validation():
    with pytest.raises(ValueError):
        SpatialField(())
    with pytest.raises(ValueError):
        SpatialField((0.0, 0.0))
    with pytest.raises(NumericFailure):
        SpatialField((1.0, float("nan")))


def test_noise_rank_rejection():
    f1 = SpatialField((1.0, 2.0), label="noise:0")
    f2 = SpatialField((2.0, 4.0), label="noise:1")
    with pytest.raises(ValueError):
        NoiseModel((f1, f2))


def test_noise_rank_is_free_of_each_profile_scale():
    # a constant profile 2^-44 next to a unit gradient spans what the unit
    # constant does; only the profiles' directions decide independence
    J = 16
    gradient = SpatialField(tuple(float(j) for j in range(J)), label="noise:1")
    for scale in (1.0, 2.0 ** -44, 2.0 ** 44):
        const = SpatialField((scale,) * J, label="noise:0")
        for fields in ((const, gradient), (gradient, const)):
            q = NoiseModel(fields).orthonormal_span()
            assert np.allclose(q @ q.T, np.eye(2), atol=1e-12)


def test_noise_rejects_more_profiles_than_sites():
    fields = tuple(SpatialField(v, label=f"noise:{k}") for k, v in
                   enumerate(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))))
    with pytest.raises(ValueError, match="linearly dependent"):
        NoiseModel(fields)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
def test_orthonormal_span_properties(J, K, seed):
    if K >= J:
        K = J - 1
    if K == 0:
        return
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(K, J))
    fields = tuple(SpatialField(tuple(row), label=f"noise:{k}")
                   for k, row in enumerate(m))
    try:
        noise = NoiseModel(fields)
    except ValueError:
        return  # randomly degenerate draw
    q = noise.orthonormal_span()
    gram = q @ q.T
    assert np.max(np.abs(gram - np.eye(K))) < 1e-12
    # span preserved: every noise field reconstructs from the basis
    for row in m:
        rec = q.T @ (q @ row)
        assert np.linalg.norm(rec - row) < 1e-9 * np.linalg.norm(row)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 4), st.integers(0, 10_000))
def test_orthogonal_complement_reconstruction(J, K, seed):
    K = min(K, J - 1)
    rng = np.random.default_rng(seed)
    sig = SpatialField(tuple(rng.normal(size=J)))
    fields = tuple(SpatialField(tuple(rng.normal(size=J)), label=f"noise:{k}")
                   for k in range(K))
    try:
        noise = NoiseModel(fields)
        f_perp = orthogonal_complement(sig, noise)
    except (ValueError, NoSignalComponent):
        return
    v = f_perp.vector
    if K:
        q = noise.orthonormal_span()
        assert np.max(np.abs(q @ v)) < 1e-12 * np.linalg.norm(sig.vector)
        rec = v + q.T @ (q @ sig.vector)
        assert np.linalg.norm(rec - sig.vector) < 1e-10 * np.linalg.norm(sig.vector)
    else:
        assert np.allclose(v, sig.vector)


def test_orthogonal_complement_rejects_spanned_signal():
    sig = SpatialField((1.0, 1.0))
    noise = NoiseModel((SpatialField((1.0, 1.0), label="noise:0"),))
    with pytest.raises(NoSignalComponent):
        orthogonal_complement(sig, noise)
    # K >= J leaves no room either
    noise2 = NoiseModel((SpatialField((1.0, 0.0), label="noise:0"),
                         SpatialField((0.0, 1.0), label="noise:1")))
    with pytest.raises(NoSignalComponent):
        orthogonal_complement(SpatialField((1.0, 2.0)), noise2)


def test_dfs_condition():
    noise = NoiseModel((SpatialField((1.0, 1.0, 1.0), label="noise:0"),))
    r = (0.5, 0.5, -0.5)
    assert dfs_condition((0.5, -0.5, 0.5), r, noise)      # same total
    assert not dfs_condition((0.5, 0.5, 0.5), r, noise)   # total differs
    assert dfs_condition(r, r, noise)


def test_sample_field_and_gap():
    arr = SensorArray((1.0, 2.0, 4.0), (2, 2, 2))
    f = sample_field(lambda r: 1.0 / r, arr)
    assert np.allclose(f.vector, [1.0, 0.5, 0.25])
    g = effective_signal_gap((0.5, 0.5, 0.5), (-0.5, 0.5, 0.5), f)
    assert g == pytest.approx(1.0)
    with pytest.raises(NumericFailure):
        sample_field(lambda r: float("nan") if r == 1.0 else 1.0 / r, arr)
