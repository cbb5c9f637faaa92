"""Probes, prior averaging, quantum Fisher information, canonical phase."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfs_sense import (AveragedState, CanonicalSampler, Degenerate,
                       EffectiveSpectrum, FlatPrior, GaussianPrior,
                       InvalidState, NotLinear, ProbeState, averaged_state,
                       berry_wiseman_probe,
                       canonical_phase_density, empirical_holevo, evolve,
                       ghz_probe, holevo_variance, qfi_mixed, qfi_pure,
                       uniform_probe, variance_reduction, wrap_pi)
from dfs_sense import bayes
from dfs_sense.bayes import _coherence_sums, _fourier_grid, _phase_grid_size


def _linear(L, delta=1.0):
    g = delta / (L - 1)
    return EffectiveSpectrum.from_levels([-delta / 2 + k * g for k in range(L)])


# ------------------------------------------------------------------- priors

def test_prior_validation():
    with pytest.raises(ValueError):
        FlatPrior(0.0)
    with pytest.raises(ValueError):
        GaussianPrior(-1.0)
    assert FlatPrior(2.0, lower=-1.0).width == 2.0
    assert GaussianPrior(0.5, mean=3.0).mean == 3.0


# ------------------------------------------------------------------- probes

def test_probe_normalization_enforced():
    with pytest.raises(ValueError):
        ProbeState((1.0, 1.0))
    p = ProbeState.from_vector([3.0, 4.0])
    assert np.allclose(np.abs(p.vector), [0.6, 0.8])


@pytest.mark.parametrize("L", [2, 3, 5, 8, 31])
def test_probe_families(L):
    g = ghz_probe(L)
    assert g.L == L
    assert g.vector[0] == pytest.approx(1 / math.sqrt(2))
    assert g.vector[-1] == pytest.approx(1 / math.sqrt(2))
    assert np.all(g.vector[1:-1] == 0)

    s = berry_wiseman_probe(L)
    expect = np.sqrt(2.0 / (L + 1)) * np.sin(np.pi * np.arange(1, L + 1) / (L + 1))
    assert np.allclose(s.vector.real, expect, atol=1e-15)
    assert np.linalg.norm(s.vector) == pytest.approx(1.0, abs=1e-12)

    u = uniform_probe(L)
    assert np.allclose(np.abs(u.vector), 1 / math.sqrt(L))


def test_probe_families_reject_single_level():
    for f in (ghz_probe, berry_wiseman_probe):
        with pytest.raises(Degenerate):
            f(1)
    # a flat superposition is still defined on one level
    assert uniform_probe(1).L == 1
    with pytest.raises(Degenerate):
        uniform_probe(0)


def test_probes_accept_spectrum():
    sp = _linear(5, 4.0)
    assert ghz_probe(sp).L == 5


@pytest.mark.parametrize("L", [2, 3, 16, 17, 1024, 4096])
def test_sine_probe_moduli_equal_their_mirror(L):
    a = np.abs(berry_wiseman_probe(L).vector)
    assert np.array_equal(a, a[::-1])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs a longdouble wider than float64")
@pytest.mark.parametrize("L", [1024, 4096])
def test_sine_probe_full_relative_accuracy(L):
    # the unfolded argument pi mu/(L+1), with pi to longdouble precision
    pi = 4 * np.arctan(np.longdouble(1))
    mu = np.arange(1, L + 1, dtype=np.longdouble)
    n1 = np.longdouble(L + 1)
    ref = np.sqrt(2 / n1) * np.sin(pi * mu / n1)
    got = berry_wiseman_probe(L).vector.real.astype(np.longdouble)
    assert float(np.max(np.abs(got / ref - 1))) <= 1e-15


# ------------------------------------------------------------------- evolve

@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.floats(-5, 5, allow_nan=False),
       st.floats(0, 10, allow_nan=False), st.integers(0, 1000))
def test_evolve_preserves_norm(L, omega, t, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    p = ProbeState.from_vector(v)
    q = evolve(p, _linear(L), omega, t)
    assert abs(np.linalg.norm(q.vector) - 1.0) < 1e-12
    # probabilities in the generator basis are untouched
    assert np.allclose(np.abs(q.vector), np.abs(p.vector), atol=1e-12)


def test_evolve_errors():
    p = ghz_probe(3)
    with pytest.raises(ValueError):
        evolve(p, _linear(3), 1.0, -0.5)
    with pytest.raises(ValueError):
        evolve(p, _linear(4), 1.0, 0.5)


def test_evolve_phase_convention():
    # two levels +-1/2: relative phase e^{-i omega t (g1 - g0)} = e^{-i omega t}
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    p = ghz_probe(2)
    q = evolve(p, sp, omega=np.pi / 2, t=1.0)
    rel = q.vector[1] / q.vector[0]
    assert rel == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)


# ----------------------------------------------------------- averaged state

def test_averaged_state_t0_is_projector():
    p = berry_wiseman_probe(4)
    st0 = averaged_state(p, GaussianPrior(1.0), _linear(4), 0.0)
    assert np.allclose(st0.rho, np.outer(p.vector, p.vector.conj()), atol=1e-15)


def test_averaged_state_diagonal_unchanged():
    p = uniform_probe(6)
    sp = _linear(6, 3.0)
    st1 = averaged_state(p, GaussianPrior(2.0, mean=0.7), sp, 1.3)
    assert np.allclose(np.diag(st1.rho).real, np.abs(p.vector) ** 2, atol=1e-14)
    assert np.trace(st1.rho).real == pytest.approx(1.0, abs=1e-12)


def test_averaged_state_two_level_closed_form():
    # x = t W Delta = 1 damps the extremal coherence by e^{-1/2}; mean phase rotates it
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])  # Delta = 1, gap = 1
    p = ghz_probe(2)
    W, mean, t = 2.0, 0.6, 0.5  # x = 1
    st1 = averaged_state(p, GaussianPrior(W, mean=mean), sp, t)
    expect = 0.5 * np.exp(-0.5) * np.exp(-1j * mean * t * 1.0)
    assert st1.rho[1, 0] == pytest.approx(expect, abs=1e-15)


def test_averaged_state_requires_uniform_spacing_and_gaussian():
    p = ghz_probe(3)
    crooked = EffectiveSpectrum.from_levels([0.0, 1.0, 3.0])
    with pytest.raises(NotLinear):
        averaged_state(p, GaussianPrior(1.0), crooked, 1.0)
    with pytest.raises(TypeError):
        averaged_state(p, FlatPrior(1.0), _linear(3), 1.0)


def test_averaged_state_matches_quadrature():
    """Direct Gaussian-prior quadrature oracle on a random probe."""
    rng = np.random.default_rng(7)
    L, W, mean, t = 5, 0.8, -0.4, 0.9
    sp = _linear(L, 2.0)
    p = ProbeState.from_vector(rng.normal(size=L) + 1j * rng.normal(size=L))
    got = averaged_state(p, GaussianPrior(W, mean=mean), sp, t).rho

    nodes = 20001
    ws = np.linspace(mean - 10 * W, mean + 10 * W, nodes)
    pdf = np.exp(-0.5 * ((ws - mean) / W) ** 2) / (W * math.sqrt(2 * math.pi))
    acc = np.zeros((L, L), dtype=complex)
    base = np.outer(p.vector, p.vector.conj())
    lv = sp.levels_float
    for w, q in zip(ws, pdf):
        u = np.exp(-1j * w * t * lv)
        acc += q * (u[:, None] * base * u.conj()[None, :])
    acc *= ws[1] - ws[0]
    acc /= np.trace(acc).real
    assert np.max(np.abs(acc - got)) < 1e-8


def test_invalid_state_rejected():
    with pytest.raises(InvalidState):
        AveragedState(np.array([[0.5, 0.9], [0.9, 0.5]]))  # not PSD
    with pytest.raises(InvalidState):
        AveragedState(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidState):
        AveragedState(np.array([[0.5, 0.0], [0.0, 0.4]]))  # trace != 1


# ---------------------------------------------------------------------- QFI

def test_qfi_pure_examples():
    sp = _linear(2, 3.0)
    assert qfi_pure(ghz_probe(2), sp, 2.0) == pytest.approx(4.0 * 9.0)  # t^2 Delta^2
    sp3 = _linear(3, 2.0)  # levels -1, 0, 1
    assert qfi_pure(uniform_probe(3), sp3, 1.0) == pytest.approx(4.0 * 2.0 / 3.0)
    assert qfi_pure(ghz_probe(4), _linear(4), 0.0) == 0.0


def test_qfi_mixed_matches_pure_on_projectors():
    rng = np.random.default_rng(3)
    for L in (2, 3, 5, 8):
        sp = _linear(L, 1.7)
        p = ProbeState.from_vector(rng.normal(size=L) + 1j * rng.normal(size=L))
        rho = AveragedState(np.outer(p.vector, p.vector.conj()))
        t = 1.1
        assert qfi_mixed(rho, sp, t) == pytest.approx(qfi_pure(p, sp, t), rel=1e-9)


def test_qfi_mixed_zero_for_diagonal_states():
    sp = _linear(4)
    rho = AveragedState(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    assert qfi_mixed(rho, sp, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_qfi_mixed_ghz_closed_form():
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    p = ghz_probe(2)
    W = 1.0
    for x in np.linspace(0.01, 3.0, 23):
        t = x / W  # Delta = 1
        rho = averaged_state(p, GaussianPrior(W), sp, t)
        assert qfi_mixed(rho, sp, t) == pytest.approx(
            t * t * math.exp(-x * x), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.0, 3.0, allow_nan=False),
       st.floats(0.1, 2.0, allow_nan=False), st.integers(0, 100_000))
def test_qfi_mixed_never_exceeds_pure(L, t, W, seed):
    rng = np.random.default_rng(seed)
    sp = _linear(L, 2.0)
    p = ProbeState.from_vector(rng.normal(size=L) + 1j * rng.normal(size=L))
    rho = averaged_state(p, GaussianPrior(W), sp, t)
    assert qfi_mixed(rho, sp, t) <= qfi_pure(p, sp, t) * (1 + 1e-9) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.0, 5.0, allow_nan=False),
       st.floats(0.1, 2.0, allow_nan=False), st.integers(0, 100_000))
def test_variance_reduction_in_unit_interval(L, t, W, seed):
    rng = np.random.default_rng(seed)
    sp = _linear(L, 2.0)
    p = ProbeState.from_vector(rng.normal(size=L) + 1j * rng.normal(size=L))
    r = variance_reduction(p, GaussianPrior(W), sp, t)
    assert 0.0 < r <= 1.0 + 1e-12


def test_variance_reduction_identity_at_t0():
    assert variance_reduction(ghz_probe(5), GaussianPrior(1.3), _linear(5), 0.0) \
        == pytest.approx(1.0, abs=1e-15)


def test_variance_reduction_ghz_curve():
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    W = 0.7
    for x in (0.3, 1.0, 2.0):
        t = x / W
        r = variance_reduction(ghz_probe(2), GaussianPrior(W), sp, t)
        assert r == pytest.approx(1.0 - x * x * math.exp(-x * x), rel=1e-9)


def _mirror_probe(L, rng):
    """Random moduli and phases with |c_n| = |c_{L-1-n}| bit for bit.

    The mirror of c is c* times 1, -1, i or -i, which keeps |c| exactly.
    """
    m = L // 2
    h = rng.normal(size=m) + 1j * rng.normal(size=m)
    twin = rng.choice([1, -1, 1j, -1j], size=m) * h.conj()
    mid = rng.normal(size=L % 2) + 1j * rng.normal(size=L % 2)
    return ProbeState.from_vector(np.concatenate((h, mid, twin[::-1])))


@pytest.mark.parametrize("L", [1, 2, 3, 5, 64, 65, 300])
def test_variance_reduction_matches_complex_reference(L):
    # levels 1.9 + 0.37 k: non-unit gap, nonzero offset; random phases and mean
    rng = np.random.default_rng(L)
    sp = EffectiveSpectrum.from_levels([1.9 + 0.37 * k for k in range(L)])
    p = ProbeState.from_vector(rng.normal(size=L) + 1j * rng.normal(size=L))
    flat = ProbeState.from_vector(np.abs(p.vector))
    prior = GaussianPrior(1.3, mean=-0.8)
    mirrored = [uniform_probe(L)]
    if L > 1:
        mirrored += [berry_wiseman_probe(L), ghz_probe(L), _mirror_probe(L, rng)]
    for x in (0.7, 0.8 * L):
        t = x / (prior.width * max(sp.Delta, 0.37))  # Delta = 0 at L = 1
        ref = 1.0 - prior.width ** 2 * qfi_mixed(averaged_state(p, prior, sp, t), sp, t)
        got = variance_reduction(p, prior, sp, t)
        assert got == pytest.approx(ref, rel=1e-10)
        assert variance_reduction(flat, prior, sp, t) == pytest.approx(got, rel=1e-12)
        if L > 1:
            assert got < 1.0 - 1e-3
        # mirror-symmetric moduli: the parity path at L >= 2
        for q in mirrored:
            ref = 1.0 - prior.width ** 2 * qfi_mixed(averaged_state(q, prior, sp, t), sp, t)
            assert variance_reduction(q, prior, sp, t) == pytest.approx(ref, rel=1e-10)


def test_variance_reduction_takes_parity_path_for_mirror_moduli(monkeypatch):
    calls = []
    parity = bayes._parity_information
    monkeypatch.setattr(bayes, "_parity_information",
                        lambda core, *rest: calls.append(len(core)) or parity(core, *rest))
    rng = np.random.default_rng(7)
    prior = GaussianPrior(0.9, mean=0.3)
    for L in (2, 3, 4, 5, 16, 17):
        sp = _linear(L, 2.0)
        for p in (berry_wiseman_probe(L), ghz_probe(L), uniform_probe(L),
                  _mirror_probe(L, rng)):
            calls.clear()
            variance_reduction(p, prior, sp, 0.8)
            assert calls == [L]
        calls.clear()
        asym = ProbeState.from_vector(rng.normal(size=L) + 1j * rng.normal(size=L))
        variance_reduction(asym, prior, sp, 0.8)
        assert calls == []
    variance_reduction(uniform_probe(1), prior, EffectiveSpectrum.from_levels([0.0]), 0.8)
    assert calls == []


def _sld_sum_reference(lam_a, lam_b, gmat):
    """The pair sum with masked temporaries, as it was before it worked in place."""
    lam_a = np.clip(lam_a, 0.0, None)
    lam_b = np.clip(lam_b, 0.0, None)
    num = (lam_a[:, None] - lam_b[None, :]) ** 2
    den = lam_a[:, None] + lam_b[None, :]
    keep = den > bayes.SLD_FLOOR
    terms = np.where(keep, num / np.where(keep, den, 1.0), 0.0) * np.abs(gmat) ** 2
    return np.sum(terms)


def _reduction_from_whole_core(probe, prior, sp, t):
    """variance_reduction with its blocks cut from the L x L core by index slicing."""
    core, _ = bayes._averaged_core(probe, prior, sp, t)
    levels = sp.levels_float
    L = len(levels)
    a = np.abs(probe.vector)
    if L < 2 or not np.array_equal(a, a[::-1]):
        lam, vecs = np.linalg.eigh(core)
        gmat = vecs.conj().T @ (levels[:, None] * vecs)
        info = 2.0 * t * t * _sld_sum_reference(lam, lam, gmat)
        return 1.0 - prior.width ** 2 * float(info)
    m = L // 2
    s = 0.5 * (levels[:m] - levels[::-1][:m])
    top = core[:m, :m]
    bj = core[:m, ::-1][:, :m]
    even = top + bj
    if L % 2:
        col = np.sqrt(2.0) * core[:m, m]
        even = np.block([[even, col[:, None]],
                         [col[None, :], core[m:m + 1, m:m + 1]]])
    lam_e, u_e = np.linalg.eigh(even)
    lam_o, u_o = np.linalg.eigh(top - bj)
    cross = u_o.T @ (s[:, None] * u_e[:m])
    info = 4.0 * t * t * _sld_sum_reference(lam_o, lam_e, cross)
    return 1.0 - prior.width ** 2 * float(info)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 16, 17, 64, 65, 1024])
def test_parity_blocks_match_the_whole_core_bit_for_bit(L):
    # blocks built from |c| and the kernel hold the core's own products in
    # its own order, so every eigenvalue and the result are equal, not close
    rng = np.random.default_rng(100 + L)
    sp = EffectiveSpectrum.from_levels([1.9 + 0.37 * k for k in range(L)])
    prior = GaussianPrior(1.3, mean=-0.8)
    probes = [berry_wiseman_probe(L), ghz_probe(L), uniform_probe(L),
              _mirror_probe(L, rng)]
    if L <= 65:
        probes.append(ProbeState.from_vector(rng.normal(size=L)
                                             + 1j * rng.normal(size=L)))
    for x in (0.7, 3.0, 0.75 * (L - 1)):
        t = x / (prior.width * sp.Delta)
        for p in probes:
            assert variance_reduction(p, prior, sp, t) \
                == _reduction_from_whole_core(p, prior, sp, t)


def test_variance_reduction_memory_ceiling():
    # sine probe at the sine window: the parity blocks never build the
    # 8 MB L x L core (the whole-core slicing peaked near 25 MB)
    L = 1024
    sp = _linear(L, 2.0)
    prior = GaussianPrior(0.9)
    t = (L - 1) / (prior.width * sp.Delta)
    p = berry_wiseman_probe(L)
    tracemalloc.start()
    try:
        variance_reduction(p, prior, sp, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_variance_reduction_respects_psd_floor(monkeypatch):
    sp = _linear(5, 2.0)
    # both probes have mirror-symmetric moduli: the parity path checks the floor
    cases = ((berry_wiseman_probe(5), 0.0), (ghz_probe(5), 1.0))
    for p, t in cases:
        # rank-deficient averaged states: eigenvalues 0 up to round-off
        assert 0.0 < variance_reduction(p, GaussianPrior(0.9), sp, t) <= 1.0
    monkeypatch.setattr(bayes, "PSD_FLOOR", 1e-6)
    for p, t in cases:
        with pytest.raises(InvalidState):
            variance_reduction(p, GaussianPrior(0.9), sp, t)
        # the public averaged state checks the same floor
        with pytest.raises(InvalidState):
            averaged_state(p, GaussianPrior(0.9), sp, t)


# -------------------------------------------------------- canonical measure

def test_wrap_pi_range():
    assert wrap_pi(np.pi) == pytest.approx(-np.pi)
    assert wrap_pi(-np.pi) == pytest.approx(-np.pi)
    assert wrap_pi(0.1) == pytest.approx(0.1)
    assert wrap_pi(2 * np.pi + 0.3) == pytest.approx(0.3)
    xs = np.linspace(-20, 20, 1001)
    w = wrap_pi(xs)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)


_TWO_PI = 2.0 * np.pi
_MOD_EDGES = np.array([0.0, -0.0, np.pi, np.nextafter(_TWO_PI, 0.0), _TWO_PI,
                       np.nextafter(_TWO_PI, np.inf),
                       np.nextafter(2 * _TWO_PI, 0.0), 2 * _TWO_PI, -3.0, 1e6,
                       np.inf, -np.inf, np.nan])


def test_mod_2pi_equals_np_mod_bit_for_bit():
    with np.errstate(invalid="ignore"):  # np.mod of +-inf
        # the whole array, each value as a one-element array, each as a scalar
        for x in (_MOD_EDGES, *_MOD_EDGES[:, None], *_MOD_EDGES):
            assert (bayes._mod_2pi(x).tobytes()
                    == np.mod(x, _TWO_PI).tobytes()), x
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2 * _TWO_PI, 10 ** 5)
    assert bayes._mod_2pi(x).tobytes() == np.mod(x, _TWO_PI).tobytes()
    grid = x.reshape(-1, 4)  # the repeat protocol's (trials, nu) draws
    assert bayes._mod_2pi(grid).tobytes() == np.mod(grid, _TWO_PI).tobytes()


def test_wrap_pi_equals_the_np_mod_formula():
    x = np.random.default_rng(1).uniform(-20.0, 20.0, 10 ** 4)
    for v in (x, np.mod(x, _TWO_PI), _MOD_EDGES[:8]):
        want = np.mod(v + np.pi, _TWO_PI) - np.pi
        assert wrap_pi(v).tobytes() == want.tobytes()
    assert np.isscalar(wrap_pi(3.0)) and wrap_pi(3.0) == 3.0
    assert np.isscalar(wrap_pi(np.float64(7.0)))


def test_canonical_density_uniform_for_single_level():
    th = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    p = canonical_phase_density(np.array([1.0]), th)
    assert np.allclose(p, 1 / (2 * np.pi))


def test_canonical_density_two_level():
    th = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    c = np.array([1.0, 1.0]) / math.sqrt(2)
    p = canonical_phase_density(c, th)
    assert np.allclose(p, (1 + np.cos(th)) / (2 * np.pi), atol=1e-12)


def test_canonical_density_rho_matches_pure():
    rng = np.random.default_rng(11)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    th = np.linspace(-np.pi, np.pi, 321)
    dens_amp = canonical_phase_density(v, th)
    dens_rho = canonical_phase_density(np.outer(v, v.conj()), th)
    assert np.allclose(dens_amp, dens_rho, atol=1e-12)
    # integrates to one
    th2 = np.linspace(-np.pi, np.pi, 20001)
    total = np.trapezoid(canonical_phase_density(v, th2), th2)
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("L", [1, 2, 7, 300])
def test_fourier_grid_matches_dense_sum(L, mixed):
    rng = np.random.default_rng(L)
    a = rng.normal(size=(L, 3)) + 1j * rng.normal(size=(L, 3))
    if mixed:
        x = rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    else:
        x = a[:, 0] / np.linalg.norm(a[:, 0])
        rho = np.outer(x, x.conj())
    n = _phase_grid_size(L)
    e = np.exp(1j * np.outer(np.arange(n) * 2 * np.pi / n, np.arange(L)))
    dense = np.sum((e @ rho) * e.conj(), axis=1).real  # sum_{m,k} rho_mk e^{i(m-k)theta}
    grid = _fourier_grid(_coherence_sums(x), n)
    assert np.max(np.abs(grid - dense)) <= 1e-12 * np.max(dense)


def test_sampler_matches_density():
    """Chi-square style binned comparison, 10^6 draws, 5 sigma per bin."""
    v = berry_wiseman_probe(7).vector
    sampler = CanonicalSampler(v)
    rng = np.random.default_rng(123)
    draws = sampler.sample(rng, 1_000_000)
    assert np.all(draws >= 0.0) and np.all(draws < 2 * np.pi)
    bins = np.linspace(0.0, 2 * np.pi, 33)
    obs, _ = np.histogram(draws, bins=bins)
    # expected mass per bin by fine trapezoid integration
    exp = []
    for a, b in zip(bins[:-1], bins[1:]):
        th = np.linspace(a, b, 400)
        exp.append(np.trapezoid(canonical_phase_density(v, th), th))
    exp = np.asarray(exp) * len(draws)
    z = (obs - exp) / np.sqrt(np.maximum(exp, 1.0))
    assert np.max(np.abs(z)) < 5.0


def test_sampler_shift_is_rigid():
    probe = ghz_probe(2)
    v = probe.vector
    s = CanonicalSampler(v)
    # a ProbeState is measured as its amplitude vector
    assert CanonicalSampler(probe)._cdf.tobytes() == s._cdf.tobytes()
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    a = s.sample(r1, 1000)
    b = s.sample(r2, 1000, shift=0.25)
    assert np.allclose(wrap_pi(b - a), 0.25, atol=1e-12)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _cdf_inputs(cdf, rng) -> list[np.ndarray]:
    """Every CDF knot and its float neighbours inside [0, 1), 0, and uniform draws."""
    knots = cdf[:-1]
    near = np.concatenate((knots, np.nextafter(knots, 2.0),
                           np.nextafter(knots[1:], -1.0), [0.0, np.nextafter(1.0, 0.0)]))
    return [near, rng.random(50_000), rng.random((64, 33))]


@pytest.mark.parametrize("make", [berry_wiseman_probe, ghz_probe, uniform_probe])
@pytest.mark.parametrize("L", [2, 3, 16, 1024, 4096])
def test_guided_lookups_equal_np_interp_bit_for_bit(make, L):
    """The sampler's inverse CDF and the fixed-time posterior-mean lookup
    (_UniformInterp on the sampler's knots) are np.interp on the same knots,
    compared as int64 bit patterns."""
    rng = np.random.default_rng(L)
    s = CanonicalSampler(make(L))
    for u in _cdf_inputs(s._cdf, rng):
        assert _same_bits(s._inverse_cdf(u), np.interp(u, s._cdf, s.knots))
    # draws and 2-D draws go through the same lookup
    assert _same_bits(s.sample(np.random.default_rng(1), (40, 7)),
                      np.mod(np.interp(np.random.default_rng(1).random((40, 7)),
                                       s._cdf, s.knots), 2 * np.pi))
    for mean, width, tg in ((0.0, 1.0, 0.3), (0.7, 0.05, 2.0)):
        table = s.posterior_mean_table(GaussianPrior(width, mean), tg)
        lookup = bayes._UniformInterp(s.knots, table)
        two_pi = 2 * np.pi
        y = rng.random(50_000) * two_pi
        wraps = np.mod(np.array([-1e-17, -1e-16, -4e-16, -0.0, two_pi, 3 * two_pi]), two_pi)
        assert np.any(wraps == two_pi)  # np.mod results that round to 2 pi
        for theta in (s.knots, np.nextafter(s.knots[1:], 0.0), y, wraps,
                      np.mod(y + rng.normal(0.0, 30.0, y.shape), two_pi),
                      y.reshape(500, 100)):
            assert _same_bits(lookup(theta), np.interp(theta, s.knots, table))


def _reference_tables(x):
    """The sampler's tables by the plain construction (concatenate, np.roll,
    np.append, n * irfft): grid, CDF, guide and slopes."""
    r = _coherence_sums(x)
    n = _phase_grid_size(len(r))
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    p = np.clip(n * np.fft.irfft(r, n), 0.0, None) / (2.0 * np.pi)
    masses = 0.5 * (p + np.roll(p, -1)) * (2.0 * np.pi / n)
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    cdf /= cdf[-1]
    knots = np.concatenate((thetas, [2.0 * np.pi]))
    counts = np.bincount((cdf * ((len(cdf) - 1) / cdf[-1])).astype(np.intp))
    guide = np.maximum(np.cumsum(counts) - counts - 1, 0)
    dx = np.diff(cdf)
    slopes = np.zeros(len(cdf))
    np.divide(np.diff(knots), dx, out=slopes[:-1], where=dx > 0)
    return {"thetas": thetas, "knots": knots, "cdf": cdf, "guide": guide,
            "slopes": slopes}


def _reference_posterior_table(x, n, prior, tg):
    r = _coherence_sums(x)
    d = np.arange(len(r))
    a = r * np.exp(-1j * d * tg * prior.mean - 0.5 * (d * tg * prior.width) ** 2)
    table = (n * np.fft.irfft(a * (prior.mean - 1j * d * tg * prior.width ** 2), n)
             / (n * np.fft.irfft(a, n)))
    return np.append(table, table[0])


@pytest.mark.parametrize("L", [1, 2, 16, 17, 1024, 4096])
def test_sampler_tables_equal_the_plain_construction_bytewise(L):
    """Tables built in place hold the bytes of the plain construction, and so
    do seeded draws and posterior-mean tables."""
    rng = np.random.default_rng(L)
    c = rng.normal(size=L) + 1j * rng.normal(size=L)
    inputs = [c / np.linalg.norm(c)] + ([berry_wiseman_probe(L).vector] if L > 1 else [])
    for x in inputs:
        want = _reference_tables(x)
        s = CanonicalSampler(x)
        got = {"thetas": s.thetas, "knots": s.knots, "cdf": s._cdf,
               "guide": s._inverse_cdf._guide, "slopes": s._inverse_cdf._slopes}
        for name, table in want.items():
            assert got[name].dtype == table.dtype, name
            assert got[name].tobytes() == table.tobytes(), name
        u = np.random.default_rng(7).random(4099)
        want_draws = bayes._mod_2pi(np.interp(u, want["cdf"], want["knots"]) + 0.4)
        assert s.sample(np.random.default_rng(7), 4099, 0.4).tobytes() == want_draws.tobytes()
        for mean in (0.0, 0.3):
            prior = GaussianPrior(0.8, mean)
            table = s.posterior_mean_table(prior, 1.1)
            assert table.tobytes() == _reference_posterior_table(
                x, len(s.thetas), prior, 1.1).tobytes()


def test_sampler_keeps_one_copy_of_each_grid_array():
    """At L = 4096 (2^16 grid points, 0.5 MiB per float array) the build
    forms its temporaries in place and keeps four grid-length arrays."""
    probe = berry_wiseman_probe(4096)
    tracemalloc.start()
    try:
        s = CanonicalSampler(probe)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2 ** 20
    assert kept < 2.5 * 2 ** 20
    assert np.shares_memory(s.thetas, s.knots)
    assert np.shares_memory(s._cdf, s._inverse_cdf._xp)


def test_guided_lookup_keeps_np_interp_end_cases():
    """Repeated knots, -0.0 values, overflowing slopes and infinite values
    take np.interp's own branches: fp at an exact knot, and its NaN retry."""
    xp = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0 + 1e-300, 2.0, 3.0, 4.0, 5.0, 6.0])
    fp = np.array([-0.0, 1.0, -0.0, 2.0, 3.0, -1e300, 1e300, -0.0, 5.0, np.inf, np.inf, 7.0])
    x = np.concatenate((xp, np.nextafter(xp, 7.0), np.linspace(0.0, 6.0, 10_001),
                        [1.0 + 5e-301]))
    x = x[x <= 6.0]
    with np.errstate(all="ignore"):
        assert _same_bits(bayes._GuidedInterp(xp, fp)(x), np.interp(x, xp, fp))
        # a NaN last value, reached only at x = xp[-1]
        fp[-1] = np.nan
        assert np.array_equal(bayes._GuidedInterp(xp, fp)(x), np.interp(x, xp, fp),
                              equal_nan=True)


@pytest.mark.parametrize("mean", [0.0, 0.3])
@pytest.mark.parametrize("L", [2, 16, 1024, 4096])
def test_uniform_lookup_equals_np_interp_bit_for_bit(L, mean):
    """The posterior-mean lookup on the sampler's own knots: every knot and
    both its float neighbours, 0, 2 pi (np.mod's exact 2 pi included) and
    random points give np.interp's bits, on the bucket path."""
    s = CanonicalSampler(berry_wiseman_probe(L))
    knots = s.knots
    table = s.posterior_mean_table(GaussianPrior(0.6, mean), 1.7)
    lookup = bayes._UniformInterp(knots, table)
    assert lookup._plain
    two_pi = 2 * np.pi
    rng = np.random.default_rng(L)
    for x in (knots, np.nextafter(knots[1:], 0.0), np.nextafter(knots[:-1], 7.0),
              np.array([0.0, two_pi, np.mod(-1e-17, two_pi)]),
              rng.random(20_000) * two_pi,
              np.mod(rng.normal(0.0, 50.0, 20_000), two_pi)):
        assert _same_bits(lookup(x), np.interp(x, knots, table))


def test_uniform_lookup_hands_signed_zero_and_unbounded_slopes_to_np_interp():
    """A table holding -0.0, an infinity, a NaN or values whose slopes may
    overflow goes to np.interp whole, whose end cases the lookup's
    expression would miss; a bounded table stays on the bucket path."""
    knots = np.linspace(0.0, 2 * np.pi, 65)
    x = np.concatenate((knots, np.nextafter(knots[1:], 0.0),
                        np.nextafter(knots[:-1], 7.0),
                        np.random.default_rng(0).random(5000) * 2 * np.pi))
    base = np.sin(3.0 * knots)
    for where, value, plain in ((0, 1.0, True), (5, -0.0, False), (5, 0.0, True),
                                (9, np.inf, False), (64, -np.inf, False),
                                (9, np.nan, False), (9, 1e308, False), (9, 1e306, True),
                                (9, -1e300, True)):
        fp = base.copy()
        fp[where] = value
        lookup = bayes._UniformInterp(knots, fp)
        assert lookup._plain == plain, (where, value)
        with np.errstate(all="ignore"):
            assert np.array_equal(lookup(x), np.interp(x, knots, fp), equal_nan=True)
            assert _same_bits(np.nan_to_num(lookup(x)),
                              np.nan_to_num(np.interp(x, knots, fp)))
    # on three knots n / 2 pi is below 1/2, so a bound with that factor
    # formed first would stay finite while the differences of fp overflow
    knots = np.linspace(0.0, 2 * np.pi, 3)
    fp = np.array([1e308, -1e308, 1e308])
    lookup = bayes._UniformInterp(knots, fp)
    assert not lookup._plain
    x = np.array([0.0, 1.0, np.pi, 5.0, 2 * np.pi])
    with np.errstate(all="ignore"):
        assert _same_bits(lookup(x), np.interp(x, knots, fp))


def test_uniform_lookup_keeps_the_table_alone():
    """At L = 4096 (2^16 knots, 0.5 MiB per float array) building the lookup
    allocates under one (n + 1) float array and keeps nothing: it reads the
    sampler's knots and the table it is given, where _GuidedInterp keeps a
    padded copy of the knots, a guide and slopes."""
    s = CanonicalSampler(berry_wiseman_probe(4096))
    table = s.posterior_mean_table(GaussianPrior(0.6, 0.3), 1.7)
    grid_array = 8 * len(s.knots)
    tracemalloc.start()
    try:
        lookup = bayes._UniformInterp(s.knots, table)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        guided = bayes._GuidedInterp(s.knots, table)
        guided_kept = tracemalloc.get_traced_memory()[0] - kept
    finally:
        tracemalloc.stop()
    assert peak <= grid_array
    assert kept < 4096
    assert guided_kept > 3 * grid_array
    assert lookup._xp is s.knots and lookup._fp is table
    assert not np.shares_memory(guided._xp, s.knots)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("L", [2, 5, 16])
def test_posterior_mean_table_matches_quadrature(L, mixed):
    """Table entries against int w p0(theta - w tg) N(w; mu, W0) dw over the
    same integral without w, by the trapezoid rule on a fine omega grid."""
    rng = np.random.default_rng(100 + L)
    a = rng.normal(size=(L, 3)) + 1j * rng.normal(size=(L, 3))
    x = (a @ a.conj().T / np.sum(np.abs(a) ** 2) if mixed
         else a[:, 0] / np.linalg.norm(a[:, 0]))
    mu, w0, tg = 0.7, 0.8, 1.3
    s = CanonicalSampler(x)
    table = s.posterior_mean_table(GaussianPrior(w0, mu), tg)
    assert len(table) == len(s.knots) and table[-1] == table[0]
    omega = np.linspace(mu - 12 * w0, mu + 12 * w0, 40_001)
    prior = np.exp(-0.5 * ((omega - mu) / w0) ** 2)
    n = len(s.thetas)
    for k in (0, n // 7, n // 3, n // 2, 5 * n // 6):
        weight = canonical_phase_density(x, s.knots[k] - omega * tg) * prior
        want = np.trapezoid(omega * weight, omega) / np.trapezoid(weight, omega)
        assert table[k] == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------- Holevo

def test_holevo_examples():
    # sine probe: sharpness cos(pi/(L+1)), so tan^2(pi/(L+1))
    for L in (2, 5, 11, 31, 64):
        hv = holevo_variance(berry_wiseman_probe(L).vector)
        assert hv == pytest.approx(math.tan(math.pi / (L + 1)) ** 2, abs=1e-12)
    # extremal two-level probe: S = 1/2 -> (1 - 1/4)/(1/4) = 3
    assert holevo_variance(ghz_probe(2).vector) == pytest.approx(3.0, abs=1e-12)
    # a single level carries no phase information
    assert holevo_variance(np.array([1.0])) == math.inf


@pytest.mark.parametrize("L", [3, 4, 16, 1024])
def test_ghz_sharpness_is_exactly_zero(L):
    """The extremal probe has no adjacent coherence for L >= 3: the direct
    sum gives exactly 0, so the Holevo variance is flagged inf."""
    v = ghz_probe(L).vector
    for x in (v, np.outer(v, v.conj())):
        assert holevo_variance(x) == math.inf


def test_holevo_uniform_decreases_with_L():
    vals = [holevo_variance(uniform_probe(L).vector) for L in (2, 4, 8, 16)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_holevo_from_samples_matches_analytic():
    rng = np.random.default_rng(42)
    for L in (2, 5, 10, 31, 2048, 4096, 8192):
        v = berry_wiseman_probe(L).vector
        draws = CanonicalSampler(v).sample(rng, 1_000_000)
        emp, se = empirical_holevo(draws)
        ana = holevo_variance(v)
        assert abs(emp - ana) < 3.0 * se, f"L={L}: {emp} vs {ana} (se {se})"


@pytest.mark.parametrize("L", [2048, 4096, 8192])
def test_sampler_draws_holevo_exact_expectation(L):
    """Draws are uniform within each CDF cell, so E[e^{i theta}] is exact."""
    s = CanonicalSampler(berry_wiseman_probe(L).vector)
    mass, left = np.diff(s._cdf), s.knots[:-1]
    h = s.knots[1] - s.knots[0]
    z = np.sum(mass * np.exp(1j * left)) * (np.exp(1j * h) - 1) / (1j * h)
    rel = (1 / abs(z) ** 2 - 1) / math.tan(math.pi / (L + 1)) ** 2 - 1
    assert abs(rel) < 0.01, f"L={L}: {rel:+.2%}"


@pytest.mark.parametrize("spread", [1e-5, 1e-4])
def test_empirical_holevo_without_cancellation(spread):
    """Near-zero spread: 1/|z|^2 - 1 loses digits, the comoment trace does not.

    Reference: 1 - |z|^2 = (2/n^2) sum_ij sin^2((r_i - r_j)/2) for unit
    residuals, with no cancellation."""
    r = np.random.default_rng(17).normal(0.0, spread, 1000)
    z2 = abs(np.mean(np.exp(1j * r))) ** 2
    ref = 2.0 * np.sum(np.sin(np.subtract.outer(r, r) / 2) ** 2) / r.size ** 2 / z2
    assert empirical_holevo(r)[0] == pytest.approx(ref, rel=1e-12, abs=0)
    n, mean, com = bayes._moments((np.cos(r), np.sin(r)))
    assert empirical_holevo(moments=(n, mean, com))[0] == pytest.approx(ref, rel=1e-12, abs=0)


def test_empirical_holevo_centering():
    rng = np.random.default_rng(9)
    v = berry_wiseman_probe(6).vector
    draws = CanonicalSampler(v).sample(rng, 200_000, shift=1.2)
    emp, se = empirical_holevo(draws, true_phase=1.2)
    assert abs(emp - holevo_variance(v)) < 4.0 * se
