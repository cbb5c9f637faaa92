"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Every criterion prints a single verdict line and then asserts at the stated
tolerance; timing limits are enforced with time.monotonic(). No tolerance
here may be loosened to force a pass.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dfs_sense import (CanonicalSampler, DephasingChannel, EffectiveSpectrum,
                       FlatPrior, GaussianPrior, NoiseModel, ProbeState, SpatialField,
                       adaptive_schedule, averaged_state, base_time,
                       berry_wiseman_probe, dephase_coherence,
                       empirical_holevo, equalize_multidim, evolve,
                       exponential_placement, ghz_probe, holevo_variance,
                       linear_placement, mc_dephase_check,
                       orthogonal_complement, qfi_mixed, qfi_pure,
                       single_shot_flat, table_rows, two_point_placement,
                       variance_reduction)

FAMILIES = {"two_point": two_point_placement, "linear": linear_placement,
            "exponential": exponential_placement}


def _verdict(num: int, desc: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _uniform(L, delta):
    g = delta / (L - 1)
    return EffectiveSpectrum.from_levels([-delta / 2 + k * g for k in range(L)])


# --------------------------------------------------------------------------
# 1. scaling table, exact rationals, five sizes, under a second
# --------------------------------------------------------------------------

TABLE_EXPECT = {
    ("two_point", 4): (Fraction(4), 2),
    ("two_point", 6): (Fraction(6), 3),
    ("two_point", 8): (Fraction(8), 4),
    ("two_point", 10): (Fraction(10), 5),
    ("two_point", 12): (Fraction(12), 6),
    ("linear", 4): (Fraction(4, 3), 4),
    ("linear", 6): (Fraction(9, 5), 9),
    ("linear", 8): (Fraction(16, 7), 16),
    ("linear", 10): (Fraction(25, 9), 25),
    ("linear", 12): (Fraction(36, 11), 36),
    ("exponential", 4): (Fraction(3, 2), 4),
    ("exponential", 6): (Fraction(7, 4), 8),
    ("exponential", 8): (Fraction(15, 8), 16),
    ("exponential", 10): (Fraction(31, 16), 32),
    ("exponential", 12): (Fraction(63, 32), 64),
}


def test_criterion_01_scaling_table_exact():
    t0 = time.monotonic()
    rows = {(r["family"], r["N"]): r for r in table_rows((4, 6, 8, 10, 12))}
    mismatches = []
    for key, (rng_val, lvl) in TABLE_EXPECT.items():
        r = rows[key]
        if not isinstance(r["range"], (int, Fraction)):
            mismatches.append((key, "range not exact rational"))
        if Fraction(r["range"]) != rng_val or r["levels"] != lvl:
            mismatches.append((key, (r["range"], r["levels"])))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 1.0
    assert _verdict(1, f"scaling table exact for N in 4..12 "
                       f"({elapsed * 1e3:.0f} ms)", ok), \
        f"mismatches={mismatches}, elapsed={elapsed:.3f}s"


# --------------------------------------------------------------------------
# 2. brute-force enumeration agrees with the closed-form ladders, N <= 12
# --------------------------------------------------------------------------

def _merge(levels, tol):
    """Cluster near-coincident values; return sorted representatives."""
    vals = sorted(float(v) for v in levels)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return out


def test_criterion_02_enumeration_matches_closed_form():
    t0 = time.monotonic()
    bad = []
    for family, make in FAMILIES.items():
        for N in (4, 6, 8, 10, 12):
            plan = make(N)
            tol = 1e-9 * float(plan.predicted_range)
            enum = _merge(plan.enumerate_levels(), tol)
            pred = _merge(plan.predicted_levels(), tol)
            if len(enum) != len(pred) or any(
                    abs(a - b) > tol for a, b in zip(enum, pred)):
                bad.append((family, N, len(enum), len(pred)))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    assert _verdict(2, f"enumerated level sets match predictions "
                       f"({elapsed:.2f} s)", ok), \
        f"bad={bad}, elapsed={elapsed:.2f}s"


# --------------------------------------------------------------------------
# 3. sine-probe Holevo variance: exact identity, Monte Carlo, asymptote
# --------------------------------------------------------------------------

def test_criterion_03_holevo_identity_and_asymptote():
    exact_ok = True
    mc_ok = True
    details = []
    devs = {}
    W = 1.0
    for L in (5, 11, 31):
        v = berry_wiseman_probe(L).vector
        analytic = holevo_variance(v)
        target = math.tan(math.pi / (L + 1)) ** 2
        if abs(analytic - target) > 1e-12:
            exact_ok = False
            details.append(f"L={L} analytic off by {abs(analytic - target):.2e}")
        rng = np.random.default_rng(0)
        draws = CanonicalSampler(v).sample(rng, 100_000)
        emp, se = empirical_holevo(draws)
        if abs(emp - analytic) > 3.0 * se:
            mc_ok = False
            details.append(f"L={L} MC z={(emp - analytic) / se:+.2f}")
        # the package's large-L form W0^2/(4 L^2), in phase units pi^2/L^2
        asym = (single_shot_flat(_uniform(L, 4.0), FlatPrior(W))
                .prediction("asymptotic_mse") * (2.0 * math.pi / W) ** 2)
        devs[L] = abs(analytic - asym) / asym
    rel = devs[31]
    asym_ok = rel <= 0.10
    if not asym_ok:
        details.append(f"L=31 vs asymptotic_mse (pi^2/L^2) deviates "
                       f"{rel:.2%} (> 10%)")
    approach_ok = devs[5] > devs[11] > devs[31]
    if not approach_ok:
        details.append("deviation from asymptotic_mse not decreasing "
                       "over L=5,11,31")
    ok = exact_ok and mc_ok and asym_ok and approach_ok
    assert _verdict(3, "Holevo variance tan^2(pi/(L+1)): exact, MC 3SE, "
                       f"within 10% of asymptotic_mse pi^2/L^2 at L=31 "
                       f"(dev {rel:.2%}), decreasing over L=5,11,31 ("
                       + ", ".join(f"{d:.1%}" for d in devs.values()) + ")",
                    ok), "; ".join(details)


# --------------------------------------------------------------------------
# 4. simulated single-shot MSE vs the large-L form asymptotic_mse at L = 31
# --------------------------------------------------------------------------

def test_criterion_04_single_shot_mse_within_ten_percent():
    t0 = time.monotonic()
    L, W = 31, 1.0
    sp = _uniform(L, 4.0)
    rep = single_shot_flat(sp, FlatPrior(W), simulate=True, trials=100_000, seed=0)
    elapsed = time.monotonic() - t0
    pred = rep.prediction("asymptotic_mse")  # W0^2 / (4 L^2)
    sim = rep.simulation.mse
    rel = abs(sim - pred) / pred
    ok = rel <= 0.10 and elapsed < 60.0
    assert _verdict(4, f"simulated MSE within 10% of asymptotic_mse "
                       f"W0^2/(4 L^2) at L=31 (dev {rel:.2%}, "
                       f"{elapsed:.1f} s)", ok), \
        f"sim={sim:.6g} pred={pred:.6g} rel={rel:.4f} elapsed={elapsed:.1f}s"


# --------------------------------------------------------------------------
# 5. mixed-state information reproduces the extremal closed form
# --------------------------------------------------------------------------

def test_criterion_05_qfi_mixed_reduction_curve():
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])  # Delta = 1
    probe = ghz_probe(2)
    prior = GaussianPrior(1.0)  # W0 = 1, so x = t
    worst = 0.0
    for x in np.linspace(0.0, 3.0, 50):
        got = variance_reduction(probe, prior, sp, float(x))
        want = 1.0 - x * x * math.exp(-x * x)
        worst = max(worst, abs(got - want))
    grid_ok = worst < 1e-9
    # the curve's minimum sits at x = 1
    at1 = variance_reduction(probe, prior, sp, 1.0)
    min_ok = (at1 < variance_reduction(probe, prior, sp, 1.0 - 1e-3)
              and at1 < variance_reduction(probe, prior, sp, 1.0 + 1e-3)
              and at1 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9))
    fine = np.linspace(0.5, 1.5, 2001)
    vals = [variance_reduction(probe, prior, sp, float(x)) for x in fine]
    argmin_ok = abs(fine[int(np.argmin(vals))] - 1.0) <= (fine[1] - fine[0])
    ok = grid_ok and min_ok and argmin_ok
    assert _verdict(5, f"mixed-state information matches 1 - x^2 e^(-x^2) "
                       f"on 50 points (worst {worst:.1e}), minimum at x=1",
                    ok), f"worst={worst:.2e} min_ok={min_ok} argmin_ok={argmin_ok}"


# --------------------------------------------------------------------------
# 6. prior-averaged state vs direct Gaussian quadrature
# --------------------------------------------------------------------------

def test_criterion_06_averaged_state_vs_quadrature():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    for L in range(2, 9):
        for _ in range(3):
            v = rng.normal(size=L) + 1j * rng.normal(size=L)
            probe = ProbeState.from_vector(v)
            W = float(rng.uniform(0.2, 2.0))
            mean = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(0.1, 2.0))
            delta = float(rng.uniform(0.5, 4.0))
            sp = _uniform(L, delta)
            got = averaged_state(probe, GaussianPrior(W, mean=mean), sp, t).rho

            nodes = 20_001  # >= 1e4 quadrature nodes
            ws = np.linspace(mean - 10 * W, mean + 10 * W, nodes)
            pdf = np.exp(-0.5 * ((ws - mean) / W) ** 2) / (W * math.sqrt(2 * math.pi))
            lv = sp.levels_float
            base = np.outer(probe.vector, probe.vector.conj())
            u = np.exp(-1j * np.outer(ws, lv) * t)  # nodes x L
            acc = np.einsum("w,wn,nm,wm->nm", pdf, u, base, u.conj(),
                            optimize=True) * (ws[1] - ws[0])
            worst = max(worst, float(np.max(np.abs(acc - got))))
            cases += 1
    ok = worst < 1e-8
    assert _verdict(6, f"prior-averaged state matches quadrature on {cases} "
                       f"random probes (worst {worst:.1e})", ok), f"worst={worst:.2e}"


# --------------------------------------------------------------------------
# 7. adaptive schedules: exact budget algebra and the final-width guarantee
# --------------------------------------------------------------------------

def test_criterion_07_adaptive_budget_and_width_guarantee():
    rng = np.random.default_rng(7)
    bad = []
    for k in range(200):
        L = int(rng.integers(2, 65))
        delta = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
        W0 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        sp = _uniform(L, delta)
        t1 = base_time(sp, W0)
        factor = float(np.exp(rng.uniform(np.log(2.0), np.log(1e4))))
        T = t1 * factor
        rep = adaptive_schedule(sp, FlatPrior(W0), T)
        times = [t for t, _ in rep.schedule]
        n = len(times)
        closed = t1 * ((2 * L) ** n - 1) / (2 * L - 1)
        total = sum(times)
        if abs(total - closed) > 1e-10 * closed:
            bad.append((k, "sum", total, closed))
        W_n = rep.prediction("final_width")
        if W_n * T * delta < math.pi:
            bad.append((k, "width", W_n * T * delta, math.pi))
    ok = not bad
    assert _verdict(7, "200 random schedules: total time matches closed form "
                       "to 1e-10 and W_n T Delta >= pi", ok), f"bad={bad[:5]}"


# --------------------------------------------------------------------------
# 8. dephasing: protected pairs exact, unprotected match the Gaussian law
# --------------------------------------------------------------------------

def test_criterion_08_dephasing_analytic_and_monte_carlo():
    rng = np.random.default_rng(88)
    bad = []

    for k in range(50):  # protected pairs
        J = int(rng.integers(3, 7))
        K = int(rng.integers(1, J - 1))
        ds = rng.integers(-2, 3, size=J).astype(float)
        while not np.any(ds):
            ds = rng.integers(-2, 3, size=J).astype(float)
        dsu = ds / np.linalg.norm(ds)
        fields = []
        while len(fields) < K:
            f = rng.normal(size=J)
            f -= (f @ dsu) * dsu  # noise orthogonal to the pair difference
            if np.linalg.norm(f) > 1e-6:
                fields.append(f)
        ch = DephasingChannel.gaussian(fields,
                                       sigmas=tuple(rng.uniform(0.2, 2.0, K)))
        a, b = ds / 2.0, -ds / 2.0
        analytic = dephase_coherence(ch, a, b)
        if analytic != 1.0:
            bad.append((k, "protected analytic", analytic))
        chk, = mc_dephase_check(ch, [(a, b)], trials=20_000, seed=1000 + k)
        if abs(chk.empirical - 1.0) > 4.0 * max(chk.stderr, 1e-15):
            bad.append((k, "protected MC", chk.empirical, chk.stderr))

    for k in range(50):  # unprotected pairs
        J = int(rng.integers(2, 7))
        K = int(rng.integers(1, 4))
        ds = rng.normal(size=J)
        sigmas = rng.uniform(0.1, 1.0, K)
        fields = [rng.normal(size=J) for _ in range(K)]
        projs = np.array([f @ ds for f in fields])
        if np.max(np.abs(projs)) < 1e-3:
            continue  # accidental near-protection; law below would be trivial
        ch = DephasingChannel.gaussian(fields, sigmas=tuple(sigmas))
        a, b = ds / 2.0, -ds / 2.0
        analytic = dephase_coherence(ch, a, b)
        law = math.exp(-0.5 * float(np.sum(sigmas ** 2 * projs ** 2)))
        if abs(analytic - law) > 1e-12 * law:
            bad.append((k, "law", analytic, law))
        chk, = mc_dephase_check(ch, [(a, b)], trials=20_000, seed=2000 + k)
        if abs(chk.empirical - law) > 4.0 * max(chk.stderr, 1e-15):
            bad.append((k, "unprotected MC", chk.empirical, law, chk.stderr))

    ok = not bad
    assert _verdict(8, "50 protected pairs damp exactly 1; 50 generic pairs "
                       "match exp(-sum sigma^2 (f.ds)^2 / 2) within 4 SE",
                    ok), f"bad={bad[:5]}"


# --------------------------------------------------------------------------
# 9. two-coordinate equalization
# --------------------------------------------------------------------------

def test_criterion_09_equalize_two_coordinates():
    s_eff, sp = equalize_multidim((1.0, 1.0))
    want = np.array([-0.75, -0.25, 0.25, 0.75])
    lv = sp.levels_float
    val_ok = abs(float(s_eff) - 0.25) <= 1e-12
    lv_ok = lv.shape == (4,) and np.max(np.abs(lv - want)) <= 1e-12
    gaps = np.diff(lv)
    gap_ok = np.max(np.abs(gaps - gaps[0])) <= 1e-12
    ok = val_ok and lv_ok and gap_ok
    assert _verdict(9, "unit coordinates equalize at s_eff=1/4 with four "
                       "uniform levels", ok), f"s_eff={s_eff} levels={lv}"


# --------------------------------------------------------------------------
# 10. property sweep over 1000 randomized instances
# --------------------------------------------------------------------------

def test_criterion_10_property_sweep():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    bad = []
    for k in range(1000):
        L = int(rng.integers(2, 7))
        delta = float(rng.uniform(0.2, 5.0))
        sp = _uniform(L, delta)
        v = rng.normal(size=L) + 1j * rng.normal(size=L)
        probe = ProbeState.from_vector(v)
        omega = float(rng.normal(0, 3))
        t = float(rng.uniform(0, 3))
        W = float(rng.uniform(0.1, 2.0))

        # (a) evolution preserves the norm
        q = evolve(probe, sp, omega, t)
        if abs(np.linalg.norm(q.vector) - 1.0) > 1e-12:
            bad.append((k, "norm"))

        # (b) the prior-averaged state stays positive semidefinite
        rho = averaged_state(probe, GaussianPrior(W), sp, t)
        lam = np.linalg.eigvalsh(rho.rho)
        if lam.min() < -1e-10:
            bad.append((k, "psd", lam.min()))

        # (c) averaging never adds information
        if qfi_mixed(rho, sp, t) > qfi_pure(probe, sp, t) * (1 + 1e-9) + 1e-12:
            bad.append((k, "qfi"))

        # (d) noise-orthogonal decomposition reconstructs the signal
        J = int(rng.integers(2, 7))
        K = int(rng.integers(0, J))
        sig = SpatialField(tuple(rng.normal(size=J)))
        try:
            noise = NoiseModel(tuple(
                SpatialField(tuple(rng.normal(size=J)), label=f"noise:{i}")
                for i in range(K)))
            fp = orthogonal_complement(sig, noise)
        except ValueError:
            continue  # degenerate random noise draw; not a property failure
        except Exception as e:
            if type(e).__name__ == "NoSignalComponent":
                continue
            raise
        scale = np.linalg.norm(sig.vector)
        if K:
            q_basis = noise.orthonormal_span()
            if np.max(np.abs(q_basis @ fp.vector)) > 1e-10 * scale:
                bad.append((k, "perp"))
            rec = fp.vector + q_basis.T @ (q_basis @ sig.vector)
        else:
            rec = fp.vector
        if np.linalg.norm(rec - sig.vector) > 1e-10 * scale:
            bad.append((k, "reconstruct"))

    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    assert _verdict(10, f"1000 randomized instances: norm, positivity, "
                        f"information ordering, reconstruction "
                        f"({elapsed:.1f} s)", ok), \
        f"bad={bad[:5]} elapsed={elapsed:.1f}s"
