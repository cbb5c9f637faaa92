"""Workloads: scenario documents made from a seed, operation lists, checks.

The seed draws Monte-Carlo seeds and jitters field amplitudes, noise
strengths, prior widths and protocol times. It never changes a size: the
arrays, level counts L, trial counts, sweep grids and the protocol shapes
(nu = 4 shots, 2 adaptive rounds, the sine window) are the same for every
seed, so the work stays comparable across seeds.

Every check returns a list of ``(check, message)`` problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

Problem = tuple[str, str]

# Known defects of the program that a check reports on purpose. The
# operation still counts as failed; the failure is listed by name so that
# it does not mark the run's other outputs incorrect. The sampler's fixed
# 2^14-point grid biases the canonical-measurement draws for L >= 2048.
KNOWN_DEFECTS = {("wide-ladder", "ssf-L4096"): {"holevo"}}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call on a scenario file, or a library call."""

    name: str
    argv: tuple[str, ...] = ()       # CLI arguments before --scenario
    doc: dict | None = None          # scenario document for --scenario
    check: Callable[[dict], list[Problem]] | None = None
    sizes: dict = field(default_factory=dict)
    threads: int | None = None       # DFS_SENSE_THREADS override
    same_as: str | None = None       # output must equal this op's, byte for byte
    placement: tuple[str, int] | None = None   # (family, N) library call


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def _exponential(N: int, amp: float) -> tuple[int, float]:
    """Level count and range of exponential_placement(N) under a gradient
    signal of amplitude amp: L = 2^(N/2), Delta = 2 amp (1 - 2^(-N/2))."""
    L = 2 ** (N // 2)
    return L, 2.0 * amp * (1.0 - 1.0 / L)


def _placement_doc(N: int, amp: float, prior: dict, protocol: dict,
                   trials: int, rng: random.Random) -> dict:
    return {"array": {"placement": "exponential", "N": N},
            "signal": {"profile": "gradient", "amplitude": amp},
            "noise": [{"profile": "constant",
                       "sigma": rng.uniform(0.5, 2.0)}],
            "prior": prior, "protocol": protocol,
            "seed": rng.randrange(2 ** 31), "trials": trials}


def flat_doc(N: int, kind: str, trials: int, rng: random.Random) -> dict:
    """A flat-prior protocol on exponential_placement(N).

    repeat gets nu = 4 shots (T between 4.2 and 4.8 base times) and
    adaptive 2 rounds (Delta W0 T / pi between (2L)^2.3 and (2L)^2.7).
    """
    amp = rng.uniform(0.8, 1.25)
    W0 = rng.uniform(0.8, 1.25)
    L, Delta = _exponential(N, amp)
    t1 = 2.0 * math.pi * (L - 1) / (W0 * Delta)
    protocol: dict = {"kind": kind}
    if kind == "repeat":
        protocol["total_time"] = rng.uniform(4.2, 4.8) * t1
    elif kind == "adaptive":
        x = (2 * L) ** rng.uniform(2.3, 2.7)
        protocol["total_time"] = math.pi * x / (Delta * W0)
    prior = {"kind": "flat", "width": W0, "lower": rng.uniform(-0.5, 0.5)}
    return _placement_doc(N, amp, prior, protocol, trials, rng)


def sine_window_t(L: int, Delta: float, W0: float, frac: float) -> float:
    """Interrogation time with x = t W0 Delta = frac (L - 1)."""
    return frac * (L - 1) / (W0 * Delta)


def fixed_time_doc(N: int, trials: int, rng: random.Random) -> dict:
    """fixed_time in the sine window: x/(L-1) between 0.6 and 0.9."""
    amp = rng.uniform(0.8, 1.25)
    W0 = rng.uniform(0.05, 0.2)
    L, Delta = _exponential(N, amp)
    protocol = {"kind": "fixed_time",
                "t": sine_window_t(L, Delta, W0, rng.uniform(0.6, 0.9))}
    prior = {"kind": "gaussian", "width": W0, "mean": rng.uniform(-1.0, 1.0)}
    return _placement_doc(N, amp, prior, protocol, trials, rng)


def qubit_line_doc(rng: random.Random, trials: int) -> dict:
    """16 qubits on integer sites, constant and gradient noise."""
    return {"array": {"positions": list(range(16))},
            "signal": {"profile": "power_law", "alpha": 2.0, "source": -3.0,
                       "amplitude": rng.uniform(0.5, 2.0)},
            "noise": [{"profile": "constant",
                       "amplitude": rng.uniform(0.5, 2.0),
                       "sigma": rng.uniform(0.3, 1.0)},
                      {"profile": "gradient",
                       "amplitude": rng.uniform(0.5, 2.0),
                       "sigma": rng.uniform(0.05, 0.2)}],
            "prior": {"kind": "flat", "width": 1.0},
            "protocol": {"kind": "single_shot_flat"},
            "seed": rng.randrange(2 ** 31), "trials": trials}


def qutrit_line_doc(rng: random.Random, trials: int) -> dict:
    """10 qutrit sites on integer positions, constant noise."""
    return {"array": {"positions": list(range(10)),
                      "quanta_per_site": [3] * 10},
            "signal": {"profile": "gradient",
                       "amplitude": rng.uniform(0.5, 2.0)},
            "noise": [{"profile": "constant",
                       "amplitude": rng.uniform(0.5, 2.0),
                       "sigma": rng.uniform(0.3, 1.0)}],
            "prior": {"kind": "flat", "width": 1.0},
            "protocol": {"kind": "single_shot_flat"},
            "seed": rng.randrange(2 ** 31), "trials": trials}


# ---------------------------------------------------------------------------
# reference for explicit arrays
# ---------------------------------------------------------------------------

def _field_values(spec: dict, pos: np.ndarray) -> np.ndarray:
    if "values" in spec:
        return np.asarray(spec["values"], dtype=float)
    a = spec.get("amplitude", 1.0)
    if spec["profile"] == "constant":
        return np.full(pos.shape, float(a))
    if spec["profile"] == "gradient":
        return a * pos
    return a / np.abs(pos - spec["source"]) ** spec["alpha"]


def protected_level_count(doc: dict, merge_rtol: float = 1e-9) -> int:
    """Distinct signal levels over the configurations protected with the
    sign-matched extremal anchor, by dense numpy enumeration.

    Two levels closer than merge_rtol times the range count once, as in
    the program's spectrum construction.
    """
    pos = np.asarray(doc["array"]["positions"], dtype=float)
    quanta = doc["array"].get("quanta_per_site", [2] * pos.size)
    ladders = [np.arange(n) - (n - 1) / 2.0 for n in quanta]
    grid = np.meshgrid(*ladders, indexing="ij")
    configs = np.stack(grid, axis=-1).reshape(-1, pos.size)
    signal = _field_values(doc["signal"], pos)
    noise = np.array([_field_values(f, pos) for f in doc["noise"]])
    coef = np.linalg.lstsq(noise.T, signal, rcond=None)[0]
    f_perp = signal - noise.T @ coef
    tops = (np.asarray(quanta) - 1) / 2.0
    anchor = np.where(f_perp < 0, -tops, tops)
    proj = (configs - anchor) @ noise.T
    limit = 1e-9 * np.abs(noise).sum(axis=1) * 2.0 * tops.max()
    kept = configs[np.all(np.abs(proj) <= limit, axis=1)]
    levels = np.sort(kept @ signal)
    tol = merge_rtol * (levels[-1] - levels[0])
    count, last = 1, levels[0]
    for v in levels[1:]:
        if v - last > tol:
            count += 1
            last = v
    return count


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_protocol(payload: dict, L: int, trials: int,
                   resources: dict | None = None) -> list[Problem]:
    """Simulated protocol report: sizes as planned and a finite MSE."""
    out: list[Problem] = []
    if payload.get("meta", {}).get("L") != L:
        out.append(("sizes", f"L {payload.get('meta', {}).get('L')} != {L}"))
    rep = payload.get("report", {})
    for k, v in (resources or {}).items():
        if rep.get("resources", {}).get(k) != v:
            out.append(("sizes", f"resource {k} "
                        f"{rep.get('resources', {}).get(k)!r} != {v!r}"))
    sim = rep.get("simulation")
    if sim is None:
        return out + [("simulation", "report has no simulation block")]
    if sim.get("trials") != trials:
        out.append(("sizes", f"trials {sim.get('trials')} != {trials}"))
    if not math.isfinite(sim.get("mse", math.nan)):
        out.append(("mse", f"mse {sim.get('mse')!r} is not finite"))
    return out


def check_holevo(payload: dict, z_max: float = 5.0) -> list[Problem]:
    """Sine probe: simulated Holevo variance within z_max SE of
    tan^2(pi/(L+1))."""
    sim = payload.get("report", {}).get("simulation") or {}
    L = payload.get("meta", {}).get("L", 0)
    exact = math.tan(math.pi / (L + 1)) ** 2 if L > 1 else math.nan
    hol, se = sim.get("holevo", math.nan), sim.get("holevo_stderr", math.nan)
    z = (hol - exact) / se if se and se > 0 else math.inf
    if not abs(z) <= z_max:
        return [("holevo", f"sim_holevo {hol!r} is {z:+.2f} SE from "
                           f"tan^2(pi/(L+1)) = {exact!r} at L = {L}")]
    return []


def check_reduction(payload: dict) -> list[Problem]:
    """fixed_time: the posterior-mean MSE never exceeds the prior variance."""
    sim = payload.get("report", {}).get("simulation") or {}
    red = sim.get("reduction_hat", math.nan)
    if not red <= 1.0:
        return [("reduction", f"reduction_hat {red!r} > 1")]
    return []


def check_sweep(payload: dict, count: int) -> list[Problem]:
    rows = payload.get("rows", [])
    out: list[Problem] = []
    if len(rows) != count:
        out.append(("sizes", f"{len(rows)} sweep rows != {count}"))
    bad = [r.get("variance_reduction") for r in rows
           if not r.get("variance_reduction", math.nan) <= 1.0]
    if bad:
        out.append(("reduction", f"variance_reduction above 1: {bad[:3]!r}"))
    return out


def check_spectrum(payload: dict, L: int) -> list[Problem]:
    got_L = payload.get("meta", {}).get("L")
    rows = len(payload.get("rows", []))
    if got_L != L or rows != L:
        return [("spectrum", f"L {got_L!r} and {rows} rows, reference L {L}")]
    return []


def check_dfs(payload: dict, z_max: float = 5.0) -> list[Problem]:
    """Protected pairs show damping exactly 1 and |z| <= z_max."""
    rows = [r for r in payload.get("rows", []) if r.get("protected")]
    if not rows:
        return [("dfs", "no protected pairs reported")]
    out: list[Problem] = []
    for r in rows:
        if r.get("analytic") != 1.0 or not abs(r.get("z", math.inf)) <= z_max:
            out.append(("dfs", f"pair {r.get('pair')}: analytic "
                               f"{r.get('analytic')!r}, z {r.get('z')!r}"))
    return out


def check_levels(payload: dict) -> list[Problem]:
    """enumerate_levels() equals predicted_levels()."""
    got, want = payload.get("enumerated"), payload.get("predicted")
    if not want or got != want:
        return [("levels", f"{len(got or [])} enumerated levels differ from "
                           f"{len(want or [])} predicted")]
    return []


def dephase_trials(payload: dict) -> int:
    return payload.get("meta", {}).get("trials", 0) * len(payload.get("rows", []))


def trials_in(payload: dict) -> int:
    """Monte-Carlo trials an output reports: estimation trials of a
    simulated protocol, or dephasing trials over every dfs-check row."""
    sim = payload.get("report", {}).get("simulation")
    if sim is not None:
        return sim["trials"]
    if "channels" in payload.get("meta", {}):
        return dephase_trials(payload)
    return 0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _protocol_op(name: str, doc: dict, L: int, checks=(), resources=None,
                 **kw) -> Op:
    trials = doc["trials"]

    def check(payload):
        out = check_protocol(payload, L, trials, resources)
        for extra in checks:
            out += extra(payload)
        return out

    return Op(name, ("protocol", "--simulate"), doc, check,
              {"L": L, "J": doc["array"]["N"], "trials": trials}, **kw)


def mc_narrow(seed: int) -> list[Op]:
    """L = 16: the Monte-Carlo kernel and the summary step dominate."""
    rng = random.Random(f"mc-narrow:{seed}")
    repeat = flat_doc(8, "repeat", 200_000, rng)
    return [
        _protocol_op("ssf-1e6", flat_doc(8, "single_shot_flat", 1_000_000,
                                         rng), 16, (check_holevo,)),
        _protocol_op("repeat", repeat, 16, resources={"nu": 4}),
        _protocol_op("adaptive", flat_doc(8, "adaptive", 200_000, rng), 16,
                     resources={"rounds": 2}),
        _protocol_op("fixed-time", fixed_time_doc(8, 200_000, rng), 16,
                     (check_reduction,)),
        _protocol_op("repeat-1thread", repeat, 16, resources={"nu": 4},
                     threads=1, same_as="repeat"),
    ]


SWEEP_POINTS = 16


def wide_ladder(seed: int) -> list[Op]:
    """Closed-form ladders up to L = 4096: sampler build, the posterior
    table and the variance_reduction eigensolves dominate."""
    rng = random.Random(f"wide-ladder:{seed}")
    ft = fixed_time_doc(20, 100_000, rng)
    sweep_doc = fixed_time_doc(16, 1000, rng)
    L, Delta = _exponential(16, sweep_doc["signal"]["amplitude"])
    t_star = sine_window_t(L, Delta, sweep_doc["prior"]["width"], 1.0)
    grid = f"{0.05 * t_star!r}:{2.0 * t_star!r}:{SWEEP_POINTS}"
    return [
        _protocol_op("ssf-L4096", flat_doc(24, "single_shot_flat", 400_000,
                                           rng), 4096, (check_holevo,)),
        _protocol_op("fixed-time-L1024", ft, 1024, (check_reduction,)),
        Op("sweep-t-L256", ("sweep", "--axis", "t", "--grid", grid),
           sweep_doc, lambda p: check_sweep(p, SWEEP_POINTS),
           {"L": L, "J": 16, "grid_points": SWEEP_POINTS}),
        _protocol_op("fixed-time-L1024-1thread", ft, 1024, (check_reduction,),
                     threads=1, same_as="fixed-time-L1024"),
    ]


DFS_TRIALS = 20_000
LEVELS_N = 18


def enumerate_workload(seed: int) -> list[Op]:
    """Explicit arrays: DFS and placement enumeration dominate; dfs-check
    runs the dephasing Monte Carlo."""
    rng = random.Random(f"enumerate:{seed}")
    q16 = qubit_line_doc(rng, DFS_TRIALS)
    t10 = qutrit_line_doc(rng, DFS_TRIALS)
    ops = []
    sizes = {}
    for tag, doc, J, quanta in (("q16", q16, 16, 2), ("t10", t10, 10, 3)):
        L = protected_level_count(doc)
        sizes[tag] = {"J": J, "quanta": quanta, "L": L,
                      "configs": quanta ** J, "trials": DFS_TRIALS}
        ops.append(Op(f"spectrum-{tag}", ("spectrum",), doc,
                      lambda p, L=L: check_spectrum(p, L), sizes[tag]))
        ops.append(Op(f"dfs-check-{tag}", ("dfs-check",), doc, check_dfs,
                      sizes[tag]))
    ops.append(Op(f"enumerate-levels-linear{LEVELS_N}", check=check_levels,
                  sizes={"N": LEVELS_N, "L": LEVELS_N ** 2 // 4 + 1},
                  placement=("linear", LEVELS_N)))
    ops.append(Op("dfs-check-t10-1thread", ("dfs-check",), t10, check_dfs,
                  sizes["t10"], threads=1, same_as="dfs-check-t10"))
    return ops


WORKLOADS = {"mc-narrow": mc_narrow, "wide-ladder": wide_ladder,
             "enumerate": enumerate_workload}
