"""Command-line interface.

Subcommands: spectrum, table1, protocol, sweep, dfs-check. Scenario-driven
commands read a JSON document (see scenario module docstring). Output is
CSV (default) or JSON via --format; CSV carries provenance as '# formula:'
comment lines so every number can be traced to the expression that
produced it.

Exit codes: 0 success; 2 malformed scenario, usage or an --out path that
cannot be written; 3 infeasible request (no protected signal, insufficient
time, unreachable target, oversize enumeration); 4 numeric failure
(arithmetic overflow or division by zero included, and any result that is
not finite).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .control import EffectiveSpectrum, protected_spectrum
from .control import enumerate_dfs_configs  # noqa: F401  perfbench/child.py wraps this name
from .errors import (Degenerate, DfsSenseError, InsufficientTime,
                     InvalidState, NoSignalComponent, NotLinear,
                     NumericFailure, ScenarioError, TooLarge, Unreachable)
from .montecarlo import (MIN_TRIALS, SEED_BOUND, dephase_coherence,
                         mc_dephase_check)
from .placement import table_rows
from .protocols import (ProtocolReport, fixed_time_single_shot, ghz_reduction,
                        single_shot_flat)
from .scenario import build_scenario, load_scenario, run_scenario

_INFEASIBLE = (NoSignalComponent, InsufficientTime, Unreachable, TooLarge,
               Degenerate, NotLinear, ValueError)
_NUMERIC = (NumericFailure, InvalidState, ArithmeticError)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(payload: dict, args) -> int:
    """Write payload to --out or stdout and return the exit code: 2 when
    --out cannot be written. payload: {"comments": [...], "rows": [...],
    "meta": {...}} or {"report": {...}} for protocol output."""
    if args.format == "json":
        def coerce(o):
            if isinstance(o, np.integer):
                return int(o)
            if isinstance(o, np.floating):
                return float(o)
            if isinstance(o, np.ndarray):
                return o.tolist()
            return str(o)
        lines = [json.dumps(payload, indent=2, default=coerce)]
    else:
        lines = [f"# {c}" for c in payload.get("comments", [])]
        for k, v in payload.get("meta", {}).items():
            lines.append(f"# {k}: {_fmt(v)}")
        rows = payload.get("rows", [])
        if rows:
            cols = list(rows[0].keys())
            lines.append(",".join(cols))
            for r in rows:
                lines.append(",".join(_fmt(r[c]) for c in cols))
    text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"cannot write output file: {e}", file=sys.stderr)
        return 2
    return 0


def _check_finite(obj, path: str) -> None:
    """NumericFailure naming the first float in a payload that is not finite."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")
    elif isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        raise NumericFailure(f"{path} is {obj}")


def _require_scenario(args):
    if not args.scenario:
        raise ScenarioError("this command needs --scenario PATH")
    return load_scenario(args.scenario)


def _grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:count")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    if not (math.isfinite(a) and math.isfinite(b)):
        raise argparse.ArgumentTypeError("grid endpoints must be finite")
    if n < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return a, b, n


def _sizes(spec: str) -> tuple[int, ...]:
    """An argparse type: comma-separated even integers >= 2."""
    try:
        sizes = tuple(int(s) for s in spec.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    if any(n < 2 or n % 2 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be even integers >= 2")
    return sizes


def _uniform_spectrum(L: int, delta: float) -> EffectiveSpectrum:
    lo = -delta / 2.0
    gap = delta / (L - 1)
    return EffectiveSpectrum(tuple(lo + k * gap for k in range(L)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> dict:
    sc = _require_scenario(args)
    built = build_scenario(sc)
    sp = built.spectrum
    rows = []
    for i, v in enumerate(sp.levels):
        row = {"level_index": i, "eigenvalue": float(v)}
        if sp.configs is not None:
            row["config"] = ";".join(_fmt(float(x)) for x in
                                     np.asarray(sp.configs[i], dtype=float))
        else:
            row["config"] = ""
        rows.append(row)
    meta = {"L": sp.L, "Delta": float(sp.Delta), "min_gap": float(sp.delta),
            "linear": sp.is_linear()}
    comments = ["formula: eigenvalue = signal . config over protected "
                "configurations"]
    return {"comments": comments, "meta": meta, "rows": rows}


def _table(cols: tuple[str, ...], sizes: tuple[int, ...] = ()) -> list[dict]:
    """The placement table's columns, exact rationals as floats."""
    rows = table_rows(sizes) if sizes else table_rows()
    return [{c: float(r[c]) if isinstance(r[c], Fraction) else r[c]
             for c in cols} for r in rows]


def cmd_table1(args) -> dict:
    rows = _table(("family", "N", "range", "levels", "enum_range",
                   "enum_levels", "gap"), args.sizes)
    comments = [
        "formula: two_point range = N (conventional units), levels = N/2",
        "formula: linear range = N^2/(4(N-1)), levels = N^2/4",
        "formula: exponential range = 2(1 - 2^(-N/2)), levels = 2^(N/2)",
        "enum_* columns are the closed-form predicted range and level "
        "count, which enumerate_levels reproduces over each family's "
        "protected domain",
    ]
    return {"comments": comments, "meta": {}, "rows": rows}


def _report_payload(report: ProtocolReport, built) -> dict:
    comments = [f"formula: {p.label} = {p.formula}" for p in report.predictions]
    meta = {"protocol": report.kind, "L": built.spectrum.L,
            "Delta": float(built.spectrum.Delta)}
    for k, v in report.resources.items():
        meta[f"resource_{k}"] = v
    if report.regime:
        meta["regime"] = report.regime
    if report.recommendation:
        meta["recommendation"] = report.recommendation
    rows = [{"label": p.label, "value": p.value, "formula": p.formula}
            for p in report.predictions]
    if report.simulation is not None:
        s = report.simulation
        for key, val in s.to_dict().items():
            if key in ("kind",):
                continue
            rows.append({"label": f"sim_{key}", "value": val,
                         "formula": "monte carlo"})
    if report.schedule is not None:
        for k, (t, w) in enumerate(report.schedule, start=1):
            rows.append({"label": f"round_{k}", "value": t,
                         "formula": f"width after round = {_fmt(w)}"})
    return {"comments": comments, "meta": meta, "rows": rows,
            "report": report.to_dict()}


def cmd_protocol(args) -> dict:
    sc = _require_scenario(args)
    built = build_scenario(sc)
    report = run_scenario(built, simulate=args.simulate, trials=args.trials,
                          seed=args.seed)
    payload = _report_payload(report, built)
    if args.format == "json":
        return {"meta": payload["meta"], "report": payload["report"]}
    payload.pop("report")
    return payload


# formula comments of the fixed-time rows, on the t, L and Delta axes
_FIXED_TIME_FORMULAS = ("formula: variance_reduction = 1 - W0^2 F(rho_bar)",
                        "formula: extremal_closed_form = 1 - x^2 exp(-x^2), "
                        "x = t W0 Delta")


def _sweep_t(built, grid) -> dict:
    sc = built.scenario
    if sc.protocol.kind != "fixed_time":
        raise ScenarioError("axis t requires a fixed_time protocol",
                            "protocol.kind")
    times = [float(t) for t in np.linspace(*grid)]
    if min(times) <= 0:
        raise ScenarioError("t grid must be positive")
    rows = []
    for t in times:
        rep = fixed_time_single_shot(built.spectrum, sc.prior, t)
        row = {"t": t, "x": rep.resources["x"],
               "regime": rep.regime,
               "variance_reduction": rep.prediction("variance_reduction"),
               "extremal_closed_form": ghz_reduction(rep.resources["x"]),
               "probe": rep.resources["probe"]}
        rows.append(row)
    return {"comments": list(_FIXED_TIME_FORMULAS), "meta": {"axis": "t"},
            "rows": rows}


def _int_grid(grid, minimum: int) -> list[int]:
    a, b, n = grid
    vals = sorted({int(round(v)) for v in np.linspace(a, b, n)})
    vals = [v for v in vals if v >= minimum]
    if not vals:
        raise ScenarioError(f"grid contains no integers >= {minimum}")
    return vals


def _ladder_rows(built, points, flat_labels: tuple[str, ...]) -> list[dict]:
    """One row per (leading columns, uniform spectrum) point: the fixed-time
    x, regime and variance reduction, or the flat-prior t1 and flat_labels."""
    sc = built.scenario
    rows = []
    for lead, sp in points:
        if sc.protocol.kind == "fixed_time":
            rep = fixed_time_single_shot(sp, sc.prior, sc.protocol.t)
            rows.append({**lead, "x": rep.resources["x"], "regime": rep.regime,
                         "variance_reduction":
                             rep.prediction("variance_reduction")})
        else:
            rep = single_shot_flat(sp, sc.prior)
            rows.append({**lead, "t1": rep.resources["t1"],
                         **{k: rep.prediction(k) for k in flat_labels}})
    return rows


def _ladder_base(built, axis: str) -> EffectiveSpectrum:
    """The scenario's spectrum, whose range or level count an L or Delta
    sweep holds: Degenerate below two levels, which give no ladder."""
    if built.spectrum.L < 2:
        raise Degenerate(f"axis {axis} needs a spectrum of at least two levels")
    return built.spectrum


def _sweep_L(built, grid) -> dict:
    Ls = _int_grid(grid, 2)
    base = _ladder_base(built, "L")
    per_level = float(base.Delta) / base.L  # hold Delta/L fixed
    spectra = (_uniform_spectrum(L, per_level * L) for L in Ls)
    rows = _ladder_rows(built, (({"L": sp.L, "Delta": float(sp.Delta)}, sp)
                                for sp in spectra),
                        ("predicted_mse", "asymptotic_mse", "holevo_mse"))
    comments = ["axis L holds Delta/L fixed at the base spectrum's value"]
    if built.scenario.protocol.kind == "fixed_time":
        comments += _FIXED_TIME_FORMULAS
    else:
        comments += ["formula: predicted_mse = W0^2/(4 (L-1)^2)",
                     "formula: asymptotic_mse = W0^2/(4 L^2)",
                     "formula: holevo_mse = (W0/(2 pi))^2 tan^2(pi/(L+1))"]
    return {"comments": comments,
            "meta": {"axis": "L", "Delta_per_level": per_level}, "rows": rows}


def _sweep_Delta(built, grid) -> dict:
    deltas = [float(d) for d in np.linspace(*grid)]
    if min(deltas) <= 0:
        raise ScenarioError("Delta grid must be positive")
    L = _ladder_base(built, "Delta").L
    rows = _ladder_rows(built, (({"Delta": d}, _uniform_spectrum(L, d))
                                for d in deltas),
                        ("predicted_mse", "holevo_mse"))
    if built.scenario.protocol.kind == "fixed_time":
        comments = ["axis Delta holds L fixed", *_FIXED_TIME_FORMULAS]
    else:
        comments = ["axis Delta holds L fixed; precision predictions depend "
                    "on L only, while t1 = 2 pi (L-1)/(W0 Delta) trades "
                    "range for time",
                    "formula: t1 = 2 pi (L-1)/(W0 Delta)"]
    return {"comments": comments, "meta": {"axis": "Delta", "L": L},
            "rows": rows}


def _sweep_N(grid) -> dict:
    Ns = [n for n in _int_grid(grid, 4) if n % 2 == 0]
    if not Ns:
        raise ScenarioError("axis N needs even integers >= 4 in the grid")
    rows = _table(("family", "N", "range", "levels", "gap"), tuple(Ns))
    comments = ["formula: ranges and level counts as in table1"]
    return {"comments": comments, "meta": {"axis": "N"}, "rows": rows}


def cmd_sweep(args) -> dict:
    if args.axis == "N":
        return _sweep_N(args.grid)
    sc = _require_scenario(args)
    built = build_scenario(sc)
    if args.axis == "t":
        return _sweep_t(built, args.grid)
    if args.axis == "L":
        return _sweep_L(built, args.grid)
    if args.axis == "Delta":
        return _sweep_Delta(built, args.grid)
    raise ScenarioError(f"unknown axis {args.axis!r}")


def cmd_dfs_check(args) -> dict:
    sc = _require_scenario(args)
    built = build_scenario(sc)
    if built.channel is None:
        raise Degenerate("scenario declares no noise channels to check")
    # one configuration per protected level; a placement's closed-form
    # ladder carries none, so its protected levels are enumerated here
    configs = built.spectrum.configs
    if configs is None:
        configs = protected_spectrum(built.array, built.noise, built.signal,
                                     built.f_perp).configs
    if len(configs) < 2:
        raise Degenerate("fewer than two protected configurations")
    trials = args.trials if args.trials is not None else sc.trials
    seed = args.seed if args.seed is not None else sc.seed
    index = [(i, i + 1) for i in range(min(len(configs) - 1, 20))]
    if (0, len(configs) - 1) not in index and len(configs) > 2:
        index.append((0, len(configs) - 1))
    labels = [f"{i}-{j}" for i, j in index]
    pairs = [(configs[i], configs[j]) for i, j in index]
    # contrast row: perturb one site of the first configuration off the
    # protected class, if the site ladder allows it
    contrast = _contrast_config(built, configs[0])
    if contrast is not None:
        labels.append("contrast")
        pairs.append((configs[0], contrast))
    checks = mc_dephase_check(built.channel, pairs, trials=trials, seed=seed)
    rows = [{"pair": label, "protected": label != "contrast",
             "analytic": chk.analytic, "empirical": chk.empirical,
             "stderr": chk.stderr, "z": chk.z_score}
            for label, chk in zip(labels, checks)]
    comments = [
        "formula: analytic = prod_k E[exp(i chi_k f_k . (a - b))]",
        "protected pairs must show damping exactly 1; the contrast row "
        "leaves the protected class and should damp below 1",
    ]
    meta = {"trials": trials, "seed": seed,
            "channels": len(built.channel.fields)}
    return {"comments": comments, "meta": meta, "rows": rows}


def _contrast_config(built, anchor):
    """A configuration one step off the protected class, or None."""
    base = list(np.asarray(anchor, dtype=float))
    for j in range(built.array.J):
        for v in built.array.site_spin_values(j):
            cand = list(base)
            cand[j] = float(v)
            if cand == base:
                continue
            damp = dephase_coherence(built.channel, base, cand)
            if damp < 1.0:
                return tuple(cand)
    return None


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _at_least(minimum: int, below: int | None = None):
    """An argparse type: an integer >= minimum (and < below, if given), else
    a usage error."""
    def integer(text: str) -> int:  # argparse names this type in its errors
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be an integer < {below}")
        return value
    return integer


_FLAGS = {
    "--scenario": dict(default=None, help="path to a scenario JSON document"),
    "--simulate": dict(action="store_true",
                       help="attach Monte-Carlo trials to the report"),
    "--trials": dict(type=_at_least(MIN_TRIALS), default=None,
                     help="override the scenario's trial count"),
    "--seed": dict(type=_at_least(0, SEED_BOUND), default=None,
                   help="override the scenario's seed"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dfs-sense",
        description="Decoherence-free probe construction and Bayesian "
                    "precision analysis for distributed field sensing.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        """A subcommand taking only the flags it reads, plus --out/--format."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    command("spectrum", cmd_spectrum, "protected configurations and the "
            "effective level ladder", "--scenario")
    p = command("table1", cmd_table1, "placement family scaling table")
    p.add_argument("--sizes", type=_sizes, default=(),
                   help="comma-separated even N values (default 4..16)")
    command("protocol", cmd_protocol, "plan a protocol and report predicted "
            "precision", "--scenario", "--simulate", "--trials", "--seed")
    p = command("sweep", cmd_sweep, "tabulate precision along one axis",
                "--scenario")
    p.add_argument("--axis", required=True, choices=("t", "L", "Delta", "N"))
    p.add_argument("--grid", required=True, type=_grid,
                   help="start:stop:count")
    command("dfs-check", cmd_dfs_check, "verify coherence protection against "
            "the noise model", "--scenario", "--trials", "--seed")
    return ap


def main(argv=None) -> int:
    """The process entry point (the ``dfs-sense`` console script): run one
    command and return its exit code.

    Every object alive at entry (the imported modules) moves to the
    collector's permanent generation, so neither this run's collections nor
    the interpreter's passes at exit walk it again; objects the run creates
    stay collectable and the collector stays enabled.

    numpy's floating-point warnings are off while the command runs: a
    number that overflows to a non-finite result fails the payload check
    instead (exit 4), and one that ends finite is not an error."""
    gc.freeze()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            payload = args.func(args)
        _check_finite(payload, "result")
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except _INFEASIBLE as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except _NUMERIC as e:
        # Python's own arithmetic errors say little without their class name
        what = e if isinstance(e, DfsSenseError) else f"{type(e).__name__}: {e}"
        print(f"numeric failure: {what}", file=sys.stderr)
        return 4
    return _emit(payload, args)


if __name__ == "__main__":
    sys.exit(main())
