"""dfs-sense benchmark: one closed-loop client driving the dfs-sense CLI.

    python3 perfbench/run.py --workload mc-narrow --seed 0 --seconds 40 --trace 0

Each operation runs in a fresh Python process that calls
``dfs_sense.cli.main`` with the operation's argv, one at a time, with
DFS_SENSE_THREADS set to the number of usable cores. ``--workload all`` runs
every workload in turn. A pass is one run through a workload's fixed
operation list; passes repeat until ``--seconds`` is spent.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics (setup_s, wall_s, trials_per_s, peak_rss_mb). With ``--trace 1``
untraced and traced passes alternate and it reports the per-layer metrics,
built from spans that perfbench/child.py records around each layer
boundary. Lines before it show provenance, the metrics with units and
sample counts, and every failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans as spanlib
from workloads import KNOWN_DEFECTS, WORKLOADS, Op, trials_in

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PYCACHE = HERE / ".work" / "pycache"
SETUP_PER_PASS = 3
OP_TIMEOUT_S = 150.0
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import dfs_sense; "
              "from dfs_sense import cli; cli.build_parser()")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "montecarlo.self_s": "s", "montecarlo.trials_per_s": "1/s",
    "montecarlo.dephase_s": "s", "montecarlo.dephase_trials_per_s": "1/s",
    "montecarlo.thread_speedup": "1",
    "bayes.sampler_build_s": "s", "bayes.sampler_grid_points": "count",
    "bayes.sampler_norm_error": "1", "bayes.sample_s": "s",
    "bayes.draws_per_s": "1/s", "bayes.variance_reduction_s": "s",
    "bayes.empirical_holevo_s": "s",
    "control.enumerate_s": "s", "control.configs_scanned": "count",
    "control.configs_kept": "count", "control.keep_ratio": "1",
    "placement.enumerate_levels_s": "s", "placement.combos_scanned": "count",
    "placement.levels_found": "count",
    "fields.orthogonal_complement_s": "s", "fields.sample_field_s": "s",
    "scenario.load_s": "s", "scenario.build_self_s": "s",
    "scenario.run_self_s": "s", "protocols.plan_self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "B",
    "process.start_s": "s", "trace.unaccounted_s": "s",
    "trace.overhead_frac": "1",
}
# per-layer metric <- span layer whose self time it reports
SELF_TIME = {
    "montecarlo.self_s": "montecarlo.estimate",
    "montecarlo.dephase_s": "montecarlo.dephase",
    "bayes.sampler_build_s": "bayes.sampler_build",
    "bayes.sample_s": "bayes.sample",
    "bayes.variance_reduction_s": "bayes.variance_reduction",
    "bayes.empirical_holevo_s": "bayes.empirical_holevo",
    "control.enumerate_s": "control.enumerate",
    "placement.enumerate_levels_s": "placement.enumerate_levels",
    "fields.orthogonal_complement_s": "fields.orthogonal_complement",
    "fields.sample_field_s": "fields.sample_field",
    "scenario.load_s": "scenario.load",
    "scenario.build_self_s": "scenario.build",
    "scenario.run_self_s": "scenario.run",
    "protocols.plan_self_s": "protocols.plan",
    "cli.self_s": "cli",
}
MC_LAYERS = ("montecarlo.estimate", "montecarlo.dephase")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def blas_info() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_child(argv, env, stderr_path) -> tuple[float, float, float, int]:
    """Run a fresh process to its end and reap it with os.wait4, which
    gives its own peak RSS. Returns (spawn time, wall s, peak RSS MB, exit
    code)."""
    with open(stderr_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.threads = usable_cores()
        ops: list[Op] = WORKLOADS[workload](seed)
        self.ops = [op for op in ops if op.same_as is None]
        self.reruns = [op for op in ops if op.same_as is not None]
        self.attempted = 0
        self.failed = 0
        self.unknown_failures = 0
        for op in ops:
            if op.doc is not None:
                (work / f"{op.name}.json").write_text(json.dumps(op.doc))

    def env(self, threads: int | None) -> dict:
        env = dict(os.environ)
        env["DFS_SENSE_THREADS"] = str(threads or self.threads)
        env["TMPDIR"] = str(self.work)
        # bytecode is cached, as for an installed package, but inside the
        # benchmark's own directory
        env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
        for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            env.pop(name, None)
        return env

    # -- set-up ---------------------------------------------------------

    def setup_time(self) -> float:
        """Wall time of a fresh process that imports dfs_sense and builds
        the CLI parser."""
        _, wall, _, code = run_child([sys.executable, "-c", SETUP_CODE,
                                      str(SRC)], self.env(None),
                                     self.work / "setup.err")
        if code != 0:
            raise RuntimeError("importing dfs_sense failed: "
                               + (self.work / "setup.err").read_text())
        return wall

    # -- one operation --------------------------------------------------

    def run_op(self, op: Op, traced: bool, tag: str) -> dict:
        out_path = self.work / f"{op.name}.{tag}.out"
        if op.placement is not None:
            spec = {"kind": "placement", "family": op.placement[0],
                    "N": op.placement[1], "out": str(out_path)}
        else:
            spec = {"kind": "cli", "argv": list(op.argv) + [
                "--scenario", str(self.work / f"{op.name}.json"),
                "--format", "json", "--out", str(out_path)]}
        req = self.work / f"{op.name}.{tag}.req"
        res = self.work / f"{op.name}.{tag}.res"
        req.write_text(json.dumps({"src": str(SRC), "trace": traced,
                                   "op": spec}))
        res.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)
        err = self.work / f"{op.name}.{tag}.err"
        t0, wall, rss, code = run_child(
            [sys.executable, str(CHILD), str(req), str(res)],
            self.env(op.threads), err)
        r = {"op": op, "wall": wall, "rss_mb": rss, "exit_code": code,
             "t_spawn": t0, "problems": [], "trials": 0, "out": out_path}
        if code != 0:
            tail = err.read_text()[-2000:]
            r["problems"].append(("exit", f"exit code {code}: {tail}"))
            return r
        try:
            r["child"] = json.loads(res.read_text())
            payload = json.loads(out_path.read_text())
        except (OSError, ValueError) as e:
            r["problems"].append(("output", f"unreadable output: {e}"))
            return r
        r["out_bytes"] = out_path.stat().st_size
        r["trials"] = trials_in(payload)
        r["problems"] += op.check(payload)
        return r

    # -- one pass -------------------------------------------------------

    def run_pass(self, traced: bool, index: int) -> dict:
        tag = f"{'t' if traced else 'u'}{index}"
        results: dict[str, dict] = {}
        for op in self.ops:
            results[op.name] = r = self.run_op(op, traced, tag)
            self.count(r)
        return {"traced": traced, "ops": results,
                "wall": sum(r["wall"] for r in results.values())}

    def rerun(self, op: Op, ref: dict) -> dict:
        """The seed contract: `op` repeats `op.same_as` at another thread
        count and must write the same bytes as `ref`, that op's result."""
        r = self.run_op(op, self.trace, "rerun")
        if (r["exit_code"] == 0 and ref["exit_code"] == 0
                and r["out"].read_bytes() != ref["out"].read_bytes()):
            r["problems"].append(
                ("seed-contract", f"output at DFS_SENSE_THREADS={op.threads} "
                 f"differs from {op.same_as}"))
        self.count(r)
        return r

    def count(self, r: dict) -> None:
        self.attempted += 1
        if not r["problems"]:
            return
        self.failed += 1
        known = KNOWN_DEFECTS.get((self.workload, r["op"].name), set())
        unknown = [p for p in r["problems"] if p[0] not in known]
        if unknown:
            self.unknown_failures += 1
        for check, msg in r["problems"]:
            label = "known defect" if check in known else "FAILED"
            log(f"[{self.workload}] {r['op'].name}: {label} {check}: {msg}")

    # -- the run --------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Passes until `seconds` are spent, with the seed-contract re-runs
        after the first one. Untraced runs spread set-up samples over the
        run, a few before each pass, so that they see the same machine load
        as the passes; the first one only warms the bytecode cache."""
        setup_per_pass = 0 if self.trace else SETUP_PER_PASS
        self.setup_time()
        setup, passes, reruns = [], [], {}
        start = time.monotonic()
        modes = (False, True) if self.trace else (False,)
        while True:
            t_cycle = time.monotonic()
            setup += [self.setup_time() for _ in range(setup_per_pass)]
            for traced in modes:
                passes.append(self.run_pass(traced, len(passes)))
            cycle = time.monotonic() - t_cycle
            if not reruns:
                reruns = {op.name: self.rerun(op, passes[-1]["ops"][op.same_as])
                          for op in self.reruns}
            if time.monotonic() - start + cycle > seconds:
                break
        return {"setup": setup, "passes": passes, "reruns": reruns}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def op_medians(passes: list[dict], key: str) -> dict[str, float]:
    """Each operation's median of `key` over the passes."""
    return {name: statistics.median(p["ops"][name][key] for p in passes)
            for name in passes[0]["ops"]}


def end_to_end(run: dict) -> dict:
    """One pass is the sum of its operations' median walls, so that a slow
    moment of the machine during one operation does not move the whole
    pass."""
    plain = [p for p in run["passes"] if not p["traced"]]
    wall = sum(op_medians(plain, "wall").values())
    return {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": wall,
        "trials_per_s": sum(op_medians(plain, "trials").values()) / wall,
        "peak_rss_mb": max(op_medians(plain, "rss_mb").values()),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_breakdown(r: dict) -> dict:
    """Self time per span layer of one traced operation, plus process start
    and the remainder of its wall time that no span accounts for."""
    child = r["child"]
    self_t = spanlib.layer_self_times(child["spans"])
    start = child["t_ready"] - r["t_spawn"]
    return {"self": self_t, "start": start,
            "unaccounted": r["wall"] - start - sum(self_t.values())}


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its operations."""
    totals = {name: 0.0 for name in PER_LAYER_UNITS}
    counts: dict[str, float] = {}
    norm_error = 0.0
    for r in p["ops"].values():
        if "child" not in r:
            continue
        b = op_breakdown(r)
        for metric, layer in SELF_TIME.items():
            totals[metric] += b["self"].get(layer, 0.0)
        totals["process.start_s"] += b["start"]
        totals["trace.unaccounted_s"] += b["unaccounted"]
        if r["op"].placement is None:
            totals["cli.output_bytes"] += r["out_bytes"]
        for s in r["child"]["spans"]:
            for k, v in s["counts"].items():
                key = f"{s['layer']}:{k}"
                if k == "norm_error":
                    norm_error = max(norm_error, v)
                else:
                    counts[key] = counts.get(key, 0) + v
    est_trials = counts.get("montecarlo.estimate:trials", 0)
    deph_trials = counts.get("montecarlo.dephase:trials", 0)
    scanned = counts.get("control.enumerate:scanned", 0)
    kept = counts.get("control.enumerate:kept", 0)
    totals.update({
        "montecarlo.trials_per_s": _ratio(est_trials,
                                          totals["montecarlo.self_s"]),
        "montecarlo.dephase_trials_per_s": _ratio(
            deph_trials, totals["montecarlo.dephase_s"]),
        "bayes.sampler_grid_points": counts.get(
            "bayes.sampler_build:grid_points", 0),
        "bayes.sampler_norm_error": norm_error,
        "bayes.draws_per_s": _ratio(counts.get("bayes.sample:draws", 0),
                                    totals["bayes.sample_s"]),
        "control.configs_scanned": scanned,
        "control.configs_kept": kept,
        "control.keep_ratio": _ratio(kept, scanned),
        "placement.combos_scanned": counts.get(
            "placement.enumerate_levels:combos", 0),
        "placement.levels_found": counts.get(
            "placement.enumerate_levels:levels", 0),
    })
    return totals


def mc_span(r: dict) -> float:
    """Time an operation spent inside its Monte-Carlo calls."""
    return sum(s["end"] - s["start"] for s in r["child"]["spans"]
               if s["layer"] in MC_LAYERS)


def thread_speedup(run: dict, traced: list[dict]) -> float:
    """Monte-Carlo time of the re-run at fewer threads over that of the
    same operation in the traced passes (median)."""
    for r in run["reruns"].values():
        base = [p["ops"][r["op"].same_as] for p in traced]
        if "child" in r and all("child" in b for b in base):
            return _ratio(mc_span(r), statistics.median(map(mc_span, base)))
    return 0.0


def per_layer(run: dict) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    per_pass = [layer_metrics(p) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in PER_LAYER_UNITS}
    out["montecarlo.thread_speedup"] = thread_speedup(run, traced)
    out["trace.overhead_frac"] = (sum(op_medians(traced, "wall").values())
                                  / sum(op_medians(plain, "wall").values())
                                  - 1.0)
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def provenance(bench: Bench, seconds: float) -> dict:
    return {
        "workload": bench.workload, "seed": bench.seed, "seconds": seconds,
        "trace": bench.trace, "nproc": usable_cores(),
        "os_cpu_count": os.cpu_count(),
        "DFS_SENSE_THREADS": bench.threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "git_commit": git_commit(),
        "client": "closed loop, 1 client, one operation per fresh process",
        "ops": {op.name: dict(op.sizes, threads=op.threads or bench.threads)
                for op in bench.ops + bench.reruns},
    }


def print_report(bench: Bench, run: dict, metrics: dict) -> None:
    n_plain = sum(1 for p in run["passes"] if not p["traced"])
    n_traced = len(run["passes"]) - n_plain
    print(f"== {bench.workload} (seed {bench.seed}): {n_plain} untraced and "
          f"{n_traced} traced passes, {len(run['setup'])} set-up samples; "
          f"{bench.attempted} operations, {bench.failed} failed")
    print("  pass walls (s): " + ", ".join(
        f"{p['wall']:.3f}{' traced' if p['traced'] else ''}"
        for p in run["passes"]))
    plain = [p for p in run["passes"] if not p["traced"]]
    walls, rss = op_medians(plain, "wall"), op_medians(plain, "rss_mb")
    trials = op_medians(plain, "trials")
    for name in walls:
        print(f"  op {name}: median wall {walls[name]:.3f} s, peak RSS "
              f"{rss[name]:.1f} MB, trials {trials[name]:g}")
    for name, r in run["reruns"].items():
        same = not any(c == "seed-contract" for c, _ in r["problems"])
        print(f"  re-run {name} at DFS_SENSE_THREADS={r['op'].threads}: wall "
              f"{r['wall']:.3f} s, output "
              f"{'identical to' if same else 'DIFFERS from'} {r['op'].same_as}")
    if bench.trace:
        for p in run["passes"]:
            if not p["traced"]:
                continue
            for name, r in p["ops"].items():
                if "child" not in r:
                    continue
                b = op_breakdown(r)
                parts = ", ".join(f"{k} {v:.4f}" for k, v in
                                  sorted(b["self"].items(), key=lambda kv: -kv[1]))
                print(f"  {name}: wall {r['wall']:.4f} s = start "
                      f"{b['start']:.4f} + self [{parts}] + unaccounted "
                      f"{b['unaccounted']:.4f}")
        units, samples = PER_LAYER_UNITS, f"median of {n_traced} traced passes"
    else:
        units = END_TO_END_UNITS
        samples = f"per-operation medians of {n_plain} passes"
    for name, value in metrics.items():
        n = f"median of {len(run['setup'])} processes" if name == "setup_s" \
            else samples
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} ({n})")
    print("  waiting time: none measured (one client, nothing queues)")


def run_workload(name: str, args, work: Path) -> dict:
    bench = Bench(name, args.seed, bool(args.trace), work)
    print("provenance " + json.dumps(provenance(bench, args.seconds)),
          flush=True)
    run = bench.run(args.seconds)
    if args.trace:
        metrics = per_layer(run)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(run)
        units = END_TO_END_UNITS
    print_report(bench, run, metrics)
    return {"correct": bench.unknown_failures == 0,
            "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dfs_sense" / "cli.py").is_file():
        log(f"perfbench: no dfs_sense sources under {SRC}")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        results = {}
        for name in names:
            (work / name).mkdir()
            results[name] = run_workload(name, args, work / name)
            if len(names) > 1:
                print(f"result {name} " + json.dumps(results[name]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
