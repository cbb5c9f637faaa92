"""Golden corpus: a sha256 digest of every benchmark workload's CLI output.

    python3 tests/golden_corpus.py            # recompute and compare
    python3 tests/golden_corpus.py --write    # regenerate both stored files

The invocations are the distinct CLI operations of perfbench/workloads.py
(its scenario documents, read as they are) at seeds 0-4, each with
``--format csv`` and ``--format json``, plus ``table1`` in both formats. The
``sweep --axis L`` and ``--axis Delta`` of mc-narrow's flat and fixed-time
documents run at the same seeds and formats, and ``sweep --axis N`` (which
reads no scenario) once per format. Each runs in this process through
``dfs_sense.cli.main``; its digest covers the exit code, stdout and
stderr. Operations that re-run another one's argv
(``same_as``) and library calls (``placement``) are left out.

Beside the digests, golden_corpus_outputs.json.xz keeps every
invocation's output itself, lzma-compressed (about 40 kB), so that a
mismatch prints a unified diff of the first differing invocation.

The digests depend on numpy's floating point (eigh, FFT and the BLAS
beneath them), so the map records the numpy version it was made with; a
different version fails the comparison with that message. A change that
moves output on purpose regenerates the map and says so; the map's diff
names what moved.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import lzma
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAP_PATH = Path(__file__).resolve().parent / "golden_corpus.json"
OUTPUTS_PATH = MAP_PATH.with_name("golden_corpus_outputs.json.xz")
SEEDS = range(5)
FORMATS = ("csv", "json")
# the L and Delta sweeps run on mc-narrow's flat and fixed-time documents
SWEPT = {("mc-narrow", "ssf-1e6"), ("mc-narrow", "fixed-time")}
SWEEP_GRIDS = {"L": "2:128:8", "Delta": "0.5:4:8"}
SWEEP_N = ("sweep", "--axis", "N", "--grid", "4:20:9")


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.WORKLOADS


def invocations(work: Path) -> dict[str, list[str]]:
    """Key -> argv; scenario documents are written under work."""
    out = {}
    for fmt in FORMATS:
        out[f"table1/{fmt}"] = ["table1", "--format", fmt]
        out[f"sweep-N/{fmt}"] = [*SWEEP_N, "--format", fmt]
    for name, make in _workloads().items():
        for seed in SEEDS:
            for op in make(seed):
                if op.same_as is not None or op.placement is not None:
                    continue
                path = work / f"{name}-{op.name}-{seed}.json"
                path.write_text(json.dumps(op.doc))
                runs = {op.name: op.argv}
                if (name, op.name) in SWEPT:
                    runs.update({f"{op.name}/sweep-{axis}":
                                 ("sweep", "--axis", axis, "--grid", grid)
                                 for axis, grid in SWEEP_GRIDS.items()})
                for key, argv in runs.items():
                    for fmt in FORMATS:
                        out[f"{name}/{key}/seed{seed}/{fmt}"] = [
                            *argv, "--scenario", str(path), "--format", fmt]
    return out


def capture(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main call."""
    from dfs_sense import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, stdout: str, stderr: str) -> str:
    h = hashlib.sha256(f"{code}\n".encode())
    for text in (stdout, stderr):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def compute(keys=None, run=None) -> dict:
    """The corpus map over keys (default every invocation), with each
    invocation's [exit code, stdout, stderr] under "outputs"."""
    run = run or capture
    with tempfile.TemporaryDirectory() as tmp:
        todo = invocations(Path(tmp))
        outputs = {key: list(run(argv)) for key, argv in todo.items()
                   if keys is None or key in keys}
    return {"numpy": np.__version__,
            "digests": {key: digest(*out) for key, out in outputs.items()},
            "outputs": outputs}


def load() -> dict:
    return json.loads(MAP_PATH.read_text())


def load_outputs() -> dict:
    return json.loads(lzma.decompress(OUTPUTS_PATH.read_bytes()))


def diff(key: str, stored_outputs: dict, computed: dict) -> str:
    """Unified diff of the stored and computed output of one invocation
    (exit code, then stdout, then stderr); a side without the key is empty."""
    def lines(out):
        if out is None:
            return []
        code, stdout, stderr = out
        return [f"exit code {code}\n", *stdout.splitlines(True),
                "-- stderr --\n", *stderr.splitlines(True)]

    return "".join(difflib.unified_diff(
        lines(stored_outputs.get(key)), lines(computed["outputs"].get(key)),
        f"stored/{key}", f"computed/{key}"))


def mismatches(stored: dict, computed: dict) -> list[str]:
    """Keys whose digest differs or is missing on one side; ValueError when
    the two maps were made with different numpy versions."""
    if stored["numpy"] != computed["numpy"]:
        raise ValueError(f"the golden corpus was made with numpy "
                         f"{stored['numpy']}, this is numpy "
                         f"{computed['numpy']}: regenerate it with "
                         f"python3 tests/golden_corpus.py --write")
    want, got = stored["digests"], computed["digests"]
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    computed = compute()
    if argv:
        outputs = computed.pop("outputs")
        MAP_PATH.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n")
        OUTPUTS_PATH.write_bytes(lzma.compress(
            json.dumps(outputs, indent=0, sort_keys=True).encode()))
        print(f"wrote {len(computed['digests'])} digests to {MAP_PATH} "
              f"and their outputs to {OUTPUTS_PATH}")
        return 0
    bad = mismatches(load(), computed)
    for key in bad:
        print(f"differs: {key}")
    if bad:
        print(diff(bad[0], load_outputs(), computed), end="")
    print(f"{len(computed['digests']) - len(bad)} of "
          f"{len(computed['digests'])} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
