"""The repository benchmark: whole placement sweeps, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload ilp-tight --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; why each
workload exists and which end-to-end metric each layer metric should move
is in ``perfbench/README.md``.  One run:

1. records the environment (cores, BLAS library, the thread variables as
   found, library versions, git commit) and prints it as an ``env`` line;
2. times set-up (``import repro``, spec enumeration, engine construction)
   in several fresh processes and keeps the median;
3. runs every (benchmark, level) program of the workload once on the
   interpreted simulator, ``Simulator(decode_once=False)``, as the oracle
   for return values;
4. fleet-mixed only: runs the sweep once in-process as the reference store;
5. ``--trace 0``: runs sweeps back to back for ``--seconds``, each in a
   fresh driver process, and reports the end-to-end metrics.
   ``--trace 1``: runs one untraced sweep, then traced sweeps for
   ``--seconds``, and reports the per-layer metrics and the trace
   overhead;
6. checks every cell's baseline and placed return values against the
   oracle, every store against the run's first store (and fleet-mixed's
   against the in-process reference), and the first store against the
   first store of every earlier run of the same workload, seed and source
   tree in this checkout.  Each mismatching cell counts as failed.

The last line of standard output is the JSON result.  The benchmark never
sets or clears a BLAS or OpenMP thread variable: the program runs exactly
as a user runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, sweep_spec  # noqa: E402

#: Fresh-process set-up probes per run; the median is reported.
SETUP_PROBES = 7
#: Longest a driver process may take before the run is abandoned.
DRIVER_TIMEOUT_S = 150.0
#: Thread-count variables recorded exactly as found.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "GOTO_NUM_THREADS")
WORK_DIR = ROOT / ".perfbench"


# --------------------------------------------------------------------------- #
# Environment record
# --------------------------------------------------------------------------- #
def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` inside *root*, without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref} unresolved)"


def environment() -> Dict:
    import importlib.metadata

    import numpy

    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_variables": {name: os.environ.get(name, "unset")
                             for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------- #
# Correctness checks
# --------------------------------------------------------------------------- #
def oracle_returns(programs: Sequence) -> Dict:
    """Return value of each (benchmark, level) on the interpreted simulator."""
    from repro.engine.cache import ProgramCache
    from repro.sim import Simulator

    cache = ProgramCache()
    return {(benchmark, level): Simulator(
                cache.get_benchmark(benchmark, level),
                decode_once=False).run().return_value
            for benchmark, level in programs}


def return_mismatches(returns: Dict, oracle: Dict) -> List[str]:
    """Cell keys whose baseline or placed return value differs from the
    oracle's for its program."""
    bad = []
    for key, (benchmark, level, baseline, placed) in sorted(returns.items()):
        expected = oracle[(benchmark, level)]
        if baseline != expected or placed != expected:
            bad.append(key)
    return bad


def store_mismatches(reference: Path, candidate: Path) -> int:
    """Cells in which two keyed stores differ; 0 when byte-identical.

    When the bytes differ but every record agrees (the difference lies in
    the metadata or the layout), every cell of *candidate* counts.
    """
    expected, actual = reference.read_bytes(), candidate.read_bytes()
    if expected == actual:
        return 0
    try:
        want = {r["cell_key"]: r for r in json.loads(expected)["records"]}
        have = {r["cell_key"]: r for r in json.loads(actual)["records"]}
    except (ValueError, KeyError, TypeError):
        return max(1, expected.count(b'"cell_key"'))
    differing = sum(1 for key in want.keys() | have.keys()
                    if want.get(key) != have.get(key))
    return differing or max(1, len(have))


def source_digest(root: Path) -> str:
    """Digest of every file under ``src``: the code a stored digest is for."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
def child_env(work: Path) -> Dict[str, str]:
    """The caller's environment plus the source path and a private TMPDIR.

    Thread variables pass through untouched: the benchmark neither sets
    nor clears them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    return env


def run_driver(arguments: List[str], work: Path) -> str:
    """Run ``driver.py`` in a fresh process group and return its stdout.

    Whatever is left of the group afterwards, and the whole group on a
    timeout, pool and fleet workers included, is killed.
    """
    command = [sys.executable, str(HERE / "driver.py"), *arguments]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=child_env(work), cwd=ROOT,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"driver {arguments[:2]} timed out")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RuntimeError(f"driver {arguments[:2]} exited "
                           f"{process.returncode}")
    return stdout


def driver_result(role: str, args, work: Path, out: str,
                  extra: Sequence[str] = ()) -> Dict:
    out_dir = work / out
    run_driver(["--role", role, "--workload", args.workload,
                "--seed", str(args.seed), "--out", str(out_dir), *extra], work)
    result = json.loads((out_dir / "result.json").read_text())
    result["dir"] = str(out_dir)
    return result


def sweep_loop(args, work: Path, label: str,
               extra: Sequence[str] = ()) -> List[Dict]:
    """Sweeps in fresh driver processes, back to back, while the next one
    is predicted (by the median so far) to end within ``--seconds``."""
    sweeps: List[Dict] = []
    began = time.perf_counter()
    while True:
        sweeps.append(driver_result("sweep", args, work,
                                    f"{label}-{len(sweeps)}", extra))
        typical = statistics.median(s["seconds"] for s in sweeps)
        if time.perf_counter() - began + typical > args.seconds:
            return sweeps


def cell_rate(sweeps: Sequence[Dict]) -> float:
    """Completed cells per second of sweep wall time."""
    return (sum(s["cells"] for s in sweeps)
            / sum(s["seconds"] for s in sweeps))


def traced_spans(sweeps: Sequence[Dict]) -> List[Dict]:
    """The spans of every traced sweep; pids are tagged with the sweep, so
    a pid reused by a later sweep's process stays distinct."""
    from layertrace import load_spans

    spans = []
    for index, sweep in enumerate(sweeps):
        for span in load_spans(Path(sweep["dir"]) / "trace"):
            span["pid"] = f"{index}:{span['pid']}"
            spans.append(span)
    return spans


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def measure(args, work: Path, declared: Dict) -> Dict:
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    setup = [json.loads(run_driver(["--role", "setup", "--workload",
                                    args.workload, "--seed", str(args.seed)],
                                   work))["setup_s"]
             for _ in range(SETUP_PROBES)]

    spec = sweep_spec(args.workload, args.seed)
    programs = sorted({(c.spec.benchmark, c.spec.opt_level)
                       for c in spec.cells()})
    oracle = oracle_returns(programs)

    reference = (driver_result("reference", args, work, "reference")
                 if workload.mode == "fleet" else None)
    if args.trace:
        untraced = [driver_result("sweep", args, work, "untraced")]
        traced = sweep_loop(args, work, "traced", ["--trace"])
    else:
        untraced, traced = sweep_loop(args, work, "sweep"), []
    sweeps = untraced + traced

    # ---- correctness ------------------------------------------------- #
    failed = set()
    for result in ([reference] if reference else []) + sweeps:
        failed.update(return_mismatches(result["returns"], oracle))
    first = Path((reference or sweeps[0])["store"])
    failures = len(failed) + sum(store_mismatches(first, Path(s["store"]))
                                 for s in sweeps)
    state = WORK_DIR / "state" / (
        f"{args.workload}-seed{args.seed}-{source_digest(ROOT)}.json")
    if state.exists():
        earlier = Path(json.loads(state.read_text())["store"])
        failures += store_mismatches(earlier, first)
    else:
        state.parent.mkdir(parents=True, exist_ok=True)
        kept = state.with_suffix(".store.json")
        shutil.copyfile(first, kept)
        state.write_text(json.dumps({"store": str(kept)}))
    attempted = sum(s["cells"] for s in sweeps)

    # ---- metrics ----------------------------------------------------- #
    if args.trace:
        from layertrace import reduce_spans

        metrics = reduce_spans(traced_spans(traced), len(traced),
                               [s["start"] for s in traced])
        metrics["store.bytes"] = statistics.median(s["bytes"] for s in traced)
        metrics["trace.cells_per_s"] = cell_rate(traced)
        metrics["trace.untraced_cells_per_s"] = cell_rate(untraced)
        metrics["trace.overhead"] = (metrics["trace.untraced_cells_per_s"]
                                     / metrics["trace.cells_per_s"] - 1.0)
        wanted = declared["per_layer"]
    else:
        records = json.loads(first.read_text())["records"]
        metrics = {
            "cells_per_s": cell_rate(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(s["peak_rss_kb"] for s in untraced) / 1024,
            "energy_saving_mean": -statistics.fmean(
                r["energy_change"] for r in records),
            "time_overhead_mean": statistics.fmean(
                r["time_change"] for r in records),
        }
        wanted = declared["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {len(sweeps)} sweeps of "
          f"{sweeps[0]['cells']} cells, {failures} failed", flush=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": failures == 0, "attempted": attempted,
            "failed": min(failures, attempted),
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = WORK_DIR / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
