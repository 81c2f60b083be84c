"""bplab benchmark: times whole `bplab run` configs in-process.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics of one workload: set-up
time and run time, both scaled to the reference host's speed (hostspeed.py),
and peak memory.  With --trace 1 it reports self time and
counts per layer from a traced run, and the tracing overhead.  Either way
the run fails if a report fails its correctness gate (workloads.py).  The
last line of stdout is the result object; the line before it holds the
environment.  `--workload all` runs every workload in its own process and
prints a table.

The program is imported from `src/` beside this directory, with
`BPLAB_THREADS=1` (the trial pool is not measured) and BLAS on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-ups per run, each in a fresh interpreter; setup_s is their scaled median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# One BLAS thread: on a host with a couple of shared cores, a second thread
# makes every BLAS call wait for the slower core.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time limit for one workload's process under --workload all.
WORKLOAD_TIMEOUT_S = 600


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10, check=True).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = None
    blas_env = {k: os.environ.get(k) for k in BLAS_THREAD_ENV}
    nproc = len(os.sched_getaffinity(0))
    set_threads = blas_env["OPENBLAS_NUM_THREADS"] or blas_env["OMP_NUM_THREADS"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "machine": platform.machine(),
        "nproc": nproc,
        "l3_bytes": l3,
        "BPLAB_THREADS": os.environ.get("BPLAB_THREADS"),
        "blas_thread_env": blas_env,
        "blas_threads": int(set_threads) if set_threads else nproc,
    }


def _untraced(name, fn):
    return fn


def _serialize(report):
    return report.to_json(), report.to_csv()


class Workload:
    """One workload config, run in this process, with its correctness gate."""

    def __init__(self, name: str, seed: int):
        from bplab.cli import ExperimentConfig, run
        from bplab.levy import triple_from_spec
        from bplab.spectra import psi_image_moments

        self.doc = workloads.config(name, seed)
        self._from_dict = ExperimentConfig.from_dict
        self._run = run
        triple = triple_from_spec(self.doc["triple"])
        self.atoms = len(triple.G.atoms)
        kmax = self.doc["outputs"].get("moments", {}).get("kmax")
        self.free_moments = psi_image_moments(triple, kmax).values if kmax else ()
        self.config = self._from_dict(self.doc)
        self.reference = None  # the first report's JSON; later ones must equal it

    def once(self, parse: bool = False, wrap=_untraced) -> tuple[float, list[str]]:
        """One `run` through the serialized report: its wall time and the
        gate's problems.  With parse, `from_dict` runs (and is timed) too;
        wrap(span, fn) lets a tracer time the benchmark's own calls."""
        start = time.perf_counter()
        try:
            config = wrap("cli.self", self._from_dict)(self.doc) if parse else self.config
            report = wrap("cli.self", self._run)(config)
            as_json, as_csv = wrap("cli.report", _serialize)(report)
        except Exception as exc:  # a run that raises is a failed operation
            return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        problems = workloads.check_report(self.doc, report, as_json, as_csv, self.free_moments)
        if self.reference is None:
            self.reference = as_json
        elif as_json != self.reference:
            problems.append("report differs from the first one of the same seed")
        return elapsed, problems


def measure_setup(doc: dict) -> tuple[list[float], list[float]]:
    """Set-up times, each in a fresh interpreter, and the import probe's
    times just before and after each."""
    from hostspeed import import_probe

    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(doc)]
    times, probes = [], [import_probe(SETUP_TIMEOUT_S)]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(out.stdout.split()[-1]))
        probes.append(import_probe(SETUP_TIMEOUT_S))
    return times, probes


def _repeat(step, deadline: float) -> None:
    """Call step(), which returns its duration, at least once and then until
    the deadline, starting no call that would likely end past it."""
    durations = [step()]
    while time.perf_counter() + statistics.median(durations) <= deadline:
        durations.append(step())


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Set-up samples, a warm-up run, then timed runs, each followed by the
    host probe, all within `seconds`."""
    from hostspeed import IMPORT_REFERENCE_S, RUN_REFERENCE_S, HostProbe, scaled

    deadline = time.perf_counter() + seconds
    setup, import_probes = measure_setup(workloads.config(name, seed))
    wl = Workload(name, seed)
    probe = HostProbe()
    times, probes, failures = [], [], []

    def step():
        elapsed, problems = wl.once()
        if problems:
            failures.append(problems)
        times.append(elapsed)
        probes.append(probe())
        return elapsed + probes[-1]

    step()
    warm_up = times.pop()
    _repeat(step, deadline)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": 1 + len(times),
        "failures": failures,
        "metrics": {
            "setup_s": (scaled(setup, import_probes, IMPORT_REFERENCE_S), "s"),
            "run_ref_s": (scaled(times, probes, RUN_REFERENCE_S), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "samples": {"setup_s": setup, "import_probe_s": import_probes, "warm_up_s": warm_up,
                    "run_s": times, "probe_s": probes},
    }


def per_layer(name: str, seed: int, seconds: float) -> dict:
    """After a warm-up run, alternate untraced and traced runs (each with
    `from_dict`) for the given time; per-layer self times are medians over
    the traced runs."""
    from tracing import SPANS, Tracer

    deadline = time.perf_counter() + seconds
    wl = Workload(name, seed)
    tracer = Tracer()
    plain, traced, self_times, failures = [], [], [], []
    counts = None

    def step():
        nonlocal counts
        elapsed, problems = wl.once(parse=True)
        plain.append(elapsed)
        if problems:
            failures.append(problems)
        tracer.reset()
        with tracer.installed():
            elapsed, problems = wl.once(parse=True, wrap=tracer.span)
        traced.append(elapsed)
        self_times.append(dict(tracer.self_s))
        rep_counts = {"calls": dict(tracer.calls), "work": dict(tracer.work)}
        counts = counts or rep_counts
        if rep_counts != counts:
            problems.append(f"traced counts differ between runs: {rep_counts} != {counts}")
        missing = [s for s in workloads.DECLARED_SPANS[name] if not tracer.calls[s]]
        if missing:
            problems.append(f"declared spans recorded no calls: {missing}")
        if problems:
            failures.append(problems)
        return plain[-1] + traced[-1]

    _, problems = wl.once(parse=True)
    if problems:
        failures.append(problems)
    _repeat(step, deadline)
    calls = counts["calls"]

    spans = sorted({span for _, _, span, _ in SPANS} | {"cli.self", "cli.report"})
    metrics = {
        f"{s}_s": (statistics.median(t.get(s, 0.0) for t in self_times), "s") for s in spans
    }
    metrics.update({
        "levy.atoms": (wl.atoms, "count"),
        "levy.truncate.calls": (calls.get("levy.truncate", 0), "count"),
        "levy.is_symmetric.calls": (calls.get("levy.is_symmetric", 0), "count"),
        "rng.normals": (counts["work"].get("rng.normal", 0), "count"),
        "sphere.vectors": (counts["work"].get("sphere.vectors", 0), "count"),
        "hermitian.checks": (calls.get("hermitian.checks", 0), "count"),
        "spectra.transform.calls": (calls.get("spectra.transform", 0), "count"),
        "trace.run_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    })
    return {
        "attempted": 1 + len(plain) + len(traced),
        "failures": failures,
        "metrics": metrics,
        "samples": {"untraced_s": plain, "traced_s": traced},
    }


def run_all(args) -> int:
    """Each workload in its own process; prints a table, then the result."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: exit {out.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    width = max(map(len, names))
    print(f"{'metric':<{width}}  unit   " + "  ".join(f"{n:>16}" for n in results))
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        cells = [f"{r['metrics'][m]['value']:>16.6g}" if m in r["metrics"] else " " * 16
                 for r in results.values()]
        print(f"{m:<{width}}  {unit:<5}  " + "  ".join(cells))
    print(f"{'failed_ops':<{width}}  count  " + "  ".join(
        f"{str(r['failed']) + '/' + str(r['attempted']):>16}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bplab" / "__init__.py").is_file():
        print(f"error: no bplab source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import bplab

    if Path(bplab.__file__).resolve().parent != (SRC / "bplab").resolve():
        print(f"error: imported bplab from {bplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds)
    for problems in result["failures"]:
        print("FAILED:", "; ".join(problems), file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "config": workloads.config(args.workload, args.seed),
                      "samples": result["samples"], "environment": environment()}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


# The program must come from this checkout, with the trial pool off and BLAS
# on one thread, before anything imports it or numpy.
os.environ["BPLAB_THREADS"] = "1"
os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
sys.path[:0] = [str(HERE), str(SRC)]
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
