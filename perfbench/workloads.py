"""The benchmark's workloads and the correctness gate for their reports.

Each workload is one `bplab run` config; the benchmark's seed becomes the
config's seed and nothing else, so one seed always gives one config.  The
three configs use different kinds of triple, because each kind sends the
time to a different layer (BENCHMARK.json says which).
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math

WORKLOADS = {
    "gauss-semicircle": {
        "model": "hermitian",
        "triple": {"preset": "gaussian", "mean": 0.0, "var": 1.0},
        "dims": [200, 400, 800],
        "trials_per_dim": 6,
        "outputs": {
            "moments": {"kmax": 4},
            "cauchy_distance": {"target": {"law": "semicircle", "params": [0.0, 1.0]}},
        },
    },
    "poisson-mp": {
        "model": "hermitian",
        "triple": {"preset": "poisson", "lambda": 0.5},
        "dims": [100, 200, 400],
        "trials_per_dim": 6,
        "outputs": {
            "moments": {"kmax": 4},
            "histogram": {"bins": 40},
            "cauchy_distance": {
                "target": {"law": "marchenko_pastur", "params": [0.5]},
                "grid": {"real_step": 4.0, "imaginary_levels": [1.0]},
            },
        },
    },
    "cauchy-nonherm": {
        "model": "nonhermitian",
        "triple": {"preset": "cauchy", "a": 1.0, "nodes": 1001},
        "inner_cut": 0.05,
        "dims": [200],
        "trials_per_dim": 6,
        "outputs": {
            "histogram": {"bins": 40},
            "cauchy_distance": {"target": {"law": "cauchy", "params": [1.0]}},
        },
    },
}

# Spans that must record calls on each workload: the layers that its config
# needs.  A name wrapped in the wrong module reads as zero calls, and the
# traced run fails on it.
DECLARED_SPANS = {
    "gauss-semicircle": (
        "levy.setup", "levy.truncate", "rng.normal", "hermitian.sample",
        "hermitian.gaussian_block", "spectra.eigensolve", "spectra.moments",
        "spectra.distance", "spectra.transform",
    ),
    "poisson-mp": (
        "levy.setup", "levy.truncate", "rng.normal", "sphere.vectors", "hermitian.sample",
        "hermitian.rank_one", "spectra.eigensolve", "spectra.moments", "spectra.histogram",
        "spectra.distance", "spectra.transform",
    ),
    "cauchy-nonherm": (
        "levy.setup", "levy.truncate", "levy.is_symmetric", "rng.normal", "sphere.vectors",
        "nonhermitian.sample", "nonhermitian.ginibre", "nonhermitian.rank_one",
        "nonhermitian.singular_values", "spectra.histogram", "spectra.distance",
        "spectra.transform",
    ),
}

# Two-sided false-alarm rate of each gate comparison for a correct sampler.
# The tolerance is the Student t quantile at this rate with trials - 1
# degrees of freedom, in units of the report's own standard error.
GATE_ALPHA = 1e-4


def config(name: str, seed: int) -> dict:
    doc = copy.deepcopy(WORKLOADS[name])
    doc["seed"] = seed
    return doc


def gate_z(trials: int) -> float:
    from scipy import stats

    return float(stats.t.ppf(1.0 - GATE_ALPHA / 2.0, trials - 1))


def check_report(doc: dict, report, as_json: str, as_csv: str, free_moments) -> list[str]:
    """Problems with one report of the workload config `doc`; empty when the
    report is correct.

    - Every row is present and finite, the JSON and CSV forms carry the
      same rows, and each histogram holds unit mass.
    - At the largest dim, each moment m_k lies within z standard errors of
      the free image m_k from `psi_image_moments` (`free_moments`).
    - At the largest dim, the pooled transform distance to the target law
      lies within z standard errors of the per-trial distance from zero.
    """
    problems = []
    outputs = doc["outputs"]
    kmax = outputs.get("moments", {}).get("kmax")
    stats = [f"m{k}" for k in range(1, (kmax or 0) + 1)]
    if "cauchy_distance" in outputs:
        stats += ["cauchy_distance", "cauchy_distance_pooled"]
    expected = [(d, s) for d in doc["dims"] for s in stats]
    got = [(r["dim"], r["stat_name"]) for r in report.rows]
    if got != expected:
        return [f"rows {got} != expected {expected}"]
    means = [r["mean"] for r in report.rows]
    if [r["mean"] for r in json.loads(as_json)["rows"]] != means:
        problems.append("JSON rows differ from the report")
    if [float(r["mean"]) for r in csv.DictReader(io.StringIO(as_csv))] != means:
        problems.append("CSV rows differ from the report")
    rows = {(r["dim"], r["stat_name"]): r for r in report.rows}
    for r in report.rows:
        if not math.isfinite(r["mean"]) or (
            r["stat_name"] != "cauchy_distance_pooled" and not math.isfinite(r["stderr"])
        ):
            problems.append(f"non-finite row {r}")
    if "histogram" in outputs:
        for d in doc["dims"]:
            hist = report.histograms.get(str(d))
            mass = sum(m for _, m in hist) if hist else 0.0
            if not hist or len(hist) != outputs["histogram"]["bins"] or abs(mass - 1.0) > 1e-9:
                problems.append(f"histogram at dim {d} is malformed (mass {mass})")

    d = max(doc["dims"])
    z = gate_z(doc["trials_per_dim"])
    if kmax:
        for k, target in enumerate(free_moments, start=1):
            row = rows[(d, f"m{k}")]
            tol = z * row["stderr"] + 1e-12 * (1.0 + abs(target))
            if not abs(row["mean"] - target) <= tol:
                problems.append(
                    f"m{k} at dim {d}: {row['mean']:.6g} vs free image {target:.6g}, "
                    f"tolerance {tol:.3g} ({z:.3g} stderr)"
                )
    if "cauchy_distance" in outputs:
        pooled = rows[(d, "cauchy_distance_pooled")]["mean"]
        tol = z * rows[(d, "cauchy_distance")]["stderr"]
        if not pooled <= tol:
            problems.append(
                f"pooled transform distance at dim {d}: {pooled:.4g} > {tol:.4g} "
                f"({z:.3g} stderr)"
            )
    return problems
