"""Experiment runner and command line interface.

Configs are JSON documents; trials are the unit of parallel work, each one
owning the stream whose id is its trial index, and aggregation is a
deterministic fold over sorted trial indices, so reports are bit-identical
for a given (config, seed) regardless of worker count.

argparse, csv and the thread pool are imported where they are first used, so
importing this module and running a config on one worker loads none of them.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, spectra
from .hermitian import BLOCK, HermitianSample, _decompose, _rank_one_terms, sample_P_many
from .nonhermitian import sample_L_many, symmetrized_singular_law
from .levy import LevyTriple, _json_float, is_symmetric, triple_from_spec
from .rng import RngStream
from .spectra import (
    MAX_ENTRIES,
    MAX_FLOPS,
    MAX_KMAX,
    EmpiricalDistribution,
    GridSpec,
    ReferenceLaw,
    esd,
    empirical_moments,
    cauchy_sup_distance,
    psi_image_moments,
    reference_moments,
    marchenko_pastur,
)

__all__ = ["ExperimentConfig", "Report", "run", "projection_experiment", "main"]


class ConfigError(ValueError):
    """Invalid experiment config; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str  # "hermitian" | "nonhermitian"
    triple_spec: dict
    triple: LevyTriple  # parsed from triple_spec
    dims: tuple[int, ...]
    trials_per_dim: int
    seed: int
    moments_kmax: int | None = None
    histogram_bins: int | None = None
    distance_target: ReferenceLaw | None = None
    distance_grid: GridSpec | None = None
    inner_cut: float | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("$", "config must be an object")
        model = doc.get("model")
        if model not in ("hermitian", "nonhermitian"):
            raise ConfigError("model", "must be 'hermitian' or 'nonhermitian'")
        if "triple" not in doc:
            raise ConfigError("triple", "missing")
        dims = doc.get("dims")
        if not isinstance(dims, list) or not dims or any(
            not _is_int(d) or d < 1 for d in dims
        ) or dims != sorted(dims):
            raise ConfigError("dims", "must be a nonempty ascending list of positive ints")
        trials = doc.get("trials_per_dim", 1)
        if not _is_int(trials) or trials < 1:
            raise ConfigError("trials_per_dim", "must be a positive integer")
        seed = doc.get("seed", 0)
        if not _is_int(seed):
            raise ConfigError("seed", "must be an integer")
        outputs = doc.get("outputs", {"moments": {"kmax": 4}})
        if not isinstance(outputs, dict) or not outputs:
            raise ConfigError("outputs", "must be a nonempty object")
        kmax = None
        bins = None
        target = grid = None
        for key, val in outputs.items():
            if key in ("moments", "histogram") and not isinstance(val, dict):
                raise ConfigError(f"outputs.{key}", "must be an object")
            if key == "moments":
                kmax = val.get("kmax", 4)
                if not _is_int(kmax) or not 1 <= kmax <= MAX_KMAX:
                    raise ConfigError("outputs.moments.kmax",
                                      f"must be an integer in [1, {MAX_KMAX}]")
            elif key == "histogram":
                bins = val.get("bins", 50)
                if not _is_int(bins) or not 1 <= bins <= MAX_ENTRIES:
                    raise ConfigError("outputs.histogram.bins",
                                      f"must be an integer in [1, {MAX_ENTRIES}]")
            elif key == "cauchy_distance":
                target, grid = _parse_distance_target(val)
            else:
                raise ConfigError(f"outputs.{key}", "unknown output")
        cut = doc.get("inner_cut")
        if cut is not None:
            if isinstance(cut, bool) or not isinstance(cut, (int, float)) or not (
                0 < cut < math.inf
            ):
                raise ConfigError("inner_cut", "must be a positive finite number")
            cut = float(cut)
        triple = _parse_triple(doc["triple"], model)
        _check_sample_budget(model, triple, cut, dims, "dims", trials)
        return cls(
            model=model,
            triple_spec=doc["triple"],
            triple=triple,
            dims=tuple(dims),
            trials_per_dim=trials,
            seed=seed,
            moments_kmax=kmax,
            histogram_bins=bins,
            distance_target=target,
            distance_grid=grid,
            inner_cut=cut,
        )


def _parse_triple(spec, model: str = "hermitian") -> LevyTriple:
    """The triple of a config or of a command line spec, named `triple` in
    errors; the nonhermitian model needs a symmetric one."""
    try:
        triple = triple_from_spec(spec)
    except ValueError as exc:
        raise ConfigError("triple", str(exc)) from exc
    if model == "nonhermitian" and not is_symmetric(triple):
        raise ConfigError("triple", "nonhermitian model requires a symmetric triple")
    return triple


# The fixed cost of one trial at one dim, in the multiply-adds of MAX_FLOPS:
# the decomposition, the draws and the statistics took 140-450 us a trial at
# d = 1, about 2**20 multiply-adds at the rate MAX_FLOPS assumes.
_TRIAL_FLOPS = 2**20


def _check_budget(dims, trials: int, k: int, terms, fields: tuple[str, str, str],
                  what: str) -> None:
    """A trial at dim d has n = terms(d) rank-one terms of k sphere rows
    each (hermitian._rank_one_terms).  Memory, checked at the largest dim:
    the d x d matrix, the n jump values and the k d min(n, max(d, BLOCK))
    row entries held at once, a bound on the own-basis factors and Haar
    columns of n < d terms and on one block of BLOCK rows of a summed tail.
    d^2 counts one matrix: while a summed tail is drawn, a sample holds up
    to three (its block, the sum and one product), and a block sample keeps
    one once the sum is added into its block; so memory is a small multiple
    of the budget.  Over MAX_ENTRIES names fields[0] (the dims) when the
    matrix alone is over the budget and fields[2] (the terms) otherwise.
    Time: each trial costs, at each dim, d^3 multiply-adds for the spectrum,
    k n d^2 for the rank-one products and _TRIAL_FLOPS besides; trials times
    that sum over MAX_FLOPS names fields[0] when one trial is over the
    budget without its terms, fields[1] (the trial count) when the trials
    are, and fields[2] otherwise."""
    d = dims[-1]
    if d * d > MAX_ENTRIES:  # before any float: d may be too large for one
        raise ConfigError(fields[0], f"d = {d} needs d^2 complex entries, "
                                     f"over the budget of {MAX_ENTRIES}")
    n = terms(d)
    entries = d * d + k * d * min(n, max(d, BLOCK)) + n
    if entries > MAX_ENTRIES:
        shown = f"{entries:.6g}" if entries < 1e300 else "over 1e300"  # an int may not fit
        raise ConfigError(fields[2], f"d = {d} and {what} need {shown} complex "
                                     f"entries, over the budget of {MAX_ENTRIES}")
    base = sum(d**3 + _TRIAL_FLOPS for d in dims)
    per_trial = base + sum(k * terms(d) * d * d for d in dims)
    if trials > MAX_FLOPS / per_trial:  # trials may be too large for a float
        field = (fields[0] if base > MAX_FLOPS
                 else fields[1] if trials > MAX_FLOPS / base else fields[2])
        raise ConfigError(field, f"{trials} trial(s) of {per_trial:.6g} multiply-adds, "
                                 f"with {what}, are over the time budget of {MAX_FLOPS}")


def _check_sample_budget(model: str, triple: LevyTriple, cut: float | None, dims,
                         dim_field: str, trials: int = 1) -> None:
    """A P or L sample has E[n] = d * lam rank-one terms beyond the cut, with
    k = 1 sphere row each for P and k = 2 for L (_check_budget); lam and the
    cut are the sampler's own (hermitian._decompose)."""
    try:
        dec = _decompose(triple, cut)
    except ValueError as exc:
        raise ConfigError("triple", str(exc)) from exc
    _check_budget(dims, trials, 2 if model == "nonhermitian" else 1, lambda d: d * dec.tail.lam,
                  (dim_field, "trials_per_dim", "triple"),
                  f"tail intensity {dec.tail.lam:g} beyond inner cut {dec.cut:g}")


def _is_int(value) -> bool:
    """A JSON integer: bool is an int in Python, but true is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class Report:
    config: dict
    seed: int
    version: str
    rows: list[dict] = field(default_factory=list)  # per (dim, stat) aggregates
    histograms: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "seed": self.seed,
                "version": self.version,
                "rows": self.rows,
                "histograms": self.histograms,
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["dim", "trial_count", "stat_name", "mean", "stderr"])
        for row in self.rows:
            writer.writerow(
                [row["dim"], row["trial_count"], row["stat_name"], row["mean"], row["stderr"]]
            )
        return buf.getvalue()


def _worker_count() -> int:
    env = os.environ.get("BPLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("BPLAB_THREADS", f"must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _version() -> str:
    """The version a report carries, bplab.__version__: a source checkout
    has it too, and no installed metadata is read."""
    return __version__


def _aggregate(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size > 1:
        stderr = float(np.std(values, ddof=1) / np.sqrt(values.size))
    else:
        stderr = float("nan")
    return mean, stderr


def _trial_law(config: ExperimentConfig, d: int, trial: int):
    rng = RngStream(config.seed, trial)
    # one sample_*_many call per trial, by this module's names: perfbench/tracing.py
    # times it as the per-trial sample, so the decomposition is not hoisted out.
    if config.model == "hermitian":
        sample = sample_P_many(config.triple, d, rng, 1, config.inner_cut)[0]
        return esd(sample)
    sample = sample_L_many(config.triple, d, rng, 1, config.inner_cut)[0]
    return symmetrized_singular_law(sample)


def run(config: ExperimentConfig) -> Report:
    """Draw trials_per_dim independent samples per dimension and aggregate
    the requested statistics; deterministic under a fixed seed."""
    report = Report(
        config={"model": config.model, "triple": config.triple_spec,
                "dims": list(config.dims), "trials_per_dim": config.trials_per_dim,
                "inner_cut": config.inner_cut},
        seed=config.seed,
        version=_version(),
    )
    target_law, grid = config.distance_target, config.distance_grid
    workers = _worker_count()
    for d in config.dims:
        trials = list(range(config.trials_per_dim))
        if workers > 1 and len(trials) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                laws = list(pool.map(lambda t: _trial_law(config, d, t), trials))
        else:
            laws = [_trial_law(config, d, t) for t in trials]
        pooled = _pool(laws)
        # the statistics of a law near the float limits overflow: a warning
        # would end the run, so non-finite means and centres are refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if config.moments_kmax is not None:
                per_trial = np.array(
                    [empirical_moments(law, config.moments_kmax).values for law in laws]
                )
                for k in range(1, config.moments_kmax + 1):
                    mean, stderr = _aggregate(per_trial[:, k - 1])
                    report.rows.append(
                        {"dim": d, "trial_count": len(trials), "stat_name": f"m{k}",
                         "mean": mean, "stderr": stderr}
                    )
            if config.histogram_bins is not None:
                report.histograms[str(d)] = spectra.histogram(pooled, config.histogram_bins)
            if target_law is not None:
                dists = np.array([cauchy_sup_distance(law, target_law, grid) for law in laws])
                mean, stderr = _aggregate(dists)
                report.rows.append(
                    {"dim": d, "trial_count": len(trials), "stat_name": "cauchy_distance",
                     "mean": mean, "stderr": stderr}
                )
                report.rows.append(
                    {"dim": d, "trial_count": len(trials), "stat_name": "cauchy_distance_pooled",
                     "mean": cauchy_sup_distance(pooled, target_law, grid), "stderr": float("nan")}
                )
        if not all(math.isfinite(row["mean"]) for row in report.rows) or not all(
            math.isfinite(c) for c, _ in report.histograms.get(str(d), ())
        ):
            raise ConfigError("triple", f"its statistics at d = {d} overflow a float")
    return report


def _pool(laws) -> EmpiricalDistribution:
    return EmpiricalDistribution(np.concatenate([law.support_points for law in laws]))


_TARGET_LAWS = {
    "semicircle": spectra.semicircle,
    "cauchy": spectra.cauchy_law,
    "marchenko_pastur": spectra.marchenko_pastur,
    "dirac": spectra.dirac_law,
}


def _parse_distance_target(doc) -> tuple[ReferenceLaw, GridSpec]:
    """The target law and evaluation grid of the cauchy_distance output."""
    path = "outputs.cauchy_distance"
    if not isinstance(doc, dict):
        raise ConfigError(path, "must be an object")
    g = doc.get("grid", {})
    if not isinstance(g, dict):
        raise ConfigError(f"{path}.grid", "must be an object")
    try:
        grid = GridSpec(
            real_range=tuple(_json_float(v) for v in g.get("real_range", (-8.0, 8.0))),
            real_step=_json_float(g.get("real_step", 0.05)),
            imaginary_levels=tuple(
                _json_float(v) for v in g.get("imaginary_levels", (1.0, 2.0, 4.0))
            ),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.grid", str(exc)) from exc
    spec = doc.get("target")
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}.target", "missing")
    if "law" not in spec:
        raise ConfigError(f"{path}.target", "needs a 'law' entry")
    name = spec["law"]
    make = _TARGET_LAWS.get(name) if isinstance(name, str) else None
    if make is None:
        raise ConfigError(f"{path}.target.law", f"unknown law {name!r}")
    params = spec.get("params", [])
    if not isinstance(params, list):
        raise ConfigError(f"{path}.target.params", "must be a list of numbers")
    try:
        values = [_json_float(v) for v in params]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("params must be finite")
        return make(*values), grid
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.target.params", str(exc)) from exc


def projection_experiment(d: int, d_prime: int, trials: int, seed: int) -> Report:
    """Fixed-count projection sums: spectral moments of sums of d_prime
    rank-one sphere projections versus the Marchenko-Pastur law with index
    d_prime / d.  Each sum is a sample with unit jumps and no shift, so for
    d_prime < d its rows are drawn in their own basis and its spectrum comes
    from a d_prime x d_prime core, and for d_prime >= d the terms are summed
    BLOCK at a time (_rank_one_terms)."""
    if d < 1 or d_prime < 0 or trials < 1:
        raise ValueError("need d >= 1, d_prime >= 0, trials >= 1")
    lam = d_prime / d
    kmax = 4
    per_trial = []
    for trial in range(trials):
        gen = RngStream(seed, trial).generator()
        tail = _rank_one_terms(np.ones(d_prime), d, gen)
        law = esd(HermitianSample(dim=d, tail=tail))
        per_trial.append(empirical_moments(law, kmax).values)
    per_trial = np.array(per_trial)
    ref = reference_moments(marchenko_pastur(lam), kmax)
    report = Report(
        config={"experiment": "projection", "d": d, "d_prime": d_prime, "trials": trials},
        seed=seed,
        version=_version(),
    )
    for k in range(1, kmax + 1):
        mean, stderr = _aggregate(per_trial[:, k - 1])
        report.rows.append(
            {"dim": d, "trial_count": trials, "stat_name": f"m{k}", "mean": mean,
             "stderr": stderr}
        )
        report.rows.append(
            {"dim": d, "trial_count": trials, "stat_name": f"m{k}_reference",
             "mean": ref[k], "stderr": 0.0}
        )
    return report


# ---------------------------------------------------------------------------
# command line


def _write_report(report: Report, out_dir: str | None) -> None:
    if out_dir is None:
        print(report.to_json())
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())


def _write_matrix(m: np.ndarray, out) -> None:
    """The bytes of json.dump({"real": m.real.tolist(), "imag": ...}) and a
    newline, written one row at a time, so no list of the whole matrix is
    built."""
    for sep, name, part in (("{", "real", m.real), ("], ", "imag", m.imag)):
        out.write(f'{sep}"{name}": [')
        for i, row in enumerate(part):
            out.write((", " if i else "") + json.dumps(row.tolist()))
    out.write("]}\n")


def _decode(field: str, read):
    """read() of a JSON document; a failure is a config error naming field."""
    try:
        return read()
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise ConfigError(field, str(exc)) from exc
    except RecursionError:
        raise ConfigError(field, "JSON nested too deeply") from None


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bplab",
        description="Random matrix experiments for infinitely divisible laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--out", default=None, help="output directory")

    p_sample = sub.add_parser("sample", help="draw one matrix sample")
    p_sample.add_argument("triple", help="JSON triple spec")
    p_sample.add_argument("--dim", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--model", choices=("hermitian", "nonhermitian"),
                          default="hermitian")

    p_moments = sub.add_parser(
        "moments", help="print the free-image moments of a triple"
    )
    p_moments.add_argument("triple", help="JSON triple spec")
    p_moments.add_argument("--kmax", type=int, default=4)

    p_proj = sub.add_parser("project", help="fixed-count projection experiment")
    p_proj.add_argument("--dim", type=int, required=True)
    p_proj.add_argument("--count", type=int, required=True)
    p_proj.add_argument("--trials", type=int, default=10)
    p_proj.add_argument("--seed", type=int, default=0)
    p_proj.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the built-in acceptance suite")

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a config problem
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _command(args) -> int:
    """Run one parsed command line; every config problem raises ConfigError."""
    for name, least in (("dim", 1), ("trials", 1), ("kmax", 1), ("count", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ConfigError(f"--{name}", f"must be >= {least}")

    if args.command == "run":
        doc = _decode("config", lambda: json.loads(Path(args.config).read_text("utf-8")))
        _write_report(run(ExperimentConfig.from_dict(doc)), args.out)
        return 0

    if args.command == "sample":
        triple = _parse_triple(_decode("triple", lambda: json.loads(args.triple)), args.model)
        _check_sample_budget(args.model, triple, None, [args.dim], "--dim")
        sample_many = sample_P_many if args.model == "hermitian" else sample_L_many
        m = sample_many(triple, args.dim, RngStream(args.seed, 0), 1)[0].entries
        _write_matrix(m, sys.stdout)
        return 0

    if args.command == "moments":
        if args.kmax > MAX_KMAX:
            raise ConfigError("--kmax", f"must be <= {MAX_KMAX}")
        triple = _parse_triple(_decode("triple", lambda: json.loads(args.triple)))
        try:
            values = psi_image_moments(triple, args.kmax).values
        except OverflowError as exc:  # a Python float power in the cumulants
            raise ConfigError("triple", f"its moments overflow a float: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError("triple", "its moments overflow a float")
        for value in values:
            print(f"{value:.12g}")
        return 0

    if args.command == "project":
        _check_budget([args.dim], args.trials, 1, lambda d: args.count,
                      ("--dim", "--trials", "--count"), f"{args.count} projections")
        report = projection_experiment(args.dim, args.count, args.trials, args.seed)
        _write_report(report, args.out)
        return 0

    if args.command == "verify":
        import pytest

        here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        tests = os.path.join(here, "tests", "test_acceptance.py")
        if not os.path.exists(tests):
            print("acceptance tests not found; run pytest from a source checkout",
                  file=sys.stderr)
            return 1
        return pytest.main(["-v", tests])
    return 2


if __name__ == "__main__":
    sys.exit(main())
