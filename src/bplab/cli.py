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
from .levy import (ConfigError, LevyTriple, _finite, _integer, _json_float, _object, _read,
                   is_symmetric, poisson, triple_from_spec)
from .rng import SEED_LIMIT, RngStream
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
)

__all__ = ["ExperimentConfig", "Report", "run", "projection_experiment", "main"]


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
        _object(doc, "", "model", "triple", "dims", "trials_per_dim", "seed", "outputs",
                "inner_cut")
        model = doc.get("model")
        if model not in ("hermitian", "nonhermitian"):
            raise ConfigError("model", "must be 'hermitian' or 'nonhermitian'")
        if "triple" not in doc:
            raise ConfigError("triple", "missing")
        dims = doc.get("dims")
        if not isinstance(dims, list) or not dims or [
            _integer("dims", d, 1) for d in dims
        ] != sorted(set(dims)):
            raise ConfigError("dims", "must be a nonempty strictly ascending list of "
                                      "positive ints")
        trials = _integer("trials_per_dim", doc.get("trials_per_dim", 1), 1)
        seed = _integer("seed", doc.get("seed", 0), 0, SEED_LIMIT - 1)
        outputs = doc.get("outputs", {"moments": {"kmax": 4}})
        if not _object(outputs, "outputs", "moments", "histogram", "cauchy_distance"):
            raise ConfigError("outputs", "must be a nonempty object")
        kmax = bins = target = grid = None
        for key, val in outputs.items():
            if key == "moments":
                kmax = _integer("outputs.moments.kmax",
                                _object(val, "outputs.moments", "kmax").get("kmax", 4),
                                1, MAX_KMAX)
            elif key == "histogram":
                bins = _integer("outputs.histogram.bins",
                                _object(val, "outputs.histogram", "bins").get("bins", 50),
                                1, MAX_ENTRIES // (_BIN_ENTRIES * len(dims)),
                                f": each bin, at each of the {len(dims)} dim(s), costs "
                                f"{_BIN_ENTRIES} entries of the budget of {MAX_ENTRIES}")
            else:
                target, grid = _parse_distance_target(val)
        cut = doc.get("inner_cut")
        if cut is not None:
            cut = _finite("inner_cut", cut)
            if not cut > 0:
                raise ConfigError("inner_cut", "must be positive")
        triple = _parse_triple(doc["triple"], model)
        flops = _check_sample_budget(model, triple, cut, dims, "dims", trials)
        if grid is not None:
            _check_distance_budget(grid, dims, trials, flops)
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
    triple = _read("triple", lambda: triple_from_spec(spec))
    if model == "nonhermitian" and not is_symmetric(triple):
        raise ConfigError("triple", "nonhermitian model requires a symmetric triple")
    return triple


# The memory of one histogram bin at one dim, its (centre, mass) pair in the
# report and in report.json, in complex entries of MAX_ENTRIES: 2**20 bins of
# one d = 10 trial peaked at 495 MB of RSS, about 430 bytes (27 entries) a bin.
_BIN_ENTRIES = 27

# The fixed cost of one trial at one dim, in the multiply-adds of MAX_FLOPS:
# the decomposition, the draws and the statistics took 140-450 us a trial at
# d = 1, about 2**20 multiply-adds at the rate MAX_FLOPS assumes.
_TRIAL_FLOPS = 2**20

# The cost of one term of an empirical transform, one summed point at one
# grid point, in the multiply-adds of MAX_FLOPS: the real kernel
# (spectra._real_sums) took 1.8-3.0 ns a term on laws of 1,000 to 8,000
# summed points on the default grid (5.0 ns at 100; one Xeon core), 8-13
# multiply-adds at the rate MAX_FLOPS assumes.
_TERM_FLOPS = 16


def _check_budget(dims, trials: int, k: int, terms, fields: tuple[str, str, str],
                  what: str) -> float:
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
    are, and fields[2] otherwise.  Returns the multiply-adds charged."""
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
    return trials * per_trial


def _check_sample_budget(model: str, triple: LevyTriple, cut: float | None, dims,
                         dim_field: str, trials: int = 1) -> float:
    """A P or L sample has E[n] = d * lam rank-one terms beyond the cut, with
    k = 1 sphere row each for P and k = 2 for L (_check_budget); lam and the
    cut are the sampler's own (hermitian._decompose).  Returns the
    multiply-adds charged."""
    dec = _read("triple", lambda: _decompose(triple, cut))
    return _check_budget(dims, trials, 2 if model == "nonhermitian" else 1,
                         lambda d: d * dec.tail.lam, (dim_field, "trials_per_dim", "triple"),
                         f"tail intensity {dec.tail.lam:g} beyond inner cut {dec.cut:g}")


def _check_distance_budget(grid: GridSpec, dims, trials: int, flops: float) -> None:
    """Each dim's cauchy_distance sums, at every grid point, the transform of
    each trial's law and of their pool: 2 * trials * d summed points, as an
    L law's 2d points are summed over their d squares
    (spectra._real_transform), at _TERM_FLOPS each.  Those multiply-adds and
    the samples' flops together over MAX_FLOPS name the grid."""
    terms = grid.size * 2 * trials * sum(dims) * _TERM_FLOPS
    if flops + terms > MAX_FLOPS:
        raise ConfigError("outputs.cauchy_distance.grid",
                          f"{grid.size:.6g} grid points take {terms:.6g} multiply-adds of "
                          f"transforms, which with {flops:.6g} for the samples are over "
                          f"the time budget of {MAX_FLOPS}")


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
        writer = csv.DictWriter(buf, ["dim", "trial_count", "stat_name", "mean", "stderr"])
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()


def _worker_count() -> int:
    env = os.environ.get("BPLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("BPLAB_THREADS", f"must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _row(d: int, trials: int, stat: str, mean: float, stderr: float = math.nan) -> dict:
    return {"dim": d, "trial_count": trials, "stat_name": stat, "mean": mean, "stderr": stderr}


def _mean_rows(d: int, per_trial, stats=None) -> list[dict]:
    """One row per column of per_trial, a line of values per trial: their
    mean over the trials and, over two or more, its standard error.  The
    columns are the stats named, by default the moments m1, m2, ..."""
    columns = np.array(per_trial).T
    stats = stats or [f"m{k}" for k in range(1, len(columns) + 1)]
    n = columns.shape[1]
    return [_row(d, n, stat, float(np.mean(values)),
                 float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else math.nan)
            for stat, values in zip(stats, columns)]


def _trial_law(config: ExperimentConfig, d: int, trial: int):
    rng = RngStream(config.seed, trial)
    # one sample_*_many call per trial, by this module's names: perfbench/tracing.py
    # times it as the per-trial sample.  The triple's split at the cut was made
    # by from_dict's budget check and is kept on the triple (hermitian._decompose).
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
        version=__version__,
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
        rows = []
        # the statistics of a law near the float limits overflow: a warning
        # would end the run, so non-finite means and centres are refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if config.moments_kmax is not None:
                rows += _mean_rows(d, [empirical_moments(law, config.moments_kmax).values
                                       for law in laws])
            if config.histogram_bins is not None:
                report.histograms[str(d)] = spectra.histogram(pooled, config.histogram_bins)
            if target_law is not None:
                dists = [[cauchy_sup_distance(law, target_law, grid)] for law in laws]
                rows += _mean_rows(d, dists, ["cauchy_distance"])
                rows.append(_row(d, len(laws), "cauchy_distance_pooled",
                                 cauchy_sup_distance(pooled, target_law, grid)))
        if not all(math.isfinite(row["mean"]) for row in rows) or not all(
            math.isfinite(c) for c, _ in report.histograms.get(str(d), ())
        ):
            raise ConfigError("triple", f"its statistics at d = {d} overflow a float")
        report.rows += rows
    return report


def _pool(laws) -> EmpiricalDistribution:
    return EmpiricalDistribution(np.concatenate([law.support_points for law in laws]))


def _parse_distance_target(doc) -> tuple[ReferenceLaw, GridSpec]:
    """The target law and evaluation grid of the cauchy_distance output."""
    path = "outputs.cauchy_distance"
    _object(doc, path, "target", "grid")
    g = _object(doc.get("grid", {}), f"{path}.grid", "real_range", "real_step",
                "imaginary_levels")
    # a key left out takes GridSpec's default
    grid = _read(f"{path}.grid", lambda: GridSpec(**{
        key: _json_float(v) if key == "real_step" else tuple(map(_json_float, v))
        for key, v in g.items()}))
    spec = _object(doc.get("target"), f"{path}.target", "law", "params")
    if "law" not in spec:
        raise ConfigError(f"{path}.target", "needs a 'law' entry")
    name = spec["law"]
    if not isinstance(name, str) or name not in spectra._REFERENCE_PARAMS:
        raise ConfigError(f"{path}.target.law", f"unknown law {name!r}")
    params = spec.get("params", [])
    if not isinstance(params, list):
        raise ConfigError(f"{path}.target.params", "must be a list of numbers")
    # the law refuses params that are not exactly its own, naming itself
    return _read(f"{path}.target.params",
                 lambda: ReferenceLaw(name, tuple(map(_json_float, params)))), grid


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
    # the free image of Poisson(lam): Marchenko-Pastur(d_prime / d)
    ref = psi_image_moments(poisson(lam), kmax)
    rows = [r for k, row in enumerate(_mean_rows(d, per_trial), 1)
            for r in (row, _row(d, trials, f"m{k}_reference", ref[k], 0.0))]
    config = {"experiment": "projection", "d": d, "d_prime": d_prime, "trials": trials}
    return Report(config=config, seed=seed, version=__version__, rows=rows)


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
    p_sample.add_argument("--dim", required=True)
    p_sample.add_argument("--seed", default="0")
    p_sample.add_argument("--model", choices=("hermitian", "nonhermitian"),
                          default="hermitian")

    p_moments = sub.add_parser(
        "moments", help="print the free-image moments of a triple"
    )
    p_moments.add_argument("triple", help="JSON triple spec")
    p_moments.add_argument("--kmax", default="4")

    p_proj = sub.add_parser("project", help="fixed-count projection experiment")
    p_proj.add_argument("--dim", required=True)
    p_proj.add_argument("--count", required=True)
    p_proj.add_argument("--trials", default="10")
    p_proj.add_argument("--seed", default="0")
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
    """Run one parsed command line; every config problem raises ConfigError.
    An integer flag's text is a JSON integer with nothing around it."""
    for name, least, most in (("dim", 1, math.inf), ("trials", 1, math.inf),
                              ("kmax", 1, MAX_KMAX), ("count", 0, math.inf),
                              ("seed", 0, SEED_LIMIT - 1)):
        if hasattr(args, name):
            text = getattr(args, name)
            try:
                value = json.loads(text) if text == text.strip() else text
            except (ValueError, RecursionError):
                value = text  # a str, which _integer refuses
            setattr(args, name, _integer(f"--{name}", value, least, most))

    if args.command == "run":
        doc = _read("config", lambda: json.loads(Path(args.config).read_text("utf-8")))
        _write_report(run(ExperimentConfig.from_dict(doc)), args.out)
        return 0

    if args.command == "sample":
        triple = _parse_triple(_read("triple", lambda: json.loads(args.triple)), args.model)
        _check_sample_budget(args.model, triple, None, [args.dim], "--dim")
        sample_many = sample_P_many if args.model == "hermitian" else sample_L_many
        m = sample_many(triple, args.dim, RngStream(args.seed, 0), 1)[0].entries
        _write_matrix(m, sys.stdout)
        return 0

    if args.command == "moments":
        triple = _parse_triple(_read("triple", lambda: json.loads(args.triple)))
        values = psi_image_moments(triple, args.kmax).values
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


if __name__ == "__main__":
    sys.exit(main())
