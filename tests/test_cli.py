import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bplab
from bplab import cli, hermitian
from bplab.cli import ConfigError, ExperimentConfig, Report, main, projection_experiment, run
from bplab.hermitian import BLOCK, sample_P_many
from bplab.nonhermitian import sample_L_many, symmetrized_singular_law
from bplab.rng import RngStream, sub_key, sub_stream
from bplab.spectra import (MAX_ENTRIES, MAX_FLOPS, MAX_KMAX, GridSpec, dirac_law,
                           empirical_moments, esd, psi_image_moments)
from bplab.levy import MAX_CAUCHY_NODES, triple_from_spec
from bplab.sphere import sample_sphere_vectors


GOOD_CONFIG = {
    "model": "hermitian",
    "triple": {"preset": "dirac", "a": 2.0},
    "dims": [3, 5],
    "trials_per_dim": 2,
    "seed": 11,
    "outputs": {"moments": {"kmax": 3}},
}


def config(**overrides):
    doc = {k: (v.copy() if isinstance(v, dict) else v) for k, v in GOOD_CONFIG.items()}
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config validation


def test_good_config_parses():
    cfg = ExperimentConfig.from_dict(config())
    assert cfg.dims == (3, 5)
    assert cfg.moments_kmax == 3
    assert cfg.histogram_bins is None


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"model": "other"}, "model"),
        ({"dims": []}, "dims"),
        ({"dims": [5, 3]}, "dims"),
        ({"dims": [0]}, "dims"),
        ({"trials_per_dim": 0}, "trials_per_dim"),
        ({"seed": "abc"}, "seed"),
        ({"outputs": {}}, "outputs"),
        ({"outputs": {"bogus": {}}}, "outputs.bogus"),
        ({"outputs": {"moments": {"kmax": 0}}}, "outputs.moments.kmax"),
        ({"inner_cut": -1.0}, "inner_cut"),
        ({"triple": {"preset": "nope"}}, "triple"),
        ({"outputs": {"moments": 3}}, "outputs.moments"),
        ({"outputs": {"histogram": "x"}}, "outputs.histogram"),
        ({"outputs": {"moments": {"kmax": "x"}}}, "outputs.moments.kmax"),
        ({"outputs": {"histogram": {"bins": True}}}, "outputs.histogram.bins"),
        ({"inner_cut": "abc"}, "inner_cut"),
        ({"inner_cut": float("nan")}, "inner_cut"),
        ({"trials_per_dim": True}, "trials_per_dim"),
        ({"dims": [True]}, "dims"),
        ({"dims": [3, "a"]}, "dims"),
        ({"seed": True}, "seed"),
        ({"triple": {"preset": "gaussian", "mean": 0}}, "triple"),
        ({"triple": {"preset": "gaussian", "mean": float("nan"), "var": 1}}, "triple"),
        ({"triple": {"gamma": float("inf")}}, "triple"),
        ({"outputs": {"moments": {"kmax": MAX_KMAX + 1}}}, "outputs.moments.kmax"),
        ({"outputs": {"moments": {"kmax": 100000000}}}, "outputs.moments.kmax"),
        # JSON booleans are not numbers
        ({"triple": {"preset": "poisson", "lambda": True}}, "triple"),
        ({"triple": {"gamma": False, "atoms": []}}, "triple"),
        ({"triple": {"gamma": 0, "atoms": [[True, 1]]}}, "triple"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [True]}}}},
         "outputs.cauchy_distance.target.params"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grid": {"real_step": True}}}},
         "outputs.cauchy_distance.grid"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grid": {"imaginary_levels": [True]}}}},
         "outputs.cauchy_distance.grid"),
        # a small-jump substitution whose mean and variance overflow
        ({"triple": {"gamma": 0, "atoms": [[1e200, 1e200]]}, "inner_cut": 1e300}, "triple"),
        # misspelt keys, at every level of the config
        ({"trial_per_dim": 50}, "trial_per_dim"),
        ({"inner_cutoff": 0.5}, "inner_cutoff"),
        ({"triple": {"gamma": 0, "atom": [[1, 1]]}}, "triple"),
        ({"triple": {"preset": "cauchy", "a": 1, "node": 1001}}, "triple"),
        ({"outputs": {"moments": {"k_max": 3}}}, "outputs.moments.k_max"),
        ({"outputs": {"histogram": {"bin": 10}}}, "outputs.histogram.bin"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grids": {}}}},
         "outputs.cauchy_distance.grids"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "param": [1.0]}}}},
         "outputs.cauchy_distance.target.param"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grid": {"realstep": 0.1}}}},
         "outputs.cauchy_distance.grid.realstep"),
        # a seed is one 64-bit half of the Philox key: RngStream refuses these
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        # dims run once each: a repeat would emit its rows twice under one histogram key
        ({"dims": [2, 2]}, "dims"),
        # each bin is a pair in the report: 2**26 of them would need about 29 GB
        ({"outputs": {"histogram": {"bins": 2**26}}}, "outputs.histogram.bins"),
        # a JSON number is an int or a float that a float holds, and nothing else
        ({"inner_cut": 10**400}, "inner_cut"),
        ({"triple": {"preset": "poisson", "lambda": "0.5"}}, "triple"),
        ({"triple": {"gamma": 0, "atoms": ["12"]}}, "triple"),
        ({"triple": {"preset": "cauchy", "a": 1, "nodes": 401.0}}, "triple"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grid": {"real_range": "19"}}}},
         "outputs.cauchy_distance.grid"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grid": {"real_step": "0.5"}}}},
         "outputs.cauchy_distance.grid"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [1.0]},
                                          "grid": {"imaginary_levels": {"2": 0}}}}},
         "outputs.cauchy_distance.grid"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": ["1"]}}}},
         "outputs.cauchy_distance.target.params"),
        # atoms are a list: an empty string or object is not one with no atoms
        ({"triple": {"gamma": 0, "atoms": ""}}, "triple"),
        ({"triple": {"gamma": 0, "atoms": {}}}, "triple"),
        # a target names its law, and its params are a list
        ({"outputs": {"cauchy_distance": {"target": {"params": [1.0]}}}},
         "outputs.cauchy_distance.target"),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": 1.0}}}},
         "outputs.cauchy_distance.target.params"),
    ],
)
def test_bad_configs_carry_field_paths(overrides, path):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(config(**overrides))
    assert err.value.path == path


# Every numeric field of a config, the triple's through each form of spec.
ALL_NUMBERS = {
    "model": "hermitian",
    "triple": {"convolve": [
        {"preset": "gaussian", "mean": 0.0, "var": 1.0},
        {"preset": "poisson", "lambda": 0.5},
        {"preset": "cauchy", "a": 1.0, "nodes": 16},
        {"preset": "dirac", "a": 2.0},
        {"gamma": 0.5, "atoms": [[1.0, 0.25], [-1.0, 0.25]]},
    ]},
    "dims": [3, 5],
    "trials_per_dim": 2,
    "seed": 11,
    "inner_cut": 0.5,
    "outputs": {
        "moments": {"kmax": 3},
        "histogram": {"bins": 10},
        "cauchy_distance": {
            "target": {"law": "semicircle", "params": [0.0, 2.0]},
            "grid": {"real_range": [-4.0, 4.0], "real_step": 0.5, "imaginary_levels": [1.0, 2.0]},
        },
    },
}


def _number_leaves(doc, keys=()):
    """The key paths of the numbers in doc, a tuple of keys and indices each."""
    if isinstance(doc, dict):
        doc = doc.items()
    elif isinstance(doc, list):
        doc = enumerate(doc)
    else:
        return [keys] if isinstance(doc, (int, float)) else []
    return [leaf for key, value in doc for leaf in _number_leaves(value, keys + (key,))]


def test_a_number_written_as_a_string_is_refused():
    ExperimentConfig.from_dict(ALL_NUMBERS)
    leaves = _number_leaves(ALL_NUMBERS)
    assert len(leaves) == 25
    for keys in leaves:
        doc = json.loads(json.dumps(ALL_NUMBERS))
        *parents, last = keys
        holder = doc
        for key in parents:
            holder = holder[key]
        holder[last] = str(holder[last])
        # the triple and the grid are refused whole, a list's element under the list
        names = [key for key in keys if isinstance(key, str)]
        field = ("triple" if names[0] == "triple"
                 else ".".join(names[:-1] if "grid" in names else names))
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.path == field, keys


def test_histogram_bins_are_charged_per_dim():
    # the most bins whose report pairs fit the budget at one dim, over it at two
    bins = MAX_ENTRIES // cli._BIN_ENTRIES
    outputs = {"histogram": {"bins": bins}}
    assert ExperimentConfig.from_dict(config(dims=[3], outputs=outputs)).histogram_bins == bins
    with pytest.raises(ConfigError, match=str(MAX_ENTRIES)) as err:
        ExperimentConfig.from_dict(config(dims=[3, 5], outputs=outputs))
    assert err.value.path == "outputs.histogram.bins"


def test_missing_triple():
    doc = config()
    del doc["triple"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)


def test_nonhermitian_requires_symmetric_triple():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config(model="nonhermitian"))
    ok = config(model="nonhermitian",
                triple={"preset": "gaussian", "mean": 0.0, "var": 1.0})
    assert ExperimentConfig.from_dict(ok).model == "nonhermitian"


# ---------------------------------------------------------------------------
# runner semantics


def test_dirac_experiment_is_exact():
    report = run(ExperimentConfig.from_dict(config()))
    for row in report.rows:
        k = int(row["stat_name"][1:])
        assert row["mean"] == pytest.approx(2.0**k, abs=1e-12)
    assert {row["dim"] for row in report.rows} == {3, 5}
    assert all(row["trial_count"] == 2 for row in report.rows)


def test_run_is_deterministic_across_worker_counts(monkeypatch):
    doc = config(triple={"preset": "gaussian", "mean": 0.0, "var": 1.0})
    monkeypatch.setenv("BPLAB_THREADS", "1")
    first = run(ExperimentConfig.from_dict(doc)).to_json()
    monkeypatch.setenv("BPLAB_THREADS", "4")
    second = run(ExperimentConfig.from_dict(doc)).to_json()
    assert first == second


def test_run_agrees_across_blas_thread_counts(tmp_path):
    # threaded BLAS may sum matrix products in another order: at d = 200 the
    # values differ in the last digits.  The README promises 1e-12 relative,
    # and 1e-12 absolute for transform distances (bounded by 1 on the grid).
    doc = config(triple={"preset": "poisson", "lambda": 0.5}, dims=[200], trials_per_dim=3,
                 outputs={"moments": {"kmax": 4}, "histogram": {"bins": 10},
                          "cauchy_distance": {"target": {"law": "marchenko_pastur",
                                                         "params": [0.5]}}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(bplab.__file__)))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, BPLAB_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "bplab.cli", "run", str(path)], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        reports.append(json.loads(out.stdout))
    one, two = reports
    assert [(r["dim"], r["stat_name"]) for r in one["rows"]] == [
        (r["dim"], r["stat_name"]) for r in two["rows"]]
    for a, b in zip(one["rows"], two["rows"]):
        distance = a["stat_name"].startswith("cauchy_distance")
        rtol, atol = (0.0, 1e-12) if distance else (1e-12, 0.0)
        assert np.allclose([a["mean"], a["stderr"]], [b["mean"], b["stderr"]],
                           rtol=rtol, atol=atol, equal_nan=True), (a, b)
    centres = [np.array(r["histograms"]["200"])[:, 0] for r in reports]
    assert np.allclose(centres[0], centres[1], rtol=1e-12, atol=0.0)


# Triples whose tails have intensity 0.5, so n ~ Poisson(25) < d = 50 terms:
# with Gaussian mass 0.5 (a block plus a low-rank tail, which is summed) and
# without (a low-rank sample, drawn in its own basis)
LOW_RANK_RUNS = [
    ("hermitian", {"gamma": 0, "atoms": [[0, 0.5], [1, 0.25]]}),
    ("nonhermitian", {"gamma": 0, "atoms": [[0, 0.5], [1, 0.125], [-1, 0.125]]}),
    ("hermitian", {"preset": "poisson", "lambda": 0.5}),
    ("nonhermitian", {"gamma": 0, "atoms": [[1, 0.125], [-1, 0.125]]}),
]


@pytest.mark.parametrize("model, spec", LOW_RANK_RUNS,
                         ids=["block-P", "block-L", "low-rank-P", "low-rank-L"])
def test_run_rows_are_the_samplers_spectra(model, spec):
    d, trials = 50, 3
    doc = config(model=model, triple=spec, dims=[d], trials_per_dim=trials,
                 outputs={"moments": {"kmax": 4}})
    report = run(ExperimentConfig.from_dict(doc))
    triple = triple_from_spec(spec)
    per_trial = []
    for t in range(trials):
        rng = RngStream(doc["seed"], t)
        if model == "hermitian":
            sample = sample_P_many(triple, d, rng, 1)[0]
            law = esd(sample)
        else:
            sample = sample_L_many(triple, d, rng, 1)[0]
            law = symmetrized_singular_law(sample)
        if sample.block is None:
            assert sample.low_rank and 0 < sample.tail[0].size < d
        else:  # the summed tail is added into the block as it is drawn
            assert not sample.low_rank and sample.tail is None
        per_trial.append(empirical_moments(law, 4).values)
    want = np.mean(per_trial, axis=0)
    assert [r["mean"] for r in report.rows] == [float(m) for m in want]


@pytest.mark.parametrize("model, spec", [
    ("hermitian", {"preset": "poisson", "lambda": 0.5}),
    ("nonhermitian", {"gamma": 0, "atoms": [[1, 0.25], [-1, 0.25], [0, 0.5]]}),
])
def test_a_config_and_its_runs_split_the_triple_once(monkeypatch, model, spec):
    # the budget check splits it; the trials and a second run reuse that split
    monkeypatch.setenv("BPLAB_THREADS", "1")
    calls = []
    real = hermitian.truncate
    monkeypatch.setattr(hermitian, "truncate", lambda *a: calls.append(a) or real(*a))
    cfg = ExperimentConfig.from_dict(
        {"model": model, "triple": spec, "dims": [4, 6], "trials_per_dim": 3, "seed": 2})
    first = run(cfg).to_json()
    assert run(cfg).to_json() == first and len(calls) == 1


@pytest.mark.parametrize("model", ["hermitian", "nonhermitian"])
def test_cli_sample_splits_the_triple_once(monkeypatch, capsys, model):
    calls = []
    real = hermitian.truncate
    monkeypatch.setattr(hermitian, "truncate", lambda *a: calls.append(a) or real(*a))
    spec = '{"gamma":0,"atoms":[[1,0.25],[-1,0.25]]}'
    assert main(["sample", spec, "--dim", "6", "--model", model]) == 0
    assert capsys.readouterr().out and len(calls) == 1


def test_histogram_and_distance_outputs():
    doc = config(
        outputs={
            "moments": {"kmax": 2},
            "histogram": {"bins": 5},
            "cauchy_distance": {"target": {"law": "dirac", "params": [2.0]}},
        }
    )
    report = run(ExperimentConfig.from_dict(doc))
    assert "3" in report.histograms and len(report.histograms["3"]) == 5
    names = {row["stat_name"] for row in report.rows}
    assert "cauchy_distance" in names and "cauchy_distance_pooled" in names
    dist_rows = [r for r in report.rows if r["stat_name"] == "cauchy_distance"]
    assert all(r["mean"] < 1e-10 for r in dist_rows)


def test_report_csv_schema():
    report = run(ExperimentConfig.from_dict(config()))
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["dim", "trial_count", "stat_name", "mean", "stderr"]
    assert len(rows) == 1 + len(report.rows)


def test_report_json_schema():
    report = run(ExperimentConfig.from_dict(config()))
    doc = json.loads(report.to_json())
    assert set(doc) == {"config", "seed", "version", "rows", "histograms"}
    assert doc["seed"] == 11


# ---------------------------------------------------------------------------
# projection experiment


def test_projection_experiment_against_marchenko_pastur():
    report = projection_experiment(d=120, d_prime=60, trials=8, seed=3)
    by_name = {row["stat_name"]: row["mean"] for row in report.rows}
    assert by_name["m1"] == pytest.approx(0.5, abs=1e-12)  # trace is exact
    assert by_name["m1_reference"] == pytest.approx(0.5)
    assert by_name["m2"] == pytest.approx(by_name["m2_reference"], rel=0.05)


def test_projection_experiment_zero_count():
    report = projection_experiment(d=10, d_prime=0, trials=2, seed=0)
    for row in report.rows:
        assert row["mean"] == 0.0
    with pytest.raises(ValueError):
        projection_experiment(0, 1, 1, 0)
    with pytest.raises(ValueError):  # it would alias seed 2**64 - 1
        projection_experiment(5, 3, 1, -1)


# ---------------------------------------------------------------------------
# command line entry points


def test_cli_moments_subcommand(capsys):
    spec = json.dumps({"preset": "poisson", "lambda": 1.0})
    assert main(["moments", spec, "--kmax", "4"]) == 0
    out = capsys.readouterr().out.split()
    expected = psi_image_moments(triple_from_spec({"preset": "poisson", "lambda": 1.0}), 4)
    assert np.allclose([float(v) for v in out], expected.values)


def test_cli_moments_rejects_bad_spec(capsys):
    assert main(["moments", "{not json"]) == 2
    assert main(["moments", json.dumps({"preset": "nope"})]) == 2
    for spec, name in [({"preset": "gaussian", "mean": 0}, "triple: var:"),
                       ({"preset": "gaussian", "mean": float("nan"), "var": 1}, "triple: mean:"),
                       ({"gamma": float("inf")}, "triple: gamma:"),
                       ({"gamma": 0, "atoms": [[1e100, 1]]}, "triple"),
                       ({"preset": "poisson", "lambda": "0.5"}, "triple: lambda:"),
                       ({"gamma": 0, "atoms": ""}, "triple: atoms:"),
                       ({"gamma": 0, "atoms": {}}, "triple: atoms:"),
                       # a field of a convolve part is named by the part's place
                       ({"convolve": [{"preset": "poisson", "lambda": 1},
                                      {"preset": "poisson", "lambda": "1"}]},
                        "triple: convolve[1].lambda: a str is not a number"),
                       ({"convolve": [{"preset": "dirac", "a": 1},
                                      {"preset": "dirac", "a": 1, "b": 2}]},
                        "triple: convolve[1].b: unknown field"),
                       # a value out of a preset's range is named by its field
                       ({"convolve": [{"preset": "dirac", "a": 1},
                                      {"preset": "gaussian", "mean": 0, "var": -1}]},
                        "triple: convolve[1].var: variance must be nonnegative"),
                       ({"preset": "poisson", "lambda": -1}, "triple: lambda:"),
                       ({"preset": "cauchy", "a": -1}, "triple: a:")]:
        capsys.readouterr()
        assert main(["moments", json.dumps(spec)]) == 2
        assert name in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sample", '{"preset":"dirac","a":1}', "--dim", "0"], "--dim"),
        (["sample", '{"preset":"dirac","a":1}', "--dim", "-3"], "--dim"),
        (["project", "--dim", "0", "--count", "1"], "--dim"),
        (["project", "--dim", "4", "--count", "-1"], "--count"),
        (["project", "--dim", "4", "--count", "1", "--trials", "0"], "--trials"),
        (["moments", '{"preset":"dirac","a":1}', "--kmax", "0"], "--kmax"),
        (["moments", '{"preset":"dirac","a":1}', "--kmax", str(MAX_KMAX + 1)], "--kmax"),
        (["moments", '{"gamma":0,"atoms":[[1e100,1]]}', "--kmax", "8"], "triple"),
        pytest.param(["sample", '{"preset":"cauchy","a":1,"node":1001}', "--dim", "4"],
                     "config error: triple: node: unknown field; known: preset, a, nodes",
                     id="sample-unknown-spec-field"),
        pytest.param(["moments", '{"preset":"cauchy","a":1,"node":1001}'],
                     "config error: triple: node: unknown field; known: preset, a, nodes",
                     id="moments-unknown-spec-field"),
        (["sample", '{"preset":"dirac","a":1}', "--dim", "2", "--seed", "-1"], "--seed"),
        (["project", "--dim", "4", "--count", "1", "--seed", str(2**64)], "--seed"),
        # a flag's text is a JSON integer with nothing around it
        (["project", "--dim", "1_0", "--count", "2", "--trials", "1"], "--dim"),
        (["project", "--dim", "4", "--count", " 2", "--trials", "1"], "--count"),
        (["moments", '{"preset":"dirac","a":1}', "--kmax", "+3"], "--kmax"),
        (["project", "--dim", "4", "--count", "1", "--trials", "2.0"], "--trials"),
    ],
)
def test_cli_bad_integer_arguments_exit_2(argv, name, capsys):
    assert main(argv) == 2
    assert name in capsys.readouterr().err


def test_cli_sample_deterministic(capsys):
    spec = json.dumps({"preset": "gaussian", "mean": 0.0, "var": 1.0})
    assert main(["sample", spec, "--dim", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", spec, "--dim", "3", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    m = np.array(doc["real"]) + 1j * np.array(doc["imag"])
    assert m.shape == (3, 3)
    assert np.max(np.abs(m - m.conj().T)) < 1e-10


def test_cli_sample_odd_node_cauchy_at_the_default_cut(capsys):
    # the middle node (1.1e-16) once set the default cut to 5.6e-17 and the
    # tail intensity to 8.1e28, over the budget
    spec = '{"preset":"cauchy","a":1,"nodes":1001}'
    assert main(["sample", spec, "--dim", "20", "--model", "nonhermitian"]) == 0
    m = json.loads(capsys.readouterr().out)
    assert np.array(m["real"]).shape == (20, 20)


@pytest.mark.parametrize("a, kmax", [(1e308, 4), (1e200, 2)])
def test_cli_run_statistics_that_overflow_exit_2(tmp_path, capsys, a, kmax):
    config = {"model": "hermitian", "triple": {"preset": "dirac", "a": a}, "dims": [3],
              "trials_per_dim": 2,
              "outputs": {"moments": {"kmax": kmax}, "histogram": {"bins": 3}}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "triple" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sample_nonhermitian_needs_symmetry(capsys):
    spec = json.dumps({"preset": "poisson", "lambda": 1.0})
    assert main(["sample", spec, "--dim", "3", "--model", "nonhermitian"]) == 2


@pytest.mark.parametrize("atoms, status", [
    # exactly symmetric, with two jumps 5e-10 apart on each side
    ([[1, 0.5], [-1, 0.5], [1.0000000005, 0.25], [-1.0000000005, 0.25]], 0),
    # -1 is within 1e-9 of the mirror of both positive jumps; c_1 = 0.5
    ([[-1, 0.5], [1, 0.5], [1.0000000005, 0.5]], 2),
])
def test_cli_run_nonhermitian_mirrors_each_jump(atoms, status, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": "nonhermitian", "triple": {"gamma": 0, "atoms": atoms},
                                "dims": [4], "trials_per_dim": 1}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    assert "config error: triple:" in err if status else err == ""


def test_cli_run_nonhermitian_takes_a_large_cauchy_preset(tmp_path, capsys):
    # its nodes mirror exactly; they had missed by 1.1e-9, and the run exited 2
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": "nonhermitian", "dims": [4], "trials_per_dim": 1,
                                "triple": {"preset": "cauchy", "a": 3, "nodes": 100000}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_run_writes_reports(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config()))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["model"] == "hermitian"
    rows = list(csv.reader(io.StringIO((out / "report.csv").read_text())))
    assert rows[0][0] == "dim"


def test_cli_run_stdout_default(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config()))
    assert main(["run", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 11


def test_cli_run_bad_config_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(config(model="other")))
    assert main(["run", str(invalid)]) == 2


def test_cli_run_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise RuntimeError("no spectrum")

    monkeypatch.setattr(cli, "run", fail)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config()))
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no spectrum\n" and captured.out == ""


def test_cli_verify_runs_the_acceptance_suite(monkeypatch):
    calls = []
    monkeypatch.setattr(pytest, "main", lambda args: calls.append(args) or 0)
    assert main(["verify"]) == 0
    [(flag, suite)] = calls
    assert flag == "-v" and Path(suite).parts[-2:] == ("tests", "test_acceptance.py")
    assert os.path.exists(suite)


def test_cli_verify_without_the_suite_exits_1(tmp_path, capsys, monkeypatch):
    # an installed package: no tests/ three levels above cli.py
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "site" / "bplab" / "cli.py"))
    monkeypatch.setattr(pytest, "main", lambda args: pytest.fail("pytest.main was called"))
    assert main(["verify"]) == 1
    assert "acceptance tests not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "distance, field",
    [
        ({"target": {"law": "nope"}}, "outputs.cauchy_distance.target.law"),
        ({"target": {"law": "marchenko_pastur", "params": [-1]}},
         "outputs.cauchy_distance.target.params"),
        ({"target": {"law": "dirac", "params": [2.0]}, "grid": {"real_step": 0}}, "real_step"),
        # refused by ReferenceLaw, under the params' path
        ({"target": {"law": "marchenko_pastur", "params": [math.inf]}},
         "outputs.cauchy_distance.target.params"),
        ({"target": {"law": "semicircle", "params": [0, math.nan]}},
         "outputs.cauchy_distance.target.params"),
        # a target takes exactly its law's params, with no defaults
        ({"target": {"law": "semicircle"}},
         "outputs.cauchy_distance.target.params: semicircle needs a finite mean and a "
         "positive finite radius, got ()"),
        ({"target": {"law": "semicircle", "params": [0.5]}},
         "outputs.cauchy_distance.target.params: semicircle needs a finite mean and a "
         "positive finite radius, got (0.5,)"),
        ({"target": {"law": "dirac", "params": [1, 2]}},
         "outputs.cauchy_distance.target.params: dirac needs a finite a, got (1.0, 2.0)"),
    ],
    ids=["unknown-law", "negative-lambda", "zero-step", "infinite-lambda", "nan-radius",
         "semicircle-no-params", "semicircle-no-radius", "dirac-two-params"],
)
def test_cli_run_bad_distance_target_exits_2(tmp_path, capsys, distance, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(outputs={"cauchy_distance": distance})))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


def test_a_grid_key_left_out_takes_the_gridspec_default():
    target = {"law": "dirac", "params": [2.0]}
    for grid, want in [({"real_step": 0.1}, GridSpec(real_step=0.1)), ({}, GridSpec())]:
        doc = config(outputs={"cauchy_distance": {"target": target, "grid": grid}})
        cfg = ExperimentConfig.from_dict(doc)
        assert (cfg.distance_target, cfg.distance_grid) == (dirac_law(2.0), want)


@pytest.mark.parametrize(
    "overrides, field, budget",
    [
        ({"triple": {"preset": "poisson", "lambda": 1e9}, "dims": [4]}, "triple",
         MAX_ENTRIES),
        ({"dims": [200000]}, "dims", MAX_ENTRIES),
        ({"outputs": {"cauchy_distance": {"target": {"law": "dirac", "params": [2.0]},
                                          "grid": {"real_step": 1e-9}}}},
         "outputs.cauchy_distance.grid", MAX_ENTRIES),
        ({"outputs": {"histogram": {"bins": 10**12}}}, "outputs.histogram.bins",
         MAX_ENTRIES),
        # 4.8e6 grid points within MAX_ENTRIES, but about an hour of transforms
        ({"triple": {"preset": "gaussian", "mean": 0.0, "var": 1.0}, "dims": [1000],
          "trials_per_dim": 50,
          "outputs": {"cauchy_distance": {"target": {"law": "semicircle", "params": [0.0, 1.0]},
                                          "grid": {"real_step": 1e-5}}}},
         "outputs.cauchy_distance.grid", MAX_FLOPS),
    ],
    ids=["tail-intensity", "dim", "grid-points", "histogram-bins", "statistics-time"],
)
def test_cli_run_over_budget_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                     overrides, field, budget):
    def no_run(config):
        raise AssertionError("the config should be refused before the run")

    monkeypatch.setattr("bplab.cli.run", no_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(**overrides)))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err and str(budget) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("nodes", [7.9, 4.0, True, "401x", MAX_CAUCHY_NODES + 1, 300000000])
def test_cauchy_nodes_out_of_bounds_exit_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                         nodes):
    def no_run(config):
        raise AssertionError("the config should be refused before the run")

    monkeypatch.setattr("bplab.cli.run", no_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(triple={"preset": "cauchy", "a": 1, "nodes": nodes})))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error: triple: nodes:" in captured.err
    assert captured.out == ""


def test_cli_run_deeply_nested_config_exits_2(tmp_path, capsys):
    # 600 nested convolve specs: the JSON decoder runs out of stack
    depth = 600
    text = ('{"model": "hermitian", "dims": [3], "triple": ' + '{"convolve": [' * depth
            + '{"preset": "dirac", "a": 1}' + ']}' * depth + '}')
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert "config error: config: JSON nested too deeply" in capsys.readouterr().err


def test_cli_run_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BPLAB_THREADS", "abc")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config()))
    assert main(["run", str(path)]) == 2
    assert "config error: BPLAB_THREADS:" in capsys.readouterr().err


def test_kmax_bound_admits_max_kmax(capsys):
    doc = config(outputs={"moments": {"kmax": MAX_KMAX}})
    assert ExperimentConfig.from_dict(doc).moments_kmax == MAX_KMAX
    assert main(["moments", '{"preset":"dirac","a":1}', "--kmax", str(MAX_KMAX)]) == 0
    assert len(capsys.readouterr().out.split()) == MAX_KMAX


# SHA-256 of the stdout of `bplab moments <spec> --kmax 64`, recorded (x86-64,
# CPython 3.11) when each order of the free transform rebuilt every power of
# the moment series, and each lower order of the inverse ran the whole
# forward transform
MOMENTS_STDOUT = [
    ('{"preset":"poisson","lambda":0.5}',
     "666e4f79884ea3542f5d3ee2fff2dc69ebd4b4acb9ad308541d20e33f0dca603"),
    ('{"gamma":0.3,"atoms":[[0,0.5],[1,0.25],[-0.5,0.125]]}',
     "09b9cb9319715505861bb4ce8513a90b3d289b7461d77512e909371ee6b34853"),
    ('{"gamma":0,"atoms":[[1,0.25],[-1,0.25]]}',  # zero odd moments
     "1cfe0989cdc7dcb5ce5d76004232b71876c0ae3cd801ac1f1e45456d52108bfa"),
]


@pytest.mark.parametrize("spec, sha", MOMENTS_STDOUT, ids=["poisson", "mixed", "symmetric"])
def test_moments_at_max_kmax_keep_their_bytes(capsys, spec, sha):
    assert main(["moments", spec, "--kmax", str(MAX_KMAX)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sample", '{"preset":"dirac","a":1}', "--dim", "100000"], "--dim"),
        (["sample", '{"preset":"gaussian","mean":0,"var":1}', "--dim", "100000",
          "--model", "nonhermitian"], "--dim"),
        (["sample", '{"preset":"poisson","lambda":1e9}', "--dim", "4"], "triple"),
        (["project", "--dim", "100000", "--count", "1"], "--dim"),
        (["project", "--dim", "8000", "--count", "1000"], "--count"),
    ],
    ids=["sample-dim", "sample-dim-nonhermitian", "sample-tail", "project-dim",
         "project-count"],
)
def test_cli_sample_and_project_over_budget_exit_2_before_sampling(monkeypatch, capsys,
                                                                   argv, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("the arguments should be refused before sampling")

    for name in ("sample_P_many", "sample_L_many", "projection_experiment"):
        monkeypatch.setattr(f"bplab.cli.{name}", unreachable)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err and str(MAX_ENTRIES) in captured.err
    assert captured.out == ""


def test_budget_counts_two_rows_per_jump_for_the_nonhermitian_model():
    # two-point symmetric tail of intensity 2 at d = 4096, n = 2 d terms: the
    # blocked sum holds about d^2 (1 + k) entries, which fit the memory budget
    # for both models.  Two trials of d^3 (1 + 2 k) multiply-adds fit the time
    # budget for P (k = 1) and not for L (k = 2)
    doc = config(triple={"gamma": 0.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}, dims=[4096])
    assert 3 * 4096**2 + 2 * 4096 <= MAX_ENTRIES
    assert 2 * 3 * 4096**3 <= MAX_FLOPS < 2 * 5 * 4096**3
    assert ExperimentConfig.from_dict(doc).dims == (4096,)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(dict(doc, model="nonhermitian"))
    assert err.value.path == "triple"
    assert f"time budget of {MAX_FLOPS}" in str(err.value)


def test_budget_uses_the_configured_inner_cut():
    # a smaller cut moves more of the Cauchy quadrature into the tail
    doc = config(model="nonhermitian", triple={"preset": "cauchy", "a": 1.0, "nodes": 1001},
                 dims=[1000], inner_cut=0.05)
    assert ExperimentConfig.from_dict(doc).inner_cut == 0.05
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(dict(doc, inner_cut=0.002))
    assert err.value.path == "triple"


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"trials_per_dim": 10**9}, "trials_per_dim"),
        ({"dims": [1000], "trials_per_dim": 1000}, "trials_per_dim"),
        ({"dims": [5000, 6000, 7000, 8000], "trials_per_dim": 1}, "dims"),
        ({"triple": {"preset": "poisson", "lambda": 20000}, "dims": [2048]}, "triple"),
    ],
    ids=["many-trials", "trials-at-a-large-dim", "dims", "tail"],
)
def test_cli_run_over_the_time_budget_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                              overrides, field):
    # each of these fits the memory budget
    def no_run(config):
        raise AssertionError("the config should be refused before the run")

    monkeypatch.setattr("bplab.cli.run", no_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(**overrides)))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err and str(MAX_FLOPS) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sample", '{"preset":"poisson","lambda":20000}', "--dim", "2048"], "triple"),
        (["project", "--dim", "1000", "--count", "500", "--trials", "10000000"], "--trials"),
    ],
    ids=["sample-tail", "project-trials"],
)
def test_cli_sample_and_project_over_the_time_budget_exit_2(monkeypatch, capsys, argv, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("the arguments should be refused before sampling")

    for name in ("sample_P_many", "sample_L_many", "projection_experiment"):
        monkeypatch.setattr(f"bplab.cli.{name}", unreachable)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err and str(MAX_FLOPS) in captured.err


def test_budget_admits_large_tails_that_the_blocked_sum_holds():
    # about 26,000 jumps at d = 2000: all their rows would be 1.05e8 complex
    # entries, over MAX_ENTRIES; one block of rows and the sum are 4.0e6
    doc = config(model="nonhermitian", triple={"preset": "cauchy", "a": 1.0, "nodes": 1001},
                 dims=[2000], inner_cut=0.05)
    assert ExperimentConfig.from_dict(doc).dims == (2000,)


def test_project_with_a_count_too_large_for_a_float_exits_2(capsys):
    assert main(["project", "--dim", "4", "--count", str(10**400)]) == 2
    assert "config error: --count:" in capsys.readouterr().err


def test_huge_dims_exit_2_naming_dims(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(dims=[10**400])))
    assert main(["run", str(path)]) == 2
    assert "config error: dims:" in capsys.readouterr().err


def test_benchmark_workloads_fit_the_budget():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for doc in workloads.WORKLOADS.values():
        ExperimentConfig.from_dict(dict(doc, seed=5))


# SHA-256 of the stdout of `bplab project <args>` with version "unknown",
# recorded (numpy 2.4.6, scipy-openblas 0.3.31, x86-64) when the projection
# sums drew all their rows in one call and multiplied them out in one product;
# the core's hash was recorded again when its rows came to be drawn in their
# own basis: the same law of the moments, from other variates.  Both were
# recorded again (from 26f7828f... and d0d37419...) when each row's norm came
# from an einsum, which moved the core's last bits, and the one block's rows
# from the keyed SFC64 sub-stream (rng.sub_stream)
PROJECT_STDOUT = [
    (["--dim", "50", "--count", "25", "--trials", "3"],  # count < d: the core
     "96006023db1d53abd01486534f9a168dfba1972f3c53b02f5946697026925148"),
    (["--dim", "100", "--count", "200", "--trials", "2"],  # d <= count <= BLOCK
     "b7446348b315459a2528dfcd9804411828c4b3549be72f5561d81763672df361"),
]


@pytest.mark.parametrize("args, sha", PROJECT_STDOUT, ids=["core", "one-block"])
def test_project_reports_up_to_one_block_are_the_one_product_bytes(monkeypatch, capsys,
                                                                   args, sha):
    monkeypatch.setattr("bplab.cli.__version__", "unknown")
    assert main(["project", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# SHA-256 of json.dumps(report.rows) of `run` at BPLAB_THREADS=1, recorded
# (numpy 2.4.6, scipy-openblas 0.3.31, x86-64) when EmpiricalDistribution
# still carried a weight per point: a low-rank P run (Poisson(d / 2) < d
# terms and no Gaussian block, so an own-basis core) and an L run with a
# Gaussian block (the dense path), pooled distance rows included.  The P
# hash was recorded again (from 8712d652...) when the pooled law became the
# uniform law on its N points: its weight 1/N had been (1/n) / sum, which
# differs in the last bit here, and the d = 20 pooled distance row went
# from 0.06711547587602497 to 0.067115475876025.  The L hash was recorded
# again (from b0eaa32b...) when dense singular values came to be taken by an
# SVD, not by the eigenvalues of M^* M: the rows moved in their last bits,
# m4 at d = 20 from 1.9701864618609468 to 1.9701864618609477.  The block-P
# row (a GUE block plus n ~ Poisson(d / 2) summed terms, d = 300 above BLOCK)
# was recorded when the tail was added into the block (r + r^*) / 2 BLOCK
# rows at a time, and again (from 6fa0a446...) at one BLAS thread
# (tests/conftest.py): it had been recorded at two, whose zgemm sums the
# products in another order.  All three were recorded again (from
# 9ed31013..., 0b5b7269... and 31f826ad...) when each row's norm came from an
# einsum, which alone moved the low-rank P rows, and the summed tails' rows
# from the keyed SFC64 sub-stream (rng.sub_stream).  All three were recorded
# again (from f09d45fb..., 5faea5ce... and c89fb205...) when empirical
# transforms came to be summed in real arithmetic, and a mirror-symmetric
# law's over its squares: only the cauchy_distance rows moved, by at most
# 9.7e-17.
RUN_ROWS = [
    ("hermitian", {"preset": "poisson", "lambda": 0.5}, ("marchenko_pastur", [0.5]), [20, 40],
     "94c702ae41235549ddc33d501faf9594fec90579de62740765488a8407b7431b"),
    ("nonhermitian", {"gamma": 0, "atoms": [[0, 0.5], [1, 0.125], [-1, 0.125]]},
     ("semicircle", [0.0, 1.0]), [20, 40],
     "f12a9554a110b473715d295b24141129089559bf205ded6ca155582c01d8d86e"),
    ("hermitian", {"gamma": 0, "atoms": [[0, 0.5], [1, 0.25]]}, ("semicircle", [0.25, 1.0]),
     [20, 300], "3802a8e3d63681873c5aff53cc3d4dabebb6b14e64947248f8c4a8d3357d0216"),
]


@pytest.mark.parametrize("model, spec, target, dims, sha", RUN_ROWS,
                         ids=["low-rank-P", "block-L", "block-P"])
def test_run_rows_are_the_recorded_bytes(monkeypatch, model, spec, target, dims, sha):
    monkeypatch.setenv("BPLAB_THREADS", "1")
    law, params = target
    doc = config(model=model, triple=spec, dims=dims, trials_per_dim=3, seed=7,
                 outputs={"moments": {"kmax": 4}, "histogram": {"bins": 8},
                          "cauchy_distance": {"target": {"law": law, "params": params}}})
    rows = run(ExperimentConfig.from_dict(doc)).rows
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == sha


def test_blocked_project_moments_agree_with_the_one_product(capsys):
    # 700 terms at d = 100: three blocks, added one by one
    d, count, trials = 100, 700, 2
    assert main(["project", "--dim", str(d), "--count", str(count),
                 "--trials", str(trials)]) == 0
    by_name = {r["stat_name"]: r["mean"] for r in json.loads(capsys.readouterr().out)["rows"]}
    got = np.array([by_name[f"m{k}"] for k in range(1, 5)])
    per_trial = []
    for trial in range(trials):
        rows = sub_stream(sub_key(RngStream(0, trial).generator()))
        u = sample_sphere_vectors(d, count, rows)
        r = u.T @ u.conj()
        eigs = np.linalg.eigvalsh((r + r.conj().T) / 2.0)
        per_trial.append([np.mean(eigs**k) for k in range(1, 5)])
    want = np.mean(per_trial, axis=0)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_projection_experiment_holds_O_d2_plus_block_d():
    # all 3000 rows at d = 300 are 9e5 complex entries; one block and the sum 1.7e5
    d = 300
    projection_experiment(2, 3, 1, 0)  # warm caches and imports
    tracemalloc.start()
    try:
        projection_experiment(d, 3000, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * (d * d + BLOCK * d) * 16


LOW_RANK_SPECS = [
    ("hermitian", {"preset": "poisson", "lambda": 0.01}),
    ("nonhermitian", {"gamma": 0, "atoms": [[1, 0.005], [-1, 0.005]]}),
]


def _direct_spectrum(model, spec, d):
    """The spectrum of one sample_*_many draw, as a direct caller takes it."""
    triple, rng = triple_from_spec(spec), RngStream(0, 0)
    if model == "hermitian":
        return esd(sample_P_many(triple, d, rng, 1)[0])
    return symmetrized_singular_law(sample_L_many(triple, d, rng, 1)[0])


@pytest.mark.parametrize(
    "model, spec, direct",
    [(model, spec, direct) for direct in (False, True) for model, spec in LOW_RANK_SPECS],
    ids=["hermitian-spec0", "nonhermitian-spec1", "hermitian-direct", "nonhermitian-direct"],
)
def test_low_rank_run_holds_O_n2_plus_d(model, spec, direct):
    # n ~ Poisson(40) terms at d = 4000 and no block, in a run or in a direct
    # sampler call: the rows in their own basis are n^2 entries, the spectrum
    # and its statistics a few d; one d x d array would be 256 MB, and rows
    # in C^d 2.6 MB
    d = 4000
    doc = config(model=model, triple=spec, dims=[d], trials_per_dim=1)
    if direct:
        _direct_spectrum(model, spec, 50)  # warm caches and imports
    else:
        run(ExperimentConfig.from_dict(dict(doc, dims=[50])))
    tracemalloc.start()
    try:
        if direct:
            _direct_spectrum(model, spec, d)
        else:
            run(ExperimentConfig.from_dict(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * 16


def test_project_budget_counts_one_block_of_rows(monkeypatch, capsys):
    # 40,000 rows at d = 2048 would be 8.2e7 complex entries, over
    # MAX_ENTRIES; the blocked sum holds d^2 + d^2 + 40,000 = 8.4e6
    assert 2048 * 40000 > MAX_ENTRIES
    calls = []

    def stub(*args):
        calls.append(args)
        return Report(config={}, seed=0, version="unknown")

    monkeypatch.setattr("bplab.cli.projection_experiment", stub)
    assert main(["project", "--dim", "2048", "--count", "40000", "--trials", "1"]) == 0
    assert calls == [(2048, 40000, 1, 0)]


def test_cli_project_subcommand(tmp_path):
    out = tmp_path / "proj"
    assert main(["project", "--dim", "50", "--count", "25", "--trials", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    names = {row["stat_name"] for row in report["rows"]}
    assert {"m1", "m4", "m1_reference", "m4_reference"} <= names


def test_a_one_worker_run_loads_no_unused_stdlib(tmp_path):
    # argparse, csv and the thread pool load on first use, and the version is
    # bplab.__version__: a fresh interpreter that imports bplab.cli, parses a
    # config and runs it on one worker has none of them
    doc = config(triple={"preset": "poisson", "lambda": 0.5}, dims=[10, 20],
                 outputs={"moments": {"kmax": 4}, "histogram": {"bins": 5},
                          "cauchy_distance": {"target": {"law": "marchenko_pastur",
                                                         "params": [0.5]}}})
    code = (
        "import json, sys\n"
        "import bplab.cli\n"
        "bplab.cli.run(bplab.cli.ExperimentConfig.from_dict(json.loads(sys.argv[1]))).to_json()\n"
        "print(*[m for m in sys.argv[2:] if m in sys.modules])\n"
    )
    unused = ["argparse", "csv", "concurrent.futures", "logging", "importlib.metadata"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(bplab.__file__)))
    env = dict(os.environ, BPLAB_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(doc), *unused], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == []


def test_version_is_the_pyproject_version():
    # a regex, not tomllib: Python 3.10 has none
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert bplab.__version__ == version
    assert run(ExperimentConfig.from_dict(config())).version == version


def test_worker_count_env(monkeypatch):
    from bplab.cli import _worker_count

    monkeypatch.setenv("BPLAB_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("BPLAB_THREADS", "0")
    assert _worker_count() == 1
    monkeypatch.delenv("BPLAB_THREADS")
    assert _worker_count() >= 1
