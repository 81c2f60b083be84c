"""Config parsing on arbitrary JSON: `bplab run` ends in exit 0 or exit 2,
never in a traceback, and triple_from_spec raises nothing but ValueError.
`cli.run` is replaced by a stub, so nothing is sampled.  Well-formed configs
with small values are also run for real: the sampler, the spectra and the
statistics end in exit 0, or in exit 2 naming `triple` for an asymmetric
nonhermitian triple."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from bplab.cli import Report, main
from bplab.levy import triple_from_spec

# Any JSON value.  Integers are small, so that a cauchy preset builds in
# milliseconds, but for a few that no float can hold.  Floats are ordinary,
# arbitrary, or extremes whose squares overflow or underflow and whose sums
# overflow.
EXTREMES = [0.0, -0.0, 5e-324, 1e-200, -1e-170, 1e160, -1e200, 1.7e308, -1.7e308,
            float("nan"), float("inf"), float("-inf")]
HUGE = [2**64, 10**400, -(10**400)]
numbers = st.one_of(st.floats(-10, 10), st.floats(), st.sampled_from(EXTREMES),
                    st.integers(-1000, 1000), st.sampled_from(HUGE))
anything = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def mostly(strategy):
    """strategy seven times in eight, otherwise any JSON value."""
    return st.one_of(*[strategy] * 7, anything)


def shaped(required=None, **optional):
    """An object with the grammar's keys, or now and then any JSON value."""
    return mostly(st.fixed_dictionaries(required or {}, optional=optional))


value = mostly(numbers)
values = mostly(st.lists(value, max_size=3))
one_triple = st.one_of(
    shaped({"preset": st.just("gaussian"), "mean": value, "var": value}),
    shaped({"preset": st.just("poisson"), "lambda": value}),
    shaped({"preset": st.just("cauchy"), "a": value}, nodes=value),
    shaped({"preset": st.just("dirac"), "a": value}),
    shaped({"preset": value}),
    *[shaped({"gamma": value, "atoms": st.lists(st.tuples(value, value).map(list),
                                                  min_size=1, max_size=3)})] * 3,
)
triples = st.one_of(one_triple, one_triple, st.recursive(
    one_triple,
    lambda inner: shaped({"convolve": mostly(st.lists(inner, min_size=1, max_size=3))}),
    max_leaves=4,
))
outputs = shaped(
    moments=shaped(kmax=value),
    histogram=shaped(bins=value),
    cauchy_distance=shaped(
        target=shaped(law=mostly(st.sampled_from(["semicircle", "cauchy",
                                                  "marchenko_pastur", "dirac"])),
                      params=values),
        grid=shaped(real_range=values, real_step=value, imaginary_levels=values),
    ),
)
configs = shaped(
    model=mostly(st.sampled_from(["hermitian", "nonhermitian"])),
    triple=triples,
    dims=mostly(st.lists(st.integers(1, 64), min_size=1, max_size=3).map(sorted) | values),
    trials_per_dim=value, seed=value, outputs=outputs, inner_cut=value,
)

VALID = {"model": "hermitian", "triple": {"preset": "dirac", "a": 1.0}, "dims": [3],
         "trials_per_dim": 1, "seed": 0, "outputs": {"moments": {"kmax": 2}}}
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _run_exit_code(doc) -> int:
    def stub(config):
        return Report(config={}, seed=config.seed, version="stub")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        with mock.patch("bplab.cli.run", stub), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(path)])
    assert code in (0, 2), err.getvalue()
    return code


@FUZZ
@given(configs)
def test_any_json_config_exits_0_or_2(doc):
    _run_exit_code(doc)


@FUZZ
@given(triples, st.sampled_from(["hermitian", "nonhermitian"]))
def test_any_json_triple_exits_0_or_2(spec, model):
    _run_exit_code(dict(VALID, triple=spec, model=model))


@FUZZ
@given(triples)
def test_triple_from_spec_raises_only_value_error(spec):
    try:
        triple_from_spec(spec)
    except ValueError:
        pass


def test_the_valid_config_reaches_the_run():
    assert _run_exit_code(VALID) == 0


# Well-formed configs with small finite values, run for real.  Values lie on
# a grid of step 1/20 in [-3, 3], so that no jump is nearer zero than 0.05
# and a tail has at most a few thousand terms per dim.
def grid(lo, hi):
    return st.integers(round(20 * lo), round(20 * hi)).map(lambda k: k / 20)


atom_lists = st.lists(st.tuples(grid(-3, 3), grid(0, 3)).map(list), min_size=1, max_size=3)
small_triple = st.one_of(
    st.fixed_dictionaries({"preset": st.just("gaussian"), "mean": grid(-3, 3),
                           "var": grid(0, 3)}),
    st.fixed_dictionaries({"preset": st.just("poisson"), "lambda": grid(0, 3)}),
    st.fixed_dictionaries({"preset": st.just("cauchy"), "a": grid(0.05, 3)},
                          optional={"nodes": st.integers(8, 64)}),
    st.fixed_dictionaries({"preset": st.just("dirac"), "a": grid(-3, 3)}),
    st.fixed_dictionaries({"gamma": grid(-3, 3), "atoms": atom_lists}),
    # symmetric, so that the nonhermitian model samples it
    atom_lists.map(lambda atoms: {"gamma": 0, "atoms": atoms + [[-u, w] for u, w in atoms]}),
)
small_triples = st.one_of(small_triple, st.lists(small_triple, min_size=1, max_size=3).map(
    lambda parts: {"convolve": parts}))
targets = st.one_of(
    st.tuples(st.just("semicircle"), st.tuples(grid(-3, 3), grid(0.05, 3))),
    st.tuples(st.just("cauchy"), st.tuples(grid(0.05, 3))),
    st.tuples(st.just("marchenko_pastur"), st.tuples(grid(0, 3))),
    st.tuples(st.just("dirac"), st.tuples(grid(-3, 3))),
).map(lambda t: {"target": {"law": t[0], "params": list(t[1])}})
small_outputs = st.fixed_dictionaries({}, optional={
    "moments": st.fixed_dictionaries({"kmax": st.integers(1, 8)}),
    "histogram": st.fixed_dictionaries({"bins": st.integers(1, 20)}),
    "cauchy_distance": targets,
}).filter(bool)
small_configs = st.fixed_dictionaries(
    {"model": st.sampled_from(["hermitian", "nonhermitian"]), "triple": small_triples,
     "dims": st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted),
     "trials_per_dim": st.integers(1, 2), "seed": st.integers(0, 2**31),
     "outputs": small_outputs},
    optional={"inner_cut": st.floats(0.01, 2)},
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_configs)
def test_well_formed_small_configs_run(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(path)])
    if doc["model"] == "hermitian" or code != 2:
        assert code == 0, err.getvalue()
    else:
        assert err.getvalue().startswith("config error: triple:"), err.getvalue()
