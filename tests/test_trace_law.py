"""The trace of P_d has the law mu^{*d} exactly, at every d.

At A = s I, <u, A u> = s for every unit vector u, so E exp(i s Tr P_d) =
exp(d psi(s)) with psi the Levy exponent of mu.  Each exact sampling path of
P_d is checked against it: the empirical characteristic function of the
trace at a few s, real and imaginary parts, within a z bound that holds all
the comparisons of this file to a false-alarm rate of 1e-4 (Bonferroni).
The triples are atomic and sampled at the default cut, which makes them
exact.
"""

from statistics import NormalDist

import numpy as np
import pytest

from bplab import hermitian
from bplab.hermitian import sample_P_many
from bplab.levy import (FiniteMeasure, LevyTriple, compound_poisson_triple, cumulants_from_triple,
                        gaussian, levy_exponent)
from bplab.rng import RngStream

MIXED = LevyTriple(0.1, FiniteMeasure(((0.0, 0.5), (1.0, 0.25), (-0.5, 0.4))))
JUMPS = FiniteMeasure(((1.0, 2 / 3), (-2.0, 1 / 3)))

# (path, triple, d): the path each sample of the case takes, or most do
CASES = [
    ("block", gaussian(0.3, 2.0), 2),  # at small d, 1/d and 1/(d + 1) differ most
    ("block + tail", MIXED, 3),
    ("kept sum", compound_poisson_triple(JUMPS, 3.0), 2),  # n ~ Poisson(6) >= d
    ("own basis", compound_poisson_triple(JUMPS, 0.25), 6),  # n ~ Poisson(1.5) < d
    ("d = 1", MIXED, 1),
]
N_SAMPLES = 3000
SCALES = (0.5, 1.0, 1.5)  # s times the standard deviation of the trace
Z_BOUND = NormalDist().inv_cdf(1 - 1e-4 / (2 * 2 * len(SCALES) * len(CASES)))


def _traces_and_paths(monkeypatch, t, d, seed):
    """N_SAMPLES traces of P_d of t, and the set of paths their tails took."""
    paths = set()
    terms = hermitian._rank_one_terms

    def recording(x, d, gen, pairs=False, summed=False):
        paths.add("block + tail" if summed else "kept sum" if x.size >= d else "own basis")
        return terms(x, d, gen, pairs, summed)

    monkeypatch.setattr(hermitian, "_rank_one_terms", recording)
    samples = sample_P_many(t, d, RngStream(61, seed), N_SAMPLES)
    if d == 1:
        paths = {"d = 1"}
    elif any(s.block is not None for s in samples):
        paths.add("block")
    return np.array([np.trace(s.entries).real for s in samples]), paths


@pytest.mark.parametrize("case", range(len(CASES)))
def test_the_trace_has_the_law_of_the_d_fold_convolution(monkeypatch, case):
    path, t, d = CASES[case]
    traces, paths = _traces_and_paths(monkeypatch, t, d, case)
    assert path in paths
    sd = np.sqrt(d * cumulants_from_triple(t, 2)[2])
    for scale in SCALES:
        s = scale / sd
        phi, phi2 = (np.exp(d * levy_exponent(t, a)) for a in (s, 2 * s))
        # Var cos(sT) = (1 + Re phi(2s)) / 2 - (Re phi(s))^2, and likewise for sin
        for got, want, var in (
            (np.cos(s * traces).mean(), phi.real, (1 + phi2.real) / 2 - phi.real**2),
            (np.sin(s * traces).mean(), phi.imag, (1 - phi2.real) / 2 - phi.imag**2),
        ):
            z = (got - want) / np.sqrt(var / N_SAMPLES)
            assert abs(z) <= Z_BOUND, (path, scale, got, want, z)
