"""The traces of P_d and L_d have exact laws, at every d.

At A = s I, <u, A u> = s for every unit vector u, so E exp(i s Tr P_d) =
exp(d psi(s)) with psi the Levy exponent of mu: Tr P_d has the law mu^{*d}.

Re Tr L_d sums the real parts of the Ginibre block's diagonal, N(0, s'^2 / 2)
in all for a block of variance s'^2, and x_k Re <w_k, u_k> over the
Poisson(d lam) terms.  With u and w independent and uniform on the unit
sphere of C^d, Re <w, u> is one coordinate of a uniform point of the sphere
of R^{2d}, so E exp(i s Re Tr L_d) = exp(-s'^2 s^2 / 4 + d lam E_rho[phi_d(s x)
- 1]) with phi_d(t) = Gamma(d) (2 / t)^{d - 1} J_{d - 1}(t).

Each exact sampling path of both models is checked against its law: the
empirical characteristic function of the (real) trace at a few s, real and
imaginary parts, within a z bound that holds the comparisons of each model
to a false-alarm rate of 1e-4 (Bonferroni over the P cases, which outnumber
the L cases).  The triples are atomic and sampled at the default cut, which
makes them exact.
"""

from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import gammaln, jv

from bplab import hermitian
from bplab.hermitian import _decompose, sample_P_many
from bplab.levy import (FiniteMeasure, LevyTriple, compound_poisson_triple, cumulants_from_triple,
                        gaussian, levy_exponent)
from bplab.nonhermitian import sample_L_many
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
SYMMETRIC = LevyTriple(0.0, FiniteMeasure(((0.0, 0.5), (1.0, 0.25), (-1.0, 0.25), (2.0, 0.1),
                                            (-2.0, 0.1))))
SYMMETRIC_JUMPS = FiniteMeasure(((-2.0, 1 / 6), (-1.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 6)))

L_CASES = [
    ("block", gaussian(0.0, 2.0), 2),  # Ginibre only
    ("block + tail", SYMMETRIC, 3),
    ("kept sum", compound_poisson_triple(SYMMETRIC_JUMPS, 3.0), 2),  # n ~ Poisson(6) >= d
    ("own basis", compound_poisson_triple(SYMMETRIC_JUMPS, 0.25), 6),  # n ~ Poisson(1.5) < d
]
N_SAMPLES = 3000
SCALES = (0.5, 1.0, 1.5)  # s times the standard deviation of the trace
Z_BOUND = NormalDist().inv_cdf(1 - 1e-4 / (2 * 2 * len(SCALES) * len(CASES)))


def _traces_and_paths(monkeypatch, t, d, rng, many=sample_P_many):
    """The real parts of the traces of N_SAMPLES samples of many (P_d or
    L_d) of t, and the set of paths their tails took."""
    paths = set()
    terms = hermitian._rank_one_terms

    def recording(x, d, gen, pairs=False, summed=False):
        paths.add("block + tail" if summed else "kept sum" if x.size >= d else "own basis")
        return terms(x, d, gen, pairs, summed)

    monkeypatch.setattr(hermitian, "_rank_one_terms", recording)
    samples = many(t, d, rng, N_SAMPLES)
    if d == 1:
        paths = {"d = 1"}
    elif any(s.block is not None for s in samples):
        paths.add("block")
    return np.array([np.trace(s.entries).real for s in samples]), paths


@pytest.mark.parametrize("case", range(len(CASES)))
def test_the_trace_has_the_law_of_the_d_fold_convolution(monkeypatch, case):
    path, t, d = CASES[case]
    traces, paths = _traces_and_paths(monkeypatch, t, d, RngStream(61, case))
    assert path in paths
    sd = np.sqrt(d * cumulants_from_triple(t, 2)[2])
    _assert_characteristic_function(path, traces, sd, lambda s: np.exp(d * levy_exponent(t, s)))


def _sphere_cf(d: int, t: np.ndarray) -> np.ndarray:
    """phi_d(t) = E exp(i t Re <w, u>) for u, w uniform on the unit sphere of
    C^d, at t != 0 (an even function)."""
    t = np.abs(t)
    return np.exp(gammaln(d) + (d - 1) * np.log(2.0 / t)) * jv(d - 1, t)


@pytest.mark.parametrize("case", range(len(L_CASES)))
def test_the_real_trace_of_L_has_its_exact_law(monkeypatch, case):
    path, t, d = L_CASES[case]
    traces, paths = _traces_and_paths(monkeypatch, t, d, RngStream(62, case), sample_L_many)
    assert path in paths
    dec = _decompose(t, None)  # the sampled triple: block variance, tail (lam, rho)
    lam, x, p = dec.tail.lam, dec.tail.rho.locations(), dec.tail.rho.weights()
    sd = np.sqrt((dec.var + lam * np.sum(p * x * x)) / 2.0)

    def phi(s):
        return np.exp(-dec.var * s * s / 4.0 + d * lam * np.sum(p * (_sphere_cf(d, s * x) - 1.0)))

    _assert_characteristic_function(path, traces, sd, phi)


def _assert_characteristic_function(path, traces, sd, phi):
    """The empirical characteristic function of traces at s = SCALES / sd
    against phi(s), within Z_BOUND standard errors."""
    for scale in SCALES:
        s = scale / sd
        phi1, phi2 = complex(phi(s)), complex(phi(2 * s))
        # Var cos(sT) = (1 + Re phi(2s)) / 2 - (Re phi(s))^2, and likewise for sin
        for got, want, var in (
            (np.cos(s * traces).mean(), phi1.real, (1 + phi2.real) / 2 - phi1.real**2),
            (np.sin(s * traces).mean(), phi1.imag, (1 - phi2.real) / 2 - phi1.imag**2),
        ):
            z = (got - want) / np.sqrt(var / N_SAMPLES)
            assert abs(z) <= Z_BOUND, (path, scale, got, want, z)
