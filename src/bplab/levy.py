"""Drift-plus-finite-measure calculus for infinitely divisible laws.

A law is represented by its drift gamma and a finite nonnegative measure G
on the real line; the mass of G at 0 carries the Gaussian variance and the
mass off 0 encodes the jumps.  All measures here are atomic: continuous
ones (Cauchy) enter through an explicit quadrature discretization, which
makes every integral a finite sum and the truncation identity exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulants import CumulantSequence

__all__ = [
    "FiniteMeasure",
    "LevyTriple",
    "CompoundPoissonParams",
    "levy_exponent",
    "cumulants_from_triple",
    "compound_poisson_triple",
    "truncate",
    "convolve",
    "is_symmetric",
    "gaussian",
    "poisson",
    "dirac",
    "cauchy",
    "triple_from_spec",
    "triple_to_spec",
    "MAX_CAUCHY_NODES",
]

_MERGE_TOL = 1e-12

# Largest "nodes" a cauchy preset may ask for: cauchy(1, 10**6) builds in
# about 1.4 s and peaks near 0.4 GB, and memory grows linearly beyond that.
MAX_CAUCHY_NODES = 10**6


def at_zero(u: np.ndarray) -> np.ndarray:
    """Which locations count as 0, the Gaussian part of G: |u| <= 1e-12, the
    width within which atoms merge."""
    return np.abs(u) <= _MERGE_TOL


def running_sum(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ..., left to right like a Python loop (np.sum
    adds pairwise, which rounds differently)."""
    return float(np.cumsum(np.append(0.0, x))[-1])


@dataclass(frozen=True)
class FiniteMeasure:
    """Nonnegative atomic measure on the reals, merged once into read-only
    sorted arrays of locations and weights; `atoms` becomes the sorted tuple
    of merged pairs.  Sorted neighbours within 1e-12 merge (a chain of them
    merges whole) into the group's first-inserted location, with the group's
    weights summed in input order."""

    atoms: tuple[tuple[float, float], ...]  # or an (n, 2) array

    def __post_init__(self):
        pairs = np.asarray(self.atoms, dtype=float)
        pairs = pairs.reshape(0, 2) if pairs.shape == (0,) else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("atoms must be (location, weight) pairs")
        if not np.isfinite(pairs).all():
            raise ValueError("atom locations and weights must be finite")
        if (pairs[:, 1] < 0).any():
            raise ValueError("atom weights must be nonnegative")
        order = np.argsort(pairs[:, 0], kind="stable")
        # sums may overflow: a gap of inf opens a group, an infinite weight
        # is refused below
        with np.errstate(over="ignore"):
            opens = np.diff(np.append(-np.inf, pairs[order, 0])) > _MERGE_TOL  # group starts
            group = np.empty_like(order)  # group of each atom, in input order
            group[order] = np.cumsum(opens) - 1
            starts = np.flatnonzero(opens)
            locs = pairs[np.minimum.reduceat(order, starts) if order.size else order, 0]
            # -0.0 is the identity of float addition: each sum is the one a
            # Python loop over the input gives, signed zeros included
            ws = np.full(starts.size, -0.0)
            np.add.at(ws, group, pairs[:, 1])
        if not np.isfinite(ws).all():
            raise ValueError("merged atom weights overflow")
        locs.flags.writeable = ws.flags.writeable = False
        object.__setattr__(self, "_locs", locs)
        object.__setattr__(self, "_weights", ws)
        object.__setattr__(self, "atoms", tuple(zip(locs.tolist(), ws.tolist())))

    @classmethod
    def zero(cls) -> "FiniteMeasure":
        return cls(())

    @classmethod
    def point(cls, loc: float, weight: float = 1.0) -> "FiniteMeasure":
        return cls(((loc, weight),))

    @property
    def total_mass(self) -> float:
        return running_sum(self._weights)

    def integrate(self, f) -> float:
        """Sum of f(u) * weight over atoms."""
        return sum(w * f(u) for u, w in self.atoms)

    def __add__(self, other: "FiniteMeasure") -> "FiniteMeasure":
        return FiniteMeasure(self.atoms + other.atoms)

    def locations(self) -> np.ndarray:
        """The sorted atom locations, read-only."""
        return self._locs

    def weights(self) -> np.ndarray:
        """The atom weights, in the order of locations(), read-only."""
        return self._weights


@dataclass(frozen=True)
class LevyTriple:
    """The (gamma, G) pair identifying an infinitely divisible law."""

    gamma: float
    G: FiniteMeasure

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass(frozen=True)
class CompoundPoissonParams:
    """Jump intensity, jump law (a probability measure) and the drift
    correction produced by truncation."""

    lam: float
    rho: FiniteMeasure
    drift_correction: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("intensity must be finite and nonnegative")
        if self.lam > 0 and not abs(self.rho.total_mass - 1.0) <= 1e-9:
            raise ValueError("jump law must be a probability measure")


def _exponent_integrand(x: float, u: np.ndarray) -> np.ndarray:
    """B(x, u) = (e^{ixu} - 1 - ixu/(1+u^2)) (1+u^2)/u^2, with B(x,0) = -x^2/2.

    Near xu = 0 the direct form cancels catastrophically; a short series in
    t = xu is used instead:
    B = (1+u^2) * (-x^2/2 - i x^2 t/6 + x^2 t^2/24 + i x^2 t^3/120) + ixu.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape, dtype=complex)
    t = x * u
    small = np.abs(t) < 1e-4
    us = u[small]
    ts = t[small]
    out[small] = (1.0 + us * us) * (
        -(x * x) / 2.0
        - 1j * x * x * ts / 6.0
        + x * x * ts * ts / 24.0
        + 1j * x * x * ts * ts * ts / 120.0
    ) + 1j * x * us
    ub = u[~small]
    out[~small] = (np.exp(1j * x * ub) - 1.0 - 1j * x * ub / (1.0 + ub * ub)) * (
        1.0 + ub * ub
    ) / (ub * ub)
    return out


def levy_exponent(t: LevyTriple, x: float) -> complex:
    """The continuous logarithm psi of the law's Fourier transform,
    normalized by psi(0) = 0."""
    if x == 0:
        return 0.0 + 0.0j
    locs = t.G.locations()
    if locs.size == 0:
        return 1j * t.gamma * x
    ws = t.G.weights()
    return 1j * t.gamma * x + complex(np.sum(ws * _exponent_integrand(float(x), locs)))


def cumulants_from_triple(t: LevyTriple, kmax: int) -> CumulantSequence:
    """Classical cumulants: c_1 = gamma + int u dG, c_k = int u^{k-2}(1+u^2) dG
    for k >= 2 (finite sums over atoms)."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    c = [t.gamma + t.G.integrate(lambda u: u)]
    for k in range(2, kmax + 1):
        c.append(t.G.integrate(lambda u: u ** (k - 2) * (1.0 + u * u)))
    return CumulantSequence("classical", tuple(c))


def compound_poisson_triple(rho: FiniteMeasure, lam: float) -> LevyTriple:
    """The (gamma, G) of the compound Poisson law with intensity lam and
    jump law rho: G = lam u^2/(1+u^2) drho, gamma = lam int u/(1+u^2) drho."""
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    if lam == 0:
        return LevyTriple(0.0, FiniteMeasure.zero())
    if abs(rho.total_mass - 1.0) > 1e-9:
        raise ValueError("rho must be a probability measure")
    atoms = tuple(
        (u, lam * w * u * u / (1.0 + u * u)) for u, w in rho.atoms if u != 0.0
    )
    gamma = lam * rho.integrate(lambda u: u / (1.0 + u * u))
    return LevyTriple(gamma, FiniteMeasure(atoms))


def truncate(t: LevyTriple, cut: float) -> tuple[LevyTriple, CompoundPoissonParams]:
    """Split off the jumps beyond [-cut, cut] as a compound Poisson tail.

    Returns (inner, tail) with inner = (gamma + a, G restricted to the cut)
    and tail = (lam, rho, a); convolving inner with the tail's compound
    Poisson triple reconstructs t atom-exactly.  An atom at zero (at_zero:
    |u| <= 1e-12) is Gaussian mass and stays in inner at any cut.
    """
    if not cut > 0:
        raise ValueError("cut must be positive")
    u, w = t.G.locations(), t.G.weights()
    out = (np.abs(u) > cut) & ~at_zero(u)
    u_out, w_out = u[out], w[out]
    with np.errstate(all="ignore"):
        intensity = w_out * (1.0 + u_out * u_out) / (u_out * u_out)
        # running sums in atom order, as the sampled bits depend on them
        lam = running_sum(intensity)
        a = running_sum(-(w_out / u_out))
    if not (math.isfinite(lam) and math.isfinite(a)):
        raise ValueError("the tail intensity overflows: jumps too close to 0 or too large")
    rho = FiniteMeasure(np.column_stack((u_out, intensity / lam)) if lam > 0 else ())
    inner = LevyTriple(t.gamma + a, FiniteMeasure(np.column_stack((u[~out], w[~out]))))
    return inner, CompoundPoissonParams(lam, rho, a)


def convolve(t1: LevyTriple, t2: LevyTriple) -> LevyTriple:
    """Convolution of the laws is addition of the parameters."""
    return LevyTriple(t1.gamma + t2.gamma, t1.G + t2.G)


def is_symmetric(t: LevyTriple, tol: float = 1e-9) -> bool:
    """The law is symmetric iff gamma = 0 and G is invariant under u -> -u.

    Each atom u != 0 needs a partner, the first atom um in sorted order with
    |um + u| <= max(tol, 1e-12); for u > 0 the partner's weight must also
    match within tol.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if abs(t.gamma) > tol:
        return False
    locs, ws = t.G.locations(), t.G.weights()
    nonzero = locs != 0
    u, w = locs[nonzero], ws[nonzero]
    if u.size == 0:
        return True
    eps = max(tol, _MERGE_TOL)
    # first index with locs + u >= -eps, exactly as that sum rounds: the
    # searchsorted guess can be off by an ulp-sized step either way.  A sum
    # that overflows is an infinity of the right sign, so it compares right.
    n = locs.size
    idx = np.searchsorted(locs, -u - eps)
    with np.errstate(over="ignore"):
        while True:
            left = (idx > 0) & (locs[np.maximum(idx - 1, 0)] + u >= -eps)
            right = (idx < n) & (locs[np.minimum(idx, n - 1)] + u < -eps)
            if not (left.any() or right.any()):
                break
            idx += right.astype(int) - left.astype(int)
        at = np.minimum(idx, n - 1)
        found = (idx < n) & (np.abs(locs[at] + u) <= eps)
    if not found.all():
        return False
    positive = u > 0
    return bool(np.all(np.abs(ws[at[positive]] - w[positive]) <= tol))


# ---------------------------------------------------------------------------
# built-in triples


def gaussian(mean: float, var: float) -> LevyTriple:
    """N(mean, var): drift = mean, G = var * delta_0."""
    if var < 0:
        raise ValueError("variance must be nonnegative")
    if var == 0:
        return LevyTriple(mean, FiniteMeasure.zero())
    return LevyTriple(mean, FiniteMeasure.point(0.0, var))


def poisson(lam: float) -> LevyTriple:
    """Classical Poisson(lam): compound Poisson with unit jumps."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return compound_poisson_triple(FiniteMeasure.point(1.0), lam)


def dirac(a: float) -> LevyTriple:
    """Point mass at a: pure drift."""
    return LevyTriple(a, FiniteMeasure.zero())


def cauchy(a: float, n_nodes: int = 401) -> LevyTriple:
    """Discretized Cauchy(a) triple: gamma = 0 and G approximating the
    density a / (pi (1+u^2)).

    Nodes are equal-mass in the arctan scale over [-T, T] with T = 1000 a,
    plus a tail-correction atom at each end carrying the remaining mass, so
    the total mass of G is exactly a.  The resulting Levy exponent tracks
    the exact -a|x| to a few parts in a thousand at the default node count.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if n_nodes < 8:
        raise ValueError("need at least 8 nodes")
    T = 1e3 * a
    theta_max = math.atan(T)
    edges = np.linspace(-theta_max, theta_max, n_nodes + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    mass = a * (edges[1:] - edges[:-1]) / math.pi  # G(dtheta) = a/pi dtheta
    locs = np.tan(mids)
    tail = a * (math.pi / 2.0 - theta_max) / math.pi
    atoms = [(float(u), float(m)) for u, m in zip(locs, mass)]
    atoms.append((-T, tail))
    atoms.append((T, tail))
    return LevyTriple(0.0, FiniteMeasure(tuple(atoms)))


# ---------------------------------------------------------------------------
# serialization (JSON-compatible object model, shared with the CLI)


def triple_from_spec(spec) -> LevyTriple:
    """Parse the JSON-compatible triple description; any bad spec raises
    ValueError.

    Accepted forms: {"gamma": g, "atoms": [[loc, w], ...]},
    {"preset": "gaussian", "mean": m, "var": v}, {"preset": "poisson",
    "lambda": l}, {"preset": "cauchy", "a": a, "nodes": n} with an integer
    n in [8, MAX_CAUCHY_NODES], {"preset": "dirac", "a": a}, and
    {"convolve": [spec, ...]}.
    """
    try:
        return _parse_spec(spec)
    except RecursionError:
        raise ValueError("triple spec is nested too deeply") from None


def _parse_spec(spec) -> LevyTriple:
    if not isinstance(spec, dict):
        raise ValueError("triple spec must be an object")
    if "convolve" in spec:
        parts = spec["convolve"]
        if not isinstance(parts, list) or not parts:
            raise ValueError("'convolve' takes a nonempty list of specs")
        out = _parse_spec(parts[0])
        for part in parts[1:]:
            out = convolve(out, _parse_spec(part))
        return out
    if "preset" in spec:
        name = spec["preset"]
        if name == "gaussian":
            return gaussian(_number(spec, "mean"), _number(spec, "var"))
        if name == "poisson":
            return poisson(_number(spec, "lambda"))
        if name == "cauchy":
            a = _number(spec, "a")
            nodes = _number(spec, "nodes", 401)
            if not nodes.is_integer() or not 8 <= nodes <= MAX_CAUCHY_NODES:
                raise ValueError(f"'nodes' must be an integer in [8, {MAX_CAUCHY_NODES}]")
            return cauchy(a, int(nodes))
        if name == "dirac":
            return dirac(_number(spec, "a"))
        raise ValueError(f"unknown preset {name!r}")
    if "gamma" in spec:
        try:
            atoms = tuple((_json_float(u), _json_float(w)) for u, w in spec.get("atoms", []))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"'atoms' must be a list of [location, weight] pairs: {exc}") from exc
        return LevyTriple(_number(spec, "gamma"), FiniteMeasure(atoms))
    raise ValueError("triple spec needs 'gamma', 'preset' or 'convolve'")


def _number(spec: dict, key: str, default: float | None = None) -> float:
    """spec[key], or default when absent, as a finite float; errors name the key."""
    try:
        value = _json_float(spec.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key!r} is missing or not a number") from exc
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be finite")
    return value


def _json_float(value) -> float:
    """float(value) of a JSON number: true and false are not numbers."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def triple_to_spec(t: LevyTriple) -> dict:
    return {"gamma": t.gamma, "atoms": [[u, w] for u, w in t.G.atoms]}
