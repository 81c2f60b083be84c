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
from functools import cached_property, partial

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
# about 0.10-0.17 s and peaks near 122 MB of process RSS, and memory grows
# linearly beyond that.
MAX_CAUCHY_NODES = 10**6


def at_zero(u: np.ndarray) -> np.ndarray:
    """Which locations count as 0, the Gaussian part of G: |u| <= 1e-12, the
    width within which atoms merge."""
    return np.abs(u) <= _MERGE_TOL


def running_sum(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ..., left to right like a Python loop (np.sum
    adds pairwise, which rounds differently)."""
    return float(np.cumsum(np.append(0.0, x))[-1])


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Nonnegative atomic measure on the reals, held once as `atoms`: the
    read-only (n, 2) float array of merged (location, weight) pairs, sorted
    by location.  Sorted neighbours within 1e-12 merge (a chain of them
    merges whole) into the group's first-inserted location, with the group's
    weights summed in input order.  Measures are equal when their arrays
    are, and unhashable."""

    atoms: np.ndarray  # given as any sequence of (location, weight) pairs

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
            # -0.0 is the identity of float addition: each sum is the one a
            # Python loop over the input gives, signed zeros included
            merged = np.full((starts.size, 2), -0.0)
            merged[:, 0] = pairs[np.minimum.reduceat(order, starts) if order.size else order, 0]
            np.add.at(merged[:, 1], group, pairs[:, 1])
        if not np.isfinite(merged[:, 1]).all():
            raise ValueError("merged atom weights overflow")
        merged.flags.writeable = False
        object.__setattr__(self, "atoms", merged)

    def __eq__(self, other):
        return isinstance(other, FiniteMeasure) and np.array_equal(self.atoms, other.atoms)

    @classmethod
    def zero(cls) -> "FiniteMeasure":
        return cls(())

    @classmethod
    def point(cls, loc: float, weight: float = 1.0) -> "FiniteMeasure":
        return cls(((loc, weight),))

    @property
    def total_mass(self) -> float:
        return running_sum(self.weights())

    def __add__(self, other: "FiniteMeasure") -> "FiniteMeasure":
        return FiniteMeasure(np.concatenate((self.atoms, other.atoms)))

    def locations(self) -> np.ndarray:
        """The sorted atom locations, a read-only column of atoms."""
        return self.atoms[:, 0]

    def weights(self) -> np.ndarray:
        """The atom weights, in the order of locations(), a read-only column of atoms."""
        return self.atoms[:, 1]


@dataclass(frozen=True)
class LevyTriple:
    """The (gamma, G) pair identifying an infinitely divisible law."""

    gamma: float
    G: FiniteMeasure

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @cached_property
    def _decompositions(self) -> dict:
        """hermitian._decompose's splits of this triple, by cut: a triple is
        immutable, so each cut is split once however many samples, trials
        or runs use it.  Not a field, so not compared or printed."""
        return {}


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
    for k >= 2 (running sums over atoms).  A power that overflows is inf."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    u, w = t.G.locations(), t.G.weights()
    c = [t.gamma + running_sum(w * u)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, kmax + 1):
            # the C library's pow, as a Python float power; np.power rounds otherwise
            c.append(running_sum(w * (np.float_power(u, k - 2) * (1.0 + u * u))))
    return CumulantSequence("classical", tuple(c))


def compound_poisson_triple(rho: FiniteMeasure, lam: float) -> LevyTriple:
    """The (gamma, G) of the compound Poisson law with intensity lam and
    jump law rho: G = lam u^2/(1+u^2) drho, gamma = lam int u/(1+u^2) drho."""
    CompoundPoissonParams(lam, rho)  # refuses a bad intensity or jump law
    if lam == 0:
        return LevyTriple(0.0, FiniteMeasure.zero())
    u, w = rho.locations(), rho.weights()
    uj = u[u != 0.0]
    with np.errstate(over="ignore", invalid="ignore"):  # FiniteMeasure refuses inf and nan
        G = np.column_stack((uj, lam * w[u != 0.0] * uj * uj / (1.0 + uj * uj)))
        gamma = lam * running_sum(w * (u / (1.0 + u * u)))
    return LevyTriple(gamma, FiniteMeasure(G))


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

    Within tol: |gamma| <= tol, and the jumps (the atoms off zero; at_zero
    mass is Gaussian) mirror in sorted order: the i-th smallest u_i and the
    i-th largest u_{n-1-i} have |u_i + u_{n-1-i}| <= max(tol, 1e-12) and
    weights within tol.  A sum that overflows is inf, so not a mirror.
    Sorted pairing can refuse a cluster of jumps narrower than tol whose
    weights pair up only out of order.  tol must be finite.
    """
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be nonnegative and finite")
    jumps = ~at_zero(t.G.locations())
    u, w = t.G.locations()[jumps], t.G.weights()[jumps]
    with np.errstate(over="ignore"):
        mirrored = np.abs(u + u[::-1]) <= max(tol, _MERGE_TOL)
    return bool(abs(t.gamma) <= tol and mirrored.all() and (np.abs(w - w[::-1]) <= tol).all())


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
    return compound_poisson_triple(FiniteMeasure.point(1.0), lam)


def dirac(a: float) -> LevyTriple:
    """Point mass at a: pure drift."""
    return LevyTriple(a, FiniteMeasure.zero())


def cauchy(a: float, n_nodes: int = 401) -> LevyTriple:
    """Discretized Cauchy(a) triple: gamma = 0 and G approximating the
    density a / (pi (1+u^2)).

    Nodes are equal-mass in the arctan scale over [-T, T] with T = 1000 a,
    plus a tail-correction atom at each end carrying the remaining mass, so
    the total mass of G is a, up to the rounding of the cell masses.  The
    negative nodes are the positive ones negated, so the law is exactly
    symmetric.  The resulting Levy exponent tracks the exact -a|x| to a few
    parts in a thousand at the default node count.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if n_nodes < 8:
        raise ValueError("need at least 8 nodes")
    T = 1e3 * a
    theta_max = math.atan(T)
    edges = np.linspace(-theta_max, theta_max, n_nodes + 1)
    locs = np.tan(0.5 * (edges[:-1] + edges[1:]))
    mass = a * (edges[1:] - edges[:-1]) / math.pi  # G(dtheta) = a/pi dtheta
    # the negative half is the positive half negated, in locations and
    # masses, so G is exactly symmetric: linspace rounds its halves apart
    half = n_nodes // 2
    locs[:half], mass[:half] = -locs[: -half - 1 : -1], mass[: -half - 1 : -1]
    tail = a * (math.pi / 2.0 - theta_max) / math.pi
    atoms = np.column_stack((np.append(locs, (-T, T)), np.append(mass, (tail, tail))))
    return LevyTriple(0.0, FiniteMeasure(atoms))


# ---------------------------------------------------------------------------
# serialization (JSON-compatible object model, shared with the CLI)


def triple_from_spec(spec) -> LevyTriple:
    """Parse the JSON-compatible triple description; any bad spec raises
    ValueError, a ConfigError naming the field at fault within the spec
    (`lambda`, `convolve[1].lambda`) where there is one.

    Accepted forms: {"gamma": g, "atoms": [[loc, w], ...]},
    {"preset": "gaussian", "mean": m, "var": v}, {"preset": "poisson",
    "lambda": l}, {"preset": "cauchy", "a": a, "nodes": n} with an integer
    n in [8, MAX_CAUCHY_NODES], {"preset": "dirac", "a": a}, and
    {"convolve": [spec, ...]}.
    """
    try:
        return _parse_spec(spec, "")
    except RecursionError:
        raise ValueError("triple spec is nested too deeply") from None


def _parse_spec(spec, path: str) -> LevyTriple:
    """The triple of spec, its fields named under path ($ for the spec
    itself when path is empty)."""
    at = f"{path}." if path else ""  # the path of each field is at + its key

    def number(key: str) -> float:
        if key not in spec:
            raise ConfigError(at + key, "missing")
        return _finite(at + key, spec[key])

    if not isinstance(spec, dict):
        raise ConfigError(path or "$", "must be an object")
    if "convolve" in spec:
        parts = _object(spec, path, "convolve")["convolve"]
        if not isinstance(parts, list) or not parts:
            raise ConfigError(at + "convolve", "must be a nonempty list of specs")
        out = _parse_spec(parts[0], at + "convolve[0]")
        for i in range(1, len(parts)):
            out = convolve(out, _parse_spec(parts[i], f"{at}convolve[{i}]"))
        return out
    if "preset" in spec:
        # the numbers are read first; a builder's range error names the field it checks
        name = spec["preset"]
        if name == "gaussian":
            _object(spec, path, "preset", "mean", "var")
            return _read(at + "var", partial(gaussian, number("mean"), number("var")))
        if name == "poisson":
            _object(spec, path, "preset", "lambda")
            return _read(at + "lambda", partial(poisson, number("lambda")))
        if name == "cauchy":
            _object(spec, path, "preset", "a", "nodes")
            return _read(at + "a", partial(cauchy, number("a"), _integer(
                at + "nodes", spec.get("nodes", 401), 8, MAX_CAUCHY_NODES)))
        if name == "dirac":
            _object(spec, path, "preset", "a")
            return dirac(number("a"))
        raise ConfigError(at + "preset", f"unknown preset {name!r}")
    if "gamma" in spec:
        atoms = _object(spec, path, "gamma", "atoms").get("atoms", [])
        if not isinstance(atoms, list):  # "" and {} would read as no atoms
            raise ConfigError(at + "atoms", "must be a list of [location, weight] pairs")
        return LevyTriple(number("gamma"), _read(at + "atoms", lambda: FiniteMeasure(
            [[_json_float(u), _json_float(w)] for u, w in atoms])))
    raise ConfigError(path or "$", "needs 'gamma', 'preset' or 'convolve'")


# Each value of a config, of a triple spec or of a flag is read by one of
# these rules, and refused under its path: numbers by _json_float (finite
# ones by _finite), integers by _integer, objects by _object, and every
# other read by _read.


class ConfigError(ValueError):
    """Invalid config, triple spec or flag; carries the offending field's path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _object(doc, path: str, *known: str) -> dict:
    """doc, an object whose fields are all known ones; a config error naming
    path (the config itself when path is empty), or the unknown field's
    path, otherwise."""
    if not isinstance(doc, dict):
        raise ConfigError(path or "$", "must be an object")
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"unknown field; known: {', '.join(known)}")
    return doc


def _integer(path: str, value, least: int, most: float = math.inf, why: str = "") -> int:
    """value, a JSON integer (_json_int) in [least, most]; a config error
    naming path, and the range, otherwise."""
    try:
        if least <= _json_int(value) <= most:
            return value
    except TypeError:
        pass
    bound = f"in [{least}, {most}]" if most < math.inf else f">= {least}"
    raise ConfigError(path, f"must be an integer {bound}{why}")


def _finite(path: str, value) -> float:
    """value, a JSON number (_json_float), as a finite float; a config error
    naming path otherwise."""
    number = _read(path, lambda: _json_float(value))
    if not math.isfinite(number):
        raise ConfigError(path, "must be finite")
    return number


def _read(path: str, read):
    """read(); a value it cannot read (TypeError, ValueError or
    OverflowError), or a file or JSON text it cannot decode (OSError;
    JSONDecodeError and UnicodeDecodeError are ValueErrors), is a config
    error naming path."""
    try:
        return read()
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc
    except RecursionError:
        raise ConfigError(path, "JSON nested too deeply") from None


def _json_float(value) -> float:
    """float(value) of a JSON number, an int or a float: true, false and
    strings are not numbers (TypeError), and an int that no float holds
    raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"a {type(value).__name__} is not a number")
    return float(value)


def _json_int(value) -> int:
    """value, a JSON integer: an int that is not a bool (TypeError otherwise),
    since true is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"a {type(value).__name__} is not an integer")
    return value


def triple_to_spec(t: LevyTriple) -> dict:
    return {"gamma": t.gamma, "atoms": t.G.atoms.tolist()}
