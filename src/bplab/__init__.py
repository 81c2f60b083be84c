"""Random matrix models for classical and free infinitely divisible laws:
Lévy-triple calculus, partition combinatorics, Hermitian and non-Hermitian
matrix samplers, and spectral statistics for checking the limit laws.
"""

# the one place the version is written besides pyproject.toml (a test keeps
# the two equal); reports carry it, so it is set before any submodule loads
__version__ = "0.1.0"

from .rng import RngStream
from .levy import (
    FiniteMeasure,
    LevyTriple,
    CompoundPoissonParams,
    levy_exponent,
    cumulants_from_triple,
    compound_poisson_triple,
    truncate,
    convolve,
    is_symmetric,
    gaussian,
    poisson,
    dirac,
    cauchy,
    triple_from_spec,
)
from .cumulants import (
    MomentSequence,
    CumulantSequence,
    moments_from_cumulants,
    cumulants_from_moments,
    bp_transport,
)
from .hermitian import (
    HermitianSample,
    sample_haar_unitary,
    sample_Q,
    sample_P_gaussian,
    sample_P_compound_poisson,
    sample_P_many,
)
from .nonhermitian import (
    ComplexMatrixSample,
    sample_K,
    sample_L_gaussian,
    sample_L_compound_poisson,
    sample_L_many,
    symmetrized_singular_law,
)
from .sphere import (
    sample_sphere_vectors,
    sphere_moment,
    simplex_fourier,
    pd_fourier,
)
from .spectra import (
    EmpiricalDistribution,
    ReferenceLaw,
    GridSpec,
    esd,
    empirical_moments,
    cauchy_transform,
    cauchy_sup_distance,
    psi_image_moments,
    histogram,
    semicircle,
    cauchy_law,
    marchenko_pastur,
    dirac_law,
)
