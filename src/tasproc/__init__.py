"""Simulation and statistical inference for thinning-stable point processes.

The model is a stationary Poisson cluster process: cluster centres form a
homogeneous Poisson process of density lambda, and each centre carries a
Sibuya(alpha)-sized cluster of i.i.d. offsets drawn from mu0.  Small alpha
means heavy-tailed cluster sizes and bursty spatial patterns.
"""

from .model import (
    ContactCurve,
    DistanceProfile,
    EmpiricalCloud,
    IsotropicGaussian,
    PointPattern,
    TasParameters,
    UniformInterval,
    ValidationError,
    Window,
    read_pattern,
    write_pattern,
)
from .sampling import (
    RandomSource,
    sample_poisson_centres,
    sibuya_variates,
    simulate_tas,
    thin,
)
from .analytics import (
    CoverageIntegral,
    PreparedCoverage,
    analytic_contact,
    count_pgf,
    coverage_integral,
    coverage_values,
    prepare_coverage,
    sibuya_pgf,
    sibuya_pmf,
    sibuya_survival,
    thinned_contact_analytic,
)
from .estimation import (
    DegenerateDataError,
    FitResult,
    ball_count_pgf,
    distance_profile,
    empirical_contact,
    estimate_alpha_from_cluster_sizes,
    estimate_mu0_empirical,
    fit_count_pgf,
    fit_pgf_curve,
    fit_void,
    grid_test_points,
    random_test_points,
    thinned_contact_estimate,
)
from .mixture import MixtureComponent, MixtureModel, em_estimate_mu0, fit_gaussian_mixture
from .experiments import ReplicationReport, replicate_fig3, replicate_table1

__version__ = "0.1.0"
