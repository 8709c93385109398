"""Total variation denoising on graphs.

Builds the graph families whose TV denoising behavior is governed by two
spectral constants (the inverse scaling factor rho and the compatibility
factor kappa), computes those constants exactly or through closed-form
eigensums, solves the denoising problem with a certified first-order
method, and reproduces the island-model and nonparametric-regression
Monte Carlo studies at desk scale.
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    GraphGenerationError,
    build_augmented_path,
    build_complete,
    build_cycle_power,
    build_erdos_renyi,
    build_grid,
    build_hypercube,
    build_path,
    build_random_regular,
    build_star,
    incidence,
    is_connected,
    read_edge_list,
    write_edge_list,
)
from .spectral import (  # noqa: F401
    SpectralReport,
    circulant_eigenvalues,
    kappa_exact_bruteforce,
    kappa_lower_bound,
    path_eigenpairs,
    pseudoinverse_columns_dense,
    rho_dense,
    rho_structured_grid,
    spectral_gap,
    spectral_report,
)
from .tvsolver import (  # noqa: F401
    DenoiseProblem,
    DenoiseResult,
    LambdaRule,
    SolverOptions,
    denoise,
    denoise_complete_exact,
    denoise_path_exact,
    kkt_certificate,
    lambda_value,
    objective_value,
    solve,
    solver_for,
    tv1d_prox,
)
from .haar import (  # noqa: F401
    haar_basis_2d,
    haar_denoise_2d,
    haar_transform_1d,
    haar_transform_2d,
    inverse_1d,
    inverse_2d,
    soft_threshold,
)
from .signals import (  # noqa: F401
    NoiseModel,
    SignalSpec,
    bi_isotonic_signal,
    gaussian_noise,
    island_signal,
    sample_grid_function,
)
from .experiments import (  # noqa: F401
    ExperimentConfig,
    ExperimentRecord,
    RateFit,
    fit_rate,
    kl_linearity_check,
    oracle_lambda_search,
    preset_configs,
    rate_study_nonparametric,
    run_experiment,
    stable_min_index,
)
