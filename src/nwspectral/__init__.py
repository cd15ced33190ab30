"""Spectral-codomain solvers for generalized reaction-diffusion equations.

The package carries two closed-form solution families (convolutional and
multiplicative nonlinearities), the transform plumbing they live on, an
independent time-stepping oracle, and verification suites that measure
every claim against an explicit tolerance.
"""

from .core import (BranchError, KernelSpec, PhysicalParams, PoleError,
                   SolverError, SpatialGrid, SpectralField, SpectralGrid,
                   make_grids)
from .spectral import (TransformPlan, circular_convolve,
                       circular_convolve_many, conv_theorem_residual,
                       default_plan, derivative_distribution_residual,
                       parseval_defect, wraparound_mass)
from .kernels import (RootedKernelParams, erfc, erfc_pair,
                      erfc_pair_codomain, gauss_codomain,
                      gauss_selfconv_exact, heat_kernel,
                      iterated_gauss_selfconv, lorentzian_codomain,
                      lorentzian_pair, rooted_codomain, selfconv_discrete)
from .conv import (ConvSolution, RootReport, bernoulli_residual,
                   bernoulli_terms, beta_of, codomain_ode_residual,
                   fisher_codomain_expansion, fisher_erfc_approx,
                   fisher_erfc_transform_consistent, h_specific,
                   large_p_limit, root_locus, root_time, solve_forced,
                   solve_physical, solve_with_kernels)
from .mult import (GrowthWarning, MultSolverPlan, corollary_integrand,
                   fisher_constant_prob, fisher_quadratic,
                   h_mult_certificate, h_mult_corollary, h_mult_quadrature,
                   mult_codomain, pde_residual_physical, solve_mult)
from .oracle import (BlowUpError, OracleRun, Trajectory, final_field,
                     resolve_initial, scalar_ode_oracle, stability_bound,
                     step_etd)
from .report import (CheckRecord, Resolution, VerificationReport, run_suite,
                     SUITES)

__version__ = "0.1.0"

__all__ = [
    "BranchError", "KernelSpec", "PhysicalParams", "PoleError",
    "SolverError", "SpatialGrid", "SpectralField", "SpectralGrid",
    "make_grids",
    "TransformPlan", "circular_convolve", "circular_convolve_many",
    "conv_theorem_residual", "default_plan",
    "derivative_distribution_residual", "parseval_defect",
    "wraparound_mass",
    "RootedKernelParams", "erfc", "erfc_pair", "erfc_pair_codomain",
    "gauss_codomain", "gauss_selfconv_exact", "heat_kernel",
    "iterated_gauss_selfconv", "lorentzian_codomain", "lorentzian_pair",
    "rooted_codomain", "selfconv_discrete",
    "ConvSolution", "RootReport", "bernoulli_residual", "bernoulli_terms",
    "beta_of", "codomain_ode_residual", "fisher_codomain_expansion",
    "fisher_erfc_approx", "fisher_erfc_transform_consistent", "h_specific",
    "large_p_limit", "root_locus", "root_time", "solve_forced",
    "solve_physical", "solve_with_kernels",
    "GrowthWarning", "MultSolverPlan", "corollary_integrand",
    "fisher_constant_prob", "fisher_quadratic", "h_mult_certificate",
    "h_mult_corollary", "h_mult_quadrature", "mult_codomain",
    "pde_residual_physical", "solve_mult",
    "BlowUpError", "OracleRun", "Trajectory", "final_field",
    "resolve_initial", "scalar_ode_oracle", "stability_bound", "step_etd",
    "CheckRecord", "Resolution", "VerificationReport", "run_suite",
    "SUITES",
    "__version__",
]
