"""Spectral-codomain solvers for generalized reaction-diffusion equations.

The package carries two closed-form solution families (convolutional and
multiplicative nonlinearities), the grid and transform they live on (one
TransformPlan per (n, L); codomain samples are plain arrays), an
independent time-stepping oracle, and verification suites that measure
every claim against an explicit tolerance.

Exported names are loaded on first access (PEP 562), so importing the
package, or a command that needs no quadrature, does not import scipy.
"""

import importlib

__version__ = "0.1.0"

# Every exported name, by the submodule that defines it.
_EXPORTS = {
    "core": ("BranchError", "KernelSpec", "PhysicalParams", "PoleError",
             "SUITES", "SolverError"),
    "spectral": ("TransformPlan", "circular_convolve",
                 "circular_convolve_many", "conv_theorem_residual",
                 "default_plan", "derivative_distribution_residual",
                 "parseval_defect", "wraparound_mass"),
    "kernels": ("erfc", "erfc_pair", "erfc_pair_codomain", "gauss_codomain",
                "gauss_selfconv_exact", "heat_kernel",
                "iterated_gauss_selfconv", "lorentzian_codomain",
                "lorentzian_pair", "rooted_codomain"),
    "conv": ("ConvSolution", "RootReport", "beta_of", "codomain_ode_residual",
             "fisher_codomain_expansion", "fisher_erfc_approx",
             "fisher_erfc_transform_consistent", "h_specific",
             "large_p_limit", "root_locus", "root_time", "solve_forced",
             "solve_physical", "solve_with_kernels"),
    "mult": ("GrowthWarning", "MultSolverPlan", "corollary_integrand",
             "fisher_constant_prob", "fisher_quadratic",
             "h_mult_certificate", "h_mult_corollary", "h_mult_quadrature",
             "mult_codomain", "pde_residual_physical", "solve_mult"),
    "oracle": ("BlowUpError", "OracleRun", "Trajectory", "resolve_initial",
               "scalar_ode_oracle", "stability_bound", "step_etd"),
    "report": ("CheckRecord", "Resolution", "VerificationReport",
               "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
