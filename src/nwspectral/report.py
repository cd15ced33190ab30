"""Verification suites and the structured report they produce.

Every check is a named record with a measured number and an explicit
tolerance; a record passes only when measured < tolerance. Ambiguity
resolutions (factor counting, scaling hypotheses, prefactor discrepancies,
reading choices) ride along as informational entries: they document what
was decided and what was measured, and never gate the exit status.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc as _scipy_erfc

from . import conv as _conv
from . import kernels as _kernels
from . import mult as _mult
from . import oracle as _oracle
from .core import SUITES, PhysicalParams
from .spectral import (circular_convolve_many, conv_theorem_residual,
                       default_plan, derivative_distribution_residual,
                       parseval_defect)


@dataclass(frozen=True)
class CheckRecord:
    """One verification check: passes iff measured < tolerance."""

    name: str
    measured: float
    tolerance: float
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.tolerance, float)
                and math.isfinite(self.tolerance)):
            raise ValueError("every check carries a finite tolerance")
        object.__setattr__(self, "measured", float(self.measured))

    @property
    def passed(self):
        return self.measured < self.tolerance  # nan fails

    def to_dict(self):
        return {"name": self.name, "measured": self.measured,
                "tolerance": self.tolerance, "passed": bool(self.passed),
                "inputs": dict(self.inputs)}


@dataclass(frozen=True)
class Resolution:
    """An ambiguity resolution or measured finding; informational."""

    name: str
    finding: str
    data: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "finding": self.finding,
                "data": dict(self.data)}


@dataclass
class VerificationReport:
    suite: str
    records: list
    resolutions: list
    version: str
    wall_clock: float

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_dict(self):
        return {
            "suite": self.suite,
            "version": self.version,
            "wall_clock_seconds": self.wall_clock,
            "passed": bool(self.passed),
            "records": [r.to_dict() for r in self.records],
            "resolutions": [r.to_dict() for r in self.resolutions],
        }

    def summary_lines(self):
        lines = []
        for r in self.records:
            lines.append("[%s] %-42s measured %.6e tol %.1e"
                         % ("PASS" if r.passed else "FAIL", r.name,
                            r.measured, r.tolerance))
        return lines


def _pulse_window(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 0.2)
    return np.where(inside, np.sin(np.pi * np.clip(t, 0.0, 0.2) / 0.2) ** 2,
                    0.0)


def _gauss_profile(width):
    def profile(s):
        return np.exp(-(2.0 * np.pi * np.asarray(s)) ** 2 * width)
    return profile


# Oracle step counts of the conv suite, sized by accuracy: each run differs
# from the same run at twice the steps by < 1e-9 relative L2. The forcing
# pulse is only C1 at its window edges, so the forced run takes twice the
# steps of the smooth kernel-mode runs.
_MAX_PRINCIPLE_STEPS = 154
_FORCED_STEPS = 70
_KERNEL_MODE_STEPS = 35


def _etd_order(params, plan, t_end, base, levels):
    # base steps sit inside the asymptotic regime, so each halving of dt
    # divides the error by about 16
    span = t_end - 0.05
    exact = _conv.ConvSolution(params, grid=plan).u_field(t_end)
    errs = []
    for lvl in range(levels + 1):
        run = _oracle.OracleRun(params, plan, "convolution_p", 0.05, t_end,
                                span / (base * 2 ** lvl))
        traj = _oracle.step_etd(run)
        errs.append(np.linalg.norm(traj.values[-1] - exact)
                    / np.linalg.norm(exact))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(levels)]
    return errs, orders


def suite_conv():
    records, resolutions = [], []
    plan = default_plan()

    # acceptance 1: eps=0 collapses to the transported kernel
    p0 = PhysicalParams(1.0, 1.0, 0.0, 2)
    sol0 = _conv.ConvSolution(p0, grid=plan)
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        got = sol0.u_field(t)
        want = _kernels.gauss_codomain(plan.frequencies, t, 1.0) * math.exp(-t)
        worst = max(worst, float(np.max(np.abs(got - want)
                                        / np.maximum(np.abs(want), 1e-300))))
    records.append(CheckRecord("conv/linear_reduction", worst, 1e-12,
                               {"t": [0.1, 0.5, 1.0]}))

    # acceptance 2: codomain ODE residual across the pinned parameter sets.
    # dt = 1e-5 keeps the stencil truncation (beta dt)^4/30 below 1e-11 at
    # the grid's largest beta ~ 405 without hitting the cancellation floor
    worst = 0.0
    for combo in ((1.0, 1.0, 0.1, 2), (1.0, 1.0, -0.5, 3),
                  (0.5, 2.0, 0.05, 4)):
        sol = _conv.ConvSolution(PhysicalParams(*combo), grid=plan)
        for t in (0.2, 0.5, 1.0):
            worst = max(worst, float(np.max(_conv.codomain_ode_residual(
                sol, plan.frequencies, t, dt=1e-5))))
    records.append(CheckRecord("conv/bernoulli_residual", worst, 1e-6,
                               {"t": [0.2, 0.5, 1.0], "dt": 1e-5}))

    # acceptance 3: ETD oracle agreement and convergence order
    plan40 = default_plan(256, 40.0)
    p_smoke = PhysicalParams(1.0, 1.0, 0.1, 2)
    errs, orders = _etd_order(p_smoke, plan40, 0.5, 92, levels=1)
    records.append(CheckRecord("conv/oracle_l2", errs[0], 1e-3,
                               {"grid": [256, 40], "t": [0.05, 0.5]}))
    records.append(CheckRecord("conv/oracle_order_smoke",
                               abs(orders[0] - 4.0), 0.5,
                               {"eps": 0.1, "halvings": 1}))
    _, orders2 = _etd_order(PhysicalParams(1.0, 1.0, 2.0, 2), plan40, 0.65,
                            123, levels=3)
    records.append(CheckRecord("conv/oracle_order",
                               max(abs(o - 4.0) for o in orders2), 0.5,
                               {"eps": 2.0, "t_end": 0.65,
                                "orders": [round(o, 3) for o in orders2]}))

    # acceptance 4: root locus against bisection, ODE blow-up, signs
    pr = PhysicalParams(1.0, 1.0, 2.0, 2)
    rep = _conv.root_locus(pr)
    records.append(CheckRecord("conv/root_formula_vs_bisection",
                               rep.difference, 1e-8,
                               {"t0": rep.t0, "regime": rep.regime}))
    try:
        _oracle.scalar_ode_oracle(0.0, pr, 1.0, 2.0)
        blow_gap = math.inf
    except _oracle.BlowUpError as exc:
        blow_gap = abs(exc.time - rep.t0)
    records.append(CheckRecord("conv/root_blowup_oracle", blow_gap, 1e-3,
                               {"t0": rep.t0}))
    # regime and t0 at s = 0 (C = 1, beta = b = 1) straight from the formula
    eps_neg = [-2.0, -1.0, -0.5, -0.01]
    bad = np.count_nonzero(_conv.root_time(1.0, 1.0, np.array(eps_neg), 2)[1]
                           != "no_root")
    records.append(CheckRecord("conv/root_negative_eps", float(bad), 0.5,
                               {"eps": eps_neg}))
    eps_down = [1.5, 1.3, 1.1, 1.05, 1.01]
    t0s = _conv.root_time(1.0, 1.0, np.array(eps_down), 2)[0]
    records.append(CheckRecord("conv/root_monotone", -np.diff(t0s).min(), 0.0,
                               {"eps": eps_down}))

    # acceptance 5: delta limit and the p-doubling flattening
    sol = _conv.ConvSolution(PhysicalParams(1.0, 1.0, 0.1, 2), grid=plan)
    h0 = sol.h_spec(plan.frequencies, 0.0)
    records.append(CheckRecord("conv/delta_limit",
                               float(np.max(np.abs(h0 - 1.0))), 1e-300,
                               {"C": 1.0}))
    sweep = _conv.large_p_limit(PhysicalParams(1.0, 1.0, 0.1, 2), t=1.0)
    drops = [a - b for a, b in zip(sweep, sweep[1:])]
    records.append(CheckRecord("conv/large_p_decreasing", -min(drops), 0.0,
                               {"p": [2, 4, 8, 16, 32, 64, 128]}))
    records.append(CheckRecord("conv/large_p_tail", sweep[-1], 1e-3,
                               {"p": 128}))

    # acceptance 9: maximum-principle surrogate, analytic and oracle
    worst_rise = -math.inf
    times = np.linspace(0.05, 1.0, 10)
    for eps in (-0.5, 0.0):
        for b in (0.0, 1.0):
            params = PhysicalParams(1.0, b, eps, 2)
            s_an = [float(np.abs(_conv.solve_physical(
                t, _conv.ConvSolution(params, grid=plan))).max())
                for t in times]
            run = _oracle.OracleRun(params, plan, "convolution_p", 0.05,
                                    1.0, 0.95 / _MAX_PRINCIPLE_STEPS)
            traj = _oracle.step_etd(run)
            s_or = [float(np.abs(plan.inverse(state)).max())
                    for state in traj.values]
            for seq in (s_an, s_or):
                worst_rise = max(worst_rise,
                                 max(b2 - a2 for a2, b2 in zip(seq, seq[1:])))
    records.append(CheckRecord("conv/max_principle", worst_rise, 1e-12,
                               {"eps": [-0.5, 0.0], "b": [0.0, 1.0]}))

    # forced response against the forced oracle run
    pf = PhysicalParams(1.0, 1.0, 0.1, 2)
    solf = _conv.ConvSolution(pf, grid=plan40)
    gauss = _gauss_profile(0.5)

    def forcing(s, tau):
        return 0.2 * gauss(s) * _pulse_window(tau)

    ic = _conv.solve_forced(0.05, solf, forcing, initial=1.0)
    runf = _oracle.OracleRun(pf, plan40, "forced_convolution", 0.05, 0.4,
                             0.35 / _FORCED_STEPS, initial=ic, forcing=forcing)
    trf = _oracle.step_etd(runf)
    ref = _conv.solve_forced(0.4, solf, forcing, initial=1.0)
    relf = float(np.linalg.norm(trf.values[-1] - ref) / np.linalg.norm(ref))
    records.append(CheckRecord("conv/forced_oracle", relf, 1e-3,
                               {"amplitude": 0.2, "B": 1.0,
                                "window": [0.0, 0.2], "t": 0.4}))
    resolutions.append(Resolution(
        "forced-comparison reading",
        "the forced construction is exact at eps=0 and carries an O(eps) "
        "relative defect on the pure forced response (measured 2.1e-2 at "
        "eps=0.1, amplitude-independent with B=0); read as a perturbation "
        "of the homogeneous solution (B=1) the defect is O(eps*amplitude) "
        "and the oracle comparison holds at 1e-3",
        {"rel_l2_B1_amp0.2": relf}))

    # kernel modes against oracles with and without the modified term
    khat = _gauss_profile(0.25)
    f0 = _conv.solve_with_kernels(0.05, solf, extra=(khat,),
                                  mode="convolution_K2")
    f1 = _conv.solve_with_kernels(0.4, solf, extra=(khat,),
                                  mode="convolution_K2")
    runk = _oracle.OracleRun(pf, plan40, "convolution_p", 0.05, 0.4,
                             0.35 / _KERNEL_MODE_STEPS, initial=f0,
                             kernel_profile=khat)
    trk = _oracle.step_etd(runk)
    rel_k2 = float(np.linalg.norm(trk.values[-1] - f1) / np.linalg.norm(f1))
    records.append(CheckRecord("conv/kernel_mode_K2_oracle", rel_k2, 1e-3,
                               {"profile": "gauss", "mode": "convolution_K2"}))
    g0 = _conv.solve_with_kernels(0.05, solf, extra=(khat,),
                                  mode="product_K1")
    g1 = _conv.solve_with_kernels(0.4, solf, extra=(khat,),
                                  mode="product_K1")
    rung = _oracle.OracleRun(pf, plan40, "convolution_p", 0.05, 0.4,
                             0.35 / _KERNEL_MODE_STEPS, initial=g0)
    trg = _oracle.step_etd(rung)
    rel_k1 = float(np.linalg.norm(trg.values[-1] - g1) / np.linalg.norm(g1))
    records.append(CheckRecord("conv/kernel_mode_K1_oracle", rel_k1, 1e-3,
                               {"profile": "gauss", "mode": "product_K1"}))
    resolutions.append(Resolution(
        "kernel-mode dynamics",
        "single-kernel product_K1 satisfies the plain codomain ODE with "
        "kernel-rescaled initial data; single-kernel convolution_K2 "
        "satisfies the ODE whose nonlinear term is multiplied by the kernel "
        "in codomain (convolved in physical space); both confirmed by "
        "modified-term oracle runs",
        {"K1_rel_l2": rel_k1, "K2_rel_l2": rel_k2}))

    # scalar codomain example confirmed by the adaptive integrator
    ps = PhysicalParams(1.0, 1.0, 0.1, 2)
    sols = _conv.ConvSolution(ps)
    formula = float(np.real(sols.u(0.0, 0.5)))
    ode = _oracle.scalar_ode_oracle(0.0, ps, 1.0, 0.5)
    records.append(CheckRecord("conv/scalar_example",
                               abs(formula - ode) / abs(ode), 1e-10,
                               {"s": 0.0, "t": 0.5}))

    # acceptance 6: printed fisher closed form against the expanded codomain
    records.extend(fisher_erfc_records(resolutions))
    return records, resolutions


def fisher_erfc_records(resolutions):
    """Acceptance-6 comparison plus the consistent-inversion identity."""
    pf = PhysicalParams(1.0, 1.0, 0.01, 2)
    plan = default_plan(4096, 80.0)
    x = plan.points
    spectrum = _conv.fisher_codomain_expansion(plan.frequencies, 0.5, pf)
    from_dft = plan.inverse(spectrum)
    printed = _conv.fisher_erfc_approx(x, 0.5, pf)
    consistent = _conv.fisher_erfc_transform_consistent(x, 0.5, pf)
    linf_printed = float(np.max(np.abs(printed - from_dft)))
    linf_consistent = float(np.max(np.abs(consistent - from_dft)))
    resolutions.append(Resolution(
        "fisher erfc closed form",
        "the printed four-erfc expression inverts its third codomain term "
        "with the transform pattern for b + 2D(2 pi s)^2 instead of "
        "2b + 2D(2 pi s)^2; the resulting gap is first order in eps and "
        "exceeds the 1e-4 acceptance tolerance at the pinned parameters, "
        "so the acceptance record fails honestly; the consistent inversion "
        "matches the expanded codomain at machine precision",
        {"linf_printed": linf_printed, "linf_consistent": linf_consistent}))
    return [
        CheckRecord("conv/fisher_erfc_acceptance", linf_printed, 1e-4,
                    {"eps": 0.01, "t": 0.5, "grid": [4096, 80]}),
        CheckRecord("conv/fisher_consistent_identity", linf_consistent,
                    1e-12, {"eps": 0.01, "t": 0.5, "grid": [4096, 80]}),
    ]


def suite_mult():
    records, resolutions = [], []
    plan = default_plan()

    # acceptance 8a: quadrature certificates at 20 probes
    rng = np.random.default_rng(0)
    worst_gap = -math.inf
    plans = [_mult.MultSolverPlan(PhysicalParams(1.0, 1.0, 0.01, 2)),
             _mult.MultSolverPlan(PhysicalParams(1.0, 1.0, -0.5, 3))]
    probes = []
    for k in range(20):
        mp = plans[0] if k < 14 else plans[1]
        s = float(rng.uniform(0.0, 1.2))
        t = float(rng.uniform(0.05, 1.5))
        cert = _mult.h_mult_certificate(s, t, mp)
        gap = cert.observed_change - max(cert.error, 1e-16)
        worst_gap = max(worst_gap, gap)
        probes.append({"s": round(s, 6), "t": round(t, 6), "p": mp.params.p,
                       "value": cert.value, "error": cert.error,
                       "change": cert.observed_change})
    records.append(CheckRecord("mult/certificates", worst_gap, 0.0,
                               {"probes": 20}))
    resolutions.append(Resolution(
        "quadrature certificates",
        "20 (s, t) probes across p=2 and p=3 plans: the halved-tolerance "
        "change stays within the reported error estimate at every probe",
        {"probes": probes}))

    # the grid h is evaluated for every frequency at once; each component
    # must match the scalar certificate at its own (s, t)
    grid_gap = 0.0
    for mp in plans:
        for t in (0.5, 1.0, 2.0, 4.0):
            h = _mult.h_mult_quadrature(plan.frequencies, t, mp)
            for target in (0.0, 0.5, 1.0):
                k = int(np.argmin(np.abs(plan.frequencies - target)))
                want = _mult.h_mult_certificate(plan.frequencies[k], t,
                                                mp).value
                grid_gap = max(grid_gap, abs(h[k] - want) / abs(want))
    records.append(CheckRecord("mult/h_grid_vs_certificate", grid_gap, 1e-8,
                               {"p": [2, 3], "t": [0.5, 1.0, 2.0, 4.0],
                                "s": [0.0, 0.5, 1.0]}))

    # acceptance 8b: scaling-hypothesis residual table
    dt = 1e-3
    times = np.array([0.5 + k * dt for k in range(-2, 3)])
    pm = PhysicalParams(1.0, 1.0, 0.01, 2)
    cal_sol = _conv.ConvSolution(pm, grid=plan)
    fam_cal = np.stack([_conv.solve_physical(t, cal_sol) for t in times])
    calibration = _mult.pde_residual_physical(fam_cal, times, plan, pm,
                                              "none", "convolution_p")
    records.append(CheckRecord("mult/residual_calibration", calibration,
                               1e-5, {"solution": "convolutional"}))
    fam = np.stack([_mult.solve_mult(t, _mult.MultSolverPlan(pm), plan)
                    for t in times])
    table = {}
    for hyp in _mult.SCALING_HYPOTHESES:
        table[hyp] = _mult.pde_residual_physical(fam, times, plan, pm, hyp,
                                                 "multiplicative_p")
    pm0 = PhysicalParams(1.0, 1.0, 0.0, 2)
    fam0 = np.stack([_mult.solve_mult(t, _mult.MultSolverPlan(pm0), plan)
                     for t in times])
    table_eps0 = {}
    for hyp in _mult.SCALING_HYPOTHESES:
        table_eps0[hyp] = _mult.pde_residual_physical(fam0, times, plan, pm0,
                                                      hyp, "multiplicative_p")
    slope = {}
    for eps in (0.005, 0.02):
        pe = PhysicalParams(1.0, 1.0, eps, 2)
        fe = np.stack([_mult.solve_mult(t, _mult.MultSolverPlan(pe), plan)
                       for t in times])
        slope[eps] = _mult.pde_residual_physical(fe, times, plan, pe,
                                                 "times_np1",
                                                 "multiplicative_p")
    records.append(CheckRecord("mult/hypothesis_table_complete",
                               float(3 - len(table)), 0.5,
                               {"hypotheses": sorted(table)}))
    records.append(CheckRecord("mult/linear_part_times_np1",
                               table_eps0["times_np1"], 1e-8,
                               {"eps": 0.0}))
    resolutions.append(Resolution(
        "scaling hypothesis sweep",
        "times_np1 is the only hypothesis whose residual reaches "
        "discretization level, and only at eps=0: the rooted kernel solves "
        "the (p+1)-scaled linear PDE exactly. At eps=0.01 the best residual "
        "(still times_np1) is ~3.9e-4 and scales ~0.039*eps, first order "
        "in eps: a genuine nonlinear-term mismatch. NEGATIVE RESULT: the "
        "multiplicative closed form satisfies none of the three primed "
        "PDEs beyond its linear part",
        {"residuals_eps_0.01": table, "residuals_eps_0": table_eps0,
         "residual_times_np1_by_eps": slope,
         "calibration_conv": calibration}))

    # acceptance 8c: iterated-convolution prefactor discrepancy
    spread_worst = 0.0
    law_worst = 0.0
    ratio_rows = []
    for p in (2, 3, 4):
        mp = _mult.MultSolverPlan(PhysicalParams(1.0, 1.0, 0.5, p))
        i = p - 2
        svals = np.linspace(0.0, 1.0, 9)
        for tau in (0.25, 1.0):
            a = _mult.corollary_integrand(svals, tau, mp, "paper_formula")
            b = _mult.corollary_integrand(svals, tau, mp, "discrete_oracle",
                                          grid=plan)
            ratio = a / b
            spread = float((ratio.max() - ratio.min()) / np.abs(ratio).max())
            law = (4.0 * math.pi * tau) ** (-(i + 1) / 2.0)
            gap = float(np.max(np.abs(ratio - law) / law))
            spread_worst = max(spread_worst, spread)
            law_worst = max(law_worst, gap)
            ratio_rows.append({"p": p, "tau": tau,
                               "ratio": float(ratio[0]), "law": law})
    records.append(CheckRecord("mult/prefactor_ratio_constant_in_s",
                               spread_worst, 1e-8, {"p": [2, 3, 4]}))
    records.append(CheckRecord("mult/prefactor_ratio_law", law_worst, 1e-6,
                               {"law": "(4 pi D tau)^(-(i+1)/2)"}))
    r_int = []
    mp2 = _mult.MultSolverPlan(PhysicalParams(1.0, 1.0, 0.5, 2))
    for s in (0.0, 0.5):
        hp_ = _mult.h_mult_corollary(s, 1.0, mp2, "paper_formula")
        ho_ = _mult.h_mult_corollary(s, 1.0, mp2, "discrete_oracle",
                                     grid=plan)
        r_int.append({"s": s, "integrated_ratio": float(hp_ / ho_)})
    resolutions.append(Resolution(
        "iterated-convolution prefactor discrepancy",
        "at each fixed tau the stated integrand is the discrete oracle "
        "times the s-independent factor (4 pi D tau)^(-(i+1)/2); because "
        "the factor is tau-dependent, the integrated h ratio is not a "
        "single constant (see counterexample rows), so the dual-source "
        "comparison is quantified at the integrand level",
        {"integrand_ratios": ratio_rows, "integrated_ratio_rows": r_int}))

    # solver-level checks
    mp_eps0 = _mult.MultSolverPlan(PhysicalParams(1.0, 1.0, 0.0, 2))
    h0 = _mult.h_mult_quadrature(plan.frequencies, 0.5, mp_eps0)
    pref = math.exp(3.0 * 0.5) * 0.5 ** (2.0 / 6.0)
    records.append(CheckRecord("mult/eps_zero_exact",
                               float(np.max(np.abs(h0 - pref))), 1e-300,
                               {"t": 0.5}))
    worst_rise = -math.inf
    for combo in (PhysicalParams(1.0, 1.0, -0.5, 3),
                  PhysicalParams(1.0, 1.0, 0.0, 2)):
        sups = [float(np.abs(_mult.solve_mult(
            t, _mult.MultSolverPlan(combo), plan)).max())
            for t in (0.5, 1.0, 2.0, 4.0)]
        worst_rise = max(worst_rise,
                         max(b2 - a2 for a2, b2 in zip(sups, sups[1:])))
    records.append(CheckRecord("mult/decay_eps_nonpositive", worst_rise,
                               0.0, {"eps": [-0.5, 0.0]}))

    # fisher forms
    got = _kernels.heat_kernel(0.0, 1.0, 1.0) * math.exp(0.25)
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore", _mult.GrowthWarning)
        val = _mult.fisher_constant_prob(0.0, 1.0, 1.0, 1.0, 0.25)
    records.append(CheckRecord("mult/fisher_constant", abs(val - got),
                               1e-12, {"prob_product": 0.25}))
    mpq = _mult.MultSolverPlan(PhysicalParams(1.0, 1.0, 0.3, 2))
    fq = _mult.fisher_quadratic(1.0, mpq, prob_product=0.25, grid=plan)
    from scipy.integrate import solve_ivp

    def rhs(t, y, s):
        g = _kernels.gauss_codomain(s, t, 1.0) if t > 0 else 1.0
        return [-(2.0 * math.pi * s) ** 2 * y[0] - 0.3 * 0.25 * g * y[0]]

    worst = 0.0
    for target in (0.0, 0.2, 0.5):
        idx = int(np.argmin(np.abs(plan.frequencies - target)))
        s0 = float(plan.frequencies[idx])
        sol = solve_ivp(rhs, (0.0, 1.0), [1.0], args=(s0,), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        worst = max(worst, abs(sol.y[0, -1] - float(fq[idx])))
    records.append(CheckRecord("mult/fisher_quadratic_ode", worst, 1e-10,
                               {"prob_product": 0.25}))
    return records, resolutions


def _lorentzian_forward_gap():
    """sup |forward DFT of the Lorentzian pair - its codomain side| at
    D = b = 1 on the 32768/20 grid.

    The |x| kink puts 1/s^2 tails in codomain; resolving them to 1e-6
    needs this refined grid (the error falls as dx^2: 8.9e-7 at n = 16384).
    """
    plan = default_plan(32768, 20.0)
    fwd = plan.forward(_kernels.lorentzian_pair(plan.points, 1.0, 1.0))
    want = _kernels.lorentzian_codomain(plan.frequencies, 1.0, 1.0)
    return float(np.max(np.abs(fwd - want)))


def suite_kernels():
    records, resolutions = [], []
    plan = default_plan()

    # erfc_pair's erfcx form against its direct four-factor form
    # e^(bt) e^(-+x sqrt(b/D)) erfc(z) / (4 sqrt(Db)), at a time where the
    # direct form is finite; relative gap at every grid point
    D, b, t = 1.0, 1.0, 0.7
    xs = plan.points
    rate, denom = math.sqrt(b / D), 2.0 * math.sqrt(D * t)
    shift = 2.0 * t * math.sqrt(D * b)
    direct = math.exp(b * t) / (4.0 * math.sqrt(D * b)) * (
        np.exp(-rate * xs) * _scipy_erfc((shift - xs) / denom)
        + np.exp(rate * xs) * _scipy_erfc((shift + xs) / denom))
    gap = float(np.max(np.abs(_kernels.erfc_pair(xs, t, D, b) - direct)
                       / direct))
    records.append(CheckRecord("kernels/erfc_pair_erfcx_vs_direct", gap,
                               1e-13, {"t": t, "D": D, "b": b}))

    heat = _kernels.heat_kernel(plan.points, 0.3, 1.0)
    fwd = plan.forward(heat)
    want = _kernels.gauss_codomain(plan.frequencies, 0.3, 1.0)
    records.append(CheckRecord(
        "kernels/heat_transform",
        float(np.max(np.abs(fwd - want))), 1e-10, {"t": 0.3}))

    # factor-count resolution: n factors of the rooted kernel remake g
    worst = 0.0
    for p in (2, 3):
        rooted = _kernels.rooted_codomain(plan.frequencies, 0.4, 1.0, p + 1)
        back = circular_convolve_many([rooted] * (p + 1), plan.ds)
        want = _kernels.gauss_codomain(plan.frequencies, 0.4, 1.0)
        worst = max(worst, float(np.max(np.abs(back - want))))
    records.append(CheckRecord("kernels/rooted_factor_count", worst, 1e-8,
                               {"n": "p+1"}))
    resolutions.append(Resolution(
        "factor-count convention",
        "g' convolved with itself using n-1 convolution operators (n "
        "factors, n = p+1) reproduces g on the grid; the operators reading "
        "(n operators, n+1 factors) does not",
        {"max_gap_factors": worst}))

    records.append(CheckRecord(
        "kernels/lorentzian_transform", _lorentzian_forward_gap(), 1e-6,
        {"D": 1.0, "b": 1.0, "grid": [32768, 20]}))

    trans = np.abs(math.exp(-50.0)
                   * _kernels.erfc_pair(plan.points, 50.0, 1.0, 1.0))
    records.append(CheckRecord("kernels/erfc_pair_transient",
                               float(trans.max()), 1e-8, {"t": 50.0}))

    worst = 0.0
    for i in (1, 2):
        exact = _kernels.gauss_selfconv_exact(plan.frequencies, 0.5, 1.0, i)
        disc = _kernels.iterated_gauss_selfconv(
            plan.frequencies, 0.5, 1.0, i, "discrete_oracle", plan)
        worst = max(worst, float(np.max(np.abs(exact - disc))))
    records.append(CheckRecord("kernels/selfconv_exact_vs_discrete", worst,
                               1e-8, {"i": [1, 2], "t": 0.5}))
    return records, resolutions


def suite_appendix():
    records, resolutions = [], []
    plan = default_plan()
    x = plan.points

    f = _kernels.heat_kernel(x, 0.4, 1.0)
    g = _kernels.heat_kernel(x, 0.7, 0.5)
    records.append(CheckRecord(
        "appendix/th3_convolution_theorem",
        conv_theorem_residual(plan, f, g), 1e-10, {"t": [0.4, 0.7]}))
    records.append(CheckRecord("appendix/parseval",
                               parseval_defect(plan, f), 1e-10, {"t": 0.4}))

    dt = 1e-3
    times = 0.3 + dt * np.arange(-2, 3)
    G_fam = np.stack([_kernels.heat_kernel(x, t, 1.0) for t in times])
    f_fam = np.stack([_kernels.heat_kernel(x, t + 0.2, 0.5) for t in times])
    res = derivative_distribution_residual(plan, G_fam, f_fam, dt)
    records.append(CheckRecord("appendix/th1_time_rule", res.time_rule,
                               1e-6, {"t": 0.3, "dt": dt}))
    records.append(CheckRecord("appendix/th2_space_left", res.space_left,
                               1e-6, {"t": 0.3}))
    records.append(CheckRecord("appendix/th2_space_right", res.space_right,
                               1e-6, {"t": 0.3}))
    records.append(CheckRecord("appendix/th2_swap_symmetry",
                               abs(res.space_left - res.space_right), 1e-6,
                               {"t": 0.3}))

    # A1: forward direction on a kink-resolving grid; inverse off the kink
    records.append(CheckRecord(
        "appendix/a1_forward", _lorentzian_forward_gap(), 1e-6,
        {"D": 1.0, "b": 1.0, "grid": [32768, 20]}))
    plan_inv = default_plan(16384, 40.0)
    inv = plan_inv.inverse(_kernels.lorentzian_codomain(
        plan_inv.frequencies, 1.0, 1.0))
    want = _kernels.lorentzian_pair(plan_inv.points, 1.0, 1.0)
    off = np.abs(plan_inv.points) > 0.5
    records.append(CheckRecord(
        "appendix/a1_inverse_offkink",
        float(np.max(np.abs(inv[off] - want[off]))), 1e-6,
        {"grid": [16384, 40], "excluded": "|x| <= 0.5"}))
    resolutions.append(Resolution(
        "a1 check direction",
        "the codomain profile decays only as 1/s^2, so inverse-DFT error "
        "concentrates at the |x| kink and no default-layout grid reaches "
        "1e-6 there; the identity is checked forward on the default grid "
        "and inverse on a refined grid away from the kink",
        {}))

    plan_a2 = default_plan(4096, 80.0)
    a2 = _kernels.erfc_pair(plan_a2.points, 0.7, 1.0, 1.0)
    a2_spec = _kernels.erfc_pair_codomain(plan_a2.frequencies, 0.7, 1.0, 1.0)
    a2_inv = plan_a2.inverse(a2_spec)
    records.append(CheckRecord(
        "appendix/a2_vs_dft", float(np.max(np.abs(a2 - a2_inv))), 1e-6,
        {"t": 0.7, "grid": [4096, 80]}))
    return records, resolutions


_SUITE_FUNCS = {"conv": suite_conv, "mult": suite_mult,
                "kernels": suite_kernels, "appendix": suite_appendix}


def run_suite(name):
    """Execute one named suite (or all of them) into a report."""
    if name not in SUITES:
        raise ValueError("suite must be one of %s" % (SUITES,))
    from . import __version__
    start = time.perf_counter()
    records, resolutions = [], []
    parts = SUITES[1:] if name == "all" else (name,)
    for part in parts:
        recs, ress = _SUITE_FUNCS[part]()
        records.extend(recs)
        resolutions.extend(ress)
    return VerificationReport(name, records, resolutions, __version__,
                              time.perf_counter() - start)
