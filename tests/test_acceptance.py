"""Release gate: one test per acceptance criterion, at the pinned
tolerances and runtime budgets.

Criterion 6 checks the four-erfc closed form that is the exact spatial
pair of the first-order Fisher expansion (fisher_erfc_transform_consistent)
against the inverse DFT of that expansion at the 1e-4 gate. The printed
form (fisher_erfc_approx) misses the same gate at 1.0605e-4; the test pins
that whole gap to the printed form's third-term denominator, and
tests/test_conv.py::TestFisherForms asserts its size. Every test here
must pass.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from nwspectral import conv as _conv
from nwspectral import oracle as _oracle
from nwspectral.cli import main as cli_main
from nwspectral.core import PhysicalParams
from nwspectral.kernels import gauss_codomain
from nwspectral.report import run_suite
from nwspectral.spectral import TransformPlan, default_plan

DATA = os.path.join(os.path.dirname(__file__), "data")


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, \
                "runtime %.2f s exceeds %.0f s budget" % (elapsed,
                                                          self.seconds)


def _etd_errors(params, plan, t_end, base, levels):
    span = t_end - 0.05
    exact = _conv.ConvSolution(params, grid=plan).u_field(t_end)
    errs = []
    for lvl in range(levels + 1):
        run = _oracle.OracleRun(params, plan, "convolution_p", 0.05, t_end,
                                span / (base * 2 ** lvl))
        traj = _oracle.step_etd(run)
        errs.append(np.linalg.norm(traj.values[-1] - exact)
                    / np.linalg.norm(exact))
    return errs


def test_criterion_01_linear_reduction():
    with _Budget(1.0):
        grid = default_plan()
        sol = _conv.ConvSolution(PhysicalParams(1.0, 1.0, 0.0, 2),
                                 grid=grid)
        for t in (0.1, 0.5, 1.0):
            got = sol.u_field(t)
            want = gauss_codomain(grid.frequencies, t, 1.0) * math.exp(-t)
            rel = np.max(np.abs(got - want)
                         / np.maximum(np.abs(want), 1e-300))
            assert rel < 1e-12, "t=%g rel=%.3e" % (t, rel)


def test_criterion_02_codomain_ode_residual():
    with _Budget(5.0):
        grid = default_plan()
        for combo in ((1.0, 1.0, 0.1, 2), (1.0, 1.0, -0.5, 3),
                      (0.5, 2.0, 0.05, 4)):
            sol = _conv.ConvSolution(PhysicalParams(*combo), grid=grid)
            for t in (0.2, 0.5, 1.0):
                res = np.max(_conv.codomain_ode_residual(
                    sol, grid.frequencies, t, dt=1e-5))
                assert res < 1e-6, "combo=%s t=%g res=%.3e" % (combo, t,
                                                               res)


def test_criterion_03_oracle_equivalence_conv():
    with _Budget(10.0):
        plan = TransformPlan(256, 40.0)
        errs = _etd_errors(PhysicalParams(1.0, 1.0, 0.1, 2), plan, 0.5, 92,
                           levels=1)
        assert errs[0] < 1e-3, "relative L2 %.3e" % errs[0]
        order = math.log2(errs[0] / errs[1])
        assert abs(order - 4.0) < 0.5, "smoke order %.2f" % order
        # order measured away from the round-off floor
        errs2 = _etd_errors(PhysicalParams(1.0, 1.0, 2.0, 2), plan, 0.65,
                            123, levels=3)
        orders = [math.log2(a / b) for a, b in zip(errs2, errs2[1:])]
        assert all(abs(o - 4.0) < 0.5 for o in orders), orders


def test_criterion_04_root_locus():
    with _Budget(2.0):
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        rep = _conv.root_locus(params)
        assert rep.regime == "root_at"
        assert rep.t0 == pytest.approx(math.log(2.0), abs=1e-12)
        assert rep.difference < 1e-8
        with pytest.raises(_oracle.BlowUpError) as info:
            _oracle.scalar_ode_oracle(0.0, params, 1.0, 2.0)
        assert abs(info.value.time - rep.t0) < 1e-3
        for eps in (-2.0, -1.0, -0.5, -0.01):
            r = _conv.root_locus(PhysicalParams(1.0, 1.0, eps, 2))
            assert r.regime == "no_root", eps
        t0s = [_conv.root_locus(PhysicalParams(1.0, 1.0, e, 2)).t0
               for e in (1.5, 1.3, 1.1, 1.05, 1.01)]
        assert all(a < b for a, b in zip(t0s, t0s[1:])), t0s


def test_criterion_05_delta_and_large_p_limits():
    with _Budget(2.0):
        grid = default_plan()
        sol = _conv.ConvSolution(PhysicalParams(1.0, 1.0, 0.1, 2),
                                 grid=grid)
        h0 = sol.h_spec(grid.frequencies, 0.0)
        assert np.all(h0 == 1.0), "h(s, 0) must equal C(s) exactly"
        sweep = _conv.large_p_limit(PhysicalParams(1.0, 1.0, 0.1, 2),
                                    t=1.0)
        assert all(a > b for a, b in zip(sweep, sweep[1:])), list(sweep)


def test_criterion_06_fisher_erfc_closed_form():
    # The four-erfc form that inverts fisher_codomain_expansion term by
    # term must meet the 1e-4 gate. The printed form inverts its third
    # term as g^2/(b + 2D w^2) instead of g^2/(b + D w^2), w = 2 pi s;
    # its deviation must be exactly that term's difference and must stay
    # above the gate, so the documented 1.0605e-4 finding is asserted.
    with _Budget(5.0):
        params = PhysicalParams(1.0, 1.0, 0.01, 2)
        t = 0.5
        plan = TransformPlan(4096, 80.0)
        s = plan.frequencies
        spectrum = _conv.fisher_codomain_expansion(s, t, params)
        from_dft = plan.inverse(spectrum)
        closed = _conv.fisher_erfc_transform_consistent(plan.points, t,
                                                        params)
        linf = float(np.max(np.abs(closed - from_dft)))

        printed = _conv.fisher_erfc_approx(plan.points, t, params)
        w2 = (2.0 * math.pi * s) ** 2
        g2 = gauss_codomain(s, t, params.D) ** 2
        third_gap = plan.inverse(
            params.eps * math.exp(-2.0 * params.b * t) * g2
            * (1.0 / (params.b + params.D * w2)
               - 1.0 / (params.b + 2.0 * params.D * w2)))
        deviation = printed - from_dft
        attribution = float(np.max(np.abs(deviation - third_gap)))
        printed_linf = float(np.max(np.abs(deviation)))
    assert linf < 1e-4, "four-erfc expression vs inverse DFT: %.10e" % linf
    assert attribution < 1e-12, \
        "printed-form gap not explained by its third term: %.3e" % attribution
    assert printed_linf > 1e-4, \
        "printed four-erfc form vs inverse DFT: %.10e" % printed_linf


def test_criterion_07_appendix_identities():
    with _Budget(5.0):
        report = run_suite("appendix")
        by_name = {r.name: r for r in report.records}
        for name, tol in (("appendix/th1_time_rule", 1e-6),
                          ("appendix/th2_space_left", 1e-6),
                          ("appendix/th2_space_right", 1e-6),
                          ("appendix/th3_convolution_theorem", 1e-10),
                          ("appendix/a1_forward", 1e-6),
                          ("appendix/a1_inverse_offkink", 1e-6),
                          ("appendix/a2_vs_dft", 1e-6)):
            rec = by_name[name]
            assert rec.tolerance == tol, name
            assert rec.passed, "%s measured %.3e" % (name, rec.measured)


def test_criterion_08_multiplicative_verification_report():
    with _Budget(30.0):
        report = run_suite("mult")
        by_name = {r.name: r for r in report.records}
        cert = by_name["mult/certificates"]
        assert cert.inputs["probes"] == 20
        assert cert.passed
        assert by_name["mult/hypothesis_table_complete"].passed
        assert by_name["mult/prefactor_ratio_law"].passed
        # completeness: the three narrative findings must be present
        names = [r.name for r in report.resolutions]
        assert names == ["quadrature certificates",
                         "scaling hypothesis sweep",
                         "iterated-convolution prefactor discrepancy"]
        sweep = report.resolutions[1]
        assert "negative result" in sweep.finding.lower()
        assert report.passed
        # reproducibility: a rerun differs only in wall clock
        first = report.to_dict()
        second = run_suite("mult").to_dict()
        first.pop("wall_clock_seconds")
        second.pop("wall_clock_seconds")
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)


def test_criterion_09_maximum_principle_surrogate():
    with _Budget(10.0):
        plan = default_plan()
        times = np.linspace(0.05, 1.0, 10)
        for eps in (-0.5, 0.0):
            for b in (0.0, 1.0):
                params = PhysicalParams(1.0, b, eps, 2)
                sol = _conv.ConvSolution(params, grid=plan)
                sups = [float(np.abs(_conv.solve_physical(t, sol)).max())
                        for t in times]
                steps = 770 if b == 0.0 else 771
                run = _oracle.OracleRun(
                    params, plan, "convolution_p", 0.05, 1.0, 0.95 / steps)
                traj = _oracle.step_etd(run)
                # every 5th state plus the last one
                kept = sorted(set(range(0, steps + 1, 5)) | {steps})
                sups_oracle = [float(np.abs(plan.inverse(state)).max())
                               for state in traj.values[kept]]
                for label, seq in (("analytic", sups),
                                   ("oracle", sups_oracle)):
                    rise = max(y - x for x, y in zip(seq, seq[1:]))
                    assert rise <= 1e-12, \
                        "%s eps=%g b=%g rise=%.3e" % (label, eps, b, rise)


def test_criterion_10_cli_determinism_and_golden(tmp_path, capsys):
    with _Budget(2.0):
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            rc = cli_main(["solve", "--config",
                           os.path.join(DATA, "golden_conv.json"),
                           "--out-dir", str(out)])
            assert rc == 0
            runs.append((out / "golden_t000.csv").read_bytes())
        capsys.readouterr()
        assert runs[0] == runs[1], "repeated runs must be byte-identical"
        with open(os.path.join(DATA, "golden_t000.csv"), "rb") as fh:
            assert runs[0] == fh.read(), "golden CSV drifted"
        rows = list(csv.reader((tmp_path / "first" / "golden_t000.csv")
                               .open(newline="")))
        assert rows[0] == ["x", "u"]
