import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nwspectral import csvtext
from nwspectral.cli import ConfigError, RunConfig, load_json, main
from nwspectral.csvtext import fmt17
from nwspectral.conv import root_locus
from nwspectral.core import PhysicalParams
from nwspectral.spectral import BAND_LIMIT_FLOOR, TransformPlan

DATA = os.path.join(os.path.dirname(__file__), "data")


def _write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, (bytes, bytearray)):
        path.write_bytes(bytes(payload))
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _base_config(**over):
    cfg = {
        "equation": "conv",
        "params": {"D": 1.0, "b": 1.0, "eps": 0.1, "p": 2},
        "grid": {"n": 64, "length": 20.0},
        "times": [0.25],
        "output": {"basename": "run"},
    }
    cfg.update(over)
    return cfg


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig.from_dict(_base_config())
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key_is_named(self, tmp_path):
        path = _write(tmp_path, "c.json", _base_config(solvr="x"))
        with pytest.raises(ConfigError, match="solvr"):
            RunConfig.from_dict(load_json(path))

    def test_unknown_param_key_is_named(self, tmp_path):
        cfg = _base_config()
        cfg["params"]["epss"] = 0.1
        with pytest.raises(ConfigError, match="epss"):
            RunConfig.from_dict(cfg)

    def test_unknown_grid_key_is_named(self):
        cfg = _base_config()
        cfg["grid"]["spacing"] = 0.1
        with pytest.raises(ConfigError, match="spacing"):
            RunConfig.from_dict(cfg)

    def test_unknown_kernel_key_is_named(self):
        cfg = _base_config(kernel={"C": 1.0, "width": 2.0})
        with pytest.raises(ConfigError, match="width"):
            RunConfig.from_dict(cfg)

    def test_factor_count_convention_is_an_unknown_key(self, tmp_path,
                                                       capsys):
        cfg = _base_config(kernel={"factor_count_convention": "factors"})
        path = _write(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path, "--out-dir",
                     str(tmp_path / "out")]) == 1
        assert "factor_count_convention" in capsys.readouterr().err

    def test_quad_rel_tol_is_an_unknown_key(self, tmp_path, capsys):
        cfg = _base_config(kernel={"C": 1.0, "quad_rel_tol": 1e-10})
        path = _write(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path, "--out-dir",
                     str(tmp_path / "out")]) == 1
        assert 'unknown key "quad_rel_tol"' in capsys.readouterr().err

    def test_missing_required_key_is_named(self):
        cfg = _base_config()
        del cfg["params"]
        with pytest.raises(ConfigError, match="params"):
            RunConfig.from_dict(cfg)

    def test_malformed_json_names_byte_offset(self, tmp_path):
        text = '{"equation": "conv",}'
        path = _write(tmp_path, "bad.json", text.encode("utf-8"))
        with pytest.raises(ConfigError, match="byte offset 20"):
            load_json(path)

    def test_byte_offset_counts_bytes_not_codepoints(self, tmp_path):
        # one three-byte codepoint sits before the defect
        text = '{"€": 1,}'
        path = _write(tmp_path, "bad.json", text.encode("utf-8"))
        offset = text[:text.index(",}") + 1].encode("utf-8")
        with pytest.raises(ConfigError,
                           match="byte offset %d" % len(offset)):
            load_json(path)

    def test_non_utf8_payload_is_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.json", b'{"equation": "\xff"}')
        with pytest.raises(ConfigError, match="UTF-8"):
            load_json(path)

    def test_basename_charset_is_enforced(self):
        cfg = _base_config(output={"basename": "run/../../etc"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg)

    def test_prob_product_is_fisher_genetic_only(self):
        cfg = _base_config(prob_product=0.5)
        with pytest.raises(ConfigError, match="prob_product"):
            RunConfig.from_dict(cfg)

    def test_t_min_is_mult_only(self):
        cfg = _base_config(t_min=0.05)
        with pytest.raises(ConfigError, match="t_min"):
            RunConfig.from_dict(cfg)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_missing_config_file_is_one(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        capsys.readouterr()

    def test_unknown_key_is_one(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _base_config(extra=1))
        rc = main(["solve", "--config", path])
        assert rc == 1
        assert "extra" in capsys.readouterr().err

    def test_solver_error_is_two_and_names_module(self, tmp_path, capsys):
        cfg = _base_config(equation="mult", t_min=0.5, times=[0.1])
        cfg["params"]["eps"] = 0.01
        path = _write(tmp_path, "c.json", cfg)
        rc = main(["solve", "--config", path,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "nwspectral.mult" in capsys.readouterr().err

    def test_mult_prefactor_overflow_is_two(self, tmp_path, capsys):
        # e^((p^2-1) b t) passes the double range at t = 400
        cfg = _base_config(equation="mult", times=[400.0])
        cfg["params"]["eps"] = -0.05
        path = _write(tmp_path, "c.json", cfg)
        rc = main(["solve", "--config", path,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error (nwspectral.mult)")
        assert "Traceback" not in err

    def test_mult_at_p_fifty_solves(self, tmp_path, capsys):
        # p = 50 is one of the orders where 1/(1 - p) (p - 1) + 1 is not
        # exactly 0 in floating point; the solve must not depend on it
        cfg = _base_config(equation="mult", grid={"n": 256, "length": 20.0},
                           times=[0.5])
        cfg["params"] = {"D": 1.0, "b": 0.01, "eps": -0.1, "p": 50}
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out)])
        assert rc == 0, capsys.readouterr().err
        capsys.readouterr()
        rows = list(csv.reader((out / "run_t000.csv").open(newline="")))
        assert len(rows) == 257
        assert all(math.isfinite(float(u)) for _, u in rows[1:])

    def test_fisher_erfc_at_large_time_is_finite(self, tmp_path, capsys):
        # e^(bt) alone would overflow at t = 800; the erfcx form does not
        cfg = _base_config(equation="fisher_erfc", times=[800.0])
        cfg["params"]["eps"] = 0.05
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.reader((out / "run_t000.csv").open(newline="")))
        assert len(rows) == 65
        assert all(math.isfinite(float(u)) for _, u in rows[1:])

    def test_solve_success_is_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _base_config())
        rc = main(["solve", "--config", path,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        capsys.readouterr()


class TestSolveOutputs:
    def test_matches_stored_golden_csv_bytes(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--config",
                   os.path.join(DATA, "golden_conv.json"),
                   "--out-dir", str(out)])
        assert rc == 0
        got = (out / "golden_t000.csv").read_bytes()
        with open(os.path.join(DATA, "golden_t000.csv"), "rb") as fh:
            assert got == fh.read()

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["solve", "--config",
                  os.path.join(DATA, "golden_conv.json"),
                  "--out-dir", str(out)])
            outs.append((out / "golden_t000.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_subprocess_agrees_with_in_process(self, tmp_path):
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "nwspectral.cli", "solve", "--config",
             os.path.join(DATA, "golden_conv.json"),
             "--out-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got = (out / "golden_t000.csv").read_bytes()
        with open(os.path.join(DATA, "golden_t000.csv"), "rb") as fh:
            assert got == fh.read()

    def test_bulk_rows_match_per_value_formatting(self):
        x = np.array([-1.5, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                      1.0 / 3.0, 1e300, -7.0, 0.1])
        u = np.array([math.nan, -math.nan, math.inf, -math.inf, -0.0,
                      -5e-324, 1.5e-310, 123456789.0, -2.5e-17])
        want = "".join("%s,%s\r\n" % (fmt17(a), fmt17(b))
                       for a, b in zip(x, u))
        assert csvtext.rows(csvtext.slots(x), csvtext.slots(u)) \
            == want.encode()
        assert want.split("\r\n")[:5] == [
            "-1.5,nan", "-0,nan", "0,inf", "4.9406564584124654e-324,-inf",
            "2.2250738585072014e-308,-0"]

    def test_sidecar_timings_sit_apart(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["solve", "--config", os.path.join(DATA, "golden_conv.json"),
              "--out-dir", str(out)])
        meta = json.loads((out / "golden_meta.json").read_text("utf-8"))
        timings = meta.pop("timings")
        assert sorted(timings) == ["evaluate_s", "format_s", "transform_s",
                                   "write_s"]
        assert all(isinstance(s, float) and s >= 0.0
                   for s in timings.values())
        assert not any("timing" in key for key in meta)

    def test_csv_header_and_line_endings(self, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", os.path.join(DATA, "golden_conv.json"),
              "--out-dir", str(out)])
        raw = (out / "golden_t000.csv").read_bytes()
        assert raw.startswith(b"x,u\r\n")
        assert raw.count(b"\n") == raw.count(b"\r\n")

    def test_metadata_sidecar_contents(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write(tmp_path, "c.json", _base_config())
        main(["solve", "--config", path, "--out-dir", str(out)])
        capsys.readouterr()
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        assert meta["config"]["params"]["eps"] == 0.1
        assert meta["pole_flag"] is False
        assert meta["root_locus"]["regime"] == "no_root"
        residuals = meta["residual_summary"]["codomain_ode_relative"]
        assert all(v < 1e-6 for v in residuals.values())

    @pytest.mark.parametrize("p, eps", [(2, 0.01), (3, -0.5)])
    def test_mult_sidecar_cross_checks_the_closed_form(self, tmp_path,
                                                       capsys, p, eps):
        cfg = _base_config(equation="mult", grid={"n": 256, "length": 20.0},
                           times=[0.5, 1.0, 4.0])
        cfg["params"].update(p=p, eps=eps)
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        summary = meta["residual_summary"]
        gaps = summary["h_closed_form_vs_quad_at_s0"]
        assert gaps.keys() == summary["h_quadrature_error_at_s0"].keys()
        assert len(gaps) == 3
        assert all(math.isfinite(g) and g <= 1e-8 for g in gaps.values())

    def test_pole_rows_are_literal_nan(self, tmp_path, capsys):
        # every time at or past the earliest root of h is a nan column
        t0 = math.log(2.0)
        cfg = _base_config(times=[0.5, t0, 0.9])
        cfg["params"]["eps"] = 2.0
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out)])
        assert rc == 0
        assert "pole" in capsys.readouterr().out
        for k in (1, 2):
            rows = list(csv.reader((out / ("run_t%03d.csv" % k))
                                   .open(newline="")))
            assert rows[0] == ["x", "u"]
            assert all(r[1] == "nan" for r in rows[1:])
        rows = list(csv.reader((out / "run_t000.csv").open(newline="")))
        assert all(math.isfinite(float(r[1])) for r in rows[1:])
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        assert meta["pole_flag"] is True
        assert meta["pole_times"] == [pytest.approx(t0), 0.9]
        assert meta["root_locus"] == {"regime": "root_at",
                                      "t0": pytest.approx(t0, abs=1e-12)}

    def test_pole_time_rows_are_x_then_nan(self, tmp_path, capsys):
        # two formatting blocks of rows, each "x,nan" with x at %.17g
        cfg = _base_config(times=[0.9], grid={"n": 8192, "length": 20.0})
        cfg["params"]["eps"] = 2.0
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out)]) == 0
        assert "pole flagged" in capsys.readouterr().out
        want = "x,u\r\n" + "".join(
            "%s,nan\r\n" % fmt17(x)
            for x in TransformPlan(8192, 20.0).points)
        assert (out / "run_t000.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("b, eps, times, t0", [
        (1.0, 2.0, [1.0], math.log(2.0)),    # one time, past the root
        (0.0, 0.5, [1.0, 3.0, 5.0], 2.0),    # b = 0: t0 = C/(eps (p-1))
    ])
    def test_times_past_the_root_are_flagged(self, tmp_path, capsys, b,
                                             eps, times, t0):
        cfg = _base_config(times=times)
        cfg["params"].update(b=b, eps=eps)
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out)]) == 0
        assert "pole flagged" in capsys.readouterr().out
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        past = [t for t in times if t >= t0]
        assert meta["pole_flag"] is True
        assert meta["pole_times"] == past
        assert meta["root_locus"]["t0"] == pytest.approx(t0, rel=1e-15)
        for k, t in enumerate(times):
            rows = list(csv.reader((out / ("run_t%03d.csv" % k))
                                   .open(newline="")))[1:]
            assert all((r[1] == "nan") == (t in past) for r in rows)

    @pytest.mark.parametrize("p, eps, kernel", [
        (2, 2.0, {"pole_policy": "error"}),   # PoleError
        (3, 4.0, {}),                         # h < 0 under an even root
    ])
    def test_past_the_root_errors_are_two(self, tmp_path, capsys, p, eps,
                                          kernel):
        cfg = _base_config(times=[1.0], kernel=kernel)
        cfg["params"].update(p=p, eps=eps)
        path = _write(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path, "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, t, flagged", [
        (64, 0.001, True),     # margin 0.975
        (64, 0.25, True),      # the golden fixture's grid: margin 1.8e-3
        (65536, 0.25, False),
    ])
    def test_band_limit_margin_is_recorded(self, tmp_path, capsys, n, t,
                                           flagged):
        cfg = _base_config(times=[t], grid={"n": n, "length": 20.0})
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out)]) == 0
        assert ("aliasing flagged" in capsys.readouterr().out) is flagged
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        margin = meta["band_limit_margin"][fmt17(t)]
        assert margin == TransformPlan(n, 20.0).band_limit_margin(1.0, t)
        assert (margin > BAND_LIMIT_FLOOR) is flagged
        assert meta["aliasing_flag"] is flagged
        assert meta["pole_flag"] is False

    def test_svg_is_emitted_and_well_formed(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _base_config())
        out = tmp_path / "out"
        main(["solve", "--config", path, "--out-dir", str(out), "--svg"])
        capsys.readouterr()
        text = (out / "run_t000.svg").read_text("utf-8")
        assert text.startswith("<svg")
        assert 'version="1.1"' in text
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text

    def test_svg_gaps_at_non_finite_samples(self, tmp_path, capsys):
        t0 = math.log(2.0)
        cfg = _base_config(times=[t0])
        cfg["params"]["eps"] = 2.0
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        main(["solve", "--config", path, "--out-dir", str(out), "--svg"])
        capsys.readouterr()
        text = (out / "run_t000.svg").read_text("utf-8")
        # an all-nan column yields no drawable run at all
        assert "polyline" not in text
        assert "nan" not in text.lower().replace("instance", "")


class TestVerifyCommand:
    def test_kernel_suite_passes_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", "kernels",
                   "--report", str(report)])
        assert rc == 0
        seen = capsys.readouterr().out
        assert "[PASS]" in seen
        payload = json.loads(report.read_text("utf-8"))
        assert payload["suite"] == "kernels"
        assert all(r["passed"] for r in payload["records"])

    def test_conv_suite_fails_on_red_acceptance_record(self, tmp_path,
                                                       capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", "conv", "--report", str(report)])
        assert rc == 3
        capsys.readouterr()
        payload = json.loads(report.read_text("utf-8"))
        failing = [r["name"] for r in payload["records"]
                   if not r["passed"]]
        assert failing == ["conv/fisher_erfc_acceptance"]

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "nope", "--report", "r.json"])
        assert info.value.code == 1
        capsys.readouterr()


class TestSweepCommand:
    def _sweep(self, tmp_path, body, name="s.json"):
        path = _write(tmp_path, name, body)
        out = tmp_path / (name + ".csv")
        rc = main(["sweep", "--config", path, "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == ["eps", "b", "p", "t0", "regime"]
        return rows[1:]

    def test_negative_eps_never_roots(self, tmp_path, capsys):
        rows = self._sweep(tmp_path, {
            "eps": {"start": -1.0, "stop": -0.1, "count": 4},
            "b": [1.0], "p": [2]})
        capsys.readouterr()
        assert len(rows) == 4
        assert all(r[4] == "no_root" and r[3] == "nan" for r in rows)

    def test_blow_up_time_decreases_with_eps(self, tmp_path, capsys):
        rows = self._sweep(tmp_path, {
            "eps": {"start": 1.5, "stop": 3.0, "count": 4},
            "b": [1.0], "p": [2]})
        capsys.readouterr()
        t0s = [float(r[3]) for r in rows]
        assert all(r[4] == "root_at" for r in rows)
        assert all(a > b for a, b in zip(t0s, t0s[1:]))

    def test_blow_up_time_scales_inversely_with_p_minus_one(self, tmp_path,
                                                            capsys):
        rows = self._sweep(tmp_path, {"eps": [2.0], "b": [1.0],
                                      "p": [2, 3, 4]})
        capsys.readouterr()
        t0s = {int(r[2]): float(r[3]) for r in rows}
        assert t0s[3] == pytest.approx(t0s[2] / 2.0, rel=1e-12)
        assert t0s[4] == pytest.approx(t0s[2] / 3.0, rel=1e-12)

    def test_rows_cover_the_full_product(self, tmp_path, capsys):
        rows = self._sweep(tmp_path, {
            "eps": {"start": 0.5, "stop": 2.5, "count": 3},
            "b": [0.5, 1.0], "p": [2, 3]})
        capsys.readouterr()
        assert len(rows) == 12

    def test_rows_match_root_locus(self, tmp_path, capsys):
        # one vectorised root_time call against per-row root_locus
        cfg = {"eps": [-1.0, 0.0, 0.3, 1.0, 1.7, 2.5, 9.0],
               "b": [-0.7, 0.3, 1.0, 2.0], "p": [2, 3, 5]}
        path = _write(tmp_path, "s.json", cfg)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        rows = list(csv.reader(out.open(newline="")))[1:]
        assert len(rows) == 7 * 4 * 3
        regimes = set()
        for eps, b, p, t0, regime in rows:
            rep = root_locus(PhysicalParams(1.0, float(b), float(eps),
                                            int(p)))
            assert regime == rep.regime
            regimes.add(regime)
            if rep.t0 is None:
                assert t0 == "nan"
            else:
                assert abs(float(t0) - rep.t0) <= np.spacing(rep.t0)
        assert regimes == {"root_at", "no_root", "asymptotic_infinity"}

    def test_fractional_p_is_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", {"eps": [1.0], "b": [1.0],
                                           "p": [2.5]})
        rc = main(["sweep", "--config", path,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        capsys.readouterr()

    def test_zero_b_has_a_root(self, tmp_path, capsys):
        # at b = 0, h = 1 - eps (p-1) t at s = 0: t0 = 1/(eps (p-1))
        rows = self._sweep(tmp_path, {"eps": [0.5], "b": [0.0], "p": [2]})
        capsys.readouterr()
        assert rows == [["0.5", "0", "2", "2", "root_at"]]


def _fresh_interpreter(code):
    """Run code in a new interpreter and return the scipy modules it
    has loaded at the end."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestColdStart:
    """scipy is imported only by the commands that use it."""

    def test_cli_import_loads_no_scipy(self):
        assert _fresh_interpreter("import nwspectral.cli") == "[]"

    def test_cli_import_builds_no_csv_tables(self):
        code = ("import nwspectral.cli\n"
                "assert nwspectral.csvtext._tables.cache_info().currsize "
                "== 0")
        assert _fresh_interpreter(code) == "[]"

    def test_sweep_and_conv_solve_load_no_scipy(self, tmp_path):
        sweep = _write(tmp_path, "s.json", {"eps": [0.5, 2.0], "b": [1.0],
                                            "p": [2, 3]})
        solve = _write(tmp_path, "c.json", _base_config())
        code = ("from nwspectral.cli import main\n"
                "assert main(['sweep', '--config', %r, '--out', %r]) == 0\n"
                "assert main(['solve', '--config', %r, '--out-dir', %r]) == 0"
                % (sweep, str(tmp_path / "s.csv"), solve, str(tmp_path)))
        assert _fresh_interpreter(code) == "[]"
        assert (tmp_path / "run_t000.csv").is_file()

    def test_erfc_resolves_to_scipy(self):
        code = ("import nwspectral, scipy.special\n"
                "from nwspectral.kernels import erfc\n"
                "assert nwspectral.erfc is scipy.special.erfc is erfc")
        _fresh_interpreter(code)
