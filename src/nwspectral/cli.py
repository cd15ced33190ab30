"""Command-line front end: solve, verify, and sweep.

Exit codes: 0 ok, 1 usage or config problem, 2 solver or i/o error,
3 verification failure. CSV output is RFC 4180 (CRLF rows, fixed 17
significant digits), so identical configs produce byte-identical files.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import conv as _conv
from . import csvtext
from .csvtext import fmt17
from .core import SUITES, KernelSpec, PhysicalParams, SolverError
from .spectral import BAND_LIMIT_FLOOR, TransformPlan


class ConfigError(Exception):
    """Bad configuration file; maps to exit code 1."""


EQUATIONS = ("conv", "mult", "fisher_erfc", "fisher_genetic")

_TOP_KEYS = {"equation", "params", "grid", "times", "kernel", "output",
             "prob_product", "t_min"}
_PARAM_KEYS = {"D", "b", "eps", "p"}
_GRID_KEYS = {"n", "length"}
_KERNEL_KEYS = {"C", "pole_policy"}
_OUTPUT_KEYS = {"basename"}
_SWEEP_KEYS = {"eps", "b", "p", "D"}
_RANGE_KEYS = {"start", "stop", "count"}


def _reject_unknown(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError('"%s" must be a JSON object' % where)
    for key in mapping:
        if key not in allowed:
            raise ConfigError('unknown key "%s" in %s' % (key, where))


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError('missing key "%s" in %s' % (key, where))
    return mapping[key]


def _as_float(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError('"%s" must be a number' % name)
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError('"%s" must be finite' % name)
    return out


def _as_int(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError('"%s" must be an integer' % name)
    return value


def load_json(path):
    """Parse a UTF-8 JSON file, reporting malformed input by byte offset."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror))
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("config is not UTF-8 at byte offset %d"
                          % exc.start)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[:exc.pos].encode("utf-8"))
        raise ConfigError("malformed JSON at byte offset %d: %s"
                          % (offset, exc.msg))


class RunConfig:
    """Validated solve configuration; round-trips through to_dict."""

    def __init__(self, equation, params, grid_n, grid_length, times,
                 kernel, basename, prob_product=None, t_min=None):
        self.equation = equation
        self.params = params
        self.grid_n = grid_n
        self.grid_length = grid_length
        self.times = tuple(times)
        self.kernel = kernel
        self.basename = basename
        self.prob_product = prob_product
        self.t_min = t_min

    def __eq__(self, other):
        return isinstance(other, RunConfig) \
            and self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, data):
        _reject_unknown(data, _TOP_KEYS, "config")
        equation = _require(data, "equation", "config")
        if equation not in EQUATIONS:
            raise ConfigError('"equation" must be one of %s' % (EQUATIONS,))

        pblock = _require(data, "params", "config")
        _reject_unknown(pblock, _PARAM_KEYS, '"params"')
        try:
            params = PhysicalParams(
                _as_float(_require(pblock, "D", '"params"'), "D"),
                _as_float(_require(pblock, "b", '"params"'), "b"),
                _as_float(_require(pblock, "eps", '"params"'), "eps"),
                _as_int(_require(pblock, "p", '"params"'), "p"))
        except ValueError as exc:
            raise ConfigError('bad "params": %s' % exc)

        gblock = data.get("grid", {})
        _reject_unknown(gblock, _GRID_KEYS, '"grid"')
        grid_n = _as_int(gblock.get("n", 256), "n")
        grid_length = _as_float(gblock.get("length", 20.0), "length")
        try:
            TransformPlan(grid_n, grid_length)
        except ValueError as exc:
            raise ConfigError('bad "grid": %s' % exc)

        times = _require(data, "times", "config")
        if not isinstance(times, list) or not times:
            raise ConfigError('"times" must be a non-empty list')
        times = [_as_float(t, "times entry") for t in times]
        if any(t <= 0 for t in times):
            raise ConfigError('"times" entries must be positive')

        kblock = data.get("kernel", {})
        _reject_unknown(kblock, _KERNEL_KEYS, '"kernel"')
        try:
            kernel = KernelSpec(
                C=_as_float(kblock.get("C", 1.0), "C"),
                pole_policy=kblock.get("pole_policy", "report"))
        except ValueError as exc:
            raise ConfigError('bad "kernel": %s' % exc)

        oblock = data.get("output", {})
        _reject_unknown(oblock, _OUTPUT_KEYS, '"output"')
        basename = oblock.get("basename", "u")
        if not isinstance(basename, str) or not basename \
                or not all(c.isalnum() or c in "_-." for c in basename):
            raise ConfigError('"basename" must use only letters, digits, '
                              '"_", "-", "."')

        prob_product = data.get("prob_product")
        if prob_product is not None:
            if equation != "fisher_genetic":
                raise ConfigError('key "prob_product" is only valid for '
                                  'equation "fisher_genetic"')
            prob_product = _as_float(prob_product, "prob_product")
            if not 0.0 < prob_product <= 1.0:
                raise ConfigError('"prob_product" must lie in (0, 1]')
        elif equation == "fisher_genetic":
            prob_product = 1.0

        t_min = data.get("t_min")
        if t_min is not None:
            if equation != "mult":
                raise ConfigError('key "t_min" is only valid for equation '
                                  '"mult"')
            t_min = _as_float(t_min, "t_min")
            if not t_min > 0:
                raise ConfigError('"t_min" must be positive')

        return cls(equation, params, grid_n, grid_length, times, kernel,
                   basename, prob_product, t_min)

    def to_dict(self):
        out = {
            "equation": self.equation,
            "params": {"D": self.params.D, "b": self.params.b,
                       "eps": self.params.eps, "p": self.params.p},
            "grid": {"n": self.grid_n, "length": self.grid_length},
            "times": list(self.times),
            "kernel": {"C": self.kernel.C,
                       "pole_policy": self.kernel.pole_policy},
            "output": {"basename": self.basename},
        }
        if self.prob_product is not None:
            out["prob_product"] = self.prob_product
        if self.t_min is not None:
            out["t_min"] = self.t_min
        return out


class _Stopwatch:
    """Wall seconds per stage, summed over every pass through it."""

    def __init__(self):
        self.seconds = {}

    @contextlib.contextmanager
    def stage(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - start)


def _write_csv(path, header, body):
    with open(path, "wb") as fh:
        fh.write(header + b"\r\n")
        fh.write(body)


def _write_json(path, payload):
    data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def _originating_module(exc):
    """Innermost package module on the exception's traceback."""
    name = None
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("nwspectral") and mod != __name__:
            name = mod
        tb = tb.tb_next
    return name or "nwspectral"


def _conv_residual(solution, freqs, t):
    try:
        return float(np.max(_conv.codomain_ode_residual(solution, freqs, t,
                                                        dt=1e-5)))
    except (SolverError, ValueError):
        return None


def _solve_fields(config, plan, watch):
    """Per-time spatial samples plus equation-specific metadata; the
    inverse transforms are timed as watch's "transform" stage."""
    x = plan.points
    freqs = plan.frequencies
    params = config.params
    meta = {}
    columns = []
    pole_times = []

    if config.equation == "conv":
        solution = _conv.ConvSolution(params, kernel=config.kernel,
                                      grid=plan)
        t_root, regime = _conv.earliest_root(params, config.kernel, freqs)
        meta["root_locus"] = {"regime": regime, "t0": t_root}
        residuals = {}
        margins = {}
        for t in config.times:
            field = solution.u_field(t)
            margins[fmt17(t)] = plan.band_limit_margin(params.D, t)
            if (t_root is None or t < t_root) \
                    and np.all(np.isfinite(field)):
                with watch.stage("transform"):
                    columns.append(plan.inverse(field))
                residuals[fmt17(t)] = _conv_residual(solution, freqs, t)
            else:
                columns.append(np.full(x.shape, math.nan))
                pole_times.append(t)
                residuals[fmt17(t)] = None
        meta["residual_summary"] = {"codomain_ode_relative": residuals}
        meta["band_limit_margin"] = margins
        meta["aliasing_flag"] = any(m > BAND_LIMIT_FLOOR
                                    for m in margins.values())

    elif config.equation == "mult":
        from . import mult as _mult
        extra = {} if config.t_min is None else {"t_min": config.t_min}
        mplan = _mult.MultSolverPlan(params, kernel=config.kernel, **extra)
        overflow = {}
        residuals = {}
        gaps = {}
        for t in config.times:
            field, flagged = _mult.mult_codomain(t, mplan, plan)
            overflow[fmt17(t)] = int(np.count_nonzero(flagged))
            if np.all(np.isfinite(field)):
                with watch.stage("transform"):
                    columns.append(plan.inverse(field))
                # the scalar quadrature cross-checks the closed-form h
                cert = _mult.h_mult_certificate(0.0, t, mplan)
                h0 = _mult.h_mult_quadrature(0.0, t, mplan)
                residuals[fmt17(t)] = cert.error
                gaps[fmt17(t)] = abs(h0 - cert.value) / abs(cert.value)
            else:
                columns.append(np.full(x.shape, math.nan))
                pole_times.append(t)
                residuals[fmt17(t)] = None
                gaps[fmt17(t)] = None
        meta["overflow_flagged"] = overflow
        meta["residual_summary"] = {"h_quadrature_error_at_s0": residuals,
                                    "h_closed_form_vs_quad_at_s0": gaps}

    elif config.equation == "fisher_erfc":
        gaps = {}
        for t in config.times:
            printed = _conv.fisher_erfc_approx(x, t, params)
            exact = _conv.fisher_erfc_transform_consistent(x, t, params)
            columns.append(printed)
            gaps[fmt17(t)] = float(np.max(np.abs(printed - exact)))
        meta["residual_summary"] = {"printed_vs_consistent_linf": gaps}

    else:  # fisher_genetic
        import warnings
        from . import mult as _mult
        grew = False
        for t in config.times:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", _mult.GrowthWarning)
                columns.append(_mult.fisher_constant_prob(
                    x, t, params.D, params.eps, config.prob_product))
            grew = grew or any(issubclass(w.category, _mult.GrowthWarning)
                               for w in caught)
        meta["growth_warning"] = grew
        meta["residual_summary"] = {}

    meta["pole_times"] = [float(t) for t in pole_times]
    meta["pole_flag"] = bool(pole_times)
    return x, columns, meta


def cmd_solve(config_path, out_dir, svg):
    config = RunConfig.from_dict(load_json(config_path))
    os.makedirs(out_dir, exist_ok=True)
    plan = TransformPlan(config.grid_n, config.grid_length)

    watch = _Stopwatch()
    start = time.perf_counter()
    x, columns, meta = _solve_fields(config, plan, watch)
    # evaluate: the fields and their diagnostics, transforms excluded
    watch.seconds["evaluate"] = (time.perf_counter() - start
                                 - watch.seconds.get("transform", 0.0))

    with watch.stage("format"):
        x_text = csvtext.slots(x)  # one x column serves every time
    files = {}
    for k, (t, u) in enumerate(zip(config.times, columns)):
        name = "%s_t%03d.csv" % (config.basename, k)
        with watch.stage("format"):
            body = csvtext.rows(x_text, csvtext.slots(u))
        with watch.stage("write"):
            _write_csv(os.path.join(out_dir, name), b"x,u", body)
        files[name] = {"time": t}
        if svg:
            from .svgplot import line_plot
            sname = "%s_t%03d.svg" % (config.basename, k)
            with watch.stage("write"):
                doc = line_plot(x, [u], labels=["t = %g" % t],
                                title="%s solution" % config.equation,
                                xlabel="x", ylabel="u")
                with open(os.path.join(out_dir, sname), "w",
                          encoding="utf-8", newline="\n") as fh:
                    fh.write(doc)
            files[sname] = {"time": t}

    payload = {
        "version": __version__,
        "config": config.to_dict(),
        "files": files,
    }
    payload.update(meta)
    # the only key whose values change between identical runs
    payload["timings"] = {stage + "_s": watch.seconds.get(stage, 0.0)
                          for stage in ("evaluate", "transform", "format",
                                        "write")}
    meta_name = "%s_meta.json" % config.basename
    _write_json(os.path.join(out_dir, meta_name), payload)

    print("wrote %d file(s) to %s" % (len(files) + 1, out_dir))
    if meta["pole_flag"]:
        print("pole flagged; see %s" % meta_name)
    if meta.get("aliasing_flag"):
        print("aliasing flagged; see %s" % meta_name)
    return 0


def cmd_verify(suite, report_path):
    from . import report as _report
    rep = _report.run_suite(suite)
    _write_json(report_path, rep.to_dict())
    for line in rep.summary_lines():
        print(line)
    print("%s: %d/%d checks passed; %d resolution(s); report at %s"
          % (suite, sum(r.passed for r in rep.records), len(rep.records),
             len(rep.resolutions), report_path))
    return 0 if rep.passed else 3


def _sweep_values(raw, name, integer=False):
    if isinstance(raw, list):
        if not raw:
            raise ConfigError('"%s" list must be non-empty' % name)
        if integer:
            return [_as_int(v, name) for v in raw]
        return [_as_float(v, name) for v in raw]
    if isinstance(raw, dict):
        _reject_unknown(raw, _RANGE_KEYS, '"%s"' % name)
        start = _as_float(_require(raw, "start", '"%s"' % name), "start")
        stop = _as_float(_require(raw, "stop", '"%s"' % name), "stop")
        count = _as_int(_require(raw, "count", '"%s"' % name), "count")
        if count < 1:
            raise ConfigError('"count" must be >= 1')
        if integer:
            raise ConfigError('"%s" must be an explicit integer list'
                              % name)
        return list(np.linspace(start, stop, count))
    raise ConfigError('"%s" must be a list or a {start, stop, count} range'
                      % name)


def cmd_sweep(config_path, out_path):
    data = load_json(config_path)
    _reject_unknown(data, _SWEEP_KEYS, "sweep config")
    eps_values = _sweep_values(_require(data, "eps", "sweep config"), "eps")
    b_values = _sweep_values(_require(data, "b", "sweep config"), "b")
    p_values = _sweep_values(_require(data, "p", "sweep config"), "p",
                             integer=True)
    D = _as_float(data.get("D", 1.0), "D")
    try:
        for p in p_values:
            PhysicalParams(D, b_values[0], eps_values[0], p)
    except ValueError as exc:
        raise ConfigError("bad sweep values: %s" % exc)

    tuples = list(itertools.product(eps_values, b_values, p_values))
    eps, b, p = np.array(tuples, dtype=float).T
    # root of h at s = 0, where C = 1 and beta = b
    t0, regime = _conv.root_time(1.0, b, eps, p)
    rows = ["%s,%s,%d,%s,%s\r\n" % (fmt17(e), fmt17(bb), pp, fmt17(t), r)
            for (e, bb, pp), t, r in zip(tuples, t0, regime.tolist())]
    _write_csv(out_path, b"eps,b,p,t0,regime", "".join(rows).encode())
    print("wrote %d row(s) to %s" % (len(rows), out_path))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="nwspectral",
                     description="Spectral-codomain solvers for generalized "
                                 "reaction-diffusion equations.")
    parser.add_argument("--version", action="version",
                        version="nwspectral %s" % __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("--config", required=True, metavar="<path>")
    p_solve.add_argument("--out-dir", default=".", metavar="<dir>")
    p_solve.add_argument("--svg", action="store_true",
                         help="also write an SVG plot per time")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=list(SUITES))
    p_verify.add_argument("--report", required=True, metavar="<path>")

    p_sweep = sub.add_parser("sweep", help="tabulate the root locus over "
                                           "parameter ranges")
    p_sweep.add_argument("--config", required=True, metavar="<path>")
    p_sweep.add_argument("--out", required=True, metavar="<path>")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out_dir, args.svg)
        if args.command == "verify":
            return cmd_verify(args.suite, args.report)
        return cmd_sweep(args.config, args.out)
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 1
    except (SolverError, ValueError, ArithmeticError) as exc:
        sys.stderr.write("solver error (%s): %s\n"
                         % (_originating_module(exc), exc))
        return 2
    except OSError as exc:
        sys.stderr.write("i/o error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
