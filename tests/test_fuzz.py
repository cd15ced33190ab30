"""Property test over CLI solve and sweep configs: every run exits 0, 1, 2
or 3 without a traceback, and every written value is finite or flagged.

Configs are mostly valid, with edge-case values mixed in; at most one
field is replaced by an invalid value, so usage errors (exit 1) and solver
errors (exit 2) are exercised next to clean solves. Examples are
derandomized and bounded, so the test is deterministic.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nwspectral.cli import EQUATIONS, main
from nwspectral.csvtext import fmt17

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])

_eps = st.one_of(st.floats(-2.0, 2.0),
                 st.sampled_from([0.0, 1e-300, -1e-300, 50.0, -50.0]))
_b = st.one_of(st.floats(-1.0, 3.0), st.sampled_from([0.0, 1e-300, 40.0]))
_D = st.one_of(st.floats(0.05, 3.0), st.sampled_from([1e-6, 30.0]))
_p = st.one_of(st.just(2), st.integers(3, 6))
_time = st.one_of(st.floats(0.01, 3.0), st.sampled_from([1e-9, 50.0]))

# (block, key, invalid values) of the fields a solve config may corrupt
_INVALID = {
    "D": ("params", "D", [0.0, -1.0, "1"]),
    "p": ("params", "p", [1, 0, 2.5, True]),
    "eps": ("params", "eps", [None, [0.1]]),
    "n": ("grid", "n", [8, 100, 256.0]),
    "length": ("grid", "length", [0.0, -20.0]),
    "C": ("kernel", "C", ["x", None]),
    "pole_policy": ("kernel", "pole_policy", ["bogus", 1]),
}


def _run(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _check_exit(code, stderr):
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in stderr, stderr


@st.composite
def solve_configs(draw):
    equation = draw(st.sampled_from(EQUATIONS))
    config = {
        "equation": equation,
        "params": {"D": draw(_D), "b": draw(_b), "eps": draw(_eps),
                   "p": draw(_p)},
        "grid": {"n": draw(st.sampled_from([16, 64, 256])),
                 "length": draw(st.sampled_from([5.0, 20.0, 80.0]))},
        "times": draw(st.lists(_time, min_size=1, max_size=3)),
        "kernel": {"C": draw(st.sampled_from([1.0, 0.5, 2.0, -1.0])),
                   "pole_policy": draw(st.sampled_from(["report", "clamp",
                                                        "error"]))},
        "output": {"basename": "u"},
    }
    if equation == "mult" and draw(st.booleans()):
        config["t_min"] = draw(st.sampled_from([1e-6, 0.01, 0.5]))
    if equation == "fisher_genetic" and draw(st.booleans()):
        config["prob_product"] = draw(st.sampled_from([0.25, 1.0]))
    bad = draw(st.sampled_from([None] * 8 + sorted(_INVALID)))
    if bad is not None:
        block, key, values = _INVALID[bad]
        config[block][key] = draw(st.sampled_from(values))
    return config


@st.composite
def sweep_configs(draw):
    def axis(values):
        if draw(st.booleans()):
            return draw(st.lists(values, min_size=1, max_size=4))
        return {"start": draw(values), "stop": draw(values),
                "count": draw(st.integers(1, 6))}

    config = {"eps": axis(_eps), "b": axis(_b),
              "p": draw(st.lists(_p, min_size=1, max_size=3))}
    if draw(st.booleans()):
        config["D"] = draw(_D)
    bad = draw(st.sampled_from([None] * 6 + ["p", "count", "D"]))
    if bad == "p":
        config["p"] = [draw(st.sampled_from([1, 0, 2.5]))]
    elif bad == "count":
        config["eps"] = {"start": 0.1, "stop": 1.0, "count": 0}
    elif bad == "D":
        config["D"] = draw(st.sampled_from([0.0, -1.0]))
    return config


def _floats(value):
    """Every float in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for item in value for f in _floats(item)]
    return [value] if isinstance(value, float) else []


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@_SETTINGS
@given(config=solve_configs())
def test_solve_output_is_finite_or_flagged(config):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, stderr = _run(["solve", "--config", path, "--out-dir", out])
        _check_exit(code, stderr)
        if code != 0:
            return
        with open(os.path.join(out, "u_meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        assert all(math.isfinite(f) for f in _floats(meta)), meta
        poles = set(meta["pole_times"])
        overflow = meta.get("overflow_flagged", {})
        for name, entry in meta["files"].items():
            t = entry["time"]
            rows = _read_rows(os.path.join(out, name))
            assert len(rows) == config["grid"]["n"]
            assert all(math.isfinite(float(r["x"])) for r in rows)
            u = np.array([float(r["u"]) for r in rows])
            if not np.all(np.isfinite(u)):
                assert t in poles or overflow.get(fmt17(t), 0) > 0, \
                    "%s: non-finite u at t = %r, not flagged" % (name, t)


@_SETTINGS
@given(config=sweep_configs())
def test_sweep_output_is_finite_or_flagged(config):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "sweep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        table = os.path.join(out, "sweep.csv")
        code, stderr = _run(["sweep", "--config", path, "--out", table])
        _check_exit(code, stderr)
        if code != 0:
            return
        for row in _read_rows(table):
            assert math.isfinite(float(row["eps"]))
            assert math.isfinite(float(row["b"]))
            t0 = float(row["t0"])
            if row["regime"] == "root_at":
                assert math.isfinite(t0) and t0 >= 0.0, row
            else:
                assert math.isnan(t0), row
