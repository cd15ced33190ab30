"""Re-measure the ROADMAP baseline table: median of three untraced
in-process repeats per row, after one warm-up.

    python3 bench/baseline.py

Rows: each verify suite; `solve` conv at n = 2^16 (L = 40) for three
times; the 2000-tuple sweep of the `sweep` workload at seed 0; the in-repo
erfc and scipy's on 1e5 points of [-10, 10]; the IFRK4 oracle at
n = 1024, L = 40, eps = 0.1 over [0.05, 0.5] at its stability bound
(1457 steps), conv and mult.
"""

import contextlib
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run


def timed(fn, repeats=3):
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main():
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from scipy.special import erfc as scipy_erfc
    from nwspectral import cli, kernels, oracle, report
    from nwspectral.core import PhysicalParams
    from nwspectral.spectral import default_plan

    rows = []
    run.RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="baseline-", dir=run.RUN_DIR))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for suite in report.SUITES[1:]:
                rows.append(("verify --suite %s, in-process" % suite,
                             timed(lambda: report.run_suite(suite))))
            config = work / "conv.json"
            config.write_text(json.dumps({
                "equation": "conv",
                "params": {"D": 1.0, "b": 1.0, "eps": 0.5, "p": 2},
                "grid": run.GRID, "times": [0.1, 0.5, 1.0]}))
            rows.append(("solve conv, n = 65536, 3 times", timed(
                lambda: cli.main(["solve", "--config", str(config),
                                  "--out-dir", str(work)]))))
            sweep = run.Sweep(0, work)
            rows.append(("2000-tuple sweep",
                         timed(lambda: sweep.operate(cli.main))))
        x = np.linspace(-10.0, 10.0, 100000)
        rows.append(("in-repo erfc, 1e5 points", timed(lambda: kernels.erfc(x))))
        rows.append(("scipy.special.erfc, 1e5 points",
                     timed(lambda: scipy_erfc(x))))
        plan = default_plan(1024, 40.0)
        params = PhysicalParams(1.0, 1.0, 0.1, 2)
        steps = math.ceil(0.45 / oracle.stability_bound(params, plan))
        for mode, label in (("convolution_p", "conv"),
                            ("multiplicative_p", "mult")):
            ifrk4 = oracle.OracleRun(params, plan, mode, 0.05, 0.5,
                                     0.45 / steps)
            rows.append(("IFRK4 oracle %s, n = 1024, %d steps"
                         % (label, steps), timed(lambda: oracle.step_etd(ifrk4))))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for label, seconds in rows:
        print("| %s | %.4g s |" % (label, seconds))


if __name__ == "__main__":
    main()
