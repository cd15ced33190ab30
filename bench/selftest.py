"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed N]

Runs one operation of each workload, requires its checks to pass the
program's real outputs, then plants one fault at a time and requires the
checks to reject it: a solve field scaled by 1 + 1e-6, a sweep t0 moved by
1e-9 of itself either way, and one extra failing verify record. Exits 1
if any expectation fails.
"""

import argparse
import contextlib
import copy
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from nwspectral import cli

    results = []

    def quiet(workload):
        with contextlib.redirect_stdout(io.StringIO()):
            return workload.operate(cli.main)

    def expect(label, problems, rejected):
        ok = bool(problems) == rejected
        results.append(ok)
        print("%s  %s: %s" % ("ok  " if ok else "FAIL", label,
                              problems[0] if problems else "accepted"))

    run.RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUN_DIR))
    try:
        (work / "out").mkdir()
        solve = run.Solve(args.seed, work)
        expect("solve outputs", solve.check(quiet(solve))[1], False)
        n, length = run.GRID["n"], run.GRID["length"]
        for cfg in solve.configs:
            for t, path in zip(cfg["times"], solve.files(cfg)):
                x, u, _ = checks.read_field_csv(path.read_bytes(), n)
                expect("%s t = %g scaled by 1 + 1e-6" % (cfg["equation"], t),
                       checks.check_field(cfg["equation"], cfg["params"], t,
                                          n, length, x, u * (1.0 + 1e-6)),
                       True)

        sweep = run.Sweep(args.seed, work)
        expect("sweep outputs", sweep.check(quiet(sweep))[1], False)
        rows, _ = checks.read_sweep_csv(sweep.table.read_bytes())
        k = next(i for i, row in enumerate(rows) if row[4] == "root_at")
        for factor in (1.0 + 1e-9, 1.0 - 1e-9):
            moved = list(rows)
            eps, b, p, t0, regime = moved[k]
            moved[k] = (eps, b, p, t0 * factor, regime)
            expect("sweep t0 times %.9f" % factor,
                   checks.check_sweep(moved, sweep.tuples), True)

        verify = run.Verify(args.seed, work)
        code = quiet(verify)
        expect("verify outputs", verify.check(code)[1], False)
        report = json.loads(verify.report.read_text(encoding="utf-8"))
        flipped = copy.deepcopy(report)
        rec = next(r for r in flipped["records"] if r["passed"])
        rec["measured"], rec["passed"] = 2.0 * rec["tolerance"], False
        expect("verify with %s failing too" % rec["name"],
               checks.check_verify(code, flipped), True)
        extra = copy.deepcopy(report)
        extra["records"].append({"name": "extra/failing", "measured": 1.0,
                                 "tolerance": 0.5, "passed": False,
                                 "inputs": {}})
        expect("verify with an extra failing record",
               checks.check_verify(code, extra), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d of %d expectations hold" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
