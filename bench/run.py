"""Benchmark of the nwspectral command line on one named workload.

    python3 bench/run.py --workload {verify,solve,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`. One process, one caller, one thread: operations run back to back
in-process through `nwspectral.cli.main`, and the BLAS pools are held to
one thread. Every operation's outputs are checked (checks.py); an
operation whose check does not hold counts as failed.

Operations run until their wall times add up to --seconds. --trace 0
prints the end-to-end metrics: op_s, the median wall time of one
operation after an untimed warm-up; setup_s, the median time from a fresh
interpreter until nwspectral.cli is imported, sampled between operations;
peak_rss_mb. --trace 1
alternates untraced and traced operations and prints the per-layer metrics
of the traced ones (spans.py). The last line of standard output is the
result as one JSON object. Outputs go to a temporary directory under
`.bench_run/`, which is removed at the end; a traced run leaves its spans
there as `trace-<workload>.npz`, replacing the previous one.
"""

import os

# Held before numpy loads, and inherited by the set-up subprocesses.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_SAMPLES = 7
GRID = {"n": 65536, "length": 40.0}

# nwspectral.cli imports every library module, so this is the set-up of
# every workload.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import nwspectral.cli
sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
"""


class Verify:
    """`verify --suite all`. It has no inputs, so the seed changes nothing."""

    def __init__(self, seed, work):
        self.report = work / "report.json"

    def operate(self, main):
        return main(["verify", "--suite", "all", "--report", str(self.report)])

    def check(self, code):
        report = json.loads(self.report.read_text(encoding="utf-8"))
        fingerprint = hashlib.sha256(json.dumps(
            [report["records"], report["resolutions"]],
            sort_keys=True).encode("utf-8")).hexdigest()
        return fingerprint, checks.check_verify(code, report)


class Solve:
    """`solve` for conv, mult and fisher_erfc at n = 2^16, parameters drawn
    from the seed in ranges where no solution has a pole."""

    def __init__(self, seed, work):
        rng = random.Random(seed)
        b = [rng.uniform(0.5, 1.5) for _ in range(3)]
        self.configs = [
            {"equation": "conv",
             "params": {"D": 1.0, "b": b[0], "eps": rng.uniform(0.1, 0.9) * b[0],
                        "p": rng.choice((2, 3))},
             "grid": GRID, "times": [0.1, 0.5],
             "output": {"basename": "conv"}},
            {"equation": "mult",
             "params": {"D": 1.0, "b": b[1], "eps": -rng.uniform(0.01, 0.1),
                        "p": 2},
             "grid": GRID, "times": [0.1, 0.5],
             "output": {"basename": "mult"}},
            {"equation": "fisher_erfc",
             "params": {"D": 1.0, "b": b[2], "eps": rng.uniform(0.01, 0.1),
                        "p": 2},
             "grid": GRID, "times": [0.05],
             "output": {"basename": "fisher"}},
        ]
        self.out = work / "out"
        self.paths = []
        for cfg in self.configs:
            path = work / ("%s.json" % cfg["output"]["basename"])
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths.append(str(path))

    def operate(self, main):
        return [main(["solve", "--config", path, "--out-dir", str(self.out)])
                for path in self.paths]

    def files(self, cfg):
        base = cfg["output"]["basename"]
        return [self.out / ("%s_t%03d.csv" % (base, k))
                for k in range(len(cfg["times"]))]

    def check(self, codes):
        problems = ["%s exit code %r" % (cfg["equation"], code)
                    for cfg, code in zip(self.configs, codes) if code != 0]
        n, length = GRID["n"], GRID["length"]
        sha = hashlib.sha256()
        for cfg in self.configs:
            for t, path in zip(cfg["times"], self.files(cfg)):
                data = path.read_bytes()
                sha.update(data)
                x, u, bad = checks.read_field_csv(data, n)
                problems += bad
                if u is not None:
                    problems += checks.check_field(
                        cfg["equation"], cfg["params"], t, n, length, x, u)
            if cfg["equation"] == "fisher_erfc":
                meta = json.loads((self.out / "fisher_meta.json").read_text(
                    encoding="utf-8"))
                gaps = meta["residual_summary"]["printed_vs_consistent_linf"]
                if len(gaps) != len(cfg["times"]) \
                        or not all(v > 0.0 for v in gaps.values()):
                    problems.append("printed_vs_consistent_linf %r" % gaps)
        return sha.hexdigest(), problems


class Sweep:
    """`sweep` over 2000 (eps, b, p) tuples: 10 b in [0.5, 1.5), p in
    {2, 3}, and 100 eps, of which 50 lie above every b (root_at), 49 below
    every b and one equals the smallest b (asymptotic_infinity on its own
    b, no_root on the others)."""

    def __init__(self, seed, work):
        rng = random.Random(seed)
        b = [rng.uniform(0.5, 1.5) for _ in range(10)]
        lo, hi = min(b), max(b)
        eps = ([rng.uniform(1.05 * hi, 3.0 * hi) for _ in range(50)]
               + [rng.uniform(-1.0, 0.95 * lo) for _ in range(49)] + [lo])
        rng.shuffle(eps)
        p = [2, 3]
        if len(set(b)) != len(b):
            raise ValueError("b values must differ")
        self.tuples = list(itertools.product(eps, b, p))
        self.config = work / "sweep.json"
        self.config.write_text(json.dumps({"eps": eps, "b": b, "p": p}),
                               encoding="utf-8")
        self.table = work / "sweep.csv"

    def operate(self, main):
        return main(["sweep", "--config", str(self.config),
                     "--out", str(self.table)])

    def check(self, code):
        data = self.table.read_bytes()
        rows, problems = checks.read_sweep_csv(data)
        if code != 0:
            problems.append("exit code %r" % code)
        return (hashlib.sha256(data).hexdigest(),
                problems + checks.check_sweep(rows, self.tuples))


WORKLOADS = {"verify": Verify, "solve": Solve, "sweep": Sweep}


def setup_sample():
    """Seconds from spawning a fresh interpreter until nwspectral.cli is
    imported. CLOCK_MONOTONIC is shared by all processes of the machine."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout) - start


class Runner:
    """Runs operations and checks every output; an operation fails when
    its check does not hold or its output differs from the first one's."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self):
        """Run one operation; return its wall time in seconds."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                result = self.workload.operate(self.main)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail([traceback.format_exc(limit=4)])
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            fingerprint, problems = self.workload.check(result)
        except Exception:
            self._fail([traceback.format_exc(limit=4)])
            return elapsed
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            problems = problems + ["output differs from the first operation's"]
        if problems:
            self._fail(problems)
        return elapsed

    def _fail(self, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems[:5])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nwspectral" / "__init__.py").is_file():
        sys.stderr.write("no nwspectral package under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import nwspectral
    from nwspectral import cli
    if Path(nwspectral.__file__).resolve().parent != SRC / "nwspectral":
        sys.stderr.write("imported nwspectral from %s, not from %s\n"
                         % (nwspectral.__file__, SRC))
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=RUN_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        (work / "out").mkdir(exist_ok=True)
        # cli.main is looked up at each call, so traced operations go
        # through its span wrapper.
        runner = Runner(workload, lambda argv: cli.main(argv))
        cold = runner.op()  # warm-up: checked, kept out of op_s
        metrics, note = (_traced if args.trace else _untraced)(
            args, runner, nwspectral)
        note += "; cold first operation %.3f s" % cold
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in runner.problems:
        sys.stderr.write("check: %s\n" % problem.rstrip())
    print(note)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def _untraced(args, runner, package):
    setup_sample()  # warm-up: writes the bytecode caches
    times, setups = [], []
    while sum(times) < args.seconds:
        times.append(runner.op())
        # Set-up samples are spread over the run, not taken in one burst,
        # so that one slow spell of the machine does not hold all of them.
        while len(setups) < SETUP_SAMPLES and \
                sum(times) >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(setup_sample())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    note = ("%s seed %d: op_s median of %d operations, setup_s median of %d "
            "fresh interpreters, peak_rss_mb of this process"
            % (args.workload, args.seed, len(times), len(setups)))
    return metrics, note


def _traced(args, runner, package):
    import spans
    tracer = spans.Tracer()
    plain, traced = [], []
    while sum(plain) + sum(traced) < args.seconds:
        plain.append(runner.op())
        undo = spans.install(tracer, package)
        root = tracer.begin_op(len(traced))
        try:
            traced.append(runner.op())
        finally:
            tracer.end_op(root)
            spans.uninstall(undo)
    tracer.save(RUN_DIR / ("trace-%s.npz" % args.workload))
    per_op = spans.layer_metrics(tracer)
    metrics = {}
    for name in spans.METRICS:
        unit = "s" if name.endswith("_s") else \
            "us" if name.endswith("_us") else "count"
        value = statistics.median(ops[name] for ops in per_op.values())
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "unit": "s"}
    note = ("%s seed %d: per-layer medians of %d traced operations, "
            "%d spans; overhead against %d untraced operations"
            % (args.workload, args.seed, len(traced), len(tracer.start),
               len(plain)))
    return metrics, note


if __name__ == "__main__":
    sys.exit(main())
