"""Span tracing for the benchmark's traced mode.

`install` wraps every public function and public method of the
nwspectral package at each place it is bound: the defining module's
attribute, the copies other modules hold after `from .x import f`, the
values of module-level dicts (such as report's suite table) and the class
attribute for methods. scipy's `quad_vec`, as bound in `conv` and `mult`,
is wrapped too, to count integrand evaluations. Nothing in `src/` changes;
`uninstall` puts every original back.

Spans stay in memory in flat arrays and are written out once, when the run
ends. `layer_metrics` turns them into the per-layer numbers of one
operation.
"""

import functools
import json
import time
import types
from array import array

import numpy as np

PACKAGE = "nwspectral"
OP_SPAN = "op"
QUAD_VEC_SPAN = "scipy.quad_vec"


def _n_points(args, result):
    return args[0].n


def _arg_size(args, result):
    return np.size(args[0])


def _result_size(args, result):
    return np.size(result)


def _n_steps(args, result):
    return args[0].n_steps


# Work counted per span, by span name: array points, time steps.
WORK = {
    "spectral.TransformPlan.forward": _n_points,
    "spectral.TransformPlan.inverse": _n_points,
    "kernels.erfc": _arg_size,
    "conv.h_specific": _result_size,
    "oracle.step_etd": _n_steps,
}


class Tracer:
    """Spans of the traced operations: name, start, end, parent span and
    operation id per span, plus one work count."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("d")
        self._open = [-1]
        self._op_id = -1

    def name(self, label):
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def enter(self, name_id):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.op.append(self._op_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def leave(self, index):
        self.end[index] = time.perf_counter()
        self._open.pop()

    def begin_op(self, op_id):
        """Open the root span of one operation; return its index."""
        self._op_id = op_id
        return self.enter(self.name(OP_SPAN))

    def end_op(self, index):
        self.leave(index)
        self._op_id = -1

    def save(self, path):
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 work=np.frombuffer(self.work))


def _span_wrapper(fn, tracer, label):
    name_id = tracer.name(label)
    work = WORK.get(label)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(index)
        if work is not None:
            tracer.work[index] = work(args, result)
        return result

    return wrapper


def _quad_vec_wrapper(fn, tracer):
    name_id = tracer.name(QUAD_VEC_SPAN)

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        calls = [0]

        def counted(x, *fargs):
            calls[0] += 1
            return f(x, *fargs)

        index = tracer.enter(name_id)
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.leave(index)
            tracer.work[index] = calls[0]

    return wrapper


def _package_modules(package):
    mods = [package]
    for value in vars(package).values():
        if isinstance(value, types.ModuleType) \
                and value.__name__.startswith(PACKAGE + "."):
            mods.append(value)
    return mods


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def install(tracer, package):
    """Wrap the package's public functions and methods at every binding
    site; return the undo list that `uninstall` takes."""
    modules = _package_modules(package)
    wrappers = {}
    undo = []

    def replace(owner, key, wrapped):
        # owner is a class or a dict: a module namespace or a module-level table
        undo.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                     else owner[key]))
        if isinstance(owner, type):
            setattr(owner, key, wrapped)
        else:
            owner[key] = wrapped

    for mod in modules:
        for key, obj in vars(mod).items():
            if key.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                wrappers[id(obj)] = _span_wrapper(
                    obj, tracer, "%s.%s" % (_short(mod.__name__), obj.__qualname__))
            elif isinstance(obj, type):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    label = "%s.%s.%s" % (_short(mod.__name__), obj.__name__, attr)
                    if isinstance(member, types.FunctionType):
                        replace(obj, attr, _span_wrapper(member, tracer, label))
                    elif isinstance(member, (classmethod, staticmethod)):
                        replace(obj, attr, type(member)(
                            _span_wrapper(member.__func__, tracer, label)))

    for mod in modules:
        namespace = vars(mod)
        for key, obj in list(namespace.items()):
            if id(obj) in wrappers:
                replace(namespace, key, wrappers[id(obj)])
            elif isinstance(obj, dict) and not key.startswith("__"):
                for item, value in list(obj.items()):
                    if id(value) in wrappers:
                        replace(obj, item, wrappers[id(value)])
        if "quad_vec" in namespace:
            replace(namespace, "quad_vec",
                    _quad_vec_wrapper(namespace["quad_vec"], tracer))
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        if isinstance(owner, type):
            setattr(owner, key, original)
        else:
            owner[key] = original


# Each timed layer metric owns a set of span names. A metric's time is the
# time in its outermost spans minus the part covered by spans that belong to
# another metric, so these metrics never count one interval twice. An
# h_specific call inside root_locus belongs to root_locus.
GROUPS = {
    "spectral.transform_s": ("spectral.TransformPlan.forward",
                             "spectral.TransformPlan.inverse"),
    "spectral.convolve_s": ("spectral.circular_convolve",
                            "spectral.circular_convolve_many"),
    "kernels.erfc_s": ("kernels.erfc",),
    "kernels.erfc_pair_s": ("kernels.erfc_pair",),
    "conv.root_locus_s": ("conv.root_locus",),
    "conv.field_s": ("conv.ConvSolution.u_field", "conv.ConvSolution.u",
                     "conv.h_specific"),
    "conv.residual_s": ("conv.codomain_ode_residual",),
    "conv.fisher_s": ("conv.fisher_erfc_approx",
                      "conv.fisher_erfc_transform_consistent"),
    "conv.quad_s": ("conv.solve_forced", "conv.solve_with_kernels"),
    "mult.codomain_s": ("mult.mult_codomain", "mult.h_mult_quadrature"),
    "mult.certificate_s": ("mult.h_mult_certificate",),
    "mult.residual_s": ("mult.pde_residual_physical",),
    "oracle.step_etd_s": ("oracle.step_etd",),
    "oracle.scalar_ode_s": ("oracle.scalar_ode_oracle",),
}
_GROUP_OF = {name: metric for metric, names in GROUPS.items()
             for name in names}

# Whole wall time of each verification suite, everything inside included.
SUITES = {
    "report.suite_conv": "report.suite_conv_s",
    "report.suite_mult": "report.suite_mult_s",
    "report.suite_kernels": "report.suite_kernels_s",
    "report.suite_appendix": "report.suite_appendix_s",
}

CLI_COMMANDS = ("cli.cmd_solve", "cli.cmd_sweep", "cli.cmd_verify")

# Work counts summed over one operation, by span name.
COUNTS = {
    "spectral.transform_points": ("spectral.TransformPlan.forward",
                                  "spectral.TransformPlan.inverse"),
    "kernels.erfc_points": ("kernels.erfc",),
    "mult.quad_evals": (QUAD_VEC_SPAN,),
    "oracle.steps": ("oracle.step_etd",),
}
CALLS = {
    "conv.root_locus_calls": "conv.root_locus",
    "mult.certificate_calls": "mult.h_mult_certificate",
}

METRICS = (tuple(GROUPS) + tuple(SUITES.values()) + ("cli.self_s",)
           + tuple(COUNTS) + tuple(CALLS)
           + ("conv.h_points_per_root_locus", "oracle.step_us"))


def layer_metrics(tracer):
    """{op id: {metric: value}} for every traced operation."""
    names = tracer.names
    n = len(tracer.start)
    in_root = [False] * n
    owner = [-1] * n       # nearest span, self included, that has a group
    group = [None] * n
    cli_owner = [-1] * n   # nearest cli command or library span
    per_op = {}
    for i in range(n):
        label = names[tracer.name_id[i]]
        parent = tracer.parent[i]
        duration = tracer.end[i] - tracer.start[i]
        op = tracer.op[i]
        acc = per_op.get(op)
        if acc is None:
            acc = per_op[op] = dict.fromkeys(METRICS, 0.0)
            acc["_h_root"] = 0.0

        parent_in_root = in_root[parent] if parent >= 0 else False
        in_root[i] = parent_in_root or label == "conv.root_locus"

        grp = _GROUP_OF.get(label)
        if label == "conv.h_specific" and parent_in_root:
            grp = None
            acc["_h_root"] += tracer.work[i]
        group[i] = grp
        above = owner[parent] if parent >= 0 else -1
        owner[i] = i if grp else above
        if grp:
            if above < 0:
                acc[grp] += duration
            elif group[above] != grp:
                acc[grp] += duration
                acc[group[above]] -= duration

        is_cmd = label in CLI_COMMANDS
        is_library = not label.startswith("cli.") and label != OP_SPAN
        above_cli = cli_owner[parent] if parent >= 0 else -1
        cli_owner[i] = i if (is_cmd or is_library) else above_cli
        if is_cmd:
            acc["cli.self_s"] += duration
        elif is_library and above_cli >= 0 \
                and names[tracer.name_id[above_cli]] in CLI_COMMANDS:
            acc["cli.self_s"] -= duration

        if label in SUITES:
            acc[SUITES[label]] += duration
        for metric, labels in COUNTS.items():
            if label in labels:
                acc[metric] += tracer.work[i]
        for metric, call in CALLS.items():
            if label == call:
                acc[metric] += 1

    for acc in per_op.values():
        calls = acc["conv.root_locus_calls"]
        acc["conv.h_points_per_root_locus"] = \
            acc.pop("_h_root") / calls if calls else 0.0
        steps = acc["oracle.steps"]
        acc["oracle.step_us"] = \
            1e6 * acc["oracle.step_etd_s"] / steps if steps else 0.0
    per_op.pop(-1, None)
    return per_op
