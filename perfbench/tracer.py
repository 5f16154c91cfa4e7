"""In-memory span tracer wrapped around public dynheat functions from outside.

A span records its name, start, end, parent span and the CLI stage it ran
under; the spans of one stage share a stage id.  Calls nest on one thread,
so a span's self time is its duration minus the durations of its direct
children.  The tracer also keeps, per module, the time spent inside the
outermost span of that module (``<module>.incl_s``), which charges callees
in other modules to the caller.

Targets are public names only.  A target that no longer exists is recorded
as absent instead of failing, so the tracer survives the planned removal or
reshaping of functions.  Wrapping replaces the target in every loaded
``dynheat`` module that holds a reference to it (``from x import f`` copies
the reference), and :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# (module, public name).  "Class.method" wraps a method on the class; a bare
# class name wraps its constructor.  The span name is "<module>.<last part>".
TARGETS = (
    ("config", "load_config"),
    ("geometry", "weight_phi_bundle"),
    ("discretize", "assemble_operator"),
    ("discretize", "OperatorSet.apply_K"),
    ("evolve", "Propagator"),
    ("evolve", "Propagator.step"),
    ("evolve", "propagate"),
    ("evolve", "propagate_impulsive"),
    ("logconvexity", "run_trace"),
    ("logconvexity", "commutator_form"),
    ("logconvexity", "s_prime_form"),
    ("logconvexity", "diverse_ensemble"),
    ("logconvexity", "fit_observability_constants"),
    ("logconvexity", "interpolation_check"),
    ("logconvexity", "commutator_identity_check"),
    ("control", "calibrate_kappa"),
    ("control", "synthesize"),
    ("control", "cost_study"),
    ("control", "ControlOperator.gramian_apply"),
    ("reporting", "canonical_json"),
    ("reporting", "csv_text"),
    ("reporting", "write_text"),
)

MODULES = ("config", "geometry", "discretize", "evolve", "logconvexity",
           "control", "reporting")

# Work counters read from arguments or results at a span's end, by the hook
# method "_after_<span name with dots as underscores>".  A counter whose
# source attribute is gone is recorded as absent.
HOOK_COUNTERS = {
    "evolve.step": ("evolve.step.cg_path_calls",),
    "control.synthesize": ("control.cg_iterations", "control.certified"),
    "control.calibrate_kappa": ("control.doublings",),
    "reporting.write_text": ("reporting.bytes_written",),
}
COUNTERS = tuple(c for names in HOOK_COUNTERS.values() for c in names)

_SOURCE_FAULTS = (AttributeError, KeyError, TypeError, IndexError)


class Tracer:
    """Records spans and per-name totals for one pipeline at a time."""

    def __init__(self):
        self.absent = set()
        self._patches = []
        self._direct_max_dofs = None
        self.reset()

    def reset(self):
        """Forget the spans and totals of the previous pipeline."""
        self.spans = []          # (span id, parent id, stage id, name, start, end)
        self.calls = {}
        self.self_s = {}
        self.incl_s = dict.fromkeys(MODULES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._depth = dict.fromkeys(MODULES + ("cli",), 0)
        self._stack = [[-1, 0.0, None]]
        self._next_id = 0
        self._stage = -1

    # -- installation ------------------------------------------------------

    def install(self):
        import dynheat  # noqa: F401  (loads every module the targets live in)
        modules = {name: sys.modules.get(f"dynheat.{name}") for name in MODULES}
        self._direct_max_dofs = getattr(modules["evolve"], "DIRECT_SOLVE_MAX_DOFS", None)
        if self._direct_max_dofs is None:
            self.absent.add("evolve.step.cg_path_calls")
        for module, target in TARGETS:
            name = f"{module}.{target.split('.')[-1]}"
            owner = modules[module]
            cls_name, _, meth = target.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            else:
                meth = target
            original = getattr(owner, meth, None) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            if cls_name:
                self._patch(owner, meth, self._wrap(name, module, original))
            elif isinstance(original, type):
                # a class: wrap its constructor, so the span is the factorization
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.add(name)
                    continue
                self._patch(original, "__init__", self._wrap(name, module, init))
            else:
                wrapper = self._wrap(name, module, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "dynheat"
                                           or mod_name.startswith("dynheat.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, module, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(module)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, module, frame, start, clock())
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except _SOURCE_FAULTS:
                    self.absent.update(HOOK_COUNTERS[name])
            return result

        return traced

    def _enter(self, module):
        frame = [self._next_id, 0.0, self._stack[-1]]   # id, child seconds, parent
        self._next_id += 1
        self._depth[module] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name, module, frame, start, end):
        self._stack.pop()
        duration = end - start
        span_id, child_s, parent = frame
        parent[1] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - child_s)
        self._depth[module] -= 1
        if self._depth[module] == 0 and module in self.incl_s:
            self.incl_s[module] += duration
        self.spans.append((span_id, parent[0], self._stage, name, start, end))

    def stage(self, stage, cli_main, argv):
        """Run one CLI stage under a ``cli.<stage>`` span with a new stage id."""
        self._stage += 1
        frame = self._enter("cli")
        start = time.perf_counter()
        try:
            return cli_main(argv)
        finally:
            self._exit("cli." + stage, "cli", frame, start, time.perf_counter())

    # -- counter hooks (see HOOK_COUNTERS) ----------------------------------

    def _after_evolve_step(self, args, kwargs, result):
        if self._direct_max_dofs is not None and args[0].ops.n_dofs > self._direct_max_dofs:
            self.counters["evolve.step.cg_path_calls"] += 1

    def _after_control_synthesize(self, args, kwargs, result):
        self.counters["control.cg_iterations"] += int(result.residuals["cg_iterations"])
        self.counters["control.certified"] += int(bool(result.certified))

    def _after_control_calibrate_kappa(self, args, kwargs, result):
        self.counters["control.doublings"] += int(result.doublings)

    def _after_reporting_write_text(self, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.counters["reporting.bytes_written"] += len(text.encode("utf-8"))

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Write the current pipeline's spans as gzip CSV, times from its start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,stage,name,start_s,end_s\n")
            for span_id, parent, stage, name, start, end in sorted(self.spans):
                fh.write(f"{span_id},{parent},{stage},{name},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")
