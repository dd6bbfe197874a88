"""Outside-in span tracing of the fluxrec layers.

The tracer replaces each traced function with a timing wrapper in every
fluxrec module that binds it (``cli`` and ``rates`` import solver
functions by name, so patching only the defining module would miss
their calls), plus three methods patched on their classes.  Spans are
kept in memory as ``(name, start, end, parent, op)`` tuples and written
out once, after the run.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# defining module -> functions traced under "<module>.<function>"
TRACED_FUNCTIONS = {
    "inversion": ("tikhonov_solve", "choose_rho_discrepancy", "build_forward_operator"),
    "fem": ("assemble_rhs", "assemble_system", "norms"),
    "geometry": ("generate_annulus_mesh", "refine_uniform", "validate_mesh",
                 "save_mesh", "load_mesh"),
    "spectral": ("build_spectral_basis",),
    "vsc": ("fit_vsc_constants", "check_vsc_inequality", "sample_admissible_fluxes"),
    "stability": ("generate_probe_ensemble", "fit_stability_modulus"),
    "rates": ("run_rate_study", "emit_report"),
    "cli": ("dispatch", "read_boundary_csv", "write_boundary_csv"),
    "config": ("parse_config",),
    "manifest": ("sha256_of",),
}

# (defining module, class, method) -> span name
TRACED_METHODS = {
    ("fem", "FactorizedSystem", "__init__"): "fem.factorize",
    ("fem", "FactorizedSystem", "solve"): "fem.solve",
    ("inversion", "AffineForwardOperator", "apply_linear"): "inversion.apply_linear",
}


class Tracer:
    """Span recorder that can be switched on and off between ops."""

    def __init__(self, modules: dict):
        """``modules`` maps short names ("fem", "cli", ...) to the loaded modules."""
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.names = [f"{m}.{f}" for m, funcs in TRACED_FUNCTIONS.items() for f in funcs] \
            + list(TRACED_METHODS.values())
        for mod_name, funcs in TRACED_FUNCTIONS.items():
            for func in funcs:
                original = getattr(modules[mod_name], func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for module in modules.values():
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        for (mod_name, cls_name, method), span_name in TRACED_METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original, self._wrap(span_name, original)))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, tuple[float, int]]]:
        """op id -> span name -> (self seconds, calls).

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread never overlap, so the children
        never cover the same interval twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            entry = out[op][name]
            entry[0] += (end - start) - child_time[i]
            entry[1] += 1
        return {op: {k: (v[0], v[1]) for k, v in d.items()} for op, d in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def layer_medians(per_op: dict, ops: list[int], names: list[str]) -> dict[str, float]:
    """Median over ``ops`` of each span's per-op self time and call count."""
    out = {}
    for name in names:
        stats = [per_op.get(op, {}).get(name, (0.0, 0)) for op in ops]
        out[f"{name}.self_s"] = statistics.median(s for s, _ in stats)
        out[f"{name}.calls"] = statistics.median(c for _, c in stats)
    return out
