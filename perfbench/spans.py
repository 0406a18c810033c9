"""Spans around calls into qcrkit's public functions, and per-layer metrics.

A traced run replaces every binding of a traced function -- the defining
module's attribute and every ``from .x import f`` copy in the other qcrkit
modules -- with a wrapper that records a span: name, start, end, parent span
and a few facts about the call (sizes, counts). Spans are kept in memory
and turned into per-layer metrics when the run ends. Nothing in qcrkit is
changed on disk; uninstalling restores the original bindings.
"""
from __future__ import annotations

import functools
import sys
import time
from math import comb

# (module, function, facts) for every traced public function. ``facts``
# maps (args, kwargs, result) to a small dict stored on the span.
TRACED = [
    ("cli", "main", None),
    ("statefile", "read_state", None),
    ("statefile", "write_state", None),
    ("statefile", "state_to_text", lambda a, k, r: {"bytes": len(r)}),
    ("statefile", "text_to_state", lambda a, k, r: {"bytes": len(a[0] if a else k["text"])}),
    ("states", "purify", lambda a, k, r: {"dim": a[0].dim, "env": r.dim // a[0].dim}),
    ("states", "trace_norm", lambda a, k, r: {"dim": len(a[0])}),
    ("states", "partial_trace", None),
    ("states", "partial_transpose", None),
    ("states", "apply_unitary", None),
    ("states", "apply_controlled", None),
    ("states", "measurement_distribution", None),
    ("states", "measure_computational", None),
    ("states", "project_registers", None),
    ("states", "tensor_product", None),
    ("verify", "is_qcr", None),
    ("verify", "check_condition_i", None),
    ("verify", "check_condition_ii", lambda a, k, r: {
        "coalitions": len(r), "pairs": sum(comb(c.branches, 2) for c in r)}),
    ("entanglement", "ppt_check", lambda a, k, r: {"dim": a[0].dim}),
    ("entanglement", "all_dealer_cuts_ppt", None),
    ("entanglement", "trace_distance", None),
    ("protocols", "compose", None),
    ("protocols", "reduce", lambda a, k, r: {"branches": len(r)}),
    ("protocols", "expand_from_private", None),
    ("construct", "build_example_state", None),
    ("construct", "build_ghz_qcr", None),
    ("construct", "build_private_state", None),
    ("construct", "build_twisted_qcr", None),
    ("construct", "maximally_entangled", None),
    ("construct", "random_private_state", None),
    ("construct", "random_party_twist", None),
    ("construct", "per_party_twist", None),
    ("construct", "relabel_negated_player", None),
    ("construct", "haar_unitary", None),
    ("construct", "random_pure", None),
    ("construct", "random_density", None),
    ("construct", "random_separable_density", None),
]

# Per-layer metrics with their units, in the order they are printed.
METRICS = {
    "cli.startup_s": "s",
    "cli.main_self_s": "s",
    "statefile.write_s": "s",
    "statefile.read_s": "s",
    "statefile.write_mb": "MB",
    "statefile.read_mb": "MB",
    "statefile.write_mb_per_s": "MB/s",
    "statefile.read_mb_per_s": "MB/s",
    "statefile.calls": "count",
    "states.purify_s": "s",
    "states.purify_calls": "count",
    "states.purify_max_dim": "dim",
    "states.purify_kept_ratio": "ratio",
    "states.trace_norm_s": "s",
    "states.trace_norm_calls": "count",
    "states.trace_norm_max_dim": "dim",
    "states.partial_trace_s": "s",
    "states.partial_transpose_s": "s",
    "states.apply_s": "s",
    "states.measure_s": "s",
    "states.tensor_product_s": "s",
    "verify.condition_i_s": "s",
    "verify.condition_ii_self_s": "s",
    "verify.coalitions": "count",
    "verify.branch_pairs": "count",
    "entanglement.ppt_self_s": "s",
    "entanglement.cuts": "count",
    "entanglement.ppt_max_dim": "dim",
    "entanglement.trace_distance_self_s": "s",
    "protocols.compose_self_s": "s",
    "protocols.reduce_self_s": "s",
    "protocols.input_check_s": "s",
    "protocols.branches": "count",
    "construct.build_s": "s",
    "construct.calls": "count",
    "registers.layouts_built": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

_SUM = {
    "states.partial_trace": "states.partial_trace_s",
    "states.partial_transpose": "states.partial_transpose_s",
    "states.apply_unitary": "states.apply_s",
    "states.apply_controlled": "states.apply_s",
    "states.measurement_distribution": "states.measure_s",
    "states.measure_computational": "states.measure_s",
    "states.project_registers": "states.measure_s",
    "states.tensor_product": "states.tensor_product_s",
    "states.purify": "states.purify_s",
    "states.trace_norm": "states.trace_norm_s",
    "verify.check_condition_i": "verify.condition_i_s",
}
_SELF = {
    "cli.main": "cli.main_self_s",
    "verify.check_condition_ii": "verify.condition_ii_self_s",
    "entanglement.ppt_check": "entanglement.ppt_self_s",
    "entanglement.all_dealer_cuts_ppt": "entanglement.ppt_self_s",
    "entanglement.trace_distance": "entanglement.trace_distance_self_s",
    "protocols.compose": "protocols.compose_self_s",
    "protocols.reduce": "protocols.reduce_self_s",
}
_READ = {"statefile.read_state", "statefile.text_to_state"}


class Tracer:
    """In-memory spans of one traced stretch of work (a set-up or one pass)."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, facts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.layouts_built = 0
        # False while the benchmark checks outputs, so its own calls into
        # qcrkit are not counted
        self.enabled = True

    def wrap(self, name: str, fn, facts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if facts is not None:
                span[4] = facts(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of the traced functions; returns the undo callable."""
        import qcrkit  # noqa: F401  (loads every module but cli)
        from qcrkit.registers import SystemLayout

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qcrkit" or n.startswith("qcrkit."))]
        undo = []
        for mod_name, fn_name, facts in TRACED:
            home = sys.modules.get(f"qcrkit.{mod_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, facts)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    setattr(mod, fn_name, wrapper)
                    undo.append((mod, fn_name, original))

        post_init = SystemLayout.__post_init__

        def counted(layout):
            if self.enabled:
                self.layouts_built += 1
            post_init(layout)

        SystemLayout.__post_init__ = counted

        def uninstall():
            for mod, fn_name, original in undo:
                setattr(mod, fn_name, original)
            SystemLayout.__post_init__ = post_init

        return uninstall

    def dump(self) -> dict:
        return {"spans": self.spans, "layouts_built": self.layouts_built}


def summarize(dump: dict) -> dict:
    """Per-layer sums from one tracer's spans (see ``combine``/``finish``)."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {k: 0.0 for k in METRICS}
    out.update({"_purify_dim": 0.0, "_purify_env": 0.0, "_root_s": 0.0})
    out["registers.layouts_built"] = float(dump["layouts_built"])
    for i, (name, t0, t1, parent, facts) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child[i]
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        parent_layer = parent_name.split(".", 1)[0]
        if parent < 0:
            out["_root_s"] += dur
        if name in _SUM:
            out[_SUM[name]] += dur
        if name in _SELF:
            out[_SELF[name]] += self_s
        if layer == "statefile" and parent_layer != "statefile":
            out["statefile.calls"] += 1
            out["statefile.read_s" if name in _READ else "statefile.write_s"] += dur
        if name == "statefile.text_to_state":
            out["statefile.read_mb"] += facts["bytes"] / 1e6
        elif name == "statefile.state_to_text":
            out["statefile.write_mb"] += facts["bytes"] / 1e6
        elif name == "states.purify":
            out["states.purify_calls"] += 1
            out["states.purify_max_dim"] = max(out["states.purify_max_dim"], facts["dim"])
            out["_purify_dim"] += facts["dim"]
            out["_purify_env"] += facts["env"]
        elif name == "states.trace_norm":
            out["states.trace_norm_calls"] += 1
            out["states.trace_norm_max_dim"] = max(out["states.trace_norm_max_dim"], facts["dim"])
        elif name == "verify.check_condition_ii":
            out["verify.coalitions"] += facts["coalitions"]
            out["verify.branch_pairs"] += facts["pairs"]
        elif name == "entanglement.ppt_check":
            out["entanglement.cuts"] += 1
            out["entanglement.ppt_max_dim"] = max(out["entanglement.ppt_max_dim"], facts["dim"])
        elif name == "verify.is_qcr" and parent_layer == "protocols":
            out["protocols.input_check_s"] += dur
        elif name == "protocols.reduce":
            out["protocols.branches"] += facts["branches"]
        if layer == "construct" and parent_layer != "construct":
            out["construct.calls"] += 1
            out["construct.build_s"] += dur
    return out


def combine(parts: list[dict]) -> dict:
    """Add summaries of several tracers (several CLI processes of one pass)."""
    out: dict[str, float] = {}
    for part in parts:
        for k, v in part.items():
            if k.endswith("_max_dim"):
                out[k] = max(out.get(k, 0.0), v)
            else:
                out[k] = out.get(k, 0.0) + v
    return out


def finish(total: dict) -> dict:
    """Turn summed parts into the reported metrics (ratios computed last)."""
    out = {k: total.get(k, 0.0) for k in METRICS}
    if total.get("_purify_dim"):
        out["states.purify_kept_ratio"] = total["_purify_env"] / total["_purify_dim"]
    if out["statefile.read_s"] > 0:
        out["statefile.read_mb_per_s"] = out["statefile.read_mb"] / out["statefile.read_s"]
    if out["statefile.write_s"] > 0:
        out["statefile.write_mb_per_s"] = out["statefile.write_mb"] / out["statefile.write_s"]
    return out
