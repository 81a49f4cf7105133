"""Per-layer spans recorded from outside the program.

The program has no tracing of its own, so the benchmark wraps, at run
time, the public layer functions under every name by which the
program's modules call them (``from .x import f`` binds ``f`` in the
caller's namespace, so each binding is patched).  Modules are resolved
through ``sys.modules``: ``qhadamard/__init__.py`` rebinds the attribute
``qhadamard.excess`` to the *function* ``excess``, so attribute access
on the package would not reach the module.

Spans are kept in memory as ``[name, start, end, parent, job]`` and
written out when the run ends.  A name that no longer resolves is
reported as missing; its metrics are left out of the result.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path).  The span name gives the layer
# (before the dot) and the metric prefix.
TARGETS = (
    ("cli.main", "qhadamard.cli", "main"),
    ("matio.serialize", "qhadamard.matio", "serialize"),
    ("matio.parse", "qhadamard.matio", "parse"),
    ("matio.parse_phase_vector", "qhadamard.matio", "parse_phase_vector"),
    ("qmatrix.gram", "qhadamard.qmatrix", "gram_is_scalar"),
    ("qmatrix.sign_gram", "qhadamard.qmatrix", "sign_gram_is_scalar"),
    ("qmatrix.realify", "qhadamard.qmatrix", "realify"),
    ("qmatrix.diag_similarity", "qhadamard.qmatrix", "diag_similarity"),
    ("verify.full_report", "qhadamard.verify", "full_report"),
    ("verify.check_real_hadamard", "qhadamard.verify", "check_real_hadamard"),
    ("builder.skew_regular_qhm", "qhadamard.builder", "skew_regular_qhm"),
    ("builder.double", "qhadamard.builder", "double"),
    ("builder.skew_core", "qhadamard.builder", "skew_core"),
    ("excess.run_pipeline", "qhadamard.excess", "run_pipeline"),
    ("cod.cod_recurse", "qhadamard.cod", "cod_recurse"),
    ("cod.certify_gram", "qhadamard.cod", "certify_gram"),
    ("cod.evaluate_qmatrix", "qhadamard.cod", "CODMatrix.evaluate_qmatrix"),
    ("field.make_field", "qhadamard.field", "make_field"),
)
LAYERS = sorted({name.split(".")[0] for name, _, _ in TARGETS})
COUNTERS = {  # counter -> unit
    "matio.bytes_out": "B",
    "matio.bytes_in": "B",
    "matio.parse_errors": "count",
    # Computed from order and dtype, not measured.
    "qmatrix.gram_flops": "flop-computed",
    "qmatrix.gram_bytes": "B-computed",
    "qmatrix.bytes_per_cell": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}_s"] = "s"
        units[f"{name}_n"] = "count"
    units["verify.full_report_reject_s"] = "s"
    units["verify.full_report_reject_n"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.rejects: set[int] = set()
        self.missing: list[str] = []
        self.patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[2] = time.perf_counter()
            if name.startswith("matio.parse") and type(exc).__name__ == "ParseError":
                self.counters["matio.parse_errors"] += 1
            raise
        else:
            span[2] = time.perf_counter()
            self.count(name, index, args, result)
            return result
        finally:
            self.stack.pop()

    def count(self, name, index, args, result):
        c = self.counters
        if name == "matio.serialize":
            c["matio.bytes_out"] += len(result)
        elif name in ("matio.parse", "matio.parse_phase_vector"):
            c["matio.bytes_in"] += len(args[0])
        elif name in ("qmatrix.gram", "qmatrix.sign_gram"):
            data = args[0].data
            n = data.shape[0]
            # A complex multiply-add is 8 real flops, an integer one 2.
            c["qmatrix.gram_flops"] += (8 if data.dtype.kind == "c" else 2) * n**3
            # Operand, its (conjugate) transpose and the product.
            c["qmatrix.gram_bytes"] += 3 * n * n * data.itemsize
        elif name == "verify.full_report" and not result.hadamard:
            self.rejects.add(index)
        # Matrices (``data``) and designs (``acoef``) a layer hands back.
        for array in (getattr(result, "data", None), getattr(result, "acoef", None)):
            if hasattr(array, "itemsize"):
                c["qmatrix.bytes_per_cell"] = max(c["qmatrix.bytes_per_cell"], array.itemsize)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                *owners, leaf = attr.split(".")
                owner = module
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{name} ({module_name}.{attr})")
                continue
            wrapper = self.wrap(name, original)
            if owners:
                self.patch(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qhadamard" and not mod_name.startswith("qhadamard."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patch(mod, key, wrapper)

    def wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, key, value) -> None:
        self.patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.patches):
            setattr(owner, key, value)
        self.patches.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Busy time and call count per span name, reject time, layer self
        time (span time not covered by child spans) and the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}_s"] = 0.0
            out[f"{name}_n"] = 0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        out["verify.full_report_reject_s"] = 0.0
        out["verify.full_report_reject_n"] = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}_s"] += end - start
            out[f"{name}_n"] += 1
            out[f"{name.split('.')[0]}.self_s"] += end - start - child[i]
            if i in self.rejects:
                out["verify.full_report_reject_s"] += end - start
                out["verify.full_report_reject_n"] += 1
        for key in COUNTERS:
            out[key] = int(self.counters.get(key, 0))
        for entry in self.missing:
            name = entry.split(" ")[0]
            for key in [k for k in out if k.startswith(name + "_")
                        or k.startswith(name + "_reject")]:
                del out[key]
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
