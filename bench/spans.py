"""Span recorder for the traced run.

The program has no tracing of its own, so the traced run wraps the public
functions of each layer from outside.  The package imports functions by
name into other modules (``from .theta import riemann_theta_batch``), so a
wrapper is installed under every name that refers to the original function
object, in every loaded ``torushall`` module; callers then go through the
wrapper whichever way they look the function up.

Each span records its name, start, end and parent.  A span's self time is
its duration minus the time its child spans cover; the program runs on one
thread, so child spans never overlap and that time is their summed duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans of one traced unit, kept in memory until aggregated."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out


def _riemann_points(args, kwargs) -> int:
    z = np.asarray(kwargs.get("z", args[1] if len(args) > 1 else ()))
    return z.shape[0] if z.ndim == 2 else 1


def _jacobi_points(args, kwargs) -> int:
    return int(np.size(kwargs.get("z", args[2] if len(args) > 2 else ())))


# (module, attribute, span name, counter prefix, points counter).  An
# attribute "Class.method" wraps the method on its class.
TARGETS = [
    ("torushall.theta", "jacobi_theta_batch", "theta.jacobi", "theta.jacobi", _jacobi_points),
    ("torushall.theta", "riemann_theta_batch", "theta.riemann", "theta.riemann", _riemann_points),
    ("torushall.wavefunctions", "center_basis_batch", "wavefunctions.center_basis", None, None),
    ("torushall.wavefunctions", "jastrow_batch", "wavefunctions.jastrow", None, None),
    ("torushall.wavefunctions", "kvw_wavefunction", "wavefunctions.other", None, None),
    ("torushall.wavefunctions", "magnetic_action_residual", "wavefunctions.other", None, None),
    ("torushall.wavefunctions", "random_configuration", "wavefunctions.other", None, None),
    ("torushall.gram", "gram_center", "gram.center", None, None),
    ("torushall.gram", "gram_manybody", "gram.manybody", None, None),
    ("torushall.checks", "run_verify_all", "checks", None, None),
    ("torushall.cli", "main", "cli", None, None),
    ("torushall.wen", "validate_wen_matrix", "wen.validate", None, None),
    ("torushall.wen", "validate_wen_datum", "wen.validate", None, None),
    ("torushall.wen", "jain_matrix", "wen.validate", None, None),
    ("torushall.wen", "pi_group", "wen.pi_group", None, None),
    ("torushall.heisenberg", "rep_matrices", "heisenberg.rep_matrices", None, None),
    ("torushall.heisenberg", "RepMatrices.verify_relations", "heisenberg.verify_relations", None, None),
    ("torushall.heisenberg", "irreducibility_norm", "heisenberg.character_norm", None, None),
    ("torushall.bundles", "restricted_invariants", "bundles", None, None),
    ("torushall.bundles", "max_pairing_offset", "bundles", None, None),
]

# span name -> per-layer metric holding its summed self time
SELF_METRICS = {
    "theta.riemann": "theta.riemann_s",
    "theta.jacobi": "theta.jacobi_s",
    "wavefunctions.center_basis": "wavefunctions.center_basis_s",
    "wavefunctions.jastrow": "wavefunctions.jastrow_s",
    "wavefunctions.other": "wavefunctions.other_s",
    "gram.center": "gram.center_s",
    "gram.manybody": "gram.manybody_self_s",
    "checks": "checks.self_s",
    "cli": "cli.self_s",
    "wen.pi_group": "wen.pi_group_s",
    "wen.validate": "wen.validate_s",
    "heisenberg.rep_matrices": "heisenberg.rep_matrices_s",
    "heisenberg.verify_relations": "heisenberg.verify_relations_s",
    "heisenberg.character_norm": "heisenberg.character_norm_s",
    "bundles": "bundles.s",
    "bench": "bench.self_s",
}
COUNT_METRICS = (
    "theta.riemann_points",
    "theta.riemann_calls",
    "theta.jacobi_points",
    "theta.jacobi_calls",
)


def _wrap(fn, tracer: Tracer, span: str, prefix: str | None, points):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if prefix is not None:
            tracer.count(prefix + "_calls", 1)
            tracer.count(prefix + "_points", points(args, kwargs))
        idx = tracer.open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every call of the TARGETS through span-recording wrappers."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "torushall"]
    patches = []
    try:
        for modname, attr, span, prefix, points in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, _wrap(original, tracer, span, prefix, points))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(original, tracer, span, prefix, points)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield tracer
    finally:
        for obj, name, original in reversed(patches):
            setattr(obj, name, original)
