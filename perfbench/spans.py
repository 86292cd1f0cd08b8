"""Span tracing for the traced benchmark run, kept outside the library.

`Tracer.install()` wraps every public module-level function of the etawave
library modules (plus `cli.main`) and rebinds the wrapper at every etawave
module namespace that holds the original, so calls made through
`from .numerics import solve_linear` style bindings are traced as well.
`Tracer.uninstall()` puts the originals back.  The untraced run never
installs anything.

Each span records name, start, end, parent span, request id, whether the
call raised, and for `pauligauge` calls on a GaugeField the lattice size N
and the component count of the state.  Spans live in flat arrays in memory
and are written out once, when the benchmark ends.

Self time of a span is its duration minus the durations of its direct
children.  The bookkeeping a wrapper does outside its own start/end stamps
is charged to the parent's self time; the traced/untraced wall ratio
(`trace.overhead_ratio`) reports the total cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "etawave"
LIBRARY_MODULES = (
    "numerics",
    "clifford",
    "waveop",
    "spinors",
    "scattering",
    "boundstates",
    "pauligauge",
)

# names the per-layer metrics read; any that is missing after install is
# reported as absent rather than failing the run
EXPECTED = (
    "numerics.solve_linear",
    "numerics.least_squares",
    "spinors.mode_column",
    "spinors.reconstruct_eta_1d",
    "waveop.complex_momentum",
    "waveop.momentum_operator",
    "scattering.solve_barrier",
    "scattering.closed_form",
    "scattering.solve_step",
    "scattering.sweep",
    "pauligauge.covariant_momentum_apply",
    "pauligauge.sigma_pi_apply",
    "pauligauge.wave_form_value",
    "pauligauge.pauli_identity_check",
    "pauligauge.gauge_invariance_check",
    "pauligauge.commutator_check",
    "pauligauge.uniform_b_field",
    "pauligauge.gaussian_bump_state",
    "pauligauge.commensurate_theta",
    "clifford.build_standard_gammas",
    "clifford.build_eta",
    "clifford.identity_suite",
    "boundstates.find_levels_numerically",
    "cli.main",
)

PASS_SPAN = "harness.pass"
REQUEST_SPAN = "harness.request"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.raised = array("b")
        self.size = array("i")
        self.comps = array("b")
        self.current_request = -1
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.absent: list[str] = []

    # ---------------------------------------------------------------- spans
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _push(self, nid: int, size: int = 0, comps: int = 0) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.raised.append(0)
        self.size.append(size)
        self.comps.append(comps)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def open(self, name: str) -> int:
        """Open a harness span; close it with `close`."""
        idx = self._push(self._intern(name))
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, name: str, fn, sized: bool):
        nid = self._intern(name)
        push = self._push
        stack = self._stack
        start, end, raised = self.start, self.end, self.raised

        if sized:

            def wrapper(*args, **kwargs):
                n = getattr(args[0], "n", 0) if args else 0
                comps = args[1].shape[0] if len(args) > 1 and getattr(args[1], "ndim", 0) == 4 else 0
                idx = push(nid, n if isinstance(n, int) else 0, comps)
                start[idx] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raised[idx] = 1
                    raise
                finally:
                    end[idx] = perf_counter()
                    stack.pop()

        else:

            def wrapper(*args, **kwargs):
                idx = push(nid)
                start[idx] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raised[idx] = 1
                    raise
                finally:
                    end[idx] = perf_counter()
                    stack.pop()

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------- binding
    def _targets(self):
        """(span name, original function) for every function to wrap."""
        out = []
        for short in LIBRARY_MODULES + ("cli",):
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if short == "cli" and attr != "main":
                    continue
                out.append((f"{short}.{attr}", obj))
        return out

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self._targets():
            sized = name.startswith("pauligauge.")
            wrappers[id(fn)] = (fn, self._wrap(name, fn, sized))
            self.wrapped.add(name)
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self.absent = [name for name in EXPECTED if name not in self.wrapped]

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        self._bindings.clear()

    # ------------------------------------------------------------- analysis
    def arrays(self, lo: int = 0, hi: int | None = None):
        """Numpy views of spans [lo, hi) with parents re-based to lo
        (-1 for spans whose parent lies outside the slice)."""
        hi = len(self) if hi is None else hi

        def view(arr, dtype):
            # slicing copies, so the live arrays stay free to grow
            return np.frombuffer(arr[lo:hi], dtype=dtype)

        name = view(self.name_id, np.int32)
        dur = view(self.end, np.float64) - view(self.start, np.float64)
        parent = view(self.parent, np.int32).astype(np.int64) - lo
        parent[parent < 0] = -1
        child = np.zeros(hi - lo)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        return {
            "name": name,
            "dur": dur,
            "self": dur - child,
            "parent": parent,
            "raised": view(self.raised, np.int8),
            "size": view(self.size, np.int32),
            "comps": view(self.comps, np.int8),
            "request": view(self.request, np.int32),
        }

    def name_mask(self, spans, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(len(spans["name"]), dtype=bool)
        return spans["name"] == nid

    def write(self, path) -> None:
        """All spans as one compressed .npz: a `names` table and per-span
        columns name_id, start, end, parent, request, raised, size, comps."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{
                col: np.frombuffer(getattr(self, col), dtype=dtype)
                for col, dtype in (
                    ("name_id", np.int32),
                    ("start", np.float64),
                    ("end", np.float64),
                    ("parent", np.int32),
                    ("request", np.int32),
                    ("raised", np.int8),
                    ("size", np.int32),
                    ("comps", np.int8),
                )
            },
        )
