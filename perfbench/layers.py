"""Per-layer metrics of one traced pass, read from the span store.

`calls` counts spans; `self_s` is span time minus the time of child spans.
Each span's self time is summed by exactly one time metric (`*_s`);
`trace.unattributed_s` sums the spans of functions no other metric names.
Quantities marked `computed` come from array sizes, not from hardware
counters, and ignore temporaries and cache misses.
"""

from __future__ import annotations

import numpy as np

from spans import PASS_SPAN, REQUEST_SPAN

CALLS = (
    "numerics.solve_linear",
    "numerics.least_squares",
    "spinors.mode_column",
    "waveop.complex_momentum",
    "waveop.momentum_operator",
    "scattering.solve_barrier",
    "scattering.closed_form",
    "scattering.solve_step",
    "pauligauge.covariant_momentum_apply",
    "clifford.build_standard_gammas",
    "clifford.build_eta",
    "boundstates.find_levels_numerically",
    "cli.main",
)
SELF = (
    "numerics.solve_linear",
    "numerics.least_squares",
    "spinors.mode_column",
    "spinors.reconstruct_eta_1d",
    "waveop.complex_momentum",
    "scattering.solve_barrier",
    "scattering.closed_form",
    "scattering.solve_step",
    "scattering.sweep",
    "pauligauge.covariant_momentum_apply",
    "pauligauge.sigma_pi_apply",
    "pauligauge.wave_form_value",
    "clifford.identity_suite",
    "boundstates.find_levels_numerically",
)
LATTICE_CHECKS = (
    "pauligauge.pauli_identity_check",
    "pauligauge.gauge_invariance_check",
    "pauligauge.commutator_check",
)
LATTICE_SIZES = (32, 64, 128)
FIELD_SETUP = (
    "pauligauge.uniform_b_field",
    "pauligauge.gaussian_bump_state",
    "pauligauge.commensurate_theta",
)
# complex128 matching systems handed to the solver: matrix plus right-hand side
BARRIER_SYSTEM_BYTES = (8 * 8 + 8) * 16
STEP_SYSTEM_BYTES = (4 * 4 + 4) * 16
BYTES_N = 128


def stencil_traffic(n: int, comps: int):
    """Computed (bytes, flops) of one covariant_momentum_apply on a
    `comps`-component complex128 state of n^3 sites: read psi and one real
    A component, write Pi psi.  Per complex element: difference, 1/(2h)
    scale, (eA) psi and the final subtraction, 2 flops each; one flop per
    site for e*A."""
    sites = n**3
    return (32 * comps + 8) * sites, (8 * comps + 1) * sites


def _subtrees(m, parent):
    """`m` widened to every span nested, at any depth, under a span in `m`."""
    nested = parent >= 0
    while True:
        grown = m.copy()
        grown[nested] |= m[parent[nested]]
        if (grown == m).all():
            return m
        m = grown


def _attribute(tracer, lo: int, hi: int, counters: dict):
    """(metrics, spans, mask of the spans whose self time no metric sums)."""
    spans = tracer.arrays(lo, hi)
    covered = np.zeros(len(spans["name"]), dtype=bool)
    out = {}

    def mask(name):
        return tracer.name_mask(spans, name)

    def self_time(m):
        covered[m] = True
        return float(spans["self"][m].sum())

    for name in CALLS:
        out[f"{name}.calls"] = int(mask(name).sum())
    for name in SELF:
        out[f"{name}.self_s"] = self_time(mask(name))
    for name in LATTICE_CHECKS:
        m = mask(name)
        for n in LATTICE_SIZES:
            out[f"{name}.n{n}.self_s"] = self_time(m & (spans["size"] == n))
    # inclusive: the set-up functions and everything they call
    setup = np.logical_or.reduce([mask(name) for name in FIELD_SETUP])
    out["pauligauge.field_setup_s"] = self_time(_subtrees(setup, spans["parent"]))

    stencil = mask("pauligauge.covariant_momentum_apply") & (spans["size"] == BYTES_N)
    comps = spans["comps"][stencil].astype(np.int64)
    moved, flops = stencil_traffic(BYTES_N, comps)
    out[f"pauligauge.bytes_moved_computed.n{BYTES_N}"] = int(moved.sum())
    out[f"pauligauge.ops_per_byte_computed.n{BYTES_N}"] = (
        float(flops.sum() / moved.sum()) if moved.sum() else 0.0
    )

    barrier = mask("scattering.solve_barrier")
    step = mask("scattering.solve_step")
    bridged = int((spans["raised"][barrier] != 0).sum())
    solved_barrier = int(barrier.sum()) - bridged
    solved_step = int((spans["raised"][step] == 0).sum())
    points = int(barrier.sum() + step.sum())
    out["scattering.series_bridge_ratio"] = bridged / points if points else 0.0
    out["scattering.matrix_bytes_computed"] = (
        solved_barrier * BARRIER_SYSTEM_BYTES + solved_step * STEP_SYSTEM_BYTES
    )
    out["scattering.flagged_rows"] = int(counters.get("scattering.flagged_rows", 0))

    out["cli.self_s"] = self_time(mask("cli.main"))
    out["cli.output_bytes"] = int(counters.get("cli.output_bytes", 0))

    out["trace.harness_self_s"] = self_time(mask(PASS_SPAN) | mask(REQUEST_SPAN))
    out["trace.unattributed_s"] = float(spans["self"][~covered].sum())
    return out, spans, ~covered


def pass_metrics(tracer, lo: int, hi: int, counters: dict) -> dict:
    """Per-layer metrics of the spans [lo, hi) of one traced pass.
    `counters` carries the workload's own per-pass counts."""
    return _attribute(tracer, lo, hi, counters)[0]


def unattributed(tracer, lo: int, hi: int) -> dict:
    """Self seconds per span name (suffixed .nN for a lattice of size N) of
    the spans that `trace.unattributed_s` sums: no other metric reports them."""
    _, spans, rest = _attribute(tracer, lo, hi, {})
    out = {}
    for nid, size, t in zip(spans["name"][rest], spans["size"][rest], spans["self"][rest]):
        label = tracer.names[nid] + (f".n{size}" if size else "")
        out[label] = out.get(label, 0.0) + float(t)
    return out


def accounting(tracer, lo: int, hi: int, metrics: dict):
    """(sum of the time metrics `*_s` of one pass, traced pass wall).  Every
    span's self time is summed by exactly one of them, so the two agree up
    to rounding; a metric that drops or double-counts spans breaks that."""
    spans = tracer.arrays(lo, hi)
    root = tracer.name_mask(spans, PASS_SPAN) & (spans["request"] == -1)
    total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    return float(total), float(spans["dur"][root].sum())
