"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Each oracle must reject a perturbed coefficient or residual, traced and
untraced passes must give identical outputs, a deleted library name must be
reported as absent, and the per-layer metrics must be the ones
BENCHMARK.json declares.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import run
import workloads
from spans import EXPECTED, Tracer

etawave = run.import_library()


class TinyScattering(workloads.ScatteringSample):
    ABOVE = BELOW = STRADDLE = DOWN_ABOVE = DOWN_BELOW = STEP_UP = STEP_DOWN = 1


class TinyCli(workloads.CliSession):
    @staticmethod
    def _make_requests(rng, hbar_c):
        cmds = workloads.CliSession._make_requests(rng, hbar_c)
        return [c for c in cmds if c.kind != "check"]


def tiny_workloads(tmp_path):
    return [
        TinyScattering(etawave, 3),
        workloads.LatticeConvergence(etawave, 3, sizes=(16, 32)),
        TinyCli(etawave, 3, str(tmp_path)),
    ]


def _outputs(workload, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        _, _, outputs, _ = run.run_pass(workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs


# functions the tiny workloads call whose self time only
# `trace.unattributed_s` reports; checks at N = 16 have no metric of their own
UNREPORTED = {
    "numerics.norm_inf",
    "numerics.adjoint",
    "waveop.classify_regime",
    "waveop.critical_band_width",
    "scattering.coefficient_delta",
    "clifford.build_standard_gammas",
    "clifford.build_eta",
    "boundstates.energy_levels",
    "boundstates.periodic_residual",
    "boundstates.level_energy",
    "pauligauge.convergence_table",
    "pauligauge.pauli_identity_check.n16",
    "pauligauge.gauge_invariance_check.n16",
    "pauligauge.commutator_check.n16",
}


def _shift(c, delta=1e-8):
    """Move weight between T1 and R1: conserving, but wrong."""
    t1, t2, r1, r2 = c
    return (t1 + delta, t2, r1 - delta, r2)


# ----------------------------------------------------------------- oracles


def test_scattering_oracles_accept_seed_outputs_and_reject_perturbed_ones():
    w = TinyScattering(etawave, 3)
    outputs = _outputs(w)
    assert w.verify(outputs) == (w.items_per_pass, [])
    kinds = set()
    for i, (req, out) in enumerate(zip(w.requests, outputs)):
        coeffs = w.normalize(req, out)
        ref = w.reference(i)
        j = req.critical[0] if req.critical else 0
        for wrong in ((coeffs[j][0] + 1e-8,) + coeffs[j][1:], None):
            bad = list(coeffs)
            bad[j] = wrong
            assert w.check_request(req, bad, ref), (req.kind, req.spin, wrong)
        if not req.critical:
            bad = list(coeffs)
            bad[j] = _shift(coeffs[j])
            assert w.check_request(req, bad, ref), (req.kind, req.spin)
        kinds.add((req.kind, req.spin, bool(req.critical)))
    assert kinds >= {("barrier", "up", False), ("barrier", "up", True), ("barrier", "down", False),
                     ("step", "up", False), ("step", "down", False)}


def test_barrier_spin_down_equals_swapped_spin_up():
    sc = etawave.scattering
    up = sc.solve_barrier(sc.BarrierProblem(3.0, 10.0, 1.0, 0.5e6))[1]
    down = sc.solve_barrier(sc.BarrierProblem(3.0, 10.0, 1.0, 0.5e6, "down"))[1]
    assert workloads.check_swapped((down.t1, down.t2, down.r1, down.r2), (up.t1, up.t2, up.r1, up.r2)) is None
    # the oracle compares against the swapped channels, not the raw ones
    assert workloads.check_swapped((up.t1, up.t2, up.r1, up.r2), (up.t1, up.t2, up.r1, up.r2)) is not None


def test_lattice_oracle_rejects_perturbed_residual_and_low_order():
    ref = workloads.LATTICE_REFERENCE
    assert workloads.check_lattice(dict(ref)) == (9, [])
    rows = {n: list(row) for n, row in ref.items()}
    rows[64][2] *= 1.0 + 1e-6
    _, failures = workloads.check_lattice(rows)
    assert len(failures) == 1 and "gauge N=64" in failures[0]
    # first-order convergence matching its own reference still fails on order
    slow = {32: (0.25, 1e-2, 1e-3, 1e-2), 64: (0.125, 5e-3, 5e-4, 5e-3)}
    _, failures = workloads.check_lattice(slow, reference=slow)
    assert len(failures) == 3 and all("order" in f for f in failures)


def test_lattice_outputs_match_reference_at_n32():
    w = workloads.LatticeConvergence(etawave, 0, sizes=(32,))
    (row,) = _outputs(w)
    assert w.verify([row]) == (3, [])


def test_cli_oracles_accept_seed_outputs_and_reject_perturbed_ones(tmp_path):
    w = TinyCli(etawave, 3, str(tmp_path))
    outputs = _outputs(w)
    assert w.verify(outputs) == (len(w.requests), [])
    for cmd, (rc, text) in zip(w.requests, outputs):
        assert workloads.check_cli_output(cmd, 1, text) == "exit code 1"
        more = workloads.Command(cmd.kind, cmd.argv, cmd.expect_rows + 1)
        assert workloads.check_cli_output(more, rc, text) is not None
        header, first, *rest = text.splitlines()
        cols = header.split(",")
        values = first.split(",")
        target = {
            "barrier": "delta_numeric_closed",
            "step": "T1",
            "well": "rel_deviation",
            "point": "T1",
            "pauli": "identity_residual",
        }[cmd.kind]
        k = cols.index(target)
        values[k] = repr(float(values[k]) + 1e-6)
        bad = "\n".join([header, ",".join(values), *rest]) + "\n"
        assert workloads.check_cli_output(cmd, rc, bad) is not None, cmd.kind


def test_cli_check_oracle_needs_ok():
    check = workloads.Command("check", ("check",), 0)
    ok = "PASS a max_dev=0.000e+00 tol=1.0e-14\nOK all identities and properties hold\n"
    assert workloads.check_cli_output(check, 0, ok) is None
    bad = "FAIL a max_dev=1.000e+00 tol=1.0e-14\nFAILED first=a total=1\n"
    assert workloads.check_cli_output(check, 0, bad) is not None
    assert workloads.check_cli_output(check, 1, ok) is not None


# ----------------------------------------------------------------- tracing


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    for w in tiny_workloads(tmp_path):
        plain = [w.normalize(r, o) for r, o in zip(w.requests, _outputs(w))]
        tracer = Tracer()
        traced = [w.normalize(r, o) for r, o in zip(w.requests, _outputs(w, tracer))]
        assert traced == plain, w.name
        assert len(tracer) > len(w.requests)


def test_uninstall_restores_every_binding():
    before = etawave.scattering.solve_linear
    tracer = Tracer()
    tracer.install()
    assert etawave.scattering.solve_linear is not before
    assert etawave.numerics.solve_linear is etawave.scattering.solve_linear
    tracer.uninstall()
    assert etawave.scattering.solve_linear is before
    assert etawave.numerics.solve_linear is before


def test_time_metrics_add_up_to_traced_wall(tmp_path):
    tracer = Tracer()
    labels = set()
    for w in tiny_workloads(tmp_path):
        lo = len(tracer)
        outputs = _outputs(w, tracer)
        metrics = layers.pass_metrics(tracer, lo, len(tracer), w.pass_counters(outputs))
        total, wall = layers.accounting(tracer, lo, len(tracer), metrics)
        assert wall > 0 and abs(total - wall) <= 1e-9 * wall, w.name
        labels |= set(layers.unattributed(tracer, lo, len(tracer)))
        if isinstance(w, TinyScattering):
            assert metrics["numerics.solve_linear.calls"] > 0
            assert metrics["scattering.series_bridge_ratio"] == pytest.approx(
                sum(len(r.critical) for r in w.requests) / w.items_per_pass
            )
    # a layer dropped from the reported metrics would show up here
    assert labels == UNREPORTED


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(etawave.numerics, "least_squares")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["numerics.least_squares"]
    finally:
        tracer.uninstall()
    metrics = layers.pass_metrics(tracer, 0, len(tracer), {})
    assert metrics["numerics.least_squares.calls"] == 0
    assert metrics["numerics.least_squares.self_s"] == 0.0


def test_every_expected_name_exists_at_this_commit():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []
    assert set(EXPECTED) <= tracer.wrapped


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    computed = set(layers.pass_metrics(Tracer(), 0, 0, {})) | {"trace.overhead_ratio"}
    assert computed == declared


def test_host_speed_kernel_solves_its_system():
    a, b = hostspeed.SYSTEM
    assert np.allclose(a @ hostspeed.kernel(), b, rtol=0, atol=1e-12)
    assert hostspeed.probe(0.0) > 0
