"""The three benchmark workloads: seeded inputs, one request, and oracles.

A workload is a list of requests generated from the seed, an `execute`
that serves one request through the public etawave API, and a `verify`
that checks one pass's outputs outside the timed region.  Oracles are plain
functions of the outputs, so the self-tests can feed them perturbed values.

Why these three (see README.md for the metric -> layer -> workload map):

* scattering_sample: many small matching solves.  Nearly all time is in
  scattering, spinors, waveop and numerics; none is in pauligauge.
* lattice_convergence: a few big lattice stencils, arrays far beyond L2 and
  close to 1 GB peak.  All time is in pauligauge plus a little clifford.
* cli_session: the commands a user types, run in-process.  Many batch-of-one
  calls and short sweeps, CLI formatting, clifford, boundstates and lattice
  sizes that fit in cache.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

# criterion 04: |numeric - closed| <= 1e-10 |closed| + 1e-11 per coefficient
AGREE_REL = 1e-10
AGREE_FLOOR = 1e-11
CONSERVATION_TOL = 1e-10
# spin-down results equal the channel-swapped spin-up ones to ~2e-15
SWAP_REL = 1e-10
SWAP_FLOOR = 1e-13
# residuals must reproduce the reference to this relative tolerance; the
# reference was computed by the library at the commit that added this file
RESIDUAL_RTOL = 1e-9
MIN_ORDER = 1.9
WELL_RTOL = 1e-10

GRID_POINTS = 10
KAPPA_L_MAX = 220.0


def _agree(value, ref, rel, floor):
    return abs(value - ref) <= rel * abs(ref) + floor


def swap_channels(c):
    """(t1, t2, r1, r2) of the opposite incident spin by channel exchange."""
    t1, t2, r1, r2 = c
    return (t2, t1, r2, r1)


# ------------------------------------------------------------ scattering


@dataclass(frozen=True)
class SweepRequest:
    """One user request: fixed (V0, L, m, spin) plus an energy grid in eV."""

    kind: str  # "barrier" or "step"
    spin: str  # "up" or "down"
    v0: float
    length: float
    m: float
    energies: tuple
    method: str  # sweep method for barrier requests
    critical: tuple  # indices of grid points inside the critical band


def check_agreement(coeffs, closed):
    """Barrier spin-up and step oracle: numeric vs closed form (criterion 04)
    and conservation.  Returns a failure message or None."""
    if coeffs is None:
        return "row flagged"
    if abs(sum(coeffs) - 1.0) > CONSERVATION_TOL:
        return f"sum {sum(coeffs)!r} deviates from 1"
    for n_val, c_val in zip(coeffs, closed):
        if not _agree(n_val, c_val, AGREE_REL, AGREE_FLOOR):
            return f"numeric {n_val!r} vs closed {c_val!r}"
    return None


def step_closed_form(e_energy, v0, m):
    """(t1, t2, r1, r2) for spin-up incidence on a step, from the analytic
    solution of its four matching conditions.  Written here, apart from the
    library's assembly and linear solve, so that it can check them.

    With the library's mode columns (1, 0, c, -+d) for spin up and
    (0, 1, +-d, -c) for spin down on the +p / -p branch, where
    c = i(E-V-m)/(E-V+m) and d = sqrt(2) p/(E-V+m), the first two components
    give t_up = 1 + r_up and t_down = r_down; the other two then read
    delta r_up - s r_down = -delta and s r_up - delta r_down = d1 - d2, with
    delta = c1 - c2 and s = d1 + d2.
    """
    e2 = e_energy - v0
    p1 = math.sqrt(2.0 * m * e_energy)
    p2 = cmath.sqrt(2.0 * m * e2)  # i kappa below the step
    c1 = 1j * (e_energy - m) / (e_energy + m)
    c2 = 1j * (e2 - m) / (e2 + m)
    d1 = math.sqrt(2.0) * p1 / (e_energy + m)
    d2 = math.sqrt(2.0) * p2 / (e2 + m)
    delta, s = c1 - c2, d1 + d2
    den = s * s - delta * delta
    r_up = (delta * delta + s * (d1 - d2)) / den
    r_down = 2.0 * delta * d1 / den
    r1, r2 = abs(r_up) ** 2, abs(r_down) ** 2
    if e2 <= 0.0:
        return (0.0, 0.0, r1, r2)
    flux = p2.real * (e_energy + m) / (p1 * (e2 + m))
    return (abs(1.0 + r_up) ** 2 * flux, r2 * flux, r1, r2)


def check_swapped(coeffs, spin_up):
    """Barrier spin-down oracle: equal to the channel-swapped spin-up solve."""
    if coeffs is None:
        return "row flagged"
    if abs(sum(coeffs) - 1.0) > CONSERVATION_TOL:
        return f"sum {sum(coeffs)!r} deviates from 1"
    for d_val, u_val in zip(coeffs, swap_channels(spin_up)):
        if not _agree(d_val, u_val, SWAP_REL, SWAP_FLOOR):
            return f"spin-down {d_val!r} vs swapped spin-up {u_val!r}"
    return None


def check_conserved(coeffs):
    """Critical-band oracle: unflagged and conserving."""
    if coeffs is None:
        return "row flagged"
    if abs(sum(coeffs) - 1.0) > CONSERVATION_TOL:
        return f"sum {sum(coeffs)!r} deviates from 1"
    return None


def _as_tuple(c):
    return None if c is None else (c.t1, c.t2, c.r1, c.r2)


class ScatteringSample:
    """Seeded sweep requests: barrier spin-up above and below the top (down to
    kappa L = 220), barrier spin-down, steps both spins, and a few grid points
    inside the critical band that must take the series bridge.  Counts and
    grid sizes are fixed; the seed draws the physical parameters."""

    name = "scattering_sample"
    item_unit = "energy points"
    host_normalized = True  # small numpy solves, like the hostspeed kernel
    ABOVE, BELOW, STRADDLE = 70, 70, 20
    DOWN_ABOVE, DOWN_BELOW = 10, 10
    STEP_UP, STEP_DOWN = 10, 10
    CRITICAL_PER_STRADDLE = 1

    def __init__(self, etawave, seed: int, workdir=None):
        self.sc = etawave.scattering
        self.hbar_c = etawave.waveop.PhysicalConstants().hbar_c
        self.requests = self._make_requests(np.random.default_rng(seed))
        self.items_per_pass = sum(len(r.energies) for r in self.requests)
        self._references = {}

    def _params(self, rng):
        v0 = float(10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0)))
        m = float(10.0 ** rng.uniform(4.0, 6.0))
        return v0, m, float(rng.uniform(0.05, 12.0))

    def _clamp_length(self, rng, v0, m, length, ratios, deep):
        """Keep kappa L at the lowest sub-top energy within 220; a deep
        request puts it between 150 and 220."""
        below = ratios[ratios < 1.0]
        if below.size == 0:
            return length
        kappa = math.sqrt(2.0 * m * (1.0 - float(below.min())) * v0) / self.hbar_c
        if deep:
            return float(rng.uniform(150.0, KAPPA_L_MAX)) / kappa
        return min(length, KAPPA_L_MAX / kappa)

    @staticmethod
    def _off_top(rng, n, lo, hi):
        """n ratios in [lo, hi] at least 1e-3 away from the barrier top."""
        out = rng.uniform(lo, hi, n)
        near = np.abs(out - 1.0) < 1e-3
        out[near] = 1.0 + np.where(out[near] < 1.0, -1.0, 1.0) * rng.uniform(1e-3, 2e-3, near.sum())
        return out

    def _barrier(self, rng, spin, lo, hi, deep=False, critical=0):
        v0, m, length = self._params(rng)
        ratios = self._off_top(rng, GRID_POINTS - critical, lo, hi)
        ratios = np.concatenate([ratios, 1.0 + rng.uniform(-5e-10, 5e-10, critical)])
        ratios.sort()
        length = self._clamp_length(rng, v0, m, length, ratios, deep)
        crit = tuple(int(i) for i in np.flatnonzero(np.abs(ratios - 1.0) <= 5e-10))
        method = "both" if spin == "up" else "numeric"
        return SweepRequest("barrier", spin, v0, length, m, tuple(ratios * v0), method, crit)

    def _step(self, rng, spin):
        v0, m, _ = self._params(rng)
        ratios = np.sort(self._off_top(rng, GRID_POINTS, 0.05, 3.0))
        return SweepRequest("step", spin, v0, 0.0, m, tuple(ratios * v0), "numeric", ())

    def _make_requests(self, rng):
        reqs = []
        reqs += [self._barrier(rng, "up", 1.001, 4.0) for _ in range(self.ABOVE)]
        reqs += [self._barrier(rng, "up", 0.02, 0.999, deep=i % 3 == 0) for i in range(self.BELOW)]
        reqs += [
            self._barrier(rng, "up", 0.9, 1.1, critical=self.CRITICAL_PER_STRADDLE)
            for _ in range(self.STRADDLE)
        ]
        reqs += [self._barrier(rng, "down", 1.001, 4.0) for _ in range(self.DOWN_ABOVE)]
        reqs += [self._barrier(rng, "down", 0.02, 0.999, deep=i % 2 == 0) for i in range(self.DOWN_BELOW)]
        reqs += [self._step(rng, "up") for _ in range(self.STEP_UP)]
        reqs += [self._step(rng, "down") for _ in range(self.STEP_DOWN)]
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    # -------------------------------------------------------------- serving
    def execute(self, req: SweepRequest):
        sc = self.sc
        if req.kind == "barrier":
            template = sc.BarrierProblem(req.v0, req.v0, req.length, req.m, req.spin)
            return sc.sweep(template, req.energies, req.method)
        rows = []
        for e_energy in req.energies:
            try:
                rows.append(sc.solve_step(e_energy, req.v0, req.m, req.spin))
            except (ValueError, sc.DegenerateConfigurationError):
                rows.append(None)
        return rows

    def normalize(self, req: SweepRequest, out):
        """Coefficient tuples per grid point (None where the row flagged)."""
        if req.kind == "barrier":
            return [None if r.flag is not None else _as_tuple(r.coeffs) for r in out.rows]
        return [_as_tuple(c) for c in out]

    # ---------------------------------------------------------- verification
    def reference(self, index: int):
        """Independent expectation per grid point, computed once per run."""
        if index in self._references:
            return self._references[index]
        sc = self.sc
        req = self.requests[index]
        if req.kind == "barrier" and req.spin == "up":
            ref = [
                _as_tuple(sc.closed_form(sc.BarrierProblem(e, req.v0, req.length, req.m)))
                for e in req.energies
            ]
        elif req.kind == "barrier":
            ref = [
                _as_tuple(sc.solve_barrier(sc.BarrierProblem(e, req.v0, req.length, req.m))[1])
                for e in req.energies
            ]
        else:
            ref = [step_closed_form(e, req.v0, req.m) for e in req.energies]
            if req.spin == "down":
                ref = [swap_channels(c) for c in ref]
        self._references[index] = ref
        return ref

    def check_request(self, req: SweepRequest, coeffs, reference):
        """Failure messages for one request's normalized outputs."""
        failures = []
        for i, (got, ref) in enumerate(zip(coeffs, reference)):
            if i in req.critical:
                msg = check_conserved(got)
            elif req.kind == "barrier" and req.spin == "down":
                msg = check_swapped(got, ref)
            else:
                msg = check_agreement(got, ref)
            if msg is not None:
                failures.append(f"{req.kind} {req.spin} E={req.energies[i]!r}: {msg}")
        return failures

    def verify(self, outputs):
        failures = []
        for i, (req, out) in enumerate(zip(self.requests, outputs)):
            failures += self.check_request(req, self.normalize(req, out), self.reference(i))
        return self.items_per_pass, failures

    def pass_counters(self, outputs):
        flagged = sum(
            sum(c is None for c in self.normalize(req, out))
            for req, out in zip(self.requests, outputs)
        )
        return {"scattering.flagged_rows": flagged}


# ---------------------------------------------------------------- lattice

LATTICE_SIZES = (32, 64, 128)
# the fixed acceptance parameters of criterion 10
LATTICE_PARAMS = dict(extent=8.0, bz=0.3, e_charge=1.0, e_energy=2.0, m=1.5)
# (h, identity, gauge, commutator) per N, as the library computed them at the
# commit that added this benchmark
LATTICE_REFERENCE = {
    32: (0.25, 0.01496745585797819, 0.0011584001589377338, 0.014967455857978271),
    64: (0.125, 0.003818661089433569, 0.0002948167798275625, 0.003818661089433564),
    128: (0.0625, 0.0009595642059565708, 7.403233319969189e-05, 0.0009595642059565591),
}
RESIDUAL_NAMES = ("identity", "gauge", "commutator")


def check_lattice(rows_by_n, reference=LATTICE_REFERENCE):
    """Lattice oracle: every residual matches the reference and every
    successive-halving order is at least 1.9.  Returns (attempted, failures)
    where each (N, residual) pair is one item."""
    failures = []
    sizes = sorted(rows_by_n)
    for col, kind in enumerate(RESIDUAL_NAMES, start=1):
        for i, n in enumerate(sizes):
            got = rows_by_n[n][col]
            ref = reference[n][col]
            if not abs(got - ref) <= RESIDUAL_RTOL * abs(ref):
                failures.append(f"{kind} N={n}: residual {got!r} vs reference {ref!r}")
                continue
            if i > 0:
                coarse = rows_by_n[sizes[i - 1]][col]
                order = math.log2(coarse / got) if coarse > 0 and got > 0 else float("nan")
                if not order >= MIN_ORDER:
                    failures.append(f"{kind} N={sizes[i - 1]}->{n}: order {order!r} < {MIN_ORDER}")
    return len(sizes) * len(RESIDUAL_NAMES), failures


class LatticeConvergence:
    """`convergence_table` at N = 32, 64 and 128, one request per N, with the
    acceptance parameters.  Deterministic: the seed is unused."""

    name = "lattice_convergence"
    item_unit = "lattice site-checks"
    # memory-bound stencils on 64 MB states: the hostspeed kernel does not
    # track their slowdowns, so latencies are the lowest over the passes
    host_normalized = False

    def __init__(self, etawave, seed: int, workdir=None, sizes=LATTICE_SIZES):
        self.pg = etawave.pauligauge
        self.requests = list(sizes)
        # three checks per site at each size
        self.items_per_pass = sum(3 * n**3 for n in sizes)

    def execute(self, n: int):
        return self.pg.convergence_table((n,), **LATTICE_PARAMS)[0]

    def normalize(self, n, out):
        return tuple(float(v) for v in out)

    def verify(self, outputs):
        return check_lattice(dict(zip(self.requests, outputs)))

    def pass_counters(self, outputs):
        return {}


# -------------------------------------------------------------------- cli

# `pauli --base-size 16 --levels 2` at the default extent and field, as the
# library printed it (12 significant digits) at the commit that added this file
PAULI_REFERENCE = (
    (5.00000000000e-01, 5.53326773048e-02, 4.30858457874e-03, 5.53326773048e-02),
    (2.50000000000e-01, 1.49674558580e-02, 1.15840015894e-03, 1.49674558580e-02),
)
CLI_MASS = 0.5e6  # the CLI's default particle rest energy, eV


def _csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _floats(row, keys):
    return [float(row[k]) for k in keys]


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple
    expect_rows: int

    def arg(self, flag: str) -> float:
        return float(self.argv[self.argv.index(flag) + 1])


def check_cli_output(cmd: Command, rc: int, text: str):
    """CLI oracle for one command's exit code and output text.  Returns a
    failure message or None."""
    kind = cmd.kind
    if rc != 0:
        return f"exit code {rc}"
    try:
        if kind == "check":
            lines = text.strip().splitlines()
            if not lines or not lines[-1].startswith("OK") or any(ln.startswith("FAIL") for ln in lines):
                return "check did not end with OK"
            return None
        rows = _csv(text)
        if len(rows) != cmd.expect_rows:
            return f"{len(rows)} rows, expected {cmd.expect_rows}"
        for row in rows:
            msg = _check_cli_row(kind, row)
            if msg is not None:
                return msg
        if kind == "point":
            numeric, closed = (_floats(r, ("T1", "T2", "R1", "R2")) for r in rows)
            for n_val, c_val in zip(numeric, closed):
                if not _agree(n_val, c_val, AGREE_REL, AGREE_FLOOR):
                    return f"point numeric {n_val!r} vs closed {c_val!r}"
        if kind == "step":
            v0 = cmd.arg("--v0")
            for row in rows:
                closed = step_closed_form(float(row["e_over_v0"]) * v0, v0, CLI_MASS)
                for n_val, c_val in zip(_floats(row, ("T1", "T2", "R1", "R2")), closed):
                    if not _agree(n_val, c_val, AGREE_REL, AGREE_FLOOR):
                        return f"step {n_val!r} vs closed {c_val!r}"
        if kind == "pauli":
            for row, ref in zip(rows, PAULI_REFERENCE):
                got = _floats(row, ("h_nm", "identity_residual", "gauge_residual", "commutator_residual"))
                for g, r in zip(got, ref):
                    if not abs(g - r) <= RESIDUAL_RTOL * abs(r):
                        return f"pauli residual {g!r} vs reference {r!r}"
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparseable output: {exc!r}"
    return None


def _check_cli_row(kind, row):
    if kind in ("barrier", "step", "point"):
        total = float(row["sum"])
        if not abs(total - 1.0) <= CONSERVATION_TOL:
            return f"sum {total!r} deviates from 1"
    if kind == "barrier":
        coeffs = _floats(row, ("T1", "T2", "R1", "R2"))
        delta = float(row["delta_numeric_closed"])
        if not delta <= AGREE_REL * max(abs(c) for c in coeffs) + AGREE_FLOOR:
            return f"delta_numeric_closed {delta!r} out of bound"
    if kind == "well":
        dev = float(row["rel_deviation"])
        if not dev <= WELL_RTOL:
            return f"rel_deviation {dev!r} above {WELL_RTOL}"
    return None


class CliSession:
    """The commands a user types, run in-process through `etawave.cli.main`
    and written to an --output file under the run's work directory."""

    name = "cli_session"
    item_unit = "commands"
    host_normalized = True  # small numpy solves and cache-sized lattices

    def __init__(self, etawave, seed: int, workdir=None):
        self.cli = etawave.cli
        self.workdir = workdir
        self.requests = self._make_requests(np.random.default_rng(seed), etawave.waveop.PhysicalConstants().hbar_c)
        self.items_per_pass = len(self.requests)

    @staticmethod
    def _make_requests(rng, hbar_c):
        def v0():
            return f"{10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0)):.6g}"

        def length():
            return f"{rng.uniform(0.2, 5.0):.6g}"

        tunnel_v0 = float(v0())
        kappa = math.sqrt(2.0 * CLI_MASS * (1.0 - 0.05) * tunnel_v0) / hbar_c
        tunnel_length = f"{rng.uniform(20.0, KAPPA_L_MAX) / kappa:.6g}"
        nmax = 12
        return [
            Command("check", ("check", "--seed", str(int(rng.integers(0, 2**31)))), 0),
            Command(
                "barrier",
                ("barrier", "--v0", v0(), "--length", length(), "--emin", "1.01",
                 "--emax", "3.0", "--steps", "200", "--method", "both"),
                200,
            ),
            Command(
                "barrier",
                ("barrier", "--v0", repr(tunnel_v0), "--length", tunnel_length, "--emin", "0.05",
                 "--emax", "0.95", "--steps", "300", "--method", "both"),
                300,
            ),
            Command("step", ("step", "--v0", v0(), "--steps", "200"), 200),
            Command("well", ("well", "--length", f"{rng.uniform(2.0, 20.0):.6g}",
                             "--nmax", str(nmax), "--numeric"), nmax),
            Command("point", ("point", "--v0", v0(), "--length", length(),
                              "--e-over-v0", f"{rng.uniform(1.05, 3.0):.6g}"), 2),
            Command("pauli", ("pauli", "--base-size", "16", "--levels", "2"), 2),
        ]

    def execute(self, cmd: Command):
        path = os.path.join(self.workdir, f"{cmd.kind}.out")
        try:
            rc = self.cli.main(list(cmd.argv) + ["--output", path])
        except SystemExit as exc:
            rc = exc.code
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            text = ""
        else:
            os.remove(path)
        return rc, text

    def normalize(self, cmd, out):
        return out

    def verify(self, outputs):
        failures = []
        for cmd, (rc, text) in zip(self.requests, outputs):
            msg = check_cli_output(cmd, rc, text)
            if msg is not None:
                failures.append(f"{' '.join(cmd.argv)}: {msg}")
        return len(self.requests), failures

    def pass_counters(self, outputs):
        return {"cli.output_bytes": sum(len(text.encode()) for _, text in outputs)}


WORKLOADS = {w.name: w for w in (ScatteringSample, LatticeConvergence, CliSession)}
