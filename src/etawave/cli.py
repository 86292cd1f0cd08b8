"""Command-line interface: sweeps, point values, level tables, identity checks.

Subcommands
    barrier  coefficient sweep over E/V0 for the rectangular barrier
    step     coefficient sweep for the potential step
    well     quantized levels of the periodic symmetric well
    pauli    grid convergence table for the minimal-coupling identities
    check    full identity and property suite (exit 0 iff everything passes)
    point    both solvers at a single (E/V0, V0, L) point

Exit codes: 0 success, 1 property failure, 2 table finished with flagged
rows, 64 usage error.  All output is deterministic given flags and --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import boundstates, clifford, pauligauge, scattering, spinors, waveop
from .waveop import PhysicalConstants

USAGE_EXIT = 64
_NAN = float("nan")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    """argparse type for every float flag: inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


def _load_config(path):
    """key=value lines; unknown keys rejected."""
    values = {}
    allowed = {"hbar_c", "mass_c2", "precision", "seed"}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = val.strip()
    return values


def _emit(text: str, output_path):
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(header, records, fmt: str, precision: int, comment=None) -> str:
    """The one table formatter: every table value becomes text here.

    Floats print with `precision` significant digits, ints and strings with
    str.  CSV holds the header columns, after an optional `# comment` line;
    JSON holds every key of each record, floats rounded through the same text.
    A finite float whose rounded text reads back as inf is written unrounded
    in both.  NaN and Infinity are not JSON: a non-finite float (a flagged
    row's value) is null there.
    """
    rounded = f"{{:.{precision - 1}e}}".format

    def float_text(v):
        t = rounded(v)
        # only a text with the largest exponent can read back as inf
        return repr(float(v)) if t.endswith("e+308") and math.isinf(float(t)) else t

    def text(v):
        return float_text(v) if isinstance(v, float) else str(v)

    def json_value(v):
        if not isinstance(v, float):
            return v
        return float(float_text(v)) if math.isfinite(v) else None

    if fmt == "json":
        records = [{k: json_value(v) for k, v in rec.items()} for rec in records]
        return json.dumps(records, allow_nan=False) + "\n"
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(header))
    lines += [",".join([text(rec[h]) for h in header]) for rec in records]
    return "\n".join(lines) + "\n"


def _emit_rows(first_column: str, rows, args, precision: int, both: bool) -> int:
    """Write a coefficient table of (first-column value, SweepRow) pairs for
    barrier, step and point; a flagged row holds nan and its flag.  Exit code
    2 when a row is flagged."""
    header = [first_column, "T1", "T2", "R1", "R2", "T_qm", "R_qm", "sum"]
    if both:
        header.append("delta_numeric_closed")
    down = args.spin == spinors.DOWN
    records = []
    for value, r in rows:
        c = r.coeffs
        values = [value]
        values += [_NAN] * 7 if c is None else [c.t1, c.t2, c.r1, c.r2, c.t_qm, c.r_qm, c.total]
        if both:
            values.append(_NAN if r.delta is None else r.delta)
        rec = dict(zip(header, values))
        if r.flag is not None:
            rec["flag"] = r.flag
        if down:
            rec["incident_spin"] = spinors.DOWN
        records.append(rec)
    comment = f"incident_spin={spinors.DOWN}" if down else None
    _emit(_render(header, records, args.format, precision, comment), args.output)
    return 2 if any(r.flag is not None for _, r in rows) else 0


def _add_common(parser, table=True, hbar_c=True, mass=True, seed=False):
    """The common flags a command reads: --config and --output always, the
    table's --format and --precision, --hbar-c, --mass and --seed."""
    parser.add_argument("--config", help="key=value file for constants")
    parser.add_argument("--output", help="write the table here instead of stdout")
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
        parser.add_argument("--precision", type=int, help="significant digits (6..17)")
    if seed:
        parser.add_argument("--seed", type=int)
    if hbar_c:
        parser.add_argument("--hbar-c", type=_finite_float, help="eV nm")
    if mass:
        parser.add_argument("--mass", type=_finite_float, help="particle rest energy, eV")


def _resolve(parser, args):
    """Merge config file and flags; flags win, and where the command takes
    no flag the config value or the default holds.  Returns (constants,
    mass, precision, seed)."""
    conf = {}
    if args.config:
        try:
            conf = _load_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    def pick(flag, key, default, kind):
        value = getattr(args, flag, None)
        return kind(conf.get(key, default)) if value is None else value

    try:
        hbar_c = pick("hbar_c", "hbar_c", PhysicalConstants.hbar_c, _finite_float)
        mass = pick("mass", "mass_c2", 0.5e6, _finite_float)
        precision = pick("precision", "precision", 12, int)
        seed = pick("seed", "seed", 0, int)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"bad config value: {exc}")
    if not 6 <= precision <= 17:
        parser.error(f"precision must be in [6, 17], got {precision}")
    if hbar_c <= 0 or mass <= 0:
        parser.error("hbar_c and mass must be positive")
    if seed < 0:
        # numpy seeds its generators from non-negative integers only
        parser.error(f"seed must be a non-negative integer, got {seed}")
    return PhysicalConstants(hbar_c=hbar_c), mass, precision, seed


def cmd_barrier(parser, args) -> int:
    constants, mass, precision, _ = _resolve(parser, args)
    if args.v0 <= 0 or args.length <= 0:
        parser.error("--v0 and --length must be positive")
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.emin <= 0 or args.emax < args.emin:
        parser.error("need 0 < emin <= emax")
    ratios = np.linspace(args.emin, args.emax, args.steps)
    template = scattering.BarrierProblem(
        e_energy=args.v0,
        v0=args.v0,
        length=args.length,
        m=mass,
        incident_spin=args.spin,
        constants=constants,
    )
    # E = (E/V0) V0 may overflow: the sweep flags its row, which is labelled
    # with the requested ratio instead of inf / V0
    with np.errstate(over="ignore"):
        energies = ratios * args.v0
    table = scattering.sweep(template, energies, args.method)
    rows = [
        (r.e_over_v0 if math.isfinite(e) else float(ratio), r)
        for ratio, e, r in zip(ratios, energies, table.rows)
    ]
    return _emit_rows("e_over_v0", rows, args, precision, args.method == "both")


def cmd_step(parser, args) -> int:
    _, mass, precision, _ = _resolve(parser, args)
    if args.v0 <= 0:
        parser.error("--v0 must be positive")
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.emin <= 0 or args.emax < args.emin:
        parser.error("need 0 < emin <= emax")
    rows = []
    for ratio in map(float, np.linspace(args.emin, args.emax, args.steps)):
        try:
            coeffs = scattering.solve_step(ratio * args.v0, args.v0, mass, args.spin)
            row = scattering.SweepRow(ratio, coeffs, None, None)
        except ValueError as exc:
            row = scattering.SweepRow(ratio, None, None, f"{type(exc).__name__}: {exc}")
        rows.append((ratio, row))
    return _emit_rows("e_over_v0", rows, args, precision, False)


def cmd_well(parser, args) -> int:
    constants, mass, precision, _ = _resolve(parser, args)
    if args.nmax < 1:
        parser.error("--nmax must be a positive integer")
    if args.length <= 0:
        parser.error("--length must be positive")
    try:
        w = boundstates.WellProblem(args.length, mass, args.nmax, constants)
    except ValueError as exc:
        parser.error(str(exc))
    analytic = boundstates.energy_levels(w)
    numeric = None
    if args.numeric:
        try:
            numeric = dict(boundstates.find_levels_numerically(w))
        except ValueError as exc:  # no search grid within the float range
            parser.error(str(exc))
    header = ["n", "E_n_eV", "residual"]
    if args.numeric:
        header += ["E_n_numeric", "rel_deviation"]
    records = []
    for n, e_n in analytic:
        rec = {"n": n, "E_n_eV": e_n, "residual": boundstates.periodic_residual(e_n, w)}
        if args.numeric:
            e_num = numeric.get(n, _NAN)
            rec["E_n_numeric"] = e_num
            rec["rel_deviation"] = abs(e_num - e_n) / e_n
        records.append(rec)
    _emit(_render(header, records, args.format, precision), args.output)
    return 0


def cmd_pauli(parser, args) -> int:
    _, _, precision, _ = _resolve(parser, args)
    if args.base_size < 8:
        parser.error("--base-size must be at least 8")
    if args.levels < 1:
        parser.error("--levels must be at least 1")
    if args.extent <= 0:
        parser.error("--extent must be positive")
    sizes = [args.base_size * 2**i for i in range(args.levels)]
    try:
        # a field too strong to square ends in non-finite sums: the checks
        # raise, so numpy's overflow warnings on the way would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = pauligauge.convergence_table(sizes, extent=args.extent, bz=args.bz)
    except ValueError as exc:
        parser.error(str(exc))
    header = ["h_nm", "identity_residual", "gauge_residual", "commutator_residual"]
    records = [dict(zip(header, row)) for row in rows]
    _emit(_render(header, records, args.format, precision), args.output)
    return 0


def cmd_point(parser, args) -> int:
    constants, mass, precision, _ = _resolve(parser, args)
    if args.v0 <= 0 or args.length <= 0 or args.e_over_v0 <= 0:
        parser.error("--v0, --length and --e-over-v0 must be positive")
    try:
        prob = scattering.BarrierProblem(
            e_energy=args.e_over_v0 * args.v0,
            v0=args.v0,
            length=args.length,
            m=mass,
            incident_spin=args.spin,
            constants=constants,
        )
    except ValueError as exc:  # E = (E/V0) * V0 can overflow
        parser.error(str(exc))
    # each row is a one-point sweep: a solver that fails flags its row
    rows = [
        (method, scattering.sweep(prob, [prob.e_energy], method).rows[0])
        for method in ("numeric", "closed")
    ]
    return _emit_rows("method", rows, args, precision, False)


def _worst(deviations) -> float:
    """The largest deviation, 0.0 for none; like max(worst, dev), it passes over a nan."""
    return max([0.0, *deviations])


def _check_rows(rng):
    """(name, deviation, tolerance) of each identity and property check, in
    report order.  A check passes when deviation <= tolerance, so a nan fails."""
    g = clifford.build_standard_gammas()
    for name, dev in clifford.identity_suite(g, clifford.build_eta(g)).items():
        yield f"clifford.{name}", dev, clifford.IDENTITY_TOL
    yield "clifford.footnote_equivalence", clifford.footnote_equivalence_check(g), 1e-14
    g_conj = clifford.conjugate_gammas(g, clifford.random_householder_unitary(rng))
    rep_conj = clifford.identity_suite(g_conj, clifford.build_eta(g_conj))
    yield "clifford.conjugated_representation", max(rep_conj.values()), 1e-13

    devs = []
    for _ in range(8):
        e_energy = float(rng.uniform(0.5, 2.0e5))
        v = float(rng.uniform(0.0, 3.0e5))
        m = float(rng.uniform(1.0e3, 1.0e6))
        op = waveop.momentum_operator(e_energy, v, m, clifford.build_eta(g))
        dev = float(np.max(np.abs(op @ op - 2.0 * m * (e_energy - v) * np.eye(4))))
        # scale by the largest term entering the square, as acceptance criterion 07
        # does: near E = V the m^2 term's rounding dominates the deviation
        devs.append(dev / max(abs(2.0 * m * (e_energy - v)), (e_energy - v) ** 2, m * m))
    yield "waveop.squared_dispersion", _worst(devs), 1e-12
    worst = max(
        waveop.general_a_check(a, 3.0, 1.5)
        / max((3.0 / a) ** 2, (a * 1.5) ** 2, 2.0 * 1.5 * 3.0)
        for a in np.concatenate([np.logspace(-3, 3, 7), -np.logspace(-3, 3, 7)])
    )
    yield "waveop.a_independence", worst, 1e-12
    # how far the residual at m = 1 exceeds E_k / 2m; _worst skips what does not
    energies = map(float, rng.uniform(1e-6, 1.0, 6))
    excess = [waveop.nonrel_limit_residual(ek, 1.0) - ek / 2.0 for ek in energies]
    yield "waveop.nonrel_envelope", _worst(excess), 0.0

    try:
        _, res = spinors.reconstruct_eta_1d(spinors.convention_samples((1.0, 2.5, 7.0), 1.0))
    except spinors.ConventionInconsistencyError:
        res = float("inf")
    yield "spinors.reconstruction_residual", res, spinors.RECONSTRUCTION_TOL
    eta_ref = spinors.eta_1d_reference()
    devs = []
    for _ in range(6):
        e = float(rng.uniform(0.5, 10.0))
        v = float(rng.uniform(0.0, 20.0))
        m = float(rng.uniform(0.5, 5.0))
        if abs(e - v) < 1e-3 or abs(abs(e - v) - m) < 1e-3 * m:
            continue
        for spin in (spinors.UP, spinors.DOWN):
            for branch in (True, False):
                u = spinors.mode_column(e, v, m, spin, branch)
                devs.append(spinors.eigen_consistency(e, v, m, u, branch, eta_ref) / max(e, m))
    yield "spinors.eigen_consistency", _worst(devs), 1e-10

    sums, deltas, t2s = [], [], []
    for regime_hi in (True, False):
        for _ in range(400):
            v0 = float(rng.uniform(0.5, 50.0))
            ratio = float(rng.uniform(1.001, 4.0)) if regime_hi else float(rng.uniform(0.05, 0.999))
            length = float(rng.uniform(0.05, 12.0))
            m = float(rng.uniform(1e4, 1e6))
            prob = scattering.BarrierProblem(ratio * v0, v0, length, m)
            numeric, closed = scattering.solve_barrier(prob)[1], scattering.closed_form(prob)
            sums += (abs(numeric.total - 1.0), abs(closed.total - 1.0))
            deltas.append(scattering.coefficient_delta(numeric, closed))
            t2s += (numeric.t2, closed.t2)
    yield "scattering.conservation", _worst(sums), 1e-10
    yield "scattering.numeric_vs_closed", _worst(deltas), 1e-10
    yield "scattering.spin_down_transmission", _worst(t2s), 1e-10
    devs = []
    for _ in range(50):
        v0 = float(rng.uniform(0.5, 50.0))
        ratio = float(rng.uniform(0.05, 3.0))
        step = scattering.solve_step(ratio * v0, v0, float(rng.uniform(1e4, 1e6)))
        devs.append(abs(step.total - 1.0))
    yield "scattering.step_conservation", _worst(devs), 1e-10

    w = boundstates.WellProblem(10.0, 0.5e6, 12)
    numeric = dict(boundstates.find_levels_numerically(w))
    worst = max(abs(numeric[n] - e_n) / e_n for n, e_n in boundstates.energy_levels(w))
    yield "boundstates.levels", worst, 1e-10
    rows = pauligauge.convergence_table((32, 64))
    for column, name in enumerate(("identity", "gauge", "commutator"), 1):
        order = pauligauge.convergence_orders([r[column] for r in rows])[0]
        yield f"pauligauge.{name}_order", max(0.0, 1.9 - order), 0.0


def cmd_check(parser, args) -> int:
    _, _, _, seed = _resolve(parser, args)
    lines, failed = [], []
    for name, value, tol in _check_rows(np.random.default_rng(seed)):
        ok = value <= tol
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} max_dev={value:.3e} tol={tol:.1e}")
        if not ok:
            failed.append(name)
    if failed:
        lines.append(f"FAILED first={failed[0]} total={len(failed)}")
    else:
        lines.append("OK all identities and properties hold")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="etawave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_barrier = sub.add_parser("barrier", help="rectangular barrier sweep")
    p_barrier.add_argument("--v0", type=_finite_float, required=True, help="barrier height, eV")
    p_barrier.add_argument("--length", type=_finite_float, required=True, help="barrier width, nm")
    p_barrier.add_argument("--emin", type=_finite_float, default=1.01, help="lowest E/V0")
    p_barrier.add_argument("--emax", type=_finite_float, default=3.0, help="highest E/V0")
    p_barrier.add_argument("--steps", type=int, default=200)
    p_barrier.add_argument("--method", choices=("numeric", "closed", "both"), default="numeric")
    p_barrier.add_argument("--spin", choices=(spinors.UP, spinors.DOWN), default=spinors.UP)
    _add_common(p_barrier)

    p_step = sub.add_parser("step", help="potential step sweep")
    p_step.add_argument("--v0", type=_finite_float, required=True)
    p_step.add_argument("--emin", type=_finite_float, default=0.05)
    p_step.add_argument("--emax", type=_finite_float, default=3.0)
    p_step.add_argument("--steps", type=int, default=200)
    p_step.add_argument("--spin", choices=(spinors.UP, spinors.DOWN), default=spinors.UP)
    _add_common(p_step, hbar_c=False)

    p_well = sub.add_parser("well", help="periodic well levels")
    p_well.add_argument("--length", type=_finite_float, required=True, help="half-width L, nm")
    p_well.add_argument("--nmax", type=int, default=10)
    p_well.add_argument("--numeric", action="store_true", help="also root-find the levels")
    _add_common(p_well)

    p_pauli = sub.add_parser("pauli", help="grid identity convergence table")
    p_pauli.add_argument("--base-size", type=int, default=32)
    p_pauli.add_argument("--levels", type=int, default=3)
    p_pauli.add_argument("--extent", type=_finite_float, default=8.0)
    p_pauli.add_argument("--bz", type=_finite_float, default=0.3)
    _add_common(p_pauli, hbar_c=False, mass=False)

    p_check = sub.add_parser("check", help="identity and property suite")
    _add_common(p_check, table=False, hbar_c=False, mass=False, seed=True)

    p_point = sub.add_parser("point", help="both solvers at one energy")
    p_point.add_argument("--v0", type=_finite_float, required=True)
    p_point.add_argument("--length", type=_finite_float, required=True)
    p_point.add_argument("--e-over-v0", type=_finite_float, required=True)
    p_point.add_argument("--spin", choices=(spinors.UP, spinors.DOWN), default=spinors.UP)
    _add_common(p_point)

    # a command reports its usage errors with its own usage line
    for command_parser in sub.choices.values():
        command_parser.set_defaults(command_parser=command_parser)
    return parser


_DISPATCH = {
    "barrier": cmd_barrier,
    "step": cmd_step,
    "well": cmd_well,
    "pauli": cmd_pauli,
    "check": cmd_check,
    "point": cmd_point,
}


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return _DISPATCH[args.command](args.command_parser, args)


if __name__ == "__main__":
    sys.exit(main())
