"""Command-line surface: simulation batches, verification suites, and
figure/CSV emission.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage or
configuration.  Every command is deterministic under a fixed seed; numbers
are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__, curve as curve_mod, elliptic, ndim, spiral, svgplot
from .errors import ConstructionError, DomainError, Termination
from .geometry import angle_between, unit
from .spiral import SpiralParams, SpiralTrajectory

SCHEMA_VERSION = 1


def _output(path: Optional[str]):
    """The file at path, opened for writing, or stdout if path is None."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


@dataclass
class RunReport:
    command: str
    config: dict
    passed: bool
    checks: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)  # seconds per phase
    wall_time_s: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def dump(self, path: Optional[str]) -> None:
        with _output(path) as out:
            # asdict's bytes without its deep copy: no field holds a dataclass
            out.write(json.dumps(vars(self), indent=2, default=float) + "\n")


def _fail(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


# Upper limits of the size flags; argparse refuses a larger value before
# anything is built.
MAX_COUNT = 100_000      # elliptic simulate --count: one row per trajectory
MAX_KMAX = 1_000_000     # every --kmax: tail and sigma tables of kmax + 2 entries
MAX_GRID = 100_000       # curve and ndim --grid
MAX_N = 6                # ndim check --n: the Hessian grid has dimension n - 2
MAX_STEPS = curve_mod.MAX_STEPS  # replay and ndim check --steps


def _bounded(kind: type, lo, hi):
    """An argparse type: kind(text), refused unless lo <= value <= hi."""
    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:  # also refuses a nan
            raise argparse.ArgumentTypeError(f"need {lo} <= value <= {hi}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


@contextlib.contextmanager
def _table(path: Optional[str], fmt: str, columns: dict):
    """Yield write(rows), which streams rows, tuples in the order of columns
    (a map of each name to "%d" or "%.17g"), to path or stdout: as CSV, or as
    json.dumps([dict(zip(columns, row)), ...], indent=1) writes finite floats."""
    with _output(path) as out:
        if fmt == "csv":
            out.write(",".join(columns) + "\n")
            line = ",".join(columns.values()) + "\n"
            yield lambda rows: out.writelines(line % row for row in rows)
            return
        item = "{\n" + ",\n".join(
            f'  "{name}": {"%r" if f == "%.17g" else f}' for name, f in columns.items()) + "\n }"
        out.write("[")
        sep = "\n "  # written before a block: ",\n " once an item is out

        def write(rows):
            nonlocal sep
            text = ",\n ".join(item % row for row in rows)
            if text:
                out.write(sep + text)
                sep = ",\n "

        yield write
        out.write("]\n" if sep == "\n " else "\n]\n")


# ---------------------------------------------------------------------------
# elliptic
# ---------------------------------------------------------------------------

SIMULATE_BLOCK = 1024  # trajectories whose logs one accounting pass reads; bounds the memory
SIMULATE_COLUMNS = {"index": "%d", "seed": "%d", "c1": "%.17g", "c2": "%.17g",
                    "reflections": "%d", "bound": "%d", "max_theta": "%.17g",
                    "sum_theta": "%.17g", "drift_i1": "%.17g", "drift_i2": "%.17g"}


def _simulate_rows(cone, seed: int, first: int, logs: list) -> list:
    """The CSV rows of trajectories first, first + 1, ... from their
    run_random logs, which start on the surface.

    One pass over the stacked rows gives what the integrals, apex angles
    and drift of each log give alone, bit for bit: the integrals and apex
    angles are elementwise, max and min are exact in any order,
    and each theta sum is numpy's pairwise .sum() of its own slice
    (np.add.reduceat sums sequentially and rounds differently).
    """
    sizes = np.array([len(log.bases) for log in logs])
    starts = np.cumsum(sizes) - sizes
    bases = np.concatenate([log.bases for log in logs])
    dirs = np.concatenate([log.dirs for log in logs])
    I1, I2 = elliptic.first_integrals(cone, *bases.T, *dirs.T)
    keep = np.ones(len(bases) - 1, dtype=bool)
    keep[starts[1:] - 1] = False  # the pairs of rows that straddle two trajectories
    radial = unit(bases)
    th = angle_between(radial[:-1][keep], radial[1:][keep])
    cuts = [0, *(starts - np.arange(len(logs)))[1:].tolist(), th.size]
    thetas = [th[a:b] for a, b in zip(cuts, cuts[1:])]

    def peak(x):
        return np.maximum.reduceat(x, starts)

    i1_max, i2_max = peak(np.abs(I1)), peak(np.abs(I2))
    i2_scale = np.where(i1_max > i2_max, i1_max, i2_max)  # builtin max(i2_max, i1_max)
    drift_i1 = (peak(I1) - np.minimum.reduceat(I1, starts)) / i1_max
    drift_i2 = (peak(I2) - np.minimum.reduceat(I2, starts)) / i2_scale
    rows = []
    for k, (log, seg, c1, c2, d1, d2) in enumerate(zip(
            logs, thetas, I1[starts].tolist(), I2[starts].tolist(), drift_i1.tolist(),
            drift_i2.tolist())):
        bound = elliptic.reflection_bound(cone, c1, c2) if c2 > 0.0 else -1
        rows.append((first + k, seed, c1, c2, log.reflection_count, bound,
                     float(seg.max()) if seg.size else 0.0, float(seg.sum()), d1, d2))
    return rows


def cmd_elliptic_simulate(args) -> RunReport:
    """Trajectory i is run_random on the Philox stream of key (seed, i) at
    counter 0: one Philox, re-keyed to the state a fresh one starts in."""
    cone = elliptic.EllipticCone(args.semi_a, args.semi_b)
    bitgen = np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bitgen), bitgen.state  # counter 0, empty buffer
    timings = dict.fromkeys(("trajectories", "accounting", "output"), 0.0)
    terminations = dict.fromkeys(Termination, 0)
    violations = bad_sum = 0
    max_drift = None
    # rows stream to the output block by block, so memory stays flat in --count
    with _table(args.out, args.format, SIMULATE_COLUMNS) if args.out else \
            contextlib.nullcontext() as write:
        for first in range(0, args.count, SIMULATE_BLOCK):
            t1 = time.monotonic()
            logs = []
            for index in range(first, min(first + SIMULATE_BLOCK, args.count)):
                fresh["state"]["key"][1] = index
                bitgen.state = fresh
                logs.append(elliptic.run_random(cone, rng))
                terminations[logs[-1].termination] += 1
            t2 = time.monotonic()
            rows = _simulate_rows(cone, args.seed, first, logs)
            violations += sum(r[5] >= 0 and r[4] > r[5] for r in rows)
            bad_sum += sum(r[7] >= math.pi for r in rows)
            # builtin max, row by row and then folded over the rows in order
            drifts = [max(r[8], r[9]) for r in rows]
            max_drift = max(drifts if max_drift is None else [max_drift, *drifts])
            t3 = time.monotonic()
            if write:
                write(rows)
            timings["trajectories"] += t2 - t1
            timings["accounting"] += t3 - t2
            timings["output"] += time.monotonic() - t3
    return RunReport(
        command="elliptic simulate",
        config={"semi_a": args.semi_a, "semi_b": args.semi_b, "count": args.count,
                "seed": args.seed, "out": args.out, "format": args.format},
        passed=not violations and not bad_sum,
        checks={"bound_violations": violations, "sum_theta_ge_pi": bad_sum},
        measured={"max_integral_drift": max_drift,
                  "trajectories": args.count,
                  "terminations": {t.value: n for t, n in terminations.items()}},
        timings=timings,
    )


def cmd_elliptic_bound(args) -> int:
    cone = elliptic.EllipticCone(args.semi_a, args.semi_b)
    angle = elliptic.min_vertex_angle(cone, args.c1, args.c2)
    bound = elliptic.reflection_bound(cone, args.c1, args.c2)
    print(f"min vertex angle: {angle:.17g} rad")
    print(f"reflection bound N: {bound}")
    return 0


# ---------------------------------------------------------------------------
# spiral
# ---------------------------------------------------------------------------

def cmd_spiral_verify(args) -> RunReport:
    t0 = time.monotonic()
    kmax = args.kmax
    traj = SpiralTrajectory(args.a, kmax=kmax + 1)
    if traj.k0 >= kmax:  # no k to check, and the length check needs k0 <= kmax - 1
        raise _fail(f"k0 = {traj.k0} for a = {args.a} is not below --kmax {kmax}")
    t1 = time.monotonic()
    ks = np.unique(np.concatenate([
        np.arange(traj.k0, min(traj.k0 + 64, kmax)),
        np.geomspace(max(traj.k0, 1), kmax - 1, 256).astype(int),
    ]))
    ks = ks[(ks >= traj.k0) & (ks < kmax)]

    # one residual array per check; at a shared k the failure reported is the
    # first in this order. The distance floor scales like eps |tan(a - S_k)|
    # when t_k blows up near the admissibility boundary; the flat tol binds elsewhere.
    k_ang = ks[ks > traj.k0]
    k_rec = ks[ks + 1 < kmax]
    alpha, beta = traj.verify_equal_angles(k_ang)
    residuals = {
        "dist": (ks, np.abs(traj.verify_distance(ks)),
                 np.maximum(args.tol, 1e-13 * np.abs(np.tan(traj.tilt(ks))))),
        "equal_angles": (k_ang, np.abs(alpha - beta), 1e-11),
        "alpha_recurrence": (k_rec, np.abs(traj.alpha_closed(k_rec + 1)
                                           - (traj.alpha_closed(k_rec) - spiral.theta(k_rec))), 1e-11),
    }
    failures = [(int(k[dev > tol][0]), order, name)
                for order, (name, (k, dev, tol)) in enumerate(residuals.items()) if np.any(dev > tol)]
    # the failures in the order they are reported: the earliest per-k one,
    # then the length, then the sigma asymptotics
    fails = [(name, k) for k, _, name in sorted(failures)[:1]]
    worst = {name: float(dev.max(initial=0.0)) for name, (_, dev, _) in residuals.items()}
    k_sig = min(kmax, 10_000)
    b_k = float(spiral.sigma(k_sig)) * k_sig**2.5
    sigma_ok = abs(b_k - 3.0 / 16.0) <= 0.01 * (3.0 / 16.0)
    t2 = time.monotonic()

    total = traj.total_length()
    length_infinite = math.isinf(total)
    length_dev = None
    if not length_infinite:
        k_hi = kmax - 1
        partial = float(traj.partial_length(traj.k0, k_hi))
        chords = float(np.sum(traj.chord_length(np.arange(traj.k0, k_hi + 1))))
        length_dev = abs(partial - chords)
        # scale-aware band: near the admissibility boundary the first chord
        # is ~1/margin long and the comparison floor is eps * total
        if length_dev > max(1e-8, 1e-12 * total):
            fails.append(("length", k_hi))
    if not sigma_ok:
        fails.append(("sigma_asymptotics", k_sig))
    t3 = time.monotonic()

    if fails:
        print(f"FAIL at k={fails[0][1]}: {fails[0][0]}", file=sys.stderr)
    return RunReport(
        command="spiral verify",
        config={"a": args.a, "kmax": kmax, "tol": args.tol},
        passed=not fails,
        checks={
            "first_failure": list(fails[0]) if fails else None,
            "length_infinite": length_infinite,
        },
        measured={
            "k0": traj.k0,
            "worst_distance_deviation": worst["dist"],
            "worst_equal_angle_deviation": worst["equal_angles"],
            "worst_alpha_recurrence": worst["alpha_recurrence"],
            "partial_vs_chord_sum": length_dev,
            "total_length": None if length_infinite else total,
            "sigma_b_at_k": {"k": k_sig, "b": b_k},
        },
        timings={"table": t1 - t0, "checks": t2 - t1, "length": t3 - t2},
    )


VERTEX_BLOCK = 65_536  # vertices evaluated and written per block; bounds the memory


def cmd_spiral_vertices(args) -> int:
    traj = SpiralTrajectory(args.a, kmax=args.kmax + 1)
    columns = {"k": "%d", "x1": "%.17g", "x2": "%.17g", "x3": "%.17g"}
    with _table(args.out, args.format, columns) as write:
        for lo in range(traj.k0, args.kmax + 1, VERTEX_BLOCK):
            ks = np.arange(lo, min(lo + VERTEX_BLOCK, args.kmax + 1))
            write(zip(ks.tolist(), *traj.vertex(ks).T.tolist()))
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _build_curve_from_args(args):
    """The section curve for --kmax and --k1-min; exits 2 if it cannot be built."""
    try:
        return curve_mod.build_curve(kmax=args.kmax, k1_min=args.k1_min)
    except (ConstructionError, DomainError) as exc:
        raise _fail(f"curve construction failed: {exc}")


def _curve_table(curve, grid: int) -> dict:
    side = grid // 4  # points on each flat side; the rest resolve the accumulation at xi = 0
    xs = np.concatenate([
        np.linspace(-math.pi + 1e-9, 0.0, side),
        np.geomspace(1e-6, 1.0, grid - 2 * side),
        np.linspace(1.0 + 1e-9, math.pi, side),
    ])
    r, r1, r2 = curve.polar(xs)
    kap = curve.curvature(xs)
    return {
        "schema_version": SCHEMA_VERSION,
        "k1": curve.k1,
        "kmax": curve.kmax,
        "xi": xs.tolist(),
        "rho": np.asarray(r).tolist(),
        "drho": np.asarray(r1).tolist(),
        "d2rho": np.asarray(r2).tolist(),
        "kappa": np.asarray(kap).tolist(),
    }


def _curve_svg(curve) -> str:
    # main panel: gamma vs the unit circle
    main = svgplot.SvgCanvas(560, 560, (-1.25, 1.25), (-1.25, 1.25))
    ang = np.linspace(-math.pi, math.pi, 2048)
    main.polyline(np.stack([np.cos(ang), np.sin(ang)], axis=-1), stroke="#999999", dashed=True)
    r = np.asarray(curve.polar(ang)[0])
    main.polyline(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1), stroke="#1f77b4")
    main.text(-1.2, 1.15, "section curve vs unit circle", size=14)

    # zoom panel: deviation rho - 1 near xi = 0, log-x
    zoom = svgplot.SvgCanvas(560, 280, (math.log10(1e-3), 0.0), (-1.0, 1.0))
    xs = np.geomspace(1e-3, 1.0, 4000)
    dev = curve.deviation(xs)[0]
    mx = np.abs(dev).max()
    scale = mx if mx > 0 else 1.0
    zoom.polyline(np.stack([np.log10(xs), dev / scale], axis=-1), stroke="#1f77b4")
    zoom.polyline([(-3.0, 0.0), (0.0, 0.0)], stroke="#999999", dashed=True)
    zoom.text(-2.95, 0.85, f"(rho-1)/{scale:.3e} vs log10 xi", size=12)
    return svgplot.document([(main, (0.0, 0.0)), (zoom, (0.0, 570.0))], 560, 860)


def cmd_curve_build(args) -> RunReport:
    t0 = time.monotonic()
    curve = _build_curve_from_args(args)
    t1 = time.monotonic()
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "curve.json").write_text(json.dumps(_curve_table(curve, args.grid)) + "\n")
    (out_dir / "curve.svg").write_text(_curve_svg(curve))
    t2 = time.monotonic()

    ks = np.unique(np.geomspace(max(curve.k1 + 1, 100), min(curve.kmax - 2, 50_000), 24).astype(int))
    kap_min = float(curve.curvature(curve.window_samples(ks, 96)).min())
    k_lo, k_hi = curve.k1 + 1, min(curve.k1 + 2000, curve.kmax - 2)
    census = curve_mod.sign_change_census(curve, k_lo, k_hi)
    return RunReport(
        command="curve build",
        config={"kmax": args.kmax, "k1_min": args.k1_min, "grid": args.grid, "out": str(out_dir)},
        passed=kap_min > curve_mod.KAPPA_MIN,
        checks={"kappa_min_sampled": kap_min,
                "sign_changes_first_2000": census,
                "sign_change_windows": max(0, k_hi - k_lo + 1)},
        measured={"k1": curve.k1, "bump_constant": curve_mod.bump_constant()},
        timings={"build": t1 - t0, "output": t2 - t1, "checks": time.monotonic() - t2},
    )


def cmd_curve_export(args) -> int:
    table = _curve_table(_build_curve_from_args(args), args.grid)
    if args.format == "json":
        with _output(args.out) as out:
            out.write(json.dumps(table) + "\n")
    else:
        columns = dict.fromkeys(("xi", "rho", "drho", "d2rho", "kappa"), "%.17g")
        with _table(args.out, "csv", columns) as write:
            write(zip(*(table[c] for c in columns)))
    return 0


def cmd_replay(args) -> RunReport:
    t0 = time.monotonic()
    params = SpiralParams(a=args.a)  # --a is refused before the curve is built
    curve = _build_curve_from_args(args)
    t1 = time.monotonic()
    rep = curve_mod.replay(curve, params, steps=args.steps, strict=False)
    if not rep.passed:
        print(f"replay failed: {rep.failure()}", file=sys.stderr)
    length_infinite = math.isinf(rep.total_length)  # at a = pi/2, with the remaining length
    return RunReport(
        command="replay",
        config={"a": args.a, "steps": args.steps, "kmax": args.kmax, "k1_min": args.k1_min},
        passed=rep.passed,
        checks={
            "max_vertex_rel_error": rep.max_vertex_rel_error,
            "max_distance_sq_error": rep.max_distance_sq_error,
            "length_infinite": length_infinite,
            "termination": None if rep.termination is None else rep.termination.value,
            "first_bad_k": rep.first_bad_k,
        },
        measured={
            "start_k": rep.start_k,
            "flight_length": rep.simulated_length,
            "prefix_length": rep.prefix_length,
            "closed_form_length": rep.closed_form_length,
            "remaining_length": None if length_infinite else rep.tail_length,
            "total_length": None if length_infinite else rep.total_length,
        },
        timings={"build": t1 - t0, "replay": time.monotonic() - t1},
    )


def cmd_ndim_check(args) -> RunReport:
    t0 = time.monotonic()
    params = SpiralParams(a=args.a)  # --a is refused before the curve is built
    curve = _build_curve_from_args(args)
    t_build = time.monotonic()
    section = ndim.LiftedSection(curve, n=args.n)
    rep = ndim.negdef_check(section, grid_target=args.grid, strict=False)
    if not rep.passed:
        print(f"convexity failed: Hessian not negative definite: max eigenvalue {rep.max_eigenvalue}",
              file=sys.stderr)
    t_negdef = time.monotonic()
    traj = SpiralTrajectory(params.a, kmax=curve.kmax + 1)
    emb = ndim.embedded_reflection_check(section, traj, count=args.steps)
    t_embed = time.monotonic()
    return RunReport(
        command="ndim check",
        config={"n": args.n, "grid": args.grid, "a": args.a, "steps": args.steps},
        passed=(rep.passed and emb.max_tangential_residual < 1e-10
                and emb.max_perpendicular_residual == 0.0),
        checks=asdict(rep),
        measured={
            "embedded_max_tangential_residual": emb.max_tangential_residual,
            "embedded_max_perpendicular_residual": emb.max_perpendicular_residual,
        },
        timings={"build": t_build - t0, "negdef": t_negdef - t_build, "embed": t_embed - t_negdef},
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FLAGS = {
    "--out": dict(default=None, help="output file or directory"),
    "--report": dict(default=None, help="write the JSON run report here"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--seed": dict(type=_bounded(int, 0, 2**64 - 1), default=20250801),  # a Philox key word
    # positive and finite: a nan or inf threshold passes every distance
    "--tol": dict(type=_bounded(float, 5e-324, sys.float_info.max), default=1e-10,
                  help="spiral verify's distance threshold is "
                  "max(TOL, 1e-13 |tan A_k|): TOL below that floor has no effect"),
    "--semi-a": dict(type=float, default=2.0),
    "--semi-b": dict(type=float, default=1.0),
    "--a": dict(type=float, default=0.0),
    "--steps": dict(type=_bounded(int, 1, MAX_STEPS), default=1000),
}


def _command(sub, name: str, func, help: str, *flags: str) -> argparse.ArgumentParser:
    """The subcommand that runs func, with the shared flags it reads, and only those."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    return p


def _curve_command(sub, name: str, func, help: str, *flags: str) -> argparse.ArgumentParser:
    """A command that builds the section curve from --kmax and --k1-min."""
    p = _command(sub, name, func, help, *flags)
    p.add_argument("--kmax", type=_bounded(int, 1, MAX_KMAX), default=130_000)
    p.add_argument("--k1-min", type=int, default=9)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="billiards",
        description="billiard dynamics inside cones: simulation and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    se = sub.add_parser("elliptic", help="elliptic-cone billiard").add_subparsers(
        dest="subcommand", required=True)
    _command(se, "simulate", cmd_elliptic_simulate, "random trajectory batch with bound checks",
             "--semi-a", "--semi-b", "--out", "--report", "--format", "--seed",
             ).add_argument("--count", type=_bounded(int, 1, MAX_COUNT), default=1000)
    bnd = _command(se, "bound", cmd_elliptic_bound, "print the reflection bound for (c1, c2)",
                   "--semi-a", "--semi-b")
    bnd.add_argument("--c1", type=float, required=True)
    bnd.add_argument("--c2", type=float, required=True)

    ss = sub.add_parser("spiral", help="closed-form trajectory checks").add_subparsers(
        dest="subcommand", required=True)
    # the 3/16 k^(-5/2) law of sigma_k is within its 1 % band from k = 9 on
    _command(ss, "verify", cmd_spiral_verify, "distance/angle/length/sigma suites",
             "--a", "--report", "--tol",
             ).add_argument("--kmax", type=_bounded(int, 9, MAX_KMAX), default=100_000)
    _command(ss, "vertices", cmd_spiral_vertices, "emit the vertex table",
             "--a", "--out", "--format",
             ).add_argument("--kmax", type=_bounded(int, 1, MAX_KMAX), default=1000)

    sc = sub.add_parser("curve", help="build/export the C2 section curve").add_subparsers(
        dest="subcommand", required=True)
    for p in (_curve_command(sc, "build", cmd_curve_build,
                             "build the curve, write JSON table + SVG", "--out", "--report"),
              _curve_command(sc, "export", cmd_curve_export, "emit the curve table",
                             "--out", "--format")):
        p.add_argument("--grid", type=_bounded(int, 4, MAX_GRID), default=2000)

    _curve_command(sub, "replay", cmd_replay, "simulate on the built cone vs closed form",
                   "--a", "--steps", "--report")

    sn = sub.add_parser("ndim", help="R^n convexity and embedding checks").add_subparsers(
        dest="subcommand", required=True)
    chk = _curve_command(sn, "check", cmd_ndim_check, "Hessian sweep + embedded reflections",
                         "--a", "--steps", "--report")
    chk.add_argument("--n", type=_bounded(int, 3, MAX_N), default=4)
    chk.add_argument("--grid", type=_bounded(int, 1, MAX_GRID), default=10_000)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; a command with a run report returns it, and main
    stamps its wall time, writes it to --report and exits 0 if it passed."""
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        result = args.func(args)
    except DomainError as exc:
        raise _fail(str(exc))
    if not isinstance(result, RunReport):
        return result
    result.wall_time_s = time.monotonic() - t0
    result.dump(args.report)
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
