"""Command-line surface: simulation batches, verification suites, and
figure/CSV emission.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage or
configuration.  Every command is deterministic under a fixed seed; numbers
are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__, curve as curve_mod, elliptic, ndim, spiral, svgplot
from .errors import ConstructionError, ConvexityFailure, DomainError, ReplayFailure, Termination
from .spiral import SpiralParams, SpiralTrajectory

SCHEMA_VERSION = 1


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class RunReport:
    command: str
    config: dict
    passed: bool
    checks: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def dump(self, out: Optional[str]) -> None:
        text = json.dumps(asdict(self), indent=2, default=float) + "\n"
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)


def _fail(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


# Upper limits of the size flags, checked before anything is built.
MAX_COUNT = 100_000      # elliptic simulate --count: one row per trajectory
MAX_KMAX = 1_000_000     # every --kmax: tail and sigma tables of kmax + 2 entries
MAX_GRID = 100_000       # curve and ndim --grid
MAX_N = 6                # ndim check --n: the Hessian grid has dimension n - 2
MAX_STEPS = 10_000       # replay and ndim check --steps


def _check_size(flag: str, value: int, lo: int, hi: int) -> None:
    """Exit 2 unless lo <= value <= hi."""
    if not lo <= value <= hi:
        raise _fail(f"need {lo} <= {flag} <= {hi}, got {value}")


# ---------------------------------------------------------------------------
# elliptic
# ---------------------------------------------------------------------------

def _one_trajectory(cone, seed: int, index: int) -> tuple:
    """The CSV row of trajectory ``index`` and how it ended."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    log = elliptic.run_random(cone, rng)
    integrals = log.integrals()
    c1, c2 = integrals.I1[0], integrals.I2[0]
    th = log.thetas()
    d1, d2 = log.integral_drift()
    bound = elliptic.reflection_bound(cone, c1, c2) if c2 > 0.0 else -1
    return {
        "index": index,
        "seed": seed,
        "c1": c1,
        "c2": c2,
        "reflections": log.reflection_count,
        "bound": bound,
        "max_theta": float(th.max()) if th.size else 0.0,
        "sum_theta": float(th.sum()),
        "drift_i1": d1,
        "drift_i2": d2,
    }, log.termination


def cmd_elliptic_simulate(args) -> int:
    _check_size("--count", args.count, 1, MAX_COUNT)
    cone = elliptic.EllipticCone(args.semi_a, args.semi_b)
    t0 = time.monotonic()
    rows, ends = zip(*(_one_trajectory(cone, args.seed, i) for i in range(args.count)))

    violations = [r for r in rows if r["bound"] >= 0 and r["reflections"] > r["bound"]]
    bad_sum = [r for r in rows if r["sum_theta"] >= math.pi]
    max_drift = max(max(r["drift_i1"], r["drift_i2"]) for r in rows)

    if args.out:
        cols = ["index", "seed", "c1", "c2", "reflections", "bound",
                "max_theta", "sum_theta", "drift_i1", "drift_i2"]
        if args.format == "csv":
            lines = [",".join(cols)]
            for r in rows:
                lines.append(",".join(
                    str(r[c]) if isinstance(r[c], int) else _g17(r[c]) for c in cols
                ))
            Path(args.out).write_text("\n".join(lines) + "\n")
        else:
            Path(args.out).write_text(json.dumps(rows, indent=1, default=float) + "\n")

    report = RunReport(
        command="elliptic simulate",
        config={"semi_a": args.semi_a, "semi_b": args.semi_b, "count": args.count,
                "seed": args.seed, "out": args.out, "format": args.format},
        passed=not violations and not bad_sum,
        checks={
            "bound_violations": len(violations),
            "sum_theta_ge_pi": len(bad_sum),
        },
        measured={"max_integral_drift": max_drift,
                  "trajectories": len(rows),
                  "terminations": {t.value: ends.count(t) for t in Termination}},
        wall_time_s=time.monotonic() - t0,
    )
    report.dump(args.report)
    return 0 if report.passed else 1


def cmd_elliptic_bound(args) -> int:
    cone = elliptic.EllipticCone(args.semi_a, args.semi_b)
    angle = elliptic.min_vertex_angle(cone, args.c1, args.c2)
    bound = elliptic.reflection_bound(cone, args.c1, args.c2)
    print(f"min vertex angle: {_g17(angle)} rad")
    print(f"reflection bound N: {bound}")
    return 0


# ---------------------------------------------------------------------------
# spiral
# ---------------------------------------------------------------------------

def cmd_spiral_verify(args) -> int:
    # the 3/16 k^(-5/2) law of sigma_k is within its 1 % band from k = 9 on
    _check_size("--kmax", args.kmax, 9, MAX_KMAX)
    if not 0.0 < args.tol < math.inf:  # a nan or inf threshold passes every distance
        raise _fail(f"need 0 < --tol < inf, got {args.tol}")
    params = SpiralParams(a=args.a)
    t0 = time.monotonic()
    kmax = args.kmax
    traj = SpiralTrajectory(params.a, kmax=kmax + 1)
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
    first_fail = None
    if failures:
        k, _, name = min(failures)
        first_fail = (name, k)
    worst = {name: float(dev.max(initial=0.0)) for name, (_, dev, _) in residuals.items()}

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
        if length_dev > max(1e-8, 1e-12 * total) and first_fail is None:
            first_fail = ("length", k_hi)

    k_sig = min(kmax, 10_000)
    b_k = float(spiral.sigma(k_sig)) * k_sig**2.5
    sigma_ok = abs(b_k - 3.0 / 16.0) <= 0.01 * (3.0 / 16.0)
    if not sigma_ok and first_fail is None:
        first_fail = ("sigma_asymptotics", k_sig)

    report = RunReport(
        command="spiral verify",
        config={"a": args.a, "kmax": kmax, "tol": args.tol},
        passed=first_fail is None,
        checks={
            "first_failure": list(first_fail) if first_fail else None,
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
        wall_time_s=time.monotonic() - t0,
    )
    report.dump(args.report)
    if first_fail is not None:
        print(f"FAIL at k={first_fail[1]}: {first_fail[0]}", file=sys.stderr)
        return 1
    return 0


VERTEX_BLOCK = 65_536  # vertices formatted per block; bounds the Python objects alive
CSV_ROW = "%d,%.17g,%.17g,%.17g\n"
# one element of json.dumps(rows, indent=1), which prints a float as its repr
JSON_ROW = '{\n  "k": %d,\n  "x1": %r,\n  "x2": %r,\n  "x3": %r\n }'


def _vertex_rows(ks: np.ndarray, pts: np.ndarray, fmt: str):
    """fmt % (k, x1, x2, x3) for each vertex, in order."""
    for lo in range(0, ks.size, VERTEX_BLOCK):
        hi = lo + VERTEX_BLOCK
        yield from (fmt % row for row in zip(ks[lo:hi].tolist(), *pts[lo:hi].T.tolist()))


def cmd_spiral_vertices(args) -> int:
    _check_size("--kmax", args.kmax, 1, MAX_KMAX)
    params = SpiralParams(a=args.a)
    traj = SpiralTrajectory(params.a, kmax=args.kmax + 1)
    ks = np.arange(traj.k0, args.kmax + 1)
    pts = traj.vertex(ks)
    # rows stream to the output, so memory stays flat in kmax
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if args.format == "csv":
            out.write("k,x1,x2,x3\n")
            out.writelines(_vertex_rows(ks, pts, CSV_ROW))
        else:
            out.write("[")
            out.writelines(("\n " if i == 0 else ",\n ") + row
                           for i, row in enumerate(_vertex_rows(ks, pts, JSON_ROW)))
            out.write("\n]\n" if ks.size else "]\n")
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _build_curve_from_args(args):
    """The section curve for --a, --kmax and --k1-min; exits 2 if it cannot be built."""
    if args.kmax > MAX_KMAX:
        raise _fail(f"need --kmax <= {MAX_KMAX}, got {args.kmax}")
    try:
        return curve_mod.build_curve(SpiralParams(a=args.a), kmax=args.kmax, k1_min=args.k1_min)
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
    # main panel: gamma vs the unit circle with q_k markers
    main = svgplot.SvgCanvas(560, 560, (-1.25, 1.25), (-1.25, 1.25))
    ang = np.linspace(-math.pi, math.pi, 2048)
    main.polyline(np.stack([np.cos(ang), np.sin(ang)], axis=-1), stroke="#999999", dashed=True)
    r = np.asarray(curve.polar(ang)[0])
    main.polyline(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1), stroke="#1f77b4")
    for k in range(max(2, curve.k1 - 3), min(curve.kmax, 40)):
        x = float(spiral.xi(k))
        rho_k = float(curve.polar(x)[0])
        main.circle_marker(rho_k * math.cos(x), rho_k * math.sin(x), r=2.0)
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


def cmd_curve_build(args) -> int:
    _check_size("--grid", args.grid, 4, MAX_GRID)
    t0 = time.monotonic()
    curve = _build_curve_from_args(args)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "curve.json").write_text(json.dumps(_curve_table(curve, args.grid)) + "\n")
    (out_dir / "curve.svg").write_text(_curve_svg(curve))

    ks = np.unique(np.geomspace(max(curve.k1 + 1, 100), min(curve.kmax - 2, 50_000), 24).astype(int))
    kap_min = float(curve.curvature(curve.window_samples(ks, 96)).min())
    census = curve_mod.sign_change_census(curve, curve.k1 + 1, min(curve.k1 + 2000, curve.kmax - 2))

    report = RunReport(
        command="curve build",
        config={"a": args.a, "kmax": args.kmax, "k1_min": args.k1_min, "grid": args.grid,
                "out": str(out_dir)},
        passed=kap_min > 0.5,
        checks={"kappa_min_sampled": kap_min,
                "sign_changes_first_2000": census},
        measured={"k1": curve.k1, "bump_constant": curve_mod.bump_constant()},
        wall_time_s=time.monotonic() - t0,
    )
    report.dump(args.report)
    return 0 if report.passed else 1


def cmd_curve_export(args) -> int:
    _check_size("--grid", args.grid, 4, MAX_GRID)
    curve = _build_curve_from_args(args)
    table = _curve_table(curve, args.grid)
    if args.format == "csv":
        lines = ["xi,rho,drho,d2rho,kappa"]
        for i in range(len(table["xi"])):
            lines.append(",".join(_g17(table[c][i]) for c in ("xi", "rho", "drho", "d2rho", "kappa")))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(table) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_replay(args) -> int:
    _check_size("--steps", args.steps, 1, MAX_STEPS)
    t0 = time.monotonic()
    params = SpiralParams(a=args.a)
    curve = _build_curve_from_args(args)
    try:
        rep = curve_mod.replay(curve, params, steps=args.steps, strict=True)
    except ReplayFailure as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    report = RunReport(
        command="replay",
        config={"a": args.a, "steps": args.steps, "kmax": args.kmax, "k1_min": args.k1_min},
        passed=True,
        checks={
            "max_vertex_rel_error": rep.max_vertex_rel_error,
            "max_distance_sq_error": rep.max_distance_sq_error,
        },
        measured={
            "start_k": rep.start_k,
            "flight_length": rep.simulated_length,
            "prefix_length": rep.prefix_length,
            "closed_form_length": rep.closed_form_length,
            "remaining_length": rep.tail_length,
            "total_length": rep.total_length,
        },
        wall_time_s=time.monotonic() - t0,
    )
    report.dump(args.report)
    return 0


def cmd_ndim_check(args) -> int:
    _check_size("--n", args.n, 3, MAX_N)
    _check_size("--grid", args.grid, 1, MAX_GRID)
    _check_size("--steps", args.steps, 1, MAX_STEPS)
    t0 = time.monotonic()
    curve = _build_curve_from_args(args)
    section = ndim.LiftedSection(curve, n=args.n)
    try:
        rep = ndim.negdef_check(section, grid_target=args.grid, strict=True)
    except ConvexityFailure as exc:
        print(f"convexity failed: {exc}", file=sys.stderr)
        return 1
    traj = SpiralTrajectory(args.a, kmax=max(curve.kmax, 10_000))
    emb = ndim.embedded_reflection_check(section, traj, count=args.steps)
    passed = emb.max_tangential_residual < 1e-10 and emb.max_perpendicular_residual == 0.0
    report = RunReport(
        command="ndim check",
        config={"n": args.n, "grid": args.grid, "a": args.a, "steps": args.steps},
        passed=passed,
        checks=asdict(rep),
        measured={
            "embedded_max_tangential_residual": emb.max_tangential_residual,
            "embedded_max_perpendicular_residual": emb.max_perpendicular_residual,
        },
        wall_time_s=time.monotonic() - t0,
    )
    report.dump(args.report)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FLAGS = {
    "--out": dict(default=None, help="output file or directory"),
    "--report": dict(default=None, help="write the JSON run report here"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--seed": dict(type=int, default=20250801),
    "--tol": dict(type=float, default=1e-10, help="spiral verify's distance threshold is "
                  "max(TOL, 1e-13 |tan A_k|): TOL below that floor has no effect"),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Attach the shared flags a command reads, and only those."""
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiards",
        description="billiard dynamics inside cones: simulation and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("elliptic", help="elliptic-cone billiard")
    se = pe.add_subparsers(dest="subcommand", required=True)
    sim = se.add_parser("simulate", help="random trajectory batch with bound checks")
    sim.add_argument("--semi-a", type=float, default=2.0)
    sim.add_argument("--semi-b", type=float, default=1.0)
    sim.add_argument("--count", type=int, default=1000)
    _add_flags(sim, "--out", "--report", "--format", "--seed")
    sim.set_defaults(func=cmd_elliptic_simulate)
    bnd = se.add_parser("bound", help="print the reflection bound for (c1, c2)")
    bnd.add_argument("--semi-a", type=float, default=2.0)
    bnd.add_argument("--semi-b", type=float, default=1.0)
    bnd.add_argument("--c1", type=float, required=True)
    bnd.add_argument("--c2", type=float, required=True)
    bnd.set_defaults(func=cmd_elliptic_bound)

    ps = sub.add_parser("spiral", help="closed-form trajectory checks")
    ss = ps.add_subparsers(dest="subcommand", required=True)
    ver = ss.add_parser("verify", help="distance/angle/length/sigma suites")
    ver.add_argument("--a", type=float, default=0.0)
    ver.add_argument("--kmax", type=int, default=100_000)
    _add_flags(ver, "--report", "--tol")
    ver.set_defaults(func=cmd_spiral_verify)
    vtx = ss.add_parser("vertices", help="emit the vertex table")
    vtx.add_argument("--a", type=float, default=0.0)
    vtx.add_argument("--kmax", type=int, default=1000)
    _add_flags(vtx, "--out", "--format")
    vtx.set_defaults(func=cmd_spiral_vertices)

    pc = sub.add_parser("curve", help="build/export the C2 section curve")
    sc = pc.add_subparsers(dest="subcommand", required=True)
    bld = sc.add_parser("build", help="build the curve, write JSON table + SVG")
    bld.add_argument("--a", type=float, default=0.0)
    bld.add_argument("--kmax", type=int, default=130_000)
    bld.add_argument("--k1-min", type=int, default=9)
    bld.add_argument("--grid", type=int, default=2000)
    _add_flags(bld, "--out", "--report")
    bld.set_defaults(func=cmd_curve_build)
    exp = sc.add_parser("export", help="emit the curve table")
    exp.add_argument("--a", type=float, default=0.0)
    exp.add_argument("--kmax", type=int, default=130_000)
    exp.add_argument("--k1-min", type=int, default=9)
    exp.add_argument("--grid", type=int, default=2000)
    _add_flags(exp, "--out", "--format")
    exp.set_defaults(func=cmd_curve_export)

    pr = sub.add_parser("replay", help="simulate on the built cone vs closed form")
    pr.add_argument("--a", type=float, default=0.0)
    pr.add_argument("--steps", type=int, default=1000)
    pr.add_argument("--kmax", type=int, default=130_000)
    pr.add_argument("--k1-min", type=int, default=9)
    _add_flags(pr, "--report")
    pr.set_defaults(func=cmd_replay)

    pn = sub.add_parser("ndim", help="R^n convexity and embedding checks")
    sn = pn.add_subparsers(dest="subcommand", required=True)
    chk = sn.add_parser("check", help="Hessian sweep + embedded reflections")
    chk.add_argument("--n", type=int, default=4)
    chk.add_argument("--grid", type=int, default=10_000)
    chk.add_argument("--a", type=float, default=0.0)
    chk.add_argument("--steps", type=int, default=1000)
    chk.add_argument("--kmax", type=int, default=130_000)
    chk.add_argument("--k1-min", type=int, default=9)
    _add_flags(chk, "--report")
    chk.set_defaults(func=cmd_ndim_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        raise _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
