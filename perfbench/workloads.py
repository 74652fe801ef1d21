"""The benchmark workloads and the oracles their outputs are checked against.

Each workload splits a round into ``execute`` (timed: only calls into the
package's public functions) and ``check`` (untimed: oracles, failure
accounting, accuracy figures).  Inputs come from the workload seed only.

- replay:   criterion 8.  One main segment of the finite-time witness on
            the default C2 cone, plus seed-drawn short probe segments run
            once per process and kept out of the timing.
- ensemble: criterion 3 through ``billiards elliptic simulate`` for the
            three criterion-3 shapes; rounds cycle through a fixed number
            of seed-drawn input sets.
- verify:   criteria 7 and 9 plus ``billiards spiral verify`` on windows
            the seed draws; the number of windows is fixed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from conebilliards import cli, elliptic, geometry, ndim, spiral
from conebilliards import curve as curve_mod
from conebilliards.spiral import SpiralParams, SpiralTrajectory

KMAX = 130_000            # the default cone of criterion 8 and the CLI
K1_MIN = 9                # the CLI default; the R^n lift needs k1 >= 9
PROBE_K_HI = 100_000      # probe starts spread over the decades up to here
VERTEX_TOL = 1e-7         # relative vertex error a replayed vertex may have
DIST_SQ_TOL = 1e-8        # allowed |d^2 - 2| of a replayed chord
LENGTH_TOL = 1e-6         # simulated vs closed-form flight length (criterion 8)
KAPPA_MIN = 0.5           # curvature floor of the built curve (criterion 7)
CONTINUITY_TOL = 1e-10    # junction jump in rho, rho', rho'' (criterion 7)
SLOPE_TOL = 0.15          # decay-exponent band (criterion 7)
EMBED_TOL = 1e-10         # tangential residual of the lift (criterion 9)
SHAPES = ((2.0, 1.0), (3.0, 2.0), (1.5, 1.2))   # the criterion-3 cones
# Reflection counts are heavy-tailed: one start in ~1e4 has a bound above
# 1e5 and can take over a minute.  Rounds whose largest bound exceeds this
# are drawn again so a run stays within its time limit; the longest
# trajectory allowed is still over 3000 times the mean.
MAX_BOUND = 20_000
CSV_COLUMNS = ["index", "seed", "c1", "c2", "reflections", "bound",
               "max_theta", "sum_theta", "drift_i1", "drift_i2"]


@dataclass(frozen=True)
class Sizes:
    """Work per round.  FULL is the benchmark; TINY keeps its tests quick."""

    setup_reps: int = 3
    min_rounds: int = 3
    main_steps: int = 100
    probes: int = 5
    probe_steps: int = 8
    ensemble_count: int = 100
    ensemble_inputs: int = 60     # distinct input sets the ensemble rounds cycle through
    kappa_windows: int = 550
    flat_points: int = 10_000
    junctions: int = 5000
    census_ranges: int = 4
    census_len: int = 500
    hessian_grid: int = 5000
    embed_count: int = 500
    spiral_kmax: int = 50_000


FULL = Sizes()
TINY = Sizes(setup_reps=1, min_rounds=1, main_steps=3, probes=2, probe_steps=2,
             ensemble_count=6, ensemble_inputs=2, kappa_windows=12, flat_points=200,
             junctions=100, census_ranges=2, census_len=5, hessian_grid=300, embed_count=20,
             spiral_kmax=2000)


@dataclass
class Outcome:
    """What one checked pass produced."""

    ops: int = 0
    failed: int = 0
    ok: bool = True                  # every oracle held (probes aside)
    figures: dict = field(default_factory=dict)
    reflections: int = 0
    trajectories: int = 0
    digest: str = ""
    notes: list = field(default_factory=list)

    def fail(self, note: str, counts_as_op_failure: bool = True) -> None:
        self.ok = False
        if counts_as_op_failure:
            self.failed += 1
        self.notes.append(note)


class NullTracer:
    """Stand-in used by untraced rounds: spans cost one no-op context."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _deviation_target(built, tracer) -> tuple:
    """The built curve's deviation, split into scalar and array calls."""
    return (built, "deviation", tracer.wrap(
        lambda a: "curve.deviation_scalar" if np.ndim(a[0]) == 0 else "curve.deviation_vec",
        built.deviation, points=lambda a: int(np.size(a[0])) if np.ndim(a[0]) else 0))


def _fresh_path(scratch: Path, stem: str, suffix: str) -> Path:
    """A file name not used before in this process.

    Rewriting the same file every round added a disk wait to the timed part
    (ext4 flushes a file that is truncated and written again); a new name
    avoids it.  The caller removes the file once checked.
    """
    return scratch / f"{stem}-{next(_FILE_IDS)}{suffix}"


_FILE_IDS = itertools.count()


def _build_cone(first: bool) -> tuple:
    """(curve, table_s, build_s): the tail table and the default cone.

    The first build fills the process-wide table that replay reuses; later
    builds redo the same work on a fresh table so set-up can be repeated.
    """
    t0 = perf_counter()
    if first:
        spiral.shared_tail_table(KMAX)
    else:
        spiral.TailTable(KMAX)
    t1 = perf_counter()
    built = curve_mod.build_curve(SpiralParams(a=0.0), kmax=KMAX, k1_min=K1_MIN)
    t2 = perf_counter()
    return built, t1 - t0, t2 - t1


class Replay:
    name = "replay"

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed = seed
        self.sizes = sizes
        self.params = SpiralParams(a=0.0)
        self.curve = None

    def input_sets(self) -> int:
        return 1

    def setup(self, first: bool) -> dict:
        self.curve, table_s, build_s = _build_cone(first)
        return {"spiral.table_s": table_s, "curve.build_s": build_s}

    def probe_starts(self) -> list:
        """One start per stratum of a log grid from k1+1 to PROBE_K_HI."""
        rng = np.random.default_rng([self.seed, 1])
        edges = np.log(np.geomspace(self.curve.k1 + 1, PROBE_K_HI, self.sizes.probes + 1))
        return [int(math.exp(rng.uniform(lo, hi))) for lo, hi in zip(edges[:-1], edges[1:])]

    def prepare(self, r: int):
        return r

    def first_pass(self) -> Outcome:
        """The probes: attempted once per process, never timed."""
        out = Outcome()
        starts = self.probe_starts()
        for start in starts:
            out.ops += 1
            rep = curve_mod.replay(self.curve, self.params, steps=self.sizes.probe_steps,
                                   start_k=start, strict=False)
            if (rep.escaped or rep.max_vertex_rel_error > VERTEX_TOL
                    or rep.max_distance_sq_error > DIST_SQ_TOL):
                out.failed += 1
                out.notes.append(f"probe k={start}: escaped={rep.escaped}, "
                                 f"vertex err {rep.max_vertex_rel_error:.3g}")
        out.figures["probe_starts"] = starts
        return out

    def execute(self, r: int, tracer):
        with tracer.span("curve.replay"):
            return curve_mod.replay(self.curve, self.params, steps=self.sizes.main_steps,
                                    strict=False)

    def check(self, rep) -> Outcome:
        out = Outcome(ops=1, reflections=rep.steps)
        if rep.escaped:
            out.fail("main segment escaped")
        elif rep.max_vertex_rel_error > VERTEX_TOL or rep.max_distance_sq_error > DIST_SQ_TOL:
            out.fail(f"main segment off the closed form: vertex err "
                     f"{rep.max_vertex_rel_error:.3g}, |d^2-2| {rep.max_distance_sq_error:.3g}")
        elif abs(rep.simulated_length - rep.closed_form_length) > LENGTH_TOL:
            out.fail(f"flight length {rep.simulated_length!r} vs closed form "
                     f"{rep.closed_form_length!r}")
        tiling = rep.prefix_length + rep.closed_form_length + rep.tail_length
        if abs(tiling - rep.total_length) > 1e-12:
            out.fail("length pieces do not tile the total", counts_as_op_failure=False)
        out.figures = {
            "vertex_err_max": rep.max_vertex_rel_error,
            "dist_sq_err_max": rep.max_distance_sq_error,
            "flight_length": rep.simulated_length,
        }
        out.digest = _digest(sorted(out.figures.items()))
        return out

    def trace_targets(self, tracer) -> list:
        return [
            _deviation_target(self.curve, tracer),
            (curve_mod, "cone_step_precise",
             tracer.wrap("geometry.step", curve_mod.cone_step_precise)),
            (geometry, "reflect_direction",
             tracer.wrap("geometry.reflect", geometry.reflect_direction)),
            (SpiralTrajectory, "vertex", tracer.wrap("spiral.vertex", SpiralTrajectory.vertex)),
        ]


class Ensemble:
    name = "ensemble"

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.cones = None

    def input_sets(self) -> int:
        return self.sizes.ensemble_inputs

    def setup(self, first: bool) -> dict:
        self.cones = [elliptic.EllipticCone(a, b) for a, b in SHAPES]
        return {}

    def first_pass(self) -> Outcome:
        return Outcome()

    def max_bound(self, cone, seed: int) -> int:
        """Largest reflection bound among the starts ``simulate --seed`` draws.

        Trajectory i of the CLI samples its start first, from the Philox
        stream keyed (seed, i).
        """
        worst = 0
        for i in range(self.sizes.ensemble_count):
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            pair = elliptic.integral_pair(cone, elliptic.sample_start(cone, rng))
            if pair.I2 > 0.0:
                worst = max(worst, elliptic.reflection_bound(cone, pair.I1, pair.I2))
        return worst

    def prepare(self, r: int) -> list:
        """Per-shape CLI seeds of input set r: the first candidates within MAX_BOUND."""
        seeds = []
        for i, cone in enumerate(self.cones):
            for attempt in itertools.count():
                seed = int(np.random.SeedSequence([self.seed, r, i, attempt]).generate_state(1)[0])
                if self.max_bound(cone, seed) <= MAX_BOUND:
                    break
            seeds.append(seed)
        return seeds

    def execute(self, seeds: list, tracer):
        runs = []
        for i, ((a, b), seed) in enumerate(zip(SHAPES, seeds)):
            csv_path = _fresh_path(self.scratch, f"ensemble-{i}", ".csv")
            report_path = _fresh_path(self.scratch, f"ensemble-{i}", ".json")
            argv = ["elliptic", "simulate", "--semi-a", repr(a), "--semi-b", repr(b),
                    "--count", str(self.sizes.ensemble_count), "--seed", str(seed),
                    "--out", str(csv_path), "--report", str(report_path)]
            with tracer.span("cli.simulate"):
                rc = cli.main(argv)
            runs.append((rc, seed, csv_path, report_path))
        return runs

    def check(self, runs) -> Outcome:
        out = Outcome()
        drift = 0.0
        slack = math.inf
        blobs = []
        for cone, (rc, seed, csv_path, report_path) in zip(self.cones, runs):
            blob = csv_path.read_bytes()
            blobs.append(blob)
            reader = csv.DictReader(blob.decode().splitlines())
            rows = list(reader)
            report = json.loads(report_path.read_text())
            csv_path.unlink()
            report_path.unlink()
            if (reader.fieldnames != CSV_COLUMNS
                    or [int(r["index"]) for r in rows] != list(range(self.sizes.ensemble_count))):
                out.fail(f"seed {seed}: rows are not trajectories 0..count-1",
                         counts_as_op_failure=False)
            violations = failures = 0
            for row in rows:
                out.ops += 1
                out.trajectories += 1
                c1, c2 = float(row["c1"]), float(row["c2"])
                refl, bound = int(row["reflections"]), int(row["bound"])
                out.reflections += refl
                expected = elliptic.reflection_bound(cone, c1, c2) if c2 > 0.0 else -1
                if bound != expected or int(row["seed"]) != seed:
                    out.fail(f"seed {seed} row {row['index']}: bound/seed column wrong",
                             counts_as_op_failure=False)
                drift = max(drift, float(row["drift_i1"]), float(row["drift_i2"]))
                bad = bound >= 0 and refl > bound
                violations += bad
                if bound >= 0:
                    slack = min(slack, bound - refl)
                if bound > MAX_BOUND:
                    out.notes.append(f"seed {seed}: a bound above {MAX_BOUND} slipped past "
                                     "the screening of starts")
                if bad or float(row["sum_theta"]) >= math.pi:
                    failures += 1
                    out.fail(f"seed {seed} row {row['index']}: reflections {refl} > bound "
                             f"{bound} or sum theta >= pi")
            if (rc != (1 if failures else 0) or report["checks"]["bound_violations"] != violations
                    or report["measured"]["trajectories"] != len(rows)):
                out.fail(f"seed {seed}: exit code or report disagrees with the CSV",
                         counts_as_op_failure=False)
        out.figures = {"drift_max": drift, "bound_slack_min": slack}
        out.digest = hashlib.sha256(b"".join(blobs)).hexdigest()[:16]
        return out

    def trace_targets(self, tracer) -> list:
        def on_run(log):
            tracer.counts["elliptic.term." + log.termination.value] += 1
            tracer.values["elliptic.refl_per_traj"].append(log.reflection_count)
            tracer.counts["elliptic.run_reflections"] += len(log.vertices)

        return [
            (elliptic, "next_intersection",
             tracer.wrap("elliptic.intersect", elliptic.next_intersection)),
            (elliptic, "sample_start", tracer.wrap("elliptic.sample", elliptic.sample_start)),
            (elliptic, "integral_pair", tracer.wrap("elliptic.integral", elliptic.integral_pair)),
            (elliptic, "run", tracer.wrap("elliptic.run", elliptic.run, on_result=on_run)),
            (elliptic, "reflect_direction",
             tracer.wrap("geometry.reflect", elliptic.reflect_direction)),
            (geometry, "reflect_direction",
             tracer.wrap("geometry.reflect", geometry.reflect_direction)),
        ]


class Verify:
    name = "verify"

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.curve = self.sections = self.trajectory = None

    def input_sets(self) -> int:
        return 1

    def setup(self, first: bool) -> dict:
        self.curve, table_s, build_s = _build_cone(first)
        self.sections = {n: ndim.LiftedSection(self.curve, n=n) for n in (4, 5)}
        self.trajectory = SpiralTrajectory(0.0, kmax=KMAX)
        self._draw_windows()
        return {"spiral.table_s": table_s, "curve.build_s": build_s}

    def _draw_windows(self) -> None:
        s = self.sizes
        rng = np.random.default_rng([self.seed, 3])
        k1 = self.curve.k1
        hi = PROBE_K_HI
        self.kappa_windows = np.sort(np.exp(rng.uniform(math.log(k1), math.log(hi),
                                                        s.kappa_windows)).astype(int))
        self.junction_ks = np.sort(rng.integers(2, 30_000, s.junctions))
        self.census_starts = sorted(
            int(math.exp(x))
            for x in rng.uniform(math.log(k1 + 1), math.log(hi - s.census_len), s.census_ranges))

    def prepare(self, r: int):
        return r

    def first_pass(self) -> Outcome:
        return Outcome(figures={"kappa_windows_head": self.kappa_windows[:4].tolist(),
                                "census_starts": self.census_starts})

    def execute(self, r: int, tracer):
        c = self.curve
        s = self.sizes
        res = {}
        with tracer.span("curve.kappa_sweep"):
            kmin = math.inf
            for k in self.kappa_windows:
                kmin = min(kmin, float(c.curvature(c.window_samples(int(k), 96)).min()))
            flat = np.linspace(-math.pi + 1e-9, math.pi, s.flat_points)
            res["kappa_min"] = min(kmin, float(c.curvature(flat).min()))
        with tracer.span("curve.continuity"):
            xi_k = spiral.xi(self.junction_ks).astype(float)
            left, right = c.polar(xi_k - 1e-13), c.polar(xi_k + 1e-13)
            res["continuity"] = max(float(np.abs(lv - rv).max()) for lv, rv in zip(left, right))
        with tracer.span("curve.c2_check"):
            res["c2_slope_error"] = curve_mod.c2_check_at_zero(c, strict=False).max_slope_error()
        with tracer.span("curve.census"):
            res["census"] = [curve_mod.sign_change_census(c, k, k + s.census_len - 1)
                             for k in self.census_starts]
        for n, section in self.sections.items():
            with tracer.span("ndim.negdef"):
                rep = ndim.negdef_check(section, grid_target=s.hessian_grid, strict=False)
            res[f"negdef{n}"] = (rep.max_eigenvalue, rep.grid_size, len(rep.failures))
            with tracer.span("ndim.embed"):
                emb = ndim.embedded_reflection_check(section, self.trajectory,
                                                     count=s.embed_count)
            res[f"embed{n}"] = (emb.max_tangential_residual, emb.max_perpendicular_residual)
        report_path = res["spiral_report_path"] = _fresh_path(self.scratch, "spiral-verify",
                                                              ".json")
        with tracer.span("cli.spiral_verify"):
            res["spiral_rc"] = cli.main(["spiral", "verify", "--kmax", str(s.spiral_kmax),
                                         "--report", str(report_path)])
        return res

    def check(self, res) -> Outcome:
        out = Outcome()
        s = self.sizes
        report_path = res.pop("spiral_report_path")
        res["spiral_report"] = json.loads(report_path.read_text())
        report_path.unlink()

        def named(name: str, passed: bool) -> None:
            out.ops += 1
            if not passed:
                out.fail(f"verify check {name} failed")

        named("kappa", res["kappa_min"] > KAPPA_MIN)
        named("continuity", res["continuity"] < CONTINUITY_TOL)
        named("c2_slopes", res["c2_slope_error"] <= SLOPE_TOL)
        for start, count in zip(self.census_starts, res["census"]):
            named(f"census@{start}", count == s.census_len)
        for n in self.sections:
            eig, grid, bad = res[f"negdef{n}"]
            named(f"negdef{n}", eig < 0.0 and bad == 0 and grid >= s.hessian_grid)
            tang, perp = res[f"embed{n}"]
            named(f"embed{n}", tang < EMBED_TOL and perp == 0.0)
        named("spiral_verify", res["spiral_rc"] == 0 and res["spiral_report"]["passed"])
        out.figures = {"kappa_min": res["kappa_min"], "continuity": res["continuity"],
                       "c2_slope_error": res["c2_slope_error"],
                       "negdef_max_eig": max(res["negdef4"][0], res["negdef5"][0])}
        measured = dict(res["spiral_report"]["measured"])
        out.digest = _digest((sorted(out.figures.items()), res["census"], res["embed4"],
                              res["embed5"], sorted(measured.items(), key=str)))
        return out

    def trace_targets(self, tracer) -> list:
        targets = [
            _deviation_target(self.curve, tracer),
            (SpiralTrajectory, "vertex", tracer.wrap("spiral.vertex", SpiralTrajectory.vertex)),
        ]
        for section in self.sections.values():
            targets.append((section, "hessian_batch", tracer.wrap(
                "ndim.hessian", section.hessian_batch, points=lambda a: len(a[0]))))
        return targets


WORKLOADS = {w.name: w for w in (Replay, Ensemble, Verify)}
