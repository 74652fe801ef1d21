"""Benchmark of the conebilliards package.

    python3 perfbench/run.py --workload {replay,ensemble,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  Each invocation is one fresh,
single-threaded process that

1. pins the BLAS pool to one thread and unsets BILLIARDS_THREADS,
2. imports the package and sets the workload up ``setup_reps`` times; a
   set-up builds what the workload reuses and draws the inputs of every
   round from the seed,
3. runs one untimed warm-up round (the first in-process round is up to
   40 % slower) together with the workload's once-per-process operations,
4. repeats timed rounds for about ``--seconds`` seconds, cycling through
   the inputs,
5. checks every round against its oracle, and every repeat of an input
   against the first output it gave.

An operation (a replay segment, an ensemble trajectory, a verify check) is
counted once per distinct input, so ``attempted`` and ``failed`` depend on
the seed alone, not on how many rounds fit in ``--seconds``.

Lines starting with ``#`` report every figure by name and unit; the last
line is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  A traced run pairs every traced round
with an untraced round on the same inputs, so it also reports the tracing
overhead and checks that both produce identical outputs.  A record of the
run, and in traced runs every span, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) in the order printed; BENCHMARK.json lists the same.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("curve.deviation_scalar_us", "us"),
    ("geometry.section_evals_per_step", "count"),
    ("geometry.step_us_p50", "us"),
    ("geometry.step_us_tail", "us"),
    ("geometry.step_calls", "count"),
    ("geometry.reflect_us", "us"),
    ("curve.deviation_vec_ns_per_pt", "ns"),
    ("curve.kappa_sweep_s", "s"),
    ("curve.c2_check_s", "s"),
    ("curve.census_s", "s"),
    ("ndim.negdef_s", "s"),
    ("ndim.hessian_ns_per_pt", "ns"),
    ("ndim.embed_s", "s"),
    ("curve.build_s", "s"),
    ("spiral.table_s", "s"),
    ("spiral.vertex_us", "us"),
    ("curve.replay_self_us_per_step", "us"),
    ("elliptic.sample_us", "us"),
    ("elliptic.intersect_us", "us"),
    ("elliptic.intersect_calls", "count"),
    ("elliptic.integral_us", "us"),
    ("elliptic.run_self_us_per_refl", "us"),
    ("cli.simulate_self_s", "s"),
    ("elliptic.refl_per_traj_p50", "count"),
    ("elliptic.refl_per_traj_max", "count"),
    ("elliptic.term.escaped", "count"),
    ("elliptic.term.apex", "count"),
    ("elliptic.term.max_steps", "count"),
    ("geometry.tangency_warnings", "count"),
    ("trace.overhead_s", "s"),
]
# figures printed on the '#' lines: (name, unit, workloads that have it)
REPORTED = [
    ("wall_s", "s", None),
    ("cpu_s", "s", None),
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("fail_frac", "1", None),
    ("refl_per_s", "1/s", ("replay", "ensemble")),
    ("traj_per_s", "1/s", ("ensemble",)),
    ("vertex_err_max", "1", ("replay",)),
    ("dist_sq_err_max", "1", ("replay",)),
    ("drift_max", "1", ("ensemble",)),
    ("bound_slack_min", "count", ("ensemble",)),
    ("kappa_min", "1", ("verify",)),
]
WORKLOAD_NAMES = ("replay", "ensemble", "verify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def isolate() -> dict:
    """Pin BLAS to one thread and drop BILLIARDS_THREADS before numpy loads."""
    caller_threads = os.environ.pop("BILLIARDS_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {
        "billiards_threads_from_caller": caller_threads,
        "billiards_threads": os.environ.get("BILLIARDS_THREADS"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "fresh_process": True,
        "pid": os.getpid(),
    }


def import_package() -> float:
    """Import the package from this checkout's src/; seconds it took."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import conebilliards

    if not Path(conebilliards.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"conebilliards came from {conebilliards.__file__}, not {SRC}")
    return perf_counter() - t0


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.split() or (None, None)
        if top and Path(top).resolve() == ROOT:   # not a repository enclosing the checkout
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes,
            import_s: float) -> dict:
    """Set up, warm up, run timed rounds, and check every output."""
    from conebilliards.errors import TangencyWarning
    from tracing import Tracer, patched, write_spans
    from workloads import WORKLOADS, NullTracer

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](seed, sizes, OUT_DIR)
    setup_times = []
    parts = defaultdict(list)
    for i in range(sizes.setup_reps):
        t0 = perf_counter()
        for name, value in wl.setup(first=i == 0).items():
            parts[name].append(value)
        # Rounds cycle through these inputs.  An operation is counted once per
        # distinct input, so ``attempted`` and ``failed`` do not depend on how
        # many rounds fit in the time.
        inputs = [wl.prepare(j) for j in range(wl.input_sets())]
        setup_times.append(perf_counter() - t0)

    null = NullTracer()
    counted = {}                             # input index -> outcome of its first run
    untimed, untraced, traced = [], [], []   # outcomes
    t_untraced, t_traced, cpu_untraced = [], [], []
    tracers = []                             # one per traced round
    mismatches = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        untimed.append(wl.first_pass())
        warm = counted[0] = wl.check(wl.execute(inputs[0], null))
        untimed.append(warm)
        tangency = sum(issubclass(w.category, TangencyWarning) for w in caught)

        def run_round(inputs, tracer):
            """Time one round; ``tracer`` None means untraced."""
            with patched(wl.trace_targets(tracer)) if tracer else contextlib.nullcontext():
                c0, t0 = process_time(), perf_counter()
                raw = wl.execute(inputs, tracer or null)
                t, c = perf_counter() - t0, process_time() - c0
            if tracer is None:
                cpu_untraced.append(c)
            return t, wl.check(raw)

        start = perf_counter()
        r = 0
        while True:
            r += 1
            i = r % len(inputs)
            modes = [None]
            if trace:
                # traced and untraced on the same inputs, in alternating order
                tracers.append(Tracer())
                modes = [tracers[-1], None] if r % 2 else [None, tracers[-1]]
            for tracer in modes:
                t, out = run_round(inputs[i], tracer)
                (t_untraced if tracer is None else t_traced).append(t)
                (untraced if tracer is None else traced).append(out)
            out = counted.setdefault(i, untraced[-1])
            if trace and traced[-1].digest != untraced[-1].digest:
                mismatches.append(f"round {r}: traced output differs from untraced")
            if untraced[-1].digest != out.digest:
                mismatches.append(f"round {r}: output differs from the first run of its inputs")
            elapsed = perf_counter() - start
            if r >= max(sizes.min_rounds, len(inputs)) and elapsed * (r + 1) / r > seconds:
                break

    outcomes = untimed + untraced + traced
    same_figures = all(o.figures == u.figures for o, u in zip(traced, untraced))
    attempted = untimed[0].ops + sum(o.ops for o in counted.values())
    failed = untimed[0].failed + sum(o.failed for o in counted.values())
    res = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": r,
        "input_sets": len(inputs),
        "correct": all(o.ok for o in outcomes) and not mismatches and same_figures,
        "traced_figures_equal": same_figures,
        "attempted": attempted,
        "failed": failed,
        "notes": sorted({n for o in outcomes for n in o.notes}) + mismatches,
        "untimed_figures": untimed[0].figures,
        "round_s": t_untraced,
        "round_cpu_s": cpu_untraced,
        "round_reflections": [o.reflections for o in untraced],
        "traced_round_s": t_traced,
        "setup_rep_s": setup_times,
    }
    figures = dict(warm.figures)
    res["report"] = {
        "wall_s": _median(t_untraced),
        "cpu_s": _median(cpu_untraced),
        "setup_s": import_s + _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
        "refl_per_s": _median([o.reflections / t for o, t in zip(untraced, t_untraced)]),
        "traj_per_s": _median([o.trajectories / t for o, t in zip(untraced, t_untraced)]),
        **{k: v for k, v in figures.items() if isinstance(v, (int, float))},
    }
    if trace:
        res["per_layer"] = layer_metrics(tracers, parts, tangency, t_untraced, t_traced)
        write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv", tracers)
    return res


def layer_metrics(tracers, parts, tangency, t_untraced, t_traced) -> dict:
    """Per-layer figures of the traced rounds.

    Times pool every traced round; counts are those of the first traced
    round, whose inputs depend on the seed alone.
    """
    from tracing import SpanStats

    per_round = []
    pooled = SpanStats()
    for tr in tracers:
        st = SpanStats()
        st.add(tr)
        pooled.add(tr)
        per_round.append(st)
    first = per_round[0]
    counts, values = tracers[0].counts, tracers[0].values
    step = "geometry.step"
    evals = pooled.children[step]
    refl = values["elliptic.refl_per_traj"]
    run_reflections = sum(tr.counts["elliptic.run_reflections"] for tr in tracers)

    def round_total(name):
        return _median([st.total[name] for st in per_round])

    return {
        "curve.deviation_scalar_us": pooled.mean_us("curve.deviation_scalar"),
        "geometry.section_evals_per_step": _ratio(
            evals["curve.deviation_scalar"] + evals["curve.deviation_vec"], pooled.calls[step]),
        "geometry.step_us_p50": pooled.self_percentile_us(step, 50),
        "geometry.step_us_tail": pooled.self_percentile_us(step, 90),
        "geometry.step_calls": first.calls[step],
        "geometry.reflect_us": pooled.mean_us("geometry.reflect"),
        "curve.deviation_vec_ns_per_pt": pooled.ns_per_point("curve.deviation_vec"),
        "curve.kappa_sweep_s": round_total("curve.kappa_sweep"),
        "curve.c2_check_s": round_total("curve.c2_check"),
        "curve.census_s": round_total("curve.census"),
        "ndim.negdef_s": round_total("ndim.negdef"),
        "ndim.hessian_ns_per_pt": pooled.ns_per_point("ndim.hessian"),
        "ndim.embed_s": round_total("ndim.embed"),
        "curve.build_s": _median(parts["curve.build_s"]),
        "spiral.table_s": _median(parts["spiral.table_s"]),
        "spiral.vertex_us": pooled.mean_us("spiral.vertex"),
        "curve.replay_self_us_per_step": _ratio(pooled.self_time["curve.replay"],
                                                pooled.calls[step], 1e6),
        "elliptic.sample_us": pooled.mean_us("elliptic.sample"),
        "elliptic.intersect_us": pooled.mean_us("elliptic.intersect"),
        "elliptic.intersect_calls": first.calls["elliptic.intersect"],
        "elliptic.integral_us": pooled.mean_us("elliptic.integral"),
        "elliptic.run_self_us_per_refl": _ratio(pooled.self_time["elliptic.run"],
                                                run_reflections, 1e6),
        "cli.simulate_self_s": _median([st.self_time["cli.simulate"] for st in per_round]),
        "elliptic.refl_per_traj_p50": _median(refl),
        "elliptic.refl_per_traj_max": max(refl, default=0),
        "elliptic.term.escaped": counts["elliptic.term.escaped"],
        "elliptic.term.apex": counts["elliptic.term.apex"],
        "elliptic.term.max_steps": counts["elliptic.term.max_steps"],
        "geometry.tangency_warnings": tangency,
        "trace.overhead_s": _median([t - u for t, u in zip(t_traced, t_untraced)]),
    }


def emit(res: dict) -> dict:
    """Print the '#' lines and return the final JSON object."""
    wl = res["workload"]
    rep = res["report"]
    print(f"# workload {wl} seed {res['seed']} trace {res['trace']}: {res['rounds']} timed "
          f"rounds, {res['attempted']} operations attempted, {res['failed']} failed")
    for name, unit, where in REPORTED:
        if where is None or wl in where:
            print(f"# {name} = {rep[name]!r} {unit}")
    for note in res["notes"]:
        print(f"# note: {note}")
    if res["trace"]:
        per_layer = res["per_layer"]
        frac = per_layer["trace.overhead_s"] / rep["wall_s"] if rep["wall_s"] else 0.0
        print(f"# traced wall_s = {_median(res['traced_round_s'])!r} s, untraced "
              f"{rep['wall_s']!r} s, overhead {100 * frac:.2f} %")
        print(f"# accuracy figures of traced rounds equal those of untraced rounds: "
              f"{res['traced_figures_equal']}")
        for name, unit in PER_LAYER:
            print(f"# {name} = {per_layer[name]!r} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": rep[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": res["correct"],
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    isolation = isolate()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import conebilliards from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import FULL

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes or FULL,
                  import_s)
    isolation["threads_at_end"] = threading.active_count()
    result = emit(res)
    record = {**res, "seconds": args.seconds, "import_s": import_s, "isolation": isolation,
              "machine": machine(),
              "warm_up": "one untimed round before timing; the first in-process round "
                         "measured up to 40 % slower",
              "result": result}
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
