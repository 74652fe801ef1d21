import csv
import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest

from conebilliards import cli, elliptic
from conebilliards.cli import main
from conebilliards.elliptic import EllipticCone, TrajectoryLog
from conebilliards.errors import Termination
from conebilliards.geometry import OrientedLine, angle_between
from conebilliards.spiral import SQRT2, SpiralTrajectory, theta, theta_tail

from oracles import integral_drift, line_distance_sq, log_integrals, log_thetas


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_elliptic_bound_output(capsys):
    assert main(["elliptic", "bound", "--c1", "1", "--c2", "1"]) == 0
    out = capsys.readouterr().out
    assert "reflection bound N: 8" in out
    assert "0.411516" in out  # arcsin(0.4) = 0.4115168...


def test_elliptic_bound_rejects_bad_config():
    with pytest.raises(SystemExit) as exc:
        main(["elliptic", "bound", "--c1", "-1", "--c2", "1"])
    assert exc.value.code == 2


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["elliptic", "simulate", "--count", "40", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("index,seed,c1,c2,reflections,bound")


def test_simulate_termination_histogram(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["elliptic", "simulate", "--count", "60", "--seed", "7",
                 "--report", str(rep)]) == 0
    ends = json.loads(rep.read_text())["measured"]["terminations"]
    assert list(ends) == ["escaped", "max_steps", "apex", "grazing", "no_bracket"]
    assert sum(ends.values()) == 60
    assert ends["escaped"] > 0


def test_simulate_rejects_degenerate_cone():
    with pytest.raises(SystemExit) as exc:
        main(["elliptic", "simulate", "--semi-a", "1", "--semi-b", "1", "--count", "3"])
    assert exc.value.code == 2


def test_simulate_json_format(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["elliptic", "simulate", "--count", "10", "--seed", "3",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 10
    assert {"c1", "c2", "reflections", "bound"} <= set(rows[0])


def test_simulate_rows_depend_only_on_seed_and_index(tmp_path):
    # row i draws from the Philox key (seed, i), so a shorter batch is a
    # byte-exact prefix of a longer one
    short = tmp_path / "short.csv"
    long = tmp_path / "long.csv"
    args = ["elliptic", "simulate", "--seed", "9"]
    assert main(args + ["--count", "7", "--out", str(short)]) == 0
    assert main(args + ["--count", "12", "--out", str(long)]) == 0
    head = b"".join(long.read_bytes().splitlines(keepends=True)[:8])
    assert short.read_bytes() == head


@pytest.mark.parametrize("argv", [
    ["elliptic", "simulate", "--count", "0"],
    ["elliptic", "simulate", "--count", "-3"],
    ["spiral", "verify", "--kmax", "8"],
    ["ndim", "check", "--steps", "0"],
    ["ndim", "check", "--grid", "0"],
    ["curve", "build", "--grid", "3"],
    ["curve", "export", "--grid", "0"],
    ["replay", "--steps", "0"],
    ["replay", "--steps", "10001"],
    ["replay", "--kmax", "100", "--steps", "35"],
    # no window of the curve fits between k1 and kmax
    ["curve", "export", "--kmax", "2", "--grid", "8"],
    ["curve", "export", "--kmax", "0", "--grid", "8"],
    ["curve", "build", "--kmax", "2"],
    ["replay", "--kmax", "50", "--steps", "5"],
    ["ndim", "check", "--kmax", "2"],
    # sizes above the upper limits are refused before anything is built
    ["elliptic", "simulate", "--count", "100001"],
    ["spiral", "verify", "--kmax", "10000000000"],
    ["spiral", "vertices", "--kmax", "1000001"],
    ["spiral", "vertices", "--kmax", "0"],
    ["curve", "build", "--kmax", "1000001"],
    ["curve", "export", "--grid", "100001"],
    ["replay", "--kmax", "10000000000"],
    ["ndim", "check", "--n", "40"],
    ["ndim", "check", "--n", "7"],
    ["ndim", "check", "--n", "2"],
    ["ndim", "check", "--grid", "100001"],
    ["ndim", "check", "--steps", "10001"],
    # flags a command does not read are not accepted
    ["replay", "--seed", "1"],
    ["ndim", "check", "--tol", "1"],
    ["curve", "build", "--format", "json"],
    ["spiral", "vertices", "--report", "r.json"],
    # non-finite or overflowing cone and integral values
    ["elliptic", "bound", "--c1", "inf", "--c2", "1"],
    ["elliptic", "bound", "--c1", "nan", "--c2", "1"],
    ["elliptic", "bound", "--c1", "1", "--c2", "inf"],
    ["elliptic", "bound", "--semi-a", "inf", "--c1", "1", "--c2", "1"],
    ["elliptic", "simulate", "--semi-a", "1e308", "--count", "2"],
    # |grad Q|^2 overflows for b below ~1e-154: no inward normal to sample from
    ["elliptic", "simulate", "--semi-b", "1e-160", "--count", "2"],
    # B^2 = 16/b^2 of a height-2 start overflows below b ~ 2.98e-154
    ["elliptic", "simulate", "--semi-b", "1e-154", "--count", "2"],
    # --tol must lie in (0, inf): a nan or inf threshold passed every distance
    ["spiral", "verify", "--kmax", "5000", "--tol", "nan"],
    ["spiral", "verify", "--kmax", "5000", "--tol", "inf"],
    ["spiral", "verify", "--kmax", "5000", "--tol", "0"],
    ["spiral", "verify", "--kmax", "5000", "--tol", "-1"],
    # the seed is a uint64 word of each Philox key
    ["elliptic", "simulate", "--seed", "-1", "--count", "2"],
    ["elliptic", "simulate", "--seed", "18446744073709551616", "--count", "2"],
])
def test_rejects_bad_sizes(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_refused_seed_writes_no_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(["elliptic", "simulate", "--seed", "-1", "--count", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: need 0 <= value <= 18446744073709551615" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_largest_seed(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["elliptic", "simulate", "--seed", "18446744073709551615", "--count", "2",
                 "--out", str(out)]) == 0
    assert [r["seed"] for r in csv.DictReader(out.read_text().splitlines())] == [
        "18446744073709551615"] * 2


def test_simulate_rekeys_across_a_block_at_the_largest_seed(tmp_path):
    # row 1024 opens the second block of SIMULATE_BLOCK trajectories on the
    # re-keyed Philox: the shorter batch is a byte prefix of the longer one,
    # and the row is the one a fresh Generator(Philox(key=[seed, 1024])) gives
    assert cli.SIMULATE_BLOCK == 1024
    seed = 2**64 - 1
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    args = ["elliptic", "simulate", "--seed", str(seed)]
    assert main(args + ["--count", "1025", "--out", str(short)]) == 0
    assert main(args + ["--count", "1030", "--out", str(long)]) == 0
    assert long.read_bytes().startswith(short.read_bytes())
    cone = EllipticCone(2.0, 1.0)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1024], dtype=np.uint64)))
    row = cli._simulate_rows(cone, seed, 1024, [elliptic.run_random(cone, rng)])[0]
    line = ",".join(cli.SIMULATE_COLUMNS.values()) % row
    assert short.read_text().splitlines()[-1] == long.read_text().splitlines()[1025] == line


def test_simulate_integer_columns_pinned(tmp_path):
    # index, seed, reflections and bound of a fixed batch, as first recorded
    out = tmp_path / "rows.csv"
    assert main(["elliptic", "simulate", "--count", "200", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    text = "".join(",".join(r[c] for c in ("index", "seed", "reflections", "bound")) + "\n"
                   for r in rows)
    assert len(rows) == 200
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ba7b00dd5009973798f5d366436d76f7242b487dc6aac4041951f9fc116de7a7")


def test_spiral_verify_passes(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["spiral", "verify", "--a", "0", "--kmax", "20000",
                 "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["measured"]["worst_distance_deviation"] < 1e-10
    assert data["checks"]["length_infinite"] is False
    # the smallest kmax whose sigma asymptotics check can pass
    assert main(["spiral", "verify", "--a", "0", "--kmax", "9",
                 "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["passed"] is True


def test_spiral_verify_infinite_length(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["spiral", "verify", "--a", str(math.pi / 2), "--kmax", "5000",
                 "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["checks"]["length_infinite"] is True
    assert data["measured"]["total_length"] is None


def test_spiral_verify_near_lower_boundary(tmp_path):
    rep = tmp_path / "rep.json"
    a = -math.pi / 2 + 0.05
    assert main(["spiral", "verify", "--a", str(a), "--kmax", "5000",
                 "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["measured"]["k0"] > 50  # large flat-start from the tilt constraint


def _verify_reference(a: float, kmax: int, tol: float):
    """first_failure of spiral verify's per-k checks, one k at a time through
    one OrientedLine and one p/|p| per k; None if every k passes."""
    traj = SpiralTrajectory(a, kmax=kmax + 1)
    ks = np.unique(np.concatenate([
        np.arange(traj.k0, min(traj.k0 + 64, kmax)),
        np.geomspace(max(traj.k0, 1), kmax - 1, 256).astype(int),
    ]))
    for k in ks[(ks >= traj.k0) & (ks < kmax)].tolist():
        p = traj.vertex(k)
        dist = abs(math.sqrt(line_distance_sq(OrientedLine(p, traj.direction(k)))) - SQRT2)
        if dist > max(tol, 1e-13 * abs(math.tan(traj.tilt(k)))):
            return ["dist", k]
        u = p / np.linalg.norm(p)
        if k > traj.k0 and abs(angle_between(traj.direction(k), u)
                               - angle_between(traj.direction(k - 1), u)) > 1e-11:
            return ["equal_angles", k]
        if k + 1 < kmax and abs(float(traj.alpha_closed(k + 1))
                                - (float(traj.alpha_closed(k)) - float(theta(k)))) > 1e-11:
            return ["alpha_recurrence", k]
    return None


@pytest.mark.parametrize("a, kmax, tol, fails", [
    # a = S_40 puts tan(A_k) near 0 at k ~ 40, so the 1e-20 tol binds there
    (theta_tail(40), 5000, 1e-20, True),
    (0.0, 9, 1e-10, False),
    (math.pi / 2, 5000, 1e-10, False),
    (-1.0, 100_000, 1e-10, False),
])
def test_spiral_verify_matches_per_k_reference(tmp_path, a, kmax, tol, fails):
    rep = tmp_path / "rep.json"
    rc = main(["spiral", "verify", "--a", repr(a), "--kmax", str(kmax), "--tol", repr(tol),
               "--report", str(rep)])
    data = json.loads(rep.read_text())
    expected = _verify_reference(a, kmax, tol)
    assert (expected is not None) == fails
    assert data["checks"]["first_failure"] == expected
    assert data["passed"] == (expected is None) == (rc == 0)


@pytest.mark.parametrize("a, kmax, k0", [(-1.5707, 5000, 53_885_980),
                                          (-1.4707963273900495, 51, 51)])
def test_spiral_verify_refuses_k0_not_below_kmax(capsys, a, kmax, k0):
    # no k in [k0, kmax) to check: the error names k0, not the tail table
    with pytest.raises(SystemExit) as exc:
        main(["spiral", "verify", "--a", repr(a), "--kmax", str(kmax)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: k0 = {k0} for a = {a!r} is not below --kmax {kmax}\n")


def test_spiral_verify_runs_from_k0_just_below_kmax(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["spiral", "verify", "--a", "-1.4707963273900495", "--kmax", "52",
                 "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["measured"]["k0"] == 51


def test_spiral_verify_rejects_bad_a():
    with pytest.raises(SystemExit) as exc:
        main(["spiral", "verify", "--a", "3.0"])
    assert exc.value.code == 2


def test_spiral_vertices_csv(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["spiral", "vertices", "--a", "0", "--kmax", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,x1,x2,x3"
    assert len(lines) == 51
    k, x1, x2, x3 = lines[1].split(",")
    assert k == "1"
    # p_1 = t_1 (cos 1, sin 1, 1)
    assert float(x3) == pytest.approx(float(x1) / math.cos(1.0), rel=1e-12)


def test_curve_build_and_export(tmp_path):
    outdir = tmp_path / "curve"
    rep = tmp_path / "rep.json"
    assert main(["curve", "build", "--kmax", "20000", "--out", str(outdir),
                 "--report", str(rep), "--grid", "400"]) == 0
    table = json.loads((outdir / "curve.json").read_text())
    assert table["k1"] >= 9
    svg = (outdir / "curve.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["checks"]["kappa_min_sampled"] > 0.5

    exp1 = tmp_path / "t1.csv"
    exp2 = tmp_path / "t2.csv"
    for p in (exp1, exp2):
        assert main(["curve", "export", "--kmax", "20000", "--grid", "200",
                     "--format", "csv", "--out", str(p)]) == 0
    assert exp1.read_bytes() == exp2.read_bytes()
    assert exp1.read_text().splitlines()[0] == "xi,rho,drho,d2rho,kappa"
    # a grid that is not a multiple of 4 still gives one row per point
    for grid in (7, 201):
        assert main(["curve", "export", "--kmax", "20000", "--grid", str(grid),
                     "--out", str(exp1)]) == 0
        assert len(exp1.read_text().splitlines()) == grid + 1


def test_curve_svg_pinned(tmp_path):
    # every byte of the default build's figure, as first recorded
    assert main(["curve", "build", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "curve.svg").read_bytes()).hexdigest() == (
        "f888b82dd83abf3b77b85b63bee4c79b756895fcc09235eb9243c67cf60ad5c4")


def test_curve_build_k1_min_beyond_near_windows(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["curve", "build", "--k1-min", "5000", "--kmax", "20000",
                 "--out", str(tmp_path), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["measured"]["k1"] == 5000


def test_replay_range_up_to_kmax(tmp_path):
    # --steps 35 runs past kmax and is refused in test_rejects_bad_sizes
    assert main(["replay", "--kmax", "100", "--steps", "34",
                 "--report", str(tmp_path / "rep.json")]) == 0


def test_replay_range_up_to_the_trajectory_table(tmp_path, capsys):
    # the vertex table, like the sigma table, ends the range at k = kmax + 1
    # for every kmax: from k1 + 1 = 67, 1000 steps reach vertex 1067
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--kmax", "1066", "--steps", "1001"])
    assert exc.value.code == 2
    assert "error: replay compares vertices 68..1068, past k = 1067" in capsys.readouterr().err
    assert main(["replay", "--kmax", "1066", "--steps", "1000",
                 "--report", str(tmp_path / "rep.json")]) == 0


def test_ndim_check_range_up_to_kmax(tmp_path, capsys):
    # the embedded check compares vertices k1 + 1 .. k1 + --steps, which the
    # built curve fixes up to k = kmax: from k1 + 1 = 67, 35 steps reach 101
    assert main(["ndim", "check", "--kmax", "100", "--grid", "100", "--steps", "34",
                 "--report", str(tmp_path / "rep.json")]) == 0
    for steps in ("35", "10000"):
        with pytest.raises(SystemExit) as exc:
            main(["ndim", "check", "--kmax", "100", "--grid", "100", "--steps", steps])
        assert exc.value.code == 2
        assert (f"error: the embedded check compares vertices 67..{66 + int(steps)}, past the "
                f"curve's kmax = 100") in capsys.readouterr().err


def test_replay_command(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["replay", "--a", "0", "--steps", "150", "--kmax", "20000",
                 "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["checks"]["max_vertex_rel_error"] < 1e-7
    assert data["measured"]["flight_length"] < data["measured"]["total_length"]


def test_replay_grazing_exits_1(second_reflection_grazes, capsys):
    # a grazing reflection ends the replay with a named termination and a
    # failed verification, not a traceback
    assert main(["replay", "--kmax", "100", "--steps", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay failed: ") and "GRAZING" in err


def test_ndim_command(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["ndim", "check", "--n", "4", "--grid", "1500", "--steps", "200",
                 "--kmax", "20000", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["checks"]["max_eigenvalue"] < 0.0
    assert data["measured"]["embedded_max_tangential_residual"] < 1e-10


@pytest.mark.parametrize("a, b, digest", [
    ("2", "1", "702efa7dd1c9e6d618ac59ebd05b7f855a4415d592c5ba7c25b9b0890621328f"),
    ("3", "2", "220e76f8cbeec6913b0e681580d9c0bfa4363584379bd4b67fb24373595b6848"),
    ("1.5", "1.2", "f117f940abb9c163365a9a7b9675b75e97b2485352a5eb86a73def078c43a4f6"),
])
def test_simulate_csv_pinned(tmp_path, a, b, digest):
    # every byte of a fixed batch on the criterion-3 cones, as first recorded
    out = tmp_path / "rows.csv"
    assert main(["elliptic", "simulate", "--semi-a", a, "--semi-b", b, "--count", "300",
                 "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_2000_starts_pinned(tmp_path):
    # the criterion-3 batch of 2000 starts on the (2,1) cone, as first recorded:
    # every CSV byte and the report's drift figure
    out, rep = tmp_path / "rows.csv", tmp_path / "rep.json"
    assert main(["elliptic", "simulate", "--count", "2000", "--seed", "7",
                 "--out", str(out), "--report", str(rep)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3564c937bfa7e8f32102a9686007cb78bbc81f22cba40416fa91a5e36510b82f")
    measured = json.loads(rep.read_text())["measured"]
    assert measured["max_integral_drift"] == 2.2415031229286823e-12
    assert measured["terminations"]["escaped"] == 2000


def test_simulate_json_pinned(tmp_path):
    # every byte of a --format json batch, as first recorded
    out = tmp_path / "rows.json"
    assert main(["elliptic", "simulate", "--semi-a", "3", "--semi-b", "2", "--count", "50",
                 "--seed", "7", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "31998095c77042b4e5957769af445067a52515ab2b9278a212433405816407ff")


@pytest.mark.parametrize("block", [1, 7])
def test_simulate_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch, block):
    # the pinned batches again, accounted and written in blocks of 1 and 7
    monkeypatch.setattr(cli, "SIMULATE_BLOCK", block)
    out = tmp_path / "rows.csv"
    assert main(["elliptic", "simulate", "--count", "300", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "702efa7dd1c9e6d618ac59ebd05b7f855a4415d592c5ba7c25b9b0890621328f")
    out = tmp_path / "rows.json"
    assert main(["elliptic", "simulate", "--semi-a", "3", "--semi-b", "2", "--count", "50",
                 "--seed", "7", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "31998095c77042b4e5957769af445067a52515ab2b9278a212433405816407ff")


def _bits(row) -> list:
    return [struct.pack("<d", x) if isinstance(x, float) else x for x in row]


def test_block_accounting_equals_the_per_log_methods():
    # one pass over a block against the oracles log_integrals, log_thetas,
    # integral_drift and reflection_count, log by log, bit for bit
    cone = EllipticCone(2.0, 1.0)
    logs = []
    for index in (0, 2, 864, 34, 431, 239):  # 0, 1, 7, 8, 9 and 308 thetas
        rng = np.random.Generator(np.random.Philox(key=np.array([7, index], dtype=np.uint64)))
        logs.append(elliptic.run_random(cone, rng))
    long = logs[-1]
    # prefixes across numpy's pairwise-sum blocks of 8 and 128, with every ending
    ends = list(Termination) * 2
    for k, end in zip((1, 2, 9, 10, 101, 128, 129, 130, 200, 257), ends):
        logs.append(TrajectoryLog(cone, long.bases[:k], long.dirs[:k], end, True))
    assert [len(log_thetas(log)) for log in logs] == [
        0, 1, 7, 8, 9, 308, 0, 1, 8, 9, 100, 127, 128, 129, 199, 256]
    rows = cli._simulate_rows(cone, 7, 40, logs)
    assert len(rows) == len(logs)
    for k, (log, row) in enumerate(zip(logs, rows)):
        pair, th = log_integrals(log), log_thetas(log)
        c1, c2 = float(pair.I1[0]), float(pair.I2[0])
        expect = (40 + k, 7, c1, c2, log.reflection_count,
                  elliptic.reflection_bound(cone, c1, c2) if c2 > 0.0 else -1,
                  float(th.max()) if th.size else 0.0, float(th.sum()), *integral_drift(log))
        assert [type(x) for x in row] == [type(x) for x in expect]
        assert _bits(row) == _bits(expect)


@pytest.mark.parametrize("argv, phases", [
    (["elliptic", "simulate", "--count", "30", "--seed", "7", "--out", "{tmp}/rows.csv"],
     ["accounting", "output", "trajectories"]),
    (["spiral", "verify", "--kmax", "5000"], ["checks", "length", "table"]),
    (["curve", "build", "--kmax", "20000", "--grid", "100", "--out", "{tmp}"],
     ["build", "checks", "output"]),
    (["replay", "--kmax", "20000", "--steps", "20"], ["build", "replay"]),
    (["ndim", "check", "--grid", "500", "--steps", "20", "--kmax", "20000"],
     ["build", "embed", "negdef"]),
], ids=["simulate", "verify", "build", "replay", "ndim"])
def test_reports_phase_timings(tmp_path, argv, phases, monkeypatch):
    # every command that writes a report splits its wall time into phases,
    # and the report file holds the bytes of its dataclasses.asdict copy
    rep = tmp_path / "rep.json"
    reports, dump = [], cli.RunReport.dump
    monkeypatch.setattr(cli.RunReport, "dump",
                        lambda self, path: reports.append(self) or dump(self, path))
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--report", str(rep)]) == 0
    copied = dataclasses.asdict(reports[0])
    assert rep.read_text() == json.dumps(copied, indent=2, default=float) + "\n"
    data = json.loads(rep.read_text())
    timings = data["timings"]
    assert sorted(timings) == phases
    assert all(t >= 0.0 for t in timings.values())
    assert sum(timings.values()) <= data["wall_time_s"]


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process, and nothing of one call leaks into the next
    assert cli.build_parser() is cli.build_parser()
    first, again, rep = tmp_path / "first.csv", tmp_path / "again.csv", tmp_path / "rep.json"
    simulate = ["elliptic", "simulate", "--count", "20", "--seed", "5", "--out"]
    assert main(simulate + [str(first)]) == 0
    for argv, code in ((["elliptic", "simulate", "--count", "0"], 2), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert main(["spiral", "verify", "--kmax", "500", "--tol", "1e-9", "--report", str(rep)]) == 0
    assert main(simulate + [str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert main(["spiral", "verify", "--kmax", "500", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["config"]["tol"] == 1e-10


def test_simulate_smallest_semi_axis(tmp_path):
    # just above the 16/b^2 overflow: every step stays finite, and a stray
    # RuntimeWarning fails the test
    out = tmp_path / "rows.csv"
    assert main(["elliptic", "simulate", "--semi-b", "3e-154", "--count", "200", "--seed", "7",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 201


def test_simulate_huge_semi_axis(tmp_path):
    # I1 ~ a^2 here, so a bound formed from I1 * I2 would overflow
    out = tmp_path / "rows.csv"
    assert main(["elliptic", "simulate", "--semi-a", "1e80", "--count", "20", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 20
    assert all(int(r["bound"]) >= 1 for r in rows if float(r["c2"]) > 0.0)
    assert any(float(r["c2"]) > 0.0 for r in rows)


@pytest.mark.parametrize("argv, digest", [
    (["spiral", "vertices", "--a", "0", "--kmax", "3000"],
     "8e1bce3c2eb10867ac4f944c18380baa7de4e95031324f2f9d1b2f630333fe0e"),
    (["spiral", "vertices", "--a", "0.3", "--kmax", "500", "--format", "json"],
     "10fab84eb1e5283f8985903595115fcdeb5c27c112dcb47cf9eb4d86ea5fee7c"),
    (["curve", "export", "--kmax", "20000", "--grid", "301"],
     "7f2cf264c49c77c381a364950f64af52d1e73f72e3df6edc115eed50bd01cb89"),
    (["curve", "export", "--kmax", "20000", "--grid", "301", "--format", "json"],
     "6ccfbb40d7a5390cbcc7d5230492edfb53f04d80392e5971b8678d3876c634ae"),
])
def test_table_outputs_pinned(tmp_path, argv, digest):
    # every byte of a vertex and a curve table, CSV and JSON, as first recorded
    out = tmp_path / "table"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("block", [1, 7])
def test_vertex_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch, block):
    # the pinned vertex tables again, evaluated and written in blocks of 1 and 7
    monkeypatch.setattr(cli, "VERTEX_BLOCK", block)
    out = tmp_path / "table"
    assert main(["spiral", "vertices", "--a", "0", "--kmax", "3000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8e1bce3c2eb10867ac4f944c18380baa7de4e95031324f2f9d1b2f630333fe0e")
    assert main(["spiral", "vertices", "--a", "0.3", "--kmax", "500", "--format", "json",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "10fab84eb1e5283f8985903595115fcdeb5c27c112dcb47cf9eb4d86ea5fee7c")


@pytest.mark.parametrize("fmt, text", [("csv", "k,x1,x2,x3\n"), ("json", "[]\n")])
def test_spiral_vertices_empty_table(tmp_path, fmt, text):
    # k0(-1.5) = 100 lies above kmax: no vertex, as json.dumps([]) or a bare header
    out = tmp_path / "table"
    assert main(["spiral", "vertices", "--a", "-1.5", "--kmax", "5", "--format", fmt,
                 "--out", str(out)]) == 0
    assert out.read_text() == text
