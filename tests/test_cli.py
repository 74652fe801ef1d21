import json
import math

import pytest

from conebilliards.cli import main


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
])
def test_rejects_bad_sizes(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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


def test_replay_command(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["replay", "--a", "0", "--steps", "150", "--kmax", "20000",
                 "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["checks"]["max_vertex_rel_error"] < 1e-7
    assert data["measured"]["flight_length"] < data["measured"]["total_length"]


def test_ndim_command(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["ndim", "check", "--n", "4", "--grid", "1500", "--steps", "200",
                 "--kmax", "20000", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["checks"]["max_eigenvalue"] < 0.0
    assert data["measured"]["embedded_max_tangential_residual"] < 1e-10
