import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conebilliards import spiral
from conebilliards.elliptic import EllipticCone, first_integrals
from conebilliards.errors import DomainError
from conebilliards.geometry import (
    OrientedLine,
    angle_between,
    reflect_direction,
    unit,
)
from conebilliards.spiral import (
    SQRT2,
    TAIL_BLOCK,
    SpiralParams,
    SpiralTrajectory,
    TailTable,
    _block_tails,
    delta,
    k0,
    sigma,
    theta,
    theta_tail,
    xi,
)

from oracles import line_distance_sq, normal_w


# ---------------------------------------------------------------------------
# angles and their differences
# ---------------------------------------------------------------------------

def test_xi_delta_values():
    assert xi(1) == 1.0
    assert xi(4) == 0.5
    assert float(delta(1)) == pytest.approx(1.0 - 1.0 / SQRT2, abs=1e-15)


def test_delta_leading_coefficient():
    # delta_k * k^(3/2) -> 1/2
    assert float(delta(10**6)) * 1e9 == pytest.approx(0.5, abs=1e-6)


def test_delta_matches_naive_at_small_k():
    for k in range(1, 50):
        naive = 1.0 / math.sqrt(k) - 1.0 / math.sqrt(k + 1)
        assert float(delta(k)) == pytest.approx(naive, rel=1e-14)


def theta_from_cos(k):
    """theta_k by the equivalent arccos((cos delta + 1)/2) form."""
    return np.arccos((np.cos(delta(k)) + 1.0) / 2.0)


def test_theta_two_closed_forms():
    # the arccos route conditions like eps/theta, so the 1e-12 agreement
    # band is checked where theta is macroscopic and a scaled band beyond
    ks = np.arange(1, 200)
    assert np.abs(theta(ks) - theta_from_cos(ks)).max() < 1e-12
    ks = np.arange(200, 100_000, 53)
    diff = np.abs(theta(ks) - theta_from_cos(ks))
    assert np.all(diff < 20.0 * 2.2e-16 / theta(ks))


def test_theta_value_k1():
    assert float(theta(1)) == pytest.approx(
        2.0 * math.asin(math.sin(float(delta(1)) / 2.0) / SQRT2), abs=1e-15
    )
    assert float(theta(1)) == pytest.approx(0.2067, abs=2e-4)


def test_theta_below_delta():
    ks = np.arange(1, 10_000)
    assert np.all(theta(ks) < delta(ks))


def test_theta_delta_ratio_limit():
    for k in (10**4, 10**6):
        assert float(theta(k) / delta(k)) == pytest.approx(1.0 / SQRT2, abs=1e-7)


# ---------------------------------------------------------------------------
# tail sums
# ---------------------------------------------------------------------------

def theta_tail_naive(k: int, terms: int = 1_000_000) -> float:
    """Slow summation oracle: fsum of the first ``terms`` thetas plus the
    telescoped leading remainder xi_{k+terms}/sqrt(2)."""
    ks = np.arange(k, k + terms, dtype=float)
    s = math.fsum(theta(ks).tolist())
    return s + float(xi(k + terms)) / SQRT2


K0_PINS = [(-1.57, 788_474), (-1.569, 154_953), (-1.5, 100), (-1.4, 18), (-1.0, 2),
           (-0.5, 1), (0.0, 1), (0.7, 1), (math.pi / 2.0, 1)]


@pytest.mark.parametrize("a, expected", K0_PINS)
def test_k0_reads_the_table(tail_table, a, expected):
    # the search reads S_k from any table that covers k and from theta_tail
    # beyond it: k0(-1.57) lies past every table, k0(-1.569) and k0(-1.5)
    # past the small ones
    assert k0(a) == expected
    for table in (TailTable(50), TailTable(2000), tail_table):
        assert k0(a, table) == expected
    assert SpiralTrajectory(a, kmax=1000).k0 == expected


def test_tail_against_naive_oracle():
    for k in (1, 3, 17, 101):
        naive = theta_tail_naive(k, terms=200_000)
        assert theta_tail(k) == pytest.approx(naive, abs=5e-13)


def test_tail_bound_and_limit(tail_table):
    ks = np.arange(1, 100_000, 37)
    s = tail_table.S[ks - 1]
    assert np.all(s < 1.0 / np.sqrt(ks))
    assert np.all(np.diff(tail_table.S) < 0.0)[()] or np.all(tail_table.S[:-1] > tail_table.S[1:])
    # S_k -> 0 with S_k sqrt(k) -> 1/sqrt(2)
    for k in (10**3, 10**4, 10**5):
        assert float(tail_table.S[k - 1]) * math.sqrt(k) == pytest.approx(1.0 / SQRT2, abs=2e-3)
    assert float(tail_table.S[10**5 - 1]) < 3.3e-3


def test_tail_table_consistency(tail_table):
    # S_k - S_{k+1} = theta_k to the last bit
    ks = np.arange(1, 150_000)
    lhs = tail_table.S[ks - 1] - tail_table.S[ks]
    assert np.abs(lhs - tail_table.theta[ks - 1]).max() < 1e-16


def test_tail_table_is_prefix_of_larger_table():
    # S_k depends on k alone: no table size or call history moves a bit
    small = TailTable(130_000)
    large = TailTable(1_000_002)
    n = small.S.size
    assert small.S.tobytes() == large.S[:n].tobytes()
    assert small.theta.tobytes() == large.theta[:n].tobytes()


@pytest.mark.parametrize("kmax", [4095, 4096, 4097, 8191, 8192, 8193, 130_000])
def test_blocked_tail_table_equals_one_pass(kmax):
    n = kmax + 1
    th, s = _block_tails(0, (n - 1) // TAIL_BLOCK + 1)
    table = TailTable(kmax)
    assert table.theta.tobytes() == th[:n].tobytes()
    assert table.S.tobytes() == s[:n].tobytes()


def test_tail_table_peak_memory_is_bounded():
    # theta and S hold about 2 MB at kmax = 130 000; one pass over all
    # blocks peaked at 5 MB
    tracemalloc.start()
    try:
        TailTable(130_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("k", [1, 31, 32, TAIL_BLOCK - 1, TAIL_BLOCK, TAIL_BLOCK + 1,
                               2 * TAIL_BLOCK + 1, 199_999])
def test_theta_tail_equals_table_entry(k):
    assert theta_tail(k) == float(TailTable(200_000).S[k - 1])


@pytest.mark.parametrize("k", [67, TAIL_BLOCK, TAIL_BLOCK + 1, 2 * TAIL_BLOCK + 1, 129_999])
def test_tail_table_against_mpmath_oracle(tail_table, k):
    # sum_{i>=k} delta_i telescopes to xi_k, so S_k = xi_k/sqrt(2) plus a sum
    # whose terms theta_i - delta_i/sqrt(2) decay like i^(-9/2)
    with mp.workdps(25):
        def term(i):
            d = 1 / (mp.sqrt(i * (i + 1)) * (mp.sqrt(i) + mp.sqrt(i + 1)))
            return 2 * mp.asin(mp.sin(d / 2) / mp.sqrt(2)) - d / mp.sqrt(2)

        exact = 1 / mp.sqrt(2 * k) + mp.nsum(term, [k, mp.inf])
        rel = float(abs(mp.mpf(float(tail_table.S[k - 1])) / exact - 1))
    assert rel <= 1e-15


def test_tail_tolerance_error():
    with pytest.raises(DomainError):
        theta_tail(0)


# ---------------------------------------------------------------------------
# k0 and the radial profile
# ---------------------------------------------------------------------------

def test_k0_values():
    assert k0(math.pi / 2) == 1
    assert k0(0.0) == 1          # S_1 ~ 0.7067 < pi/2
    assert k0(-1.0) == 2         # S_1 > pi/2 - 1 ~ 0.5708 > S_2 ~ 0.49996


def test_k0_monotone_growth():
    ks = [k0(a) for a in (-1.0, -1.4, -1.5, -1.55)]
    assert ks == sorted(ks)
    assert ks[-1] > ks[0]
    assert k0(-math.pi / 2 + 0.01) > 100


def test_k0_definition_boundary():
    for a in (-1.2, -1.5):
        kk = k0(a)
        assert theta_tail(kk) < a + math.pi / 2
        if kk > 1:
            assert theta_tail(kk - 1) >= a + math.pi / 2


def test_params_validation():
    with pytest.raises(DomainError):
        SpiralParams(a=-math.pi / 2)
    with pytest.raises(DomainError):
        SpiralParams(a=math.pi / 2 + 1e-9)
    assert k0(SpiralParams(a=math.pi / 2).a) == 1


def test_vertex_limit_point():
    traj = SpiralTrajectory(math.pi / 3, kmax=200_000)
    p = traj.vertex(200_000)
    assert np.allclose(p, [2.0, 0.0, 2.0], atol=2e-2)
    # and the limit is approached monotonically in the radius
    t_far = 1.0 / np.cos(traj.tilt(np.array([50_000, 100_000, 200_000])))
    assert abs(t_far[-1] - 2.0) < abs(t_far[0] - 2.0)
    assert float(t_far[-1]) == pytest.approx(2.0, abs=1e-2)


def test_vertex_norm_is_sqrt2_t(spiral_a0):
    ks = np.array([1, 10, 1000, 100_000])
    p = spiral_a0.vertex(ks)
    assert np.abs(np.linalg.norm(p, axis=-1) - SQRT2 * (1.0 / np.cos(spiral_a0.tilt(ks)))).max() < 1e-12


def test_vertex_below_k0_rejected():
    traj = SpiralTrajectory(-1.5, kmax=10_000)
    assert traj.k0 > 1
    with pytest.raises(DomainError):
        traj.vertex(traj.k0 - 1)


@pytest.mark.parametrize("kmaxes", [(100, 10_000), (10_000, 100)])
def test_tilt_range_is_the_trajectorys_own(monkeypatch, kmaxes):
    # the shared tail table is the largest any call built, but each
    # trajectory's tilt answers 1..kmax + 1 whichever was built first
    monkeypatch.setattr(spiral, "_SHARED_TABLE", None)
    trajs = {kmax: SpiralTrajectory(0.0, kmax=kmax) for kmax in kmaxes}
    small, large = trajs[100], trajs[10_000]
    for k in (0, 102, 5000):
        with pytest.raises(DomainError):
            small.tilt(k)
    with pytest.raises(DomainError):
        small.tilt(np.array([1, 101, 102]))
    assert small.tilt(101) == -small.table.S[100]
    assert large.tilt(5000) == -large.table.S[4999]
    with pytest.raises(DomainError):
        large.tilt(10_002)


def test_t_monotone_with_fixed_tilt_sign():
    # a < 0: A_k = a - S_k < 0 with |A_k| shrinking, so t_k decreases;
    # a = 1.2 > S_k0: A_k > 0 grows, so t_k increases
    traj = SpiralTrajectory(-1.0, kmax=50_000)
    t = 1.0 / np.cos(traj.tilt(np.arange(traj.k0, 50_000, 100)))
    assert np.all(np.diff(t) < 0.0)
    assert np.all(t > 0.0)
    traj = SpiralTrajectory(1.2, kmax=50_000)
    t = 1.0 / np.cos(traj.tilt(np.arange(traj.k0, 50_000, 100)))
    assert np.all(np.diff(t) > 0.0)


def test_t_diverges_at_a_half_pi():
    traj = SpiralTrajectory(math.pi / 2, kmax=200_000)
    t = 1.0 / np.cos(traj.tilt(np.array([10, 1000, 200_000])))
    assert t[2] > t[1] > t[0]
    assert float(t[2]) > 300.0  # 1/sin(S_k) ~ sqrt(k/2) growth
    assert traj.total_length() == math.inf


# ---------------------------------------------------------------------------
# the master invariants
# ---------------------------------------------------------------------------

A_VALUES = (-1.0, 0.0, 1.0, math.pi / 2)


@pytest.mark.parametrize("a", A_VALUES)
def test_distance_invariant(a):
    traj = SpiralTrajectory(a, kmax=110_000)
    ks = np.unique(np.geomspace(traj.k0, 100_000, 120).astype(int))
    for k in ks:
        assert abs(traj.verify_distance(int(k))) < 1e-10


@pytest.mark.parametrize("a", A_VALUES)
def test_pk_sin_alpha_identity(a):
    # |p_k| sin(alpha_k) = sqrt(2), with alpha measured from the chord
    traj = SpiralTrajectory(a, kmax=110_000)
    ks = np.unique(np.geomspace(max(traj.k0, 1), 100_000, 60).astype(int))
    for k in ks:
        p = traj.vertex(int(k))
        al = angle_between(traj.direction(int(k)), unit(p))
        assert abs(float(np.linalg.norm(p)) * math.sin(al) - SQRT2) < 1e-11


@pytest.mark.parametrize("a", A_VALUES)
def test_equal_angles(a):
    traj = SpiralTrajectory(a, kmax=110_000)
    ks = np.unique(np.geomspace(traj.k0 + 1, 100_000, 90).astype(int))
    for k in ks:
        al, be = traj.verify_equal_angles(int(k))
        assert abs(al - be) < 1e-11
        assert abs(math.cos(al) - math.sin(traj.tilt(int(k)))) < 1e-11


@pytest.mark.parametrize("a", A_VALUES)
def test_array_checks_match_per_k_route(a):
    # the array paths against one OrientedLine and one p/|p| per k
    traj = SpiralTrajectory(a, kmax=110_000)
    ks = np.unique(np.geomspace(traj.k0 + 1, 100_000, 90).astype(int))
    dist = traj.verify_distance(ks)
    alpha, beta = traj.verify_equal_angles(ks)
    for i, k in enumerate(ks.tolist()):
        p = traj.vertex(k)
        u = p / np.linalg.norm(p)
        line = OrientedLine(p, traj.direction(k))
        assert abs(dist[i] - (math.sqrt(line_distance_sq(line)) - SQRT2)) <= 1e-15
        assert abs(alpha[i] - angle_between(traj.direction(k), u)) <= 1e-15
        assert abs(beta[i] - angle_between(traj.direction(k - 1), u)) <= 1e-15


@pytest.mark.parametrize("a", A_VALUES)
def test_verify_distance_is_the_elliptic_i1(a):
    # one I1 routine: the distance check and the elliptic integrals give the
    # same bits on every witness line, for an array of k and for one k
    traj = SpiralTrajectory(a, kmax=110_000)
    ks = np.concatenate([np.arange(traj.k0, traj.k0 + 2000),
                         np.unique(np.geomspace(traj.k0 + 2000, 100_000, 800).astype(int))])
    x, v = traj.vertex(ks), traj.direction(ks)
    i1 = first_integrals(EllipticCone(2.0, 1.0), *x.T, *v.T)[0]
    dist = traj.verify_distance(ks)
    assert np.array_equal(dist, np.sqrt(i1) - SQRT2)
    assert np.array_equal(traj.verify_distance(ks[:2000].reshape(40, 50)), dist[:2000].reshape(40, 50))
    for k in ks[::97].tolist():
        i1_k = first_integrals(EllipticCone(2.0, 1.0), *traj.vertex(k), *traj.direction(k))[0]
        assert traj.verify_distance(k) == math.sqrt(i1_k) - SQRT2


def test_alpha_recurrence_near_lower_boundary():
    # at a = -1.57, cos A_k0 = 2.8e-11 and arccos(sin A_k) lost ~1.4e-8
    a = -1.57
    ks = np.arange(k0(a), k0(a) + 2000)
    traj = SpiralTrajectory(a, kmax=int(ks[-1]) + 1)
    al = traj.alpha_closed(ks)
    assert np.abs(traj.alpha_closed(ks + 1) - (al - theta(ks))).max() < 1e-11
    assert np.abs(np.cos(al) - np.sin(traj.tilt(ks))).max() < 1e-15


def test_alpha_limit():
    for a in (-1.0, 0.3, 1.2):
        traj = SpiralTrajectory(a, kmax=200_000)
        assert float(traj.alpha_closed(200_000)) == pytest.approx(
            math.pi / 2 - a, abs=2e-3
        )


@pytest.mark.parametrize("a", A_VALUES)
def test_alpha_recurrence(a):
    traj = SpiralTrajectory(a, kmax=110_000)
    ks = np.unique(np.geomspace(traj.k0, 99_000, 90).astype(int))
    al = traj.alpha_closed(ks)
    al_next = traj.alpha_closed(ks + 1)
    th = theta(ks)
    assert np.abs(al_next - (al - th)).max() < 1e-11


def test_alpha_recurrence_from_geometry(spiral_a0):
    # recompute the angles from the chord vectors, not the closed form
    for k in (2, 17, 333, 5000, 60_000):
        v_k = spiral_a0.direction(k)
        v_n = spiral_a0.direction(k + 1)
        p_k = spiral_a0.vertex(k)
        p_n = spiral_a0.vertex(k + 1)
        al_k = angle_between(v_k, unit(p_k))
        al_n = angle_between(v_n, unit(p_n))
        th_k = float(theta(k))
        assert abs(al_n - (al_k - th_k)) < 1e-11


# ---------------------------------------------------------------------------
# chords and lengths
# ---------------------------------------------------------------------------

def chord_length_direct(traj, k):
    """|p_{k+1} - p_k| by plain subtraction (oracle for moderate k)."""
    return np.linalg.norm(traj.vertex(np.asarray(k) + 1) - traj.vertex(k), axis=-1)


def test_chord_closed_vs_direct(spiral_a0):
    ks = np.arange(1, 2000)
    closed = spiral_a0.chord_length(ks)
    direct = chord_length_direct(spiral_a0, ks)
    assert np.abs(closed - direct).max() < 1e-12


def test_chord_matches_stable_vector(spiral_a0):
    ks = np.array([1, 10, 100, 10_000, 100_000])
    closed = spiral_a0.chord_length(ks)
    stable = np.linalg.norm(spiral_a0._chord_vector(ks), axis=-1)
    assert np.abs(closed / stable - 1.0).max() < 1e-13


def test_chord_telescoping_identity(spiral_a0):
    # chord_k = sqrt(2) tan(A_{k+1}) - sqrt(2) tan(A_k)
    ks = np.unique(np.geomspace(1, 100_000, 50).astype(int))
    chords = spiral_a0.chord_length(ks)
    tans = SQRT2 * (np.tan(spiral_a0.tilt(ks + 1)) - np.tan(spiral_a0.tilt(ks)))
    assert np.abs(chords - tans).max() < 1e-12


def test_partial_length_matches_chord_sum(spiral_a0):
    for hi in (100, 10_000):
        ks = np.arange(1, hi + 1)
        total = float(np.sum(spiral_a0.chord_length(ks)))
        tele = float(spiral_a0.partial_length(1, hi))
        assert abs(total - tele) < 1e-12


def test_total_length_closed_form():
    for a in (-1.0, 0.0, 1.0):
        traj = SpiralTrajectory(a, kmax=200_000)
        total = traj.total_length()
        partial = float(traj.partial_length(traj.k0, 199_000))
        assert total > partial > 0.0
        # remaining tail ~ sqrt(2) sec^2(a) S_{K+1}
        tail_bound = 4.0 * float(traj.table.S[199_001 - 1]) / math.cos(a) ** 2
        assert total - partial < tail_bound
        s = float(traj.table.S[traj.k0 - 1])
        explicit = SQRT2 * math.sin(s) / (math.cos(a - s) * math.cos(a))
        assert total == pytest.approx(explicit, rel=1e-15)


# ---------------------------------------------------------------------------
# normal frames and sigma
# ---------------------------------------------------------------------------

def test_sigma_needs_k_ge_2():
    with pytest.raises(DomainError):
        sigma(1)


def test_sigma_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 60

    def sig_mp(k):
        d = lambda i: 1 / mp.sqrt(i) - 1 / mp.sqrt(i + 1)
        th = lambda i: 2 * mp.asin(mp.sin(d(i) / 2) / mp.sqrt(2))
        g = mp.sin(th(k) / 2) * mp.cos(th(k - 1) / 2) + mp.cos(th(k) / 2) * mp.sin(th(k - 1) / 2)
        f = mp.sqrt(2) * (mp.cos(d(k) / 2) * mp.cos(th(k - 1) / 2)
                          - mp.cos(th(k) / 2) * mp.cos(d(k - 1) / 2))
        return float(mp.atan2(f, g))

    for k in (2, 5, 16, 100, 10_000, 10**6):
        assert sigma(k) == pytest.approx(sig_mp(k), rel=5e-15)


def test_sigma_asymptotics():
    b4 = sigma(10**4) * (10**4) ** 2.5
    b6 = sigma(10**6) * (10**6) ** 2.5
    assert abs(b4 - 3.0 / 16.0) <= 0.01 * (3.0 / 16.0)
    assert abs(b6 - 3.0 / 16.0) <= 0.001 * (3.0 / 16.0)


def test_sigma_envelope():
    # |b_k - 3/16| decays like k^-2 (remainder one order of k^2 down)
    ks = np.array([100, 1000, 10_000, 100_000])
    b = sigma(ks.astype(float)) * ks.astype(float) ** 2.5
    resid = np.abs(b - 3.0 / 16.0)
    c = resid * ks.astype(float) ** 2
    assert c.max() < 1.0  # measured constant ~0.14
    assert resid[-1] < resid[0]


def test_normal_frame_vs_chord_projection(spiral_a0):
    for k in (2, 3, 10, 100, 500, 1000):
        frame = normal_w(k)
        dv = spiral_a0.direction(k) - spiral_a0.direction(k - 1)
        proj = dv[:2]
        cross = frame.w[0] * proj[1] - frame.w[1] * proj[0]
        ang = math.atan2(abs(cross), float(np.dot(frame.w, proj)))
        assert ang < 1e-10
        # w is unit and q sits on the unit circle
        assert np.linalg.norm(frame.w) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(frame.q) == pytest.approx(1.0, abs=1e-15)


def test_tangent_equal_projection(spiral_a0):
    # <T_k, v_k> = <T_k, v_{k-1}> -- the billiard condition on the section
    for k in (2, 10, 100, 5000, 50_000):
        frame = normal_w(k)
        t3 = np.array([frame.tangent[0], frame.tangent[1], 0.0])
        v_k = spiral_a0.direction(k)
        v_km = spiral_a0.direction(k - 1)
        assert abs(float(np.dot(t3, v_k) - np.dot(t3, v_km))) < 1e-10


def test_reflection_law_at_vertices(spiral_a0):
    # tangential components along p_k and T_k agree; the normal flips
    for k in (2, 10, 100, 5000):
        frame = normal_w(k)
        p = spiral_a0.vertex(k)
        v_in = spiral_a0.direction(k - 1)
        v_out = spiral_a0.direction(k)
        t3 = np.array([frame.tangent[0], frame.tangent[1], 0.0])
        assert abs(float(np.dot(p, v_out) - np.dot(p, v_in))) < 1e-10
        assert abs(float(np.dot(t3, v_out) - np.dot(t3, v_in))) < 1e-10
        n = unit(np.cross(p, t3))
        assert float(np.dot(v_out, n)) == pytest.approx(-float(np.dot(v_in, n)), abs=1e-10)
        # and the mirror law reproduces the outgoing chord direction
        assert np.abs(reflect_direction(v_in, n) - v_out).max() < 1e-10


def test_sigma_vectorized_matches_scalar():
    ks = np.array([2.0, 10.0, 1234.0])
    vec = sigma(ks)
    for i, k in enumerate(ks):
        assert vec[i] == sigma(float(k))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_theta_below_delta_property(k):
    assert 0.0 < float(theta(k)) < float(delta(k))


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_tail_bound_property(k):
    s = theta_tail(k)
    assert 0.0 < s < k ** -0.5


@given(st.floats(min_value=-math.pi / 2 + 1e-3, max_value=math.pi / 2))
@settings(max_examples=60, deadline=None)
def test_k0_admissibility_property(a):
    kk = k0(a)
    assert theta_tail(kk) < a + math.pi / 2
