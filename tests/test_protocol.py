import functools
import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdiew import protocol, verify
from mdiew.cli import FIG2_DEFAULT_STEP, FIG3_DEFAULT_STEP
from mdiew.linalg import negativity as negativity_oracle
from mdiew.measurement import averaged_channel
from mdiew.protocol import (
    LAMBDA_WINDOW,
    POLICY_EQUAL,
    POLICY_THRESHOLD,
    boundary_alpha_for_n,
    delta_negativity,
    delta_negativity_at_threshold,
    equal_sharpness_curve,
    f_of_lambda,
    n_max_over_lambda,
    negativity_walpha,
    run_equal_sharpness,
    run_threshold_protocol,
    threshold_from_negativity,
)
from mdiew.states import (
    ALPHA_MAX,
    alpha_from_entanglement,
    entanglement_entropy,
    werner_alpha,
    werner_strength,
)
from mdiew.witness import (
    DETECTION_THRESHOLD,
    mdi_ew_closed_form_unsharp,
    mdi_ew_numeric,
    werner_beta,
)

from conftest import (
    assert_bit_identical,
    equal_sharpness_count,
    increasing_root,
    log_margin,
    peak_sharpness,
    threshold_success_count,
)

alphas = st.floats(0.05, ALPHA_MAX)
lambdas_open = st.floats(0.05, 1.0)

F_ONE_THIRD = 0.9670861794813578  # high-precision evaluation of the decay factor


# --- decay factor -------------------------------------------------------------

def test_f_spot_values():
    assert f_of_lambda(0.0) == 1.0
    assert f_of_lambda(1.0) == 0.5
    assert f_of_lambda(1 / 3) == pytest.approx(F_ONE_THIRD, abs=1e-15)
    # radical form evaluated directly
    direct = 0.5 * (1 + (math.sqrt(4 / 3) + math.sqrt(20 / 3)) / 4)
    assert f_of_lambda(1 / 3) == pytest.approx(direct, abs=1e-15)


# f'(0) = 0: near lambda = 0, f falls by about (high^2 - low^2)/3, below a
# double's rounding for a pair such as (0, 4e-9); apart from 0 it falls by
# more, so pairs whose squares differ by over 1e-12 are resolved
@given(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
       .filter(lambda t: abs(t[0] ** 2 - t[1] ** 2) > 1e-12))
def test_f_strictly_decreasing(pair):
    low, high = sorted(pair)
    assert f_of_lambda(low) > f_of_lambda(high)
    assert 0.5 <= f_of_lambda(high) <= 1.0


def test_f_range_errors():
    for lam in (-0.1, 1.1):
        with pytest.raises(ValueError):
            f_of_lambda(lam)


# --- threshold schedule ----------------------------------------------------------

def test_threshold_protocol_maximal_entanglement():
    trace = run_threshold_protocol(ALPHA_MAX)
    assert trace.n_success == 14
    assert trace.policy == POLICY_THRESHOLD
    assert len(trace.records) == 15  # one trailing infeasible observer
    assert [r.success for r in trace.records] == [True] * 14 + [False]
    first = trace.records[0]
    assert first.lam == pytest.approx(1 / 3, abs=1e-12)
    assert first.q == 1.0
    assert first.witness_value == pytest.approx(-0.125, abs=1e-12)
    assert first.negativity == pytest.approx(0.5, abs=1e-12)
    # fifteenth observer holds too little weight: q just under 1/3
    assert trace.records[13].q > 1 / 3 > trace.records[14].q
    assert trace.records[14].q == pytest.approx(0.32555732132496057, abs=1e-12)


def test_records_are_slots_objects_built_through_their_own_init(monkeypatch):
    # perfbench's tracer wraps BobRecord.__init__ in the class's own dict and
    # counts one span per observer, so every record must be built through it
    assert "__init__" in vars(protocol.BobRecord)
    init = vars(protocol.BobRecord)["__init__"]
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(protocol.BobRecord, "__init__", counted)
    trace = run_threshold_protocol(ALPHA_MAX)
    monkeypatch.undo()
    assert len(calls) == len(trace.records) == 15
    fields = {"index": 1, "lam": 0.5, "q": 1.0, "witness_value": -0.1, "negativity": 0.3,
              "success": True}
    record = protocol.BobRecord(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == ("BobRecord(index=1, lam=0.5, q=1.0, witness_value=-0.1, "
                            "negativity=0.3, success=True)")
    # slots only: no per-instance __dict__ to fill on each build
    assert not hasattr(record, "__dict__")
    assert not hasattr(trace, "__dict__")


def test_threshold_records_satisfy_recursion():
    for alpha, margin in itertools.product([1e-3, 0.05, 0.3, 0.6, ALPHA_MAX], [0.0, 0.01]):
        trace = run_threshold_protocol(alpha, margin)
        for current, following in zip(trace.records, trace.records[1:]):
            assert following.q == pytest.approx(f_of_lambda(current.lam) * current.q, abs=1e-12)
        # each record's negativity is negativity_walpha's, bit for bit, under both policies
        equal = [record for lam in (0.6, 1.0) for record in run_equal_sharpness(alpha, lam).records]
        for record in [*trace.records, *equal]:
            assert record.negativity == negativity_walpha(record.q, alpha)
        if margin == 0.0:
            assert trace.n_success == threshold_success_count(alpha)


def test_threshold_protocol_with_margin():
    margin = 0.01
    trace = run_threshold_protocol(ALPHA_MAX, margin)
    from mdiew.witness import threshold_lambda
    for record in trace.records[:-1]:
        expected = min(threshold_lambda(record.q, ALPHA_MAX) + margin, 1.0)
        assert record.lam == pytest.approx(expected, abs=1e-12)
        # strictly above threshold, so the payoff at the used sharpness is negative
        assert mdi_ew_closed_form_unsharp(record.q, ALPHA_MAX, record.lam) < 0
    assert trace.n_success <= 14
    with pytest.raises(ValueError, match="margin"):
        run_threshold_protocol(0.5, -0.1)


@pytest.mark.parametrize("alpha", [0.5, 1e-10])
def test_threshold_protocol_rejects_nan_margin(alpha):
    # at alpha = 1e-10 the first observer already fails, so no later check sees the margin
    with pytest.raises(ValueError, match="margin must be non-negative"):
        run_threshold_protocol(alpha, math.nan)


def test_threshold_protocol_rejects_infinite_margin():
    # an infinite margin would run (every sharpness clips to 1) but has no JSON form
    with pytest.raises(ValueError, match="margin must be non-negative and finite; got inf"):
        run_threshold_protocol(0.5, math.inf)


def test_threshold_counts_monotone_in_entanglement():
    alphas = [alpha_from_entanglement(e) for e in np.linspace(0.01, 1.0, 40)]
    counts = threshold_success_count(np.array(alphas)).tolist()
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 14
    assert counts[0] == 1  # barely entangled pairs still serve one observer
    entropies = [entanglement_entropy(alpha) for alpha in alphas]
    assert all(a < b for a, b in zip(entropies, entropies[1:]))


@given(st.floats(0.0, ALPHA_MAX, exclude_min=True))
@example(ALPHA_MAX)
@example(1e-300)
@example(0.5923410886765756)  # the 13 -> 14 edge
@example(2.499944695699696e-13)  # the 0 -> 1 edge
def test_threshold_count_matches_trace(alpha):
    assert threshold_success_count(alpha) == run_threshold_protocol(alpha).n_success
    # fig1's count: the number of count edges at or below alpha
    assert (np.searchsorted(protocol._COUNT_EDGES, alpha, side="right")
            == run_threshold_protocol(alpha).n_success)


@given(st.lists(st.floats(0.0, ALPHA_MAX, exclude_min=True), max_size=30))
def test_threshold_count_array_matches_scalar_calls(alphas):
    counts = threshold_success_count(np.array(alphas))
    assert counts.shape == (len(alphas),)
    assert counts.tolist() == [threshold_success_count(alpha) for alpha in alphas]
    assert type(threshold_success_count(ALPHA_MAX)) is int
    grid = np.array(alphas + [ALPHA_MAX]).reshape(-1, 1)
    assert np.array_equal(threshold_success_count(grid).ravel(),
                          threshold_success_count(grid.ravel()))


def test_threshold_count_rejects_out_of_range_alpha():
    for bad in (0.0, -0.1, 0.8, [0.5, 0.9]):
        with pytest.raises(ValueError, match="alpha"):
            threshold_success_count(bad)


def test_boundary_for_fourteen_observers():
    alpha, entropy = boundary_alpha_for_n(14)
    assert entropy == pytest.approx(0.9348408, abs=1e-4)
    assert threshold_success_count(alpha) == 14
    assert threshold_success_count(alpha_from_entanglement(entropy - 1e-4)) == 13


@pytest.mark.parametrize("n_target", range(1, 15))
def test_boundary_is_exact_to_adjacent_floats(n_target):
    alpha, entropy = boundary_alpha_for_n(n_target)
    below = math.nextafter(alpha, 0.0)
    assert run_threshold_protocol(alpha).n_success >= n_target
    assert run_threshold_protocol(below).n_success < n_target
    assert entropy == entanglement_entropy(alpha)
    for point in (below, alpha, math.nextafter(alpha, 1.0)):
        assert threshold_success_count(point) == run_threshold_protocol(point).n_success


def test_boundary_rejects_unreachable_targets():
    with pytest.raises(ValueError, match="never reaches"):
        boundary_alpha_for_n(15)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            boundary_alpha_for_n(bad)
    # one observer needs only 1/c < 1 - FEASIBILITY_TOL, i.e. alpha ~ 2.5e-13
    alpha, _ = boundary_alpha_for_n(1)
    assert alpha == pytest.approx(2.5e-13, rel=1e-4)


def test_count_edges_equal_the_adjacent_float_bisection():
    def reached(alpha, n_target):
        return all(step[3] for step in itertools.islice(protocol._observers(alpha), n_target))

    edges = protocol._COUNT_EDGES
    assert len(edges) == 14
    assert type(edges) is tuple
    for n_target, edge in enumerate(edges, 1):
        lo, hi = 0.0, ALPHA_MAX
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if reached(mid, n_target):
                hi = mid
            else:
                lo = mid
        assert edge == hi
    assert boundary_alpha_for_n(14)[0] == 0.5923410886765756


def _mp_decay(lam):
    return (1 + (mpmath.sqrt((1 + 3 * lam) * (1 - lam))
                 + mpmath.sqrt((3 - 3 * lam) * (3 + lam))) / 4) / 2


def test_count_edges_match_mpmath_backward_orbit():
    # x_1 = c and x_{k+1} = g(x_k) = x_k f(1/x_k); observer k succeeds iff
    # 1/x_k < 1 - FEASIBILITY_TOL, so count >= n iff c >= c_n with
    # c_1 = 1/(1 - FEASIBILITY_TOL) and c_{n+1} = g^-1(c_n), run up to the
    # first entry above the largest strength, c(1/sqrt(2)) = 3
    with mpmath.workdps(50):
        orbit = [1 / (1 - mpmath.mpf(protocol.FEASIBILITY_TOL))]
        while orbit[-1] <= 3:
            target = orbit[-1]
            orbit.append(mpmath.findroot(lambda x: x * _mp_decay(1 / x) - target,
                                         (target, 2 * target), solver="anderson"))
        edges = protocol._COUNT_EDGES
        assert len(orbit) == len(edges) + 1
        for n_target in range(2, 15):
            s = (orbit[n_target - 1] - 1) / 2
            alpha = mpmath.sqrt((1 - mpmath.sqrt(1 - s * s)) / 2)
            assert abs(edges[n_target - 1] / alpha - 1) < 1e-15
        # no fifteenth edge: c_15 exceeds the largest strength c(1/sqrt(2)) = 3
        margin = orbit[14] - 3
        assert margin == pytest.approx(7.47e-3, abs=5e-6)
        assert abs(protocol._UNREACHED_THRESHOLD * orbit[14] - 1) < 1e-15
        assert float(margin) == pytest.approx(
            1 / protocol._UNREACHED_THRESHOLD - werner_strength(ALPHA_MAX), abs=1e-13)
    assert (verify.check_threshold_protocol_count().detail
            == f"n_success = 14; c_15 - 3 = {float(margin):.2e}")


def _threshold_orbit_by_callbacks():
    """First-observer thresholds 1/c_n at the count edges n = 1, 2, ..., and one past the last.

    An observer at threshold lam leaves the next one the threshold lam/f(lam),
    which increases in lam, so each step back solves log(lam/f(lam)) =
    log(previous threshold): increasing_root on the level-0 log_margin,
    started cold at the previous threshold.  lam/f(lam) < 2 lam, since
    f > 1/2 below lam = 1, so the root lies above half of it.
    """
    orbit = [1.0 - protocol.FEASIBILITY_TOL]
    while 1.0 / orbit[-1] <= werner_strength(ALPHA_MAX):
        excess = functools.partial(log_margin, 0, math.log(orbit[-1]), 1.0)
        orbit.append(increasing_root(excess, 0.5 * orbit[-1], orbit[-1], orbit[-1]))
    return tuple(orbit)


def test_threshold_orbit_equals_the_callback_orbit():
    # the shipped threshold past the last edge is the orbit's last entry, bit for bit
    orbit = _threshold_orbit_by_callbacks()
    assert len(orbit) == len(protocol._COUNT_EDGES) + 1
    assert orbit[-1] == protocol._UNREACHED_THRESHOLD
    assert 1.0 / orbit[-2] <= werner_strength(ALPHA_MAX) < 1.0 / orbit[-1]


def _decay_and_slope(lam):
    """f and its closed-form derivative f' on an array of sharpness values."""
    root_a = np.sqrt((1 + 3 * lam) * (1 - lam))
    root_b = np.sqrt((3 - 3 * lam) * (3 + lam))
    return (1 + (root_a + root_b) / 4) / 2, ((1 - 3 * lam) / root_a - 3 * (1 + lam) / root_b) / 8


def test_threshold_schedule_is_optimal():
    # the closed forms are f and its derivative
    probe = np.linspace(0.05, 0.95, 19)
    decay_value, decay_slope = _decay_and_slope(probe)
    assert np.array_equal(decay_value, [f_of_lambda(lam) for lam in probe])
    step = 1e-6
    difference = np.array([f_of_lambda(lam + step) - f_of_lambda(lam - step)
                           for lam in probe]) / (2 * step)
    assert np.allclose(decay_slope, difference, rtol=1e-6, atol=0.0)
    # f decreases on (0, 1): a sharper successful measurement leaves less
    _, decay_slope = _decay_and_slope(np.linspace(0.0, 1.0, 1_000_001)[1:-1])
    assert np.all(decay_slope < 0)
    # g(x) = x f(1/x) increases on [1, 3]: a smaller x_k never overtakes;
    # at x = 1 f' is -inf and g' +inf
    x = np.linspace(1.0, 3.0, 1_000_001)[1:]
    decay_value, decay_slope = _decay_and_slope(1 / x)
    assert np.all(decay_value - decay_slope / x > 0)


def test_count_edges_count_like_the_runner_near_every_edge():
    # 64 floats on each side of each edge: the table, the array oracle and the runner agree
    edges = protocol._COUNT_EDGES
    points = (np.array(edges).view(np.int64)[:, None]
              + np.arange(-64, 65)).view(np.float64).ravel()
    counts = np.searchsorted(edges, points, side="right")
    assert counts.tolist() == threshold_success_count(points).tolist()
    assert counts.tolist() == [run_threshold_protocol(point).n_success for point in points]


# --- equal sharpness ---------------------------------------------------------------

def test_equal_sharpness_sharp_limit():
    trace = run_equal_sharpness(ALPHA_MAX, 1.0)
    assert trace.n_success == 2
    assert trace.policy == POLICY_EQUAL
    assert [r.success for r in trace.records] == [True, True, False]
    qs = [r.q for r in trace.records]
    assert qs == pytest.approx([1.0, 0.5, 0.25])


def test_equal_sharpness_half():
    # f(1/2)^5 > 2/3 > f(1/2)^6 keeps exactly six observers alive
    decay = f_of_lambda(0.5)
    assert decay**5 > 2 / 3 > decay**6
    assert run_equal_sharpness(ALPHA_MAX, 0.5).n_success == 6


def test_equal_sharpness_at_open_boundary():
    trace = run_equal_sharpness(ALPHA_MAX, 1 / 3)
    assert trace.n_success == 0
    assert len(trace.records) == 1
    assert abs(trace.records[0].witness_value) < 1e-12


def test_detection_is_strictly_below_the_threshold():
    # At alpha = 1/sqrt(2), c = 3 and observer 1's payoff is (1 - 3 lam)/16.
    cases = [(1 / 3, False),            # payoff exactly 0.0
             ((1 + 8e-12) / 3, False),  # payoff in (-1e-12, 0)
             ((1 + 32e-12) / 3, True)]  # payoff below -1e-12
    payoffs = []
    for lam, succeeds in cases:
        trace = run_equal_sharpness(ALPHA_MAX, lam)
        payoffs.append(trace.records[0].witness_value)
        for count in (trace.n_success, equal_sharpness_count(ALPHA_MAX, lam)):
            assert (count >= 1) == succeeds
    assert payoffs[0] == 0.0
    assert -DETECTION_THRESHOLD < payoffs[1] < 0.0
    assert payoffs[2] < -DETECTION_THRESHOLD


def test_equal_sharpness_records_track_payoff():
    trace = run_equal_sharpness(0.55, 0.8)
    for record in trace.records:
        expected = mdi_ew_closed_form_unsharp(record.q, 0.55, 0.8)
        assert record.witness_value == pytest.approx(expected, abs=1e-14)
        assert record.success == (record.witness_value < -1e-12)
    with pytest.raises(ValueError, match="sharpness"):
        run_equal_sharpness(0.5, 0.0)
    for alpha in (0.0, 0.75, 2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/sqrt\(2\)\]"):
            run_equal_sharpness(alpha, 0.5)


@given(alphas, lambdas_open)
def test_equal_count_matches_trace(alpha, lam):
    assert equal_sharpness_count(alpha, lam) == run_equal_sharpness(alpha, lam).n_success


@given(alphas)
@example(ALPHA_MAX)
def test_equal_count_matches_trace_on_window_edges(alpha):
    for window in protocol._superlevel_windows([alpha])[0]:
        for edge in window:
            for lam in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)):
                if 0.0 < lam <= 1.0:
                    assert (equal_sharpness_count(alpha, lam)
                            == run_equal_sharpness(alpha, lam).n_success)


@given(alphas, st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=30))
def test_equal_count_array_matches_scalar_calls(alpha, lams):
    counts = equal_sharpness_count(alpha, np.array(lams))
    assert counts.shape == (len(lams),)
    assert counts.tolist() == [equal_sharpness_count(alpha, lam) for lam in lams]
    assert type(equal_sharpness_count(alpha, 0.5)) is int


def test_equal_count_rejects_out_of_range_sharpness():
    for bad in (0.0, 1.5, [0.5, 0.0]):
        with pytest.raises(ValueError, match="sharpness"):
            equal_sharpness_count(ALPHA_MAX, bad)
    # an array names its first bad entry, which NumPy's summary would hide
    lams = np.linspace(0.4, 1.0, 2000)
    lams[5] = 0.0
    with pytest.raises(ValueError, match=r"lie in \(0, 1\]; got 0\.0$"):
        equal_sharpness_count(ALPHA_MAX, lams)
    lams[1000] = math.nan
    with pytest.raises(ValueError, match=r"got 0\.0$"):
        equal_sharpness_count(ALPHA_MAX, lams)


@given(alphas, lambdas_open)
def test_success_flags_form_prefix(alpha, lam):
    trace = run_equal_sharpness(alpha, lam)
    flags = [r.success for r in trace.records]
    assert flags == sorted(flags, reverse=True)
    assert trace.n_success == sum(flags)


@given(alphas, st.floats(0.01, 1.0))
def test_negativity_decays_along_traces(alpha, lam):
    trace = run_equal_sharpness(alpha, lam)
    negs = [r.negativity for r in trace.records]
    assert all(a >= b - 1e-15 for a, b in zip(negs, negs[1:]))
    for a, b in zip(negs, negs[1:]):
        if a > 1e-12:  # strict decay while entanglement remains
            assert b < a


def test_sharp_survival_depends_on_strength():
    # two observers survive sharp measurements iff the strength exceeds 2
    for alpha in (0.3, 0.45, ALPHA_MAX):
        expected = 2 if werner_strength(alpha) > 2 else 1
        assert run_equal_sharpness(alpha, 1.0).n_success == expected


# --- sweeps over the common sharpness ------------------------------------------------

def test_n_max_for_maximal_and_near_maximal():
    best, intervals = n_max_over_lambda(ALPHA_MAX)
    assert best == 6
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert 1 / 3 + 1e-3 < lo < hi < 1.0 - 1e-3
    assert equal_sharpness_count(ALPHA_MAX, (lo + hi) / 2) == 6
    assert equal_sharpness_count(ALPHA_MAX, lo - 1e-5) < 6
    assert equal_sharpness_count(ALPHA_MAX, hi + 1e-5) < 6

    best_935, _ = n_max_over_lambda(alpha_from_entanglement(0.935))
    assert best_935 == 5


def test_equal_sharpness_curve_shape():
    curve = equal_sharpness_curve(ALPHA_MAX, 1e-3)
    lams = [lam for lam, _ in curve]
    counts = [n for _, n in curve]
    assert lams[-1] == 1.0
    assert all(1 / 3 < lam <= 1.0 for lam in lams)
    assert counts[-1] == 2
    assert max(counts) == 6
    # plateau-unimodal: counts never dip below a level they later exceed
    peak = counts.index(max(counts))
    assert all(a <= b for a, b in zip(counts[:peak], counts[1:peak + 1]))
    assert all(a >= b for a, b in zip(counts[peak:], counts[peak + 1:]))


@pytest.mark.parametrize("k", [169, 271, 289, 338, 4925])
def test_equal_sharpness_curve_stays_above_one_third(k):
    # at the step (2/3)/k the floor count reaches one point further down, to
    # 0.33333333333333326; the curve drops it and keeps the others as they were
    step = (2.0 / 3.0) / k
    curve = equal_sharpness_curve(0.5, step)
    lams = [lam for lam, _ in curve]
    assert all(1 / 3 < lam <= 1.0 for lam in lams)
    assert lams == (1.0 - step * np.arange(k + 1))[::-1][1:].tolist()
    assert [n for _, n in curve] == equal_sharpness_count(0.5, np.array(lams)).tolist()


# the last two lie below the CLI's 1e-6 floor: the grid holds ~(2/3)/step
# floats, so 1e-12 would ask for ~6.7e11 of them, and 5e-324 overflows the count
@pytest.mark.parametrize("step", [-0.1, 0.0, math.inf, math.nan,
                                  math.nextafter(1e-6, 0.0), 5e-324])
def test_equal_sharpness_curve_rejects_bad_step(step):
    with pytest.raises(ValueError, match="grid step"):
        equal_sharpness_curve(ALPHA_MAX, step)


def test_equal_sharpness_curve_takes_the_floor_step():
    assert len(equal_sharpness_curve(ALPHA_MAX, 1e-6)) == 666667


@pytest.mark.parametrize("entropy", [1.0, 0.935])
def test_equal_sharpness_curve_matches_the_runner_on_the_default_grid(entropy):
    # fig2's counts come from the windows; the runner walks the q-recursion
    alpha = alpha_from_entanglement(entropy)
    curve = equal_sharpness_curve(alpha, FIG2_DEFAULT_STEP)
    assert [lam for lam, _ in curve] == protocol._lambda_grid(FIG2_DEFAULT_STEP)
    assert [n for _, n in curve] == [run_equal_sharpness(alpha, lam).n_success
                                     for lam, _ in curve]


@given(alphas)
def test_equal_sharpness_curve_matches_the_array_recursion(alpha):
    lams, counts = zip(*equal_sharpness_curve(alpha, 1e-3))
    assert list(counts) == equal_sharpness_count(alpha, np.array(lams)).tolist()


def _array_lambda_grid(step):
    """The grid as the array expression that the list grid replaced."""
    lo, hi = LAMBDA_WINDOW
    count = int(math.floor((hi - lo) / step))
    lams = (hi - step * np.arange(count + 1))[::-1]
    return lams[lams > lo]


def test_lambda_grid_equals_the_array_grid():
    steps = [(2.0 / 3.0) / k for k in (169, 271, 289, 338, 4925)]
    steps += [1e-6, 0.25, FIG2_DEFAULT_STEP]
    steps += (10.0 ** np.random.default_rng(33).uniform(-6.0, math.log10(0.25), 12)).tolist()
    for step in steps:
        grid = protocol._lambda_grid(step)
        assert type(grid) is list and all(type(lam) is float for lam in grid[:3])
        assert_bit_identical(np.array(grid), _array_lambda_grid(step).tolist())


def test_equal_sharpness_curve_counts_points_on_window_edges(monkeypatch):
    # nested windows whose ends are grid points, one of them a single point
    lams = protocol._lambda_grid(0.01)
    windows = [(lams[10], lams[-5]), (lams[20], lams[30]), (lams[25], lams[25])]
    monkeypatch.setattr(protocol, "_superlevel_windows", lambda alphas: [windows])
    counts = [n for _, n in equal_sharpness_curve(ALPHA_MAX, 0.01)]
    expected = [sum(lo <= lam <= hi for lo, hi in windows) for lam in lams]
    assert counts == expected
    assert counts[9:11] == [0, 1] and counts[-5:-3] == [1, 0]
    assert counts[19:21] == [1, 2] and counts[30:32] == [2, 1] and counts[24:27] == [2, 3, 2]


# Quarter steps, so points repeat and fall on window ends; an upper end may be inf,
# as each of fig1's windows [edge n, inf) is
_window_bounds = st.integers(-4, 12).map(lambda k: k / 4)


@given(st.lists(_window_bounds, max_size=40),
       st.lists(st.one_of(_window_bounds, st.just(math.inf)), max_size=14))
@example([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, math.inf, math.inf, math.inf])
def test_window_counts_match_the_brute_force_count(points, bounds):
    points.sort()
    bounds.sort()
    # the lower half of the sorted bounds pairs with the upper half, outer window first
    depth = len(bounds) // 2
    windows = list(zip(bounds[:depth], bounds[::-1][:depth]))
    assert protocol._window_counts(points, windows) == [
        sum(lo <= p <= hi for lo, hi in windows) for p in points]


def test_equal_sharpness_curve_without_windows_counts_zero():
    alpha = alpha_from_entanglement(1e-300)
    assert protocol._superlevel_windows([alpha]) == [[]]
    curve = equal_sharpness_curve(alpha, 1e-3)
    assert len(curve) == len(protocol._lambda_grid(1e-3))
    assert {n for _, n in curve} == {0}


def range_widths_at_maximal_entanglement():
    """fig3's row at E = 1, the top of its grid, keyed by the count n."""
    entropies, widths = protocol._range_table(0.5)
    assert entropies[-1] == 1.0 and alpha_from_entanglement(1.0) == ALPHA_MAX
    return dict(enumerate(widths[-1], 1))


def test_lambda_range_partitions_the_window():
    table = range_widths_at_maximal_entanglement()
    assert set(table) == {1, 2, 3, 4, 5, 6}
    # measures of {count = n} tile (1/3, 1] together with the count-0 set
    assert sum(table.values()) <= 2 / 3 + 1e-9


def test_lambda_range_covers_full_window_with_failures():
    # count >= 1 on (1/(q c), 1]; below that nothing is detected
    strength = werner_strength(ALPHA_MAX)
    table = range_widths_at_maximal_entanglement()
    level_one = sum(table.values())
    expected = 1.0 - 1.0 / strength
    assert level_one == pytest.approx(expected, abs=1e-5)
    zero_set = 2 / 3 - level_one
    assert zero_set + sum(table.values()) == pytest.approx(2 / 3, abs=1e-12)


def test_two_observer_range_includes_sharp_endpoint():
    assert equal_sharpness_count(ALPHA_MAX, 1.0) == 2
    assert range_widths_at_maximal_entanglement()[2] > 0.0


WINDOW_ENTROPIES = [1.0, 0.935, 0.6]


def assert_edges_flip_the_count(alpha, windows):
    """Each solved edge flips the count of its level within 1e-13."""
    for level, (lo, hi) in enumerate(windows, start=1):
        assert 1 / 3 < lo < hi <= 1.0
        if lo > 1 / 3:
            below, above = equal_sharpness_count(alpha, np.array([lo - 1e-13, lo + 1e-13]))
            assert below < level <= above
        if hi < 1.0:
            below, above = equal_sharpness_count(alpha, np.array([hi - 1e-13, hi + 1e-13]))
            assert above < level <= below


@pytest.mark.parametrize("entropy", WINDOW_ENTROPIES)
def test_window_edges_flip_the_count(entropy):
    alpha = alpha_from_entanglement(entropy)
    windows = protocol._superlevel_windows([alpha])[0]
    assert windows
    assert_edges_flip_the_count(alpha, windows)
    # the next level has no window: its count is never reached
    best = len(windows)
    assert n_max_over_lambda(alpha) == (best, [windows[-1]])
    assert equal_sharpness_count(alpha, peak_sharpness(best + 1)) == best


@pytest.mark.parametrize("entropy", WINDOW_ENTROPIES)
def test_window_lengths_match_dense_grid(entropy):
    alpha = alpha_from_entanglement(entropy)
    step = 1e-5
    counts = equal_sharpness_count(alpha, protocol._lambda_grid(step))
    windows = protocol._superlevel_windows([alpha])[0]
    for level in range(1, 10):
        lo, hi = windows[level - 1] if level <= len(windows) else (0.0, 0.0)
        assert abs((hi - lo) - step * np.count_nonzero(counts >= level)) <= 2 * step


def _scan_runs(mask):
    """Reference: inclusive (first, last) runs of True by an element-by-element scan."""
    runs = []
    n = len(mask)
    i = 0
    while i < n:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and mask[j + 1]:
            j += 1
        runs.append((i, j))
        i = j + 1
    return runs


def _true_runs(mask):
    """Inclusive (first, last) runs of True, from the edges of the padded mask.

    Reads the superlevel sets off a dense count grid, where the element scan
    would loop over every grid point.
    """
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(i), int(j) - 1) for i, j in zip(edges[::2], edges[1::2])]


@pytest.mark.parametrize("mask", [
    [],
    [True],
    [False],
    [True] * 7,
    [False] * 7,
    [True, False] * 5,                          # alternating, starts true
    [False, True] * 5,                          # alternating, ends true
    [False, True, False, False, True, False],   # single-point runs inside
    [True, True, False, True],                  # runs touching both ends
    [True, False, False, True, True],
    [False, False, True, True, True, False],
])
def test_true_runs_match_python_scan_on_edge_cases(mask):
    assert _true_runs(np.array(mask, dtype=bool)) == _scan_runs(mask)


@given(st.lists(st.booleans(), max_size=60))
def test_true_runs_match_python_scan(mask):
    got = _true_runs(np.array(mask, dtype=bool))
    assert got == _scan_runs(mask)
    assert all(type(i) is int and type(j) is int for i, j in got)


@pytest.mark.parametrize("entropy", WINDOW_ENTROPIES)
def test_superlevel_runs_match_element_scan(entropy):
    # each exact window is the one run of {count >= level} on a dense grid:
    # its first and last grid points are the grid points just inside the edges
    alpha = alpha_from_entanglement(entropy)
    lams = protocol._lambda_grid(1e-5)
    counts = equal_sharpness_count(alpha, lams)
    windows = [LAMBDA_WINDOW] + protocol._superlevel_windows([alpha])[0]
    last = len(lams) - 1
    for level in range(0, 10):
        runs = _true_runs(counts >= level)
        if level >= len(windows):
            assert runs == []
            continue
        lo, hi = windows[level]
        assert len(runs) == 1
        i, j = runs[0]
        assert lo <= lams[i] and (i == 0 or lams[i - 1] < lo)
        assert lams[j] <= hi and (j == last or lams[j + 1] > hi)


def test_peak_sharpness_does_not_depend_on_the_state():
    lams = protocol._lambda_grid(1e-5)
    decay = np.array([f_of_lambda(lam) for lam in lams])
    for level in range(1, 7):
        peak = protocol._PEAKS[level - 1]
        for entropy in WINDOW_ENTROPIES:
            strength = werner_strength(alpha_from_entanglement(entropy))
            margin = lams * decay ** (level - 1) * strength
            assert abs(lams[np.argmax(margin)] - peak) <= 1e-5
    assert protocol._PEAKS[0] == peak_sharpness(1) == 1.0


def fig3_alphas(step):
    """The states that fig3's table builder sweeps at `step`, in its order."""
    sweep = protocol._superlevel_windows
    with mock.patch.object(protocol, "_superlevel_windows", wraps=sweep) as recorded:
        protocol._range_table(step)
    (alphas,), _ = recorded.call_args
    return alphas


def test_window_edge_solves_stop_at_rounding_noise(monkeypatch):
    # near an edge, rounding noise in the log-margin keeps Newton steps at a
    # few ulps; the collapsed bracket, not the iteration cap, ends the solve
    evaluations = []
    logs = []
    log, edge = math.log, protocol._edge

    def counted_log(x):
        logs.append(x)
        return log(x)

    def counted_edge(*args):
        # each evaluation of the log-margin takes two logs: of lam and of f(lam)
        before = len(logs)
        result = edge(*args)
        calls, odd = divmod(len(logs) - before, 2)
        assert calls and not odd
        evaluations.append(calls)
        return result

    monkeypatch.setattr(math, "log", counted_log)
    monkeypatch.setattr(protocol, "_edge", counted_edge)
    for entropy in np.linspace(0.5, 1.0, 51):
        protocol._superlevel_windows([alpha_from_entanglement(entropy)])
    assert len(evaluations) > 100
    assert max(evaluations) <= 40
    # fig3's default grid, one state at a time (2,320 evaluations) and as one
    # sweep whose solves start from earlier states' edges (1,314)
    alphas = fig3_alphas(FIG3_DEFAULT_STEP)
    evaluations.clear()
    for alpha in alphas:
        protocol._superlevel_windows([alpha])
    one_state = evaluations[:]
    evaluations.clear()
    protocol._superlevel_windows(alphas)
    assert len(evaluations) == len(one_state) > 300
    assert max(evaluations) <= 40
    assert sum(evaluations) <= 0.6 * sum(one_state)


def _cold_windows(alpha):
    """Reference: one state's windows with every solve started cold, at 1/3
    left of the peak and midway between peak and 1 right of it."""
    log_target = math.log1p(16.0 * DETECTION_THRESHOLD) - math.log(werner_strength(alpha))
    windows = []
    for level in itertools.count(1):
        peak = protocol._PEAKS[level - 1]
        if protocol._log_gain(peak, level) <= log_target:
            return windows
        lo, hi = LAMBDA_WINDOW
        if protocol._log_gain(lo, level) <= log_target:
            lo = increasing_root(
                lambda lam: log_margin(level, log_target, 1.0, lam), lo, peak, lo)
        if protocol._log_gain(hi, level) <= log_target:
            hi = increasing_root(
                lambda lam: log_margin(level, log_target, -1.0, lam), peak, hi, 0.5 * (peak + hi))
        windows.append((lo, hi))


def _ulps(a, b):
    """Floats between two positive floats, counted on their bit patterns."""
    return int(abs(np.array(a).view(np.int64) - np.array(b).view(np.int64)))


SWEEP_GRIDS = {f"fig3 step {step}": fig3_alphas(step)
               for step in (0.25, 0.05, 0.01, 0.005, 0.002, 0.001)}
SWEEP_GRIDS["400 seeded entropies"] = [
    alpha_from_entanglement(entropy)
    for entropy in np.sort(np.random.default_rng(22).uniform(0.01, 1.0, 400)).tolist()]


def assert_sweep_matches_one_state_solves(alphas):
    """The sweep has each state's window count, and each edge flips the count
    and lies within a few ulps of the state's one-state edge."""
    sweep = protocol._superlevel_windows(alphas)
    assert len(sweep) == len(alphas)
    worst = 0
    for alpha, windows in zip(alphas, sweep):
        alone = protocol._superlevel_windows([alpha])[0]
        assert alone == _cold_windows(alpha)  # a sweep of one starts every solve cold
        assert len(windows) == len(alone)
        worst = max([worst] + [_ulps(s, o) for pair in zip(windows, alone) for s, o in zip(*pair)])
        assert_edges_flip_the_count(alpha, windows)
    # a warm start ends the solve at another float of the rounding-noise band
    # (measured up to 25 ulps on these grids); the exact root lies up to 28
    # floats from a one-state edge
    assert worst <= 32


@pytest.mark.parametrize("name", list(SWEEP_GRIDS))
def test_window_sweep_matches_one_state_solves(name):
    assert_sweep_matches_one_state_solves(SWEEP_GRIDS[name])


def _edge_by_callback(solved, level, sign, log_target, lower, upper, start):
    """protocol._edge as increasing_root on the log_margin callback (test oracle)."""
    past = solved.setdefault((level, sign), [])
    guess = protocol._edge_start(past, log_target)
    if lower < guess < upper:
        start = guess
    edge = increasing_root(
        functools.partial(log_margin, level, log_target, sign), lower, upper, start)
    past.append((log_target, edge))
    return edge


@pytest.mark.parametrize("name", list(SWEEP_GRIDS))
def test_window_sweep_equals_the_callback_solves(name, monkeypatch):
    # the inline loop takes increasing_root's iterates, so every edge bit for bit
    alphas = SWEEP_GRIDS[name]
    sweep = protocol._superlevel_windows(alphas)
    monkeypatch.setattr(protocol, "_edge", _edge_by_callback)
    assert sweep == protocol._superlevel_windows(alphas)


@pytest.mark.parametrize("alphas", [
    [],
    [0.4, 0.4, 0.4],                   # repeated log-targets
    [ALPHA_MAX, 0.3, ALPHA_MAX, 0.3],  # the history jumps back and forth
    [0.05, ALPHA_MAX, 0.1],            # levels missing from a neighbour's history
])
def test_window_sweep_takes_repeated_and_unsorted_states(alphas):
    assert_sweep_matches_one_state_solves(alphas)


def _two_pass_log_gain_and_slope(lam, level):
    # the arithmetic of the separate value and slope functions the fused one replaced
    value = math.log(lam) + (level - 1) * math.log(f_of_lambda(lam))
    root_a = math.sqrt((1.0 + 3.0 * lam) * (1.0 - lam))
    root_b = math.sqrt((3.0 - 3.0 * lam) * (3.0 + lam))
    decay = 0.5 * (1.0 + (root_a + root_b) / 4.0)
    decay_slope = ((1.0 - 3.0 * lam) / root_a - 3.0 * (1.0 + lam) / root_b) / 8.0
    return value, 1.0 / lam + (level - 1) * decay_slope / decay


def test_fused_log_gain_matches_two_pass_arithmetic():
    lo, hi = LAMBDA_WINDOW
    lams = np.concatenate([np.linspace(lo, hi, 4001)[:-1], [np.nextafter(hi, 0.0)],
                           protocol._lambda_grid(1e-3)[:-1]])
    log_target = math.log1p(16.0 * DETECTION_THRESHOLD) - math.log(werner_strength(0.6))
    for level in range(1, 9):
        for lam in lams.tolist():
            value, slope = _two_pass_log_gain_and_slope(lam, level)
            assert log_margin(level, 0.0, 1.0, lam) == (value, slope)
            # the residuals on the two sides of a window's peak
            assert log_margin(level, log_target, 1.0, lam) == (value - log_target, slope)
            assert log_margin(level, log_target, -1.0, lam) == (log_target - value, -slope)
    # the window search compares the gains at each tabled peak, 1/3 and 1;
    # the peak's is the largest over the window
    for level, peak in enumerate(protocol._PEAKS, 1):
        gains = [protocol._log_gain(lam, level) for lam in lams.tolist() + [lo, hi]]
        assert protocol._log_gain(peak, level) >= max(gains)


def test_peak_table_equals_the_bisection_and_covers_every_state():
    assert type(protocol._PEAKS) is tuple
    assert protocol._PEAKS == tuple(peak_sharpness(level) for level in range(1, 8))
    # the window search stops at the first level whose peak gain is at or
    # below the state's target; the lowest target is the most entangled
    # state's, and the last tabled level is already there
    log_target = math.log1p(16.0 * DETECTION_THRESHOLD) - math.log(werner_strength(ALPHA_MAX))
    levels = len(protocol._PEAKS)
    assert protocol._log_gain(protocol._PEAKS[levels - 1], levels) <= log_target
    assert protocol._log_gain(protocol._PEAKS[levels - 2], levels - 1) > log_target


def test_window_search_reads_the_peak_table_on_every_call(monkeypatch):
    # no profile outlives a call: a moved peak shows on the next one
    assert protocol.n_max_over_lambda(ALPHA_MAX)[0] == 6
    peaks = list(protocol._PEAKS)
    peaks[5] = 0.34
    monkeypatch.setattr(protocol, "_PEAKS", tuple(peaks))
    assert protocol.n_max_over_lambda(ALPHA_MAX)[0] == 5


def test_window_search_past_the_peak_table_raises(monkeypatch):
    # a state whose count ran past the table raises rather than stopping short
    monkeypatch.setattr(protocol, "_PEAKS", protocol._PEAKS[:5])
    with pytest.raises(IndexError):
        protocol.n_max_over_lambda(ALPHA_MAX)


@pytest.mark.parametrize("entropy", WINDOW_ENTROPIES)
def test_level_one_window_starts_at_the_threshold(entropy):
    strength = werner_strength(alpha_from_entanglement(entropy))
    lo, hi = protocol._superlevel_windows([alpha_from_entanglement(entropy)])[0][0]
    assert abs(lo - (1 + 16e-12) / strength) <= 1e-15
    assert hi == 1.0


# --- negativity bookkeeping -----------------------------------------------------------

def test_negativity_closed_form_spot_values():
    assert negativity_walpha(1.0, ALPHA_MAX) == pytest.approx(0.5, abs=1e-12)
    assert negativity_walpha(1 / 3, ALPHA_MAX) == pytest.approx(0.0, abs=1e-12)
    assert negativity_walpha(1.0, 0.3) == pytest.approx(0.2861817604250837, abs=1e-12)
    explicit = (1 + 1.2 * math.sqrt(0.91) - 1) / 4
    assert negativity_walpha(1.0, 0.3) == pytest.approx(explicit, abs=1e-15)


@given(st.floats(0.0, 1.0), st.floats(0.0, ALPHA_MAX, exclude_min=True))
@example(1.0, 1e-300)
@example(1.0, 5e-324)
@example(1.0, ALPHA_MAX)
@example(1 / 3, ALPHA_MAX)
@example(0.5, 0.3)
def test_negativity_closed_form_matches_mpmath(q, alpha):
    with mpmath.workdps(50):
        q_mp, alpha_mp = mpmath.mpf(q), mpmath.mpf(alpha)
        entangled = q_mp * alpha_mp * mpmath.sqrt(1 - alpha_mp ** 2)
        noise = (1 - q_mp) / 4
        exact = max(entangled - noise, 0)
        # both terms carry a few roundings; their difference can cancel
        bound = 4 * 2.0 ** -52 * (entangled + noise)
        assert abs(negativity_walpha(q, alpha) - exact) <= bound


@given(st.floats(0.0, 1.0), alphas)
def test_negativity_closed_form_matches_oracle(q, alpha):
    closed = negativity_walpha(q, alpha)
    oracle = negativity_oracle(werner_alpha(q, alpha))[0]
    assert abs(closed - oracle) < 1e-10


def test_true_negativity_exceeds_white_noise_value_after_one_sharp_step():
    # README's example: one sharp step from q = 1 halves q (f(1) = 1/2), but the
    # lost weight lands on rho_A (x) I/2, not on I/4
    assert f_of_lambda(1.0) == 0.5
    true_value = negativity_oracle(averaged_channel(werner_alpha(1.0, 0.3), 1.0))[0]
    white_noise_value = negativity_walpha(0.5, 0.3)
    assert true_value == pytest.approx(0.05101, abs=1e-4)
    assert white_noise_value == pytest.approx(0.01809, abs=1e-4)
    assert true_value > white_noise_value


def test_delta_negativity_spot_values():
    assert delta_negativity(0.5, 0.0) == 0.0
    assert delta_negativity(0.3, 0.0) == 0.0
    assert delta_negativity(0.5, 1.0) == pytest.approx(0.375, abs=1e-15)
    assert delta_negativity(0.5, 1 / 3) == pytest.approx(0.0246853653889816, abs=1e-14)


def test_delta_negativity_clips_at_total_loss():
    # a sharp measurement on a weakly entangled state removes everything
    assert delta_negativity(0.05, 1.0) == pytest.approx(0.05, abs=1e-15)
    with pytest.raises(ValueError, match="negativity"):
        delta_negativity(-0.1, 0.5)


@given(st.floats(0.0, 0.5), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_delta_negativity_monotone_in_sharpness(negativity, lams):
    low, high = sorted(lams)
    assert delta_negativity(negativity, low) <= delta_negativity(negativity, high) + 1e-15


def test_delta_negativity_consistent_with_q_recursion():
    q, alpha, lam = 0.9, 0.5, 0.7
    before = negativity_walpha(q, alpha)
    after = negativity_walpha(f_of_lambda(lam) * q, alpha)
    assert delta_negativity(before, lam) == pytest.approx(before - after, abs=1e-12)


def test_threshold_from_negativity_spot_values():
    assert threshold_from_negativity(0.5) == pytest.approx(1 / 3, abs=1e-15)
    assert threshold_from_negativity(0.0) == 1.0
    assert threshold_from_negativity(0.25) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        threshold_from_negativity(-0.01)


def test_delta_at_threshold_closed_form():
    expected = (3 - math.sqrt(0.75) - math.sqrt(3.75)) / 8
    assert delta_negativity_at_threshold(0.5) == pytest.approx(expected, abs=1e-15)
    assert delta_negativity_at_threshold(0.5) == pytest.approx(0.0246853653889816, abs=1e-14)
    with pytest.raises(ValueError):
        delta_negativity_at_threshold(0.0)


@pytest.mark.parametrize("call", [
    lambda: delta_negativity(math.nan, 0.5),
    lambda: threshold_from_negativity(math.nan),
    lambda: delta_negativity_at_threshold(math.nan),
    # a two-qubit negativity lies in [0, 1/2]
    lambda: delta_negativity(math.inf, 0.5),
    lambda: threshold_from_negativity(math.inf),
    lambda: delta_negativity_at_threshold(math.inf),
    lambda: delta_negativity(0.6, 0.5),
    lambda: threshold_from_negativity(0.6),
    lambda: delta_negativity_at_threshold(0.6),
], ids=["delta_negativity", "threshold_from_negativity", "delta_negativity_at_threshold",
        "delta_negativity-inf", "threshold_from_negativity-inf", "delta_negativity_at_threshold-inf",
        "delta_negativity-0.6", "threshold_from_negativity-0.6",
        "delta_negativity_at_threshold-0.6"])
def test_negativity_helpers_reject_nan(call):
    with pytest.raises(ValueError, match="negativity must be"):
        call()


def test_delta_at_threshold_identity_with_composition():
    for negativity in np.arange(0.05, 0.501, 0.05):
        composed = ((1 + 4 * negativity) / 4
                    * (1 - f_of_lambda(threshold_from_negativity(negativity))))
        assert delta_negativity_at_threshold(negativity) == pytest.approx(composed, abs=1e-12)


def test_delta_at_threshold_equals_clipped_route_above_critical():
    # the post-threshold state stays entangled for N >= 0.1, so the clipped
    # loss formula agrees there
    for negativity in np.linspace(0.1, 0.5, 9):  # ends at 1/2, the largest two-qubit negativity
        lam_th = threshold_from_negativity(negativity)
        assert delta_negativity_at_threshold(negativity) == pytest.approx(
            delta_negativity(negativity, lam_th), abs=1e-12)


def test_delta_at_threshold_decreases_in_negativity_increases_along_traces():
    # smaller states lose more at their threshold, so the per-step loss grows
    # with the observer index while entanglement survives
    grid = np.linspace(0.02, 0.5, 30)
    values = [delta_negativity_at_threshold(n) for n in grid]
    assert all(a > b for a, b in zip(values, values[1:]))

    trace = run_threshold_protocol(ALPHA_MAX)
    losses = []
    for current, following in zip(trace.records, trace.records[1:]):
        if following.negativity > 1e-12:
            losses.append(current.negativity - following.negativity)
    assert all(a < b for a, b in zip(losses, losses[1:]))


# --- broadcast closed forms -----------------------------------------------------------

def _runner_negativity(q, alpha):
    """The negativity of the runner's records: protocol._negativity on one point."""
    return protocol._negativity(q, alpha, math.sqrt(1.0 - alpha * alpha))


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, ALPHA_MAX, exclude_min=True)),
                max_size=30))
@example([(0.0, 0.3), (1.0, ALPHA_MAX), (1.0 / 3.0, ALPHA_MAX), (0.5, 1e-300)])
def test_negativity_twin_is_bit_identical_to_scalar_calls(points):
    qs, alphas = np.array(points).reshape(-1, 2).T
    assert_bit_identical(negativity_walpha(qs, alphas),
                         [_runner_negativity(q, alpha) for q, alpha in points])
    assert all(type(negativity_walpha(q, alpha)) is float for q, alpha in points)


def test_delta_negativity_gives_a_float_for_scalars():
    assert type(delta_negativity(0.25, 0.5)) is float
    assert type(delta_negativity(np.float64(0.25), 1)) is float


def test_twins_broadcast_as_the_verify_grids_use_them():
    values, lams = np.linspace(0.0, 0.5, 11), np.linspace(0.0, 1.0, 101)
    assert_bit_identical(delta_negativity(values[:, None], lams),
                         [[delta_negativity(value, lam) for lam in lams] for value in values])
    qs, alphas = np.linspace(0.0, 1.0, 20), np.linspace(0.05, ALPHA_MAX, 20)
    assert_bit_identical(negativity_walpha(qs[:, None], alphas),
                         [[_runner_negativity(q, alpha) for alpha in alphas] for q in qs])


@pytest.mark.parametrize("twin, message", [
    (lambda qs: negativity_walpha(qs, 0.5), r"q must lie in \[0, 1\]"),
    (lambda alphas: negativity_walpha(0.5, alphas),
     r"alpha must lie in \(0, 1/sqrt\(2\)\]"),
    (lambda values: delta_negativity(values, 0.5), r"negativity must be in \[0, 1/2\]"),
    (lambda lams: delta_negativity(0.25, lams), r"sharpness must lie in \[0, 1\]"),
], ids=["negativities-q", "negativities-alpha", "delta-negativity", "delta-sharpness"])
@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (1.5, "1.5")])
def test_twins_name_their_first_bad_entry(twin, message, bad, shown):
    entries = np.linspace(0.01, 0.5, 2000)
    entries[5] = bad
    entries[1000] = -0.5
    with pytest.raises(ValueError, match=rf"^{message}; got {shown}$"):
        twin(entries)


def test_twins_check_every_first_argument_before_the_second():
    with pytest.raises(ValueError, match="q must"):
        negativity_walpha([0.5, 2.0], [0.9, 0.3])
    with pytest.raises(ValueError, match="negativity must"):
        delta_negativity([0.25, 0.6], [1.5, 0.5])


# --- channel vs recursion ---------------------------------------------------------------

def test_one_step_recursion_matches_channel():
    beta = werner_beta()
    for alpha in (0.3, ALPHA_MAX):
        for lam in (0.4, 1.0):
            stepped = averaged_channel(werner_alpha(1.0, alpha), lam)
            q_next = f_of_lambda(lam)
            if alpha == ALPHA_MAX:
                want = werner_alpha(q_next, alpha)
                assert np.abs(stepped - want).max() < 1e-10
            for probe in (0.6, 1.0):
                numeric = mdi_ew_numeric(stepped, beta, probe)[0, 0]
                closed = mdi_ew_closed_form_unsharp(q_next, alpha, probe)
                assert abs(numeric - closed) < 1e-10
