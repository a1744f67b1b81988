"""Side channel: calibration bands, noise models, inference windows, pearson."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

import channel_reference
from fsmrecon import channel
from fsmrecon.channel import (
    BAND_EDGES,
    NOISE_KINDS,
    SIGMA_MAX,
    InferredHd,
    NoiseModel,
    band_center,
    infer_hd,
    midpoint,
    pearson,
    synthesize_currents,
)


def synthesize(hd, model, rng):
    """The reading of one clocking at distance ``hd``: a one-step walk."""
    return synthesize_currents([hd], model, rng)[0]


# ---------------------------------------------------------------------------
# current bands
# ---------------------------------------------------------------------------


def test_default_band_midpoints():
    want = [20.0, 67.5, 117.5, 155.0, 187.5, 217.5]
    assert [midpoint(hd) for hd in range(6)] == want


def test_top_band_extrapolates_by_last_finite_width():
    assert midpoint(6) == 230.0
    assert midpoint(7) == 255.0
    assert midpoint(9) == 305.0


def test_constructed_table_midpoints_extrapolate_by_last_finite_width(monkeypatch):
    """Three bands, [0, 40), [40, 95) and [95, inf): the functions read the
    edges, so they hold for any edges, not just the device's."""
    monkeypatch.setattr(channel, "BAND_EDGES", (40.0, 95.0))
    assert band_center(50.0) == 1
    assert band_center(1e6) == 2
    assert midpoint(1) == 67.5
    assert midpoint(2) == 95.0  # top-band anchor is its lower edge
    assert midpoint(3) == 95.0 + 55.0  # extrapolated by last finite width


@pytest.mark.parametrize(
    "current,center",
    [(0.0, 0), (39.999, 0), (40.0, 1), (94.9, 1), (95.0, 2), (139.0, 2),
     (140.0, 3), (169.9, 3), (170.0, 4), (204.9, 4), (205.0, 5), (229.9, 5),
     (230.0, 6), (1e6, 6)],
)
def test_band_boundaries_are_lower_inclusive(current, center):
    assert band_center(current) == center


@pytest.mark.parametrize("current", [-1.0, math.nan, math.inf])
def test_out_of_range_current_rejected(current):
    with pytest.raises(ValueError, match="current"):
        band_center(current)
    with pytest.raises(ValueError, match="current"):
        infer_hd(current)


# Edges make bands contiguous, starting at 0 and unbounded above, by
# construction; what is left to hold is that every band is nonempty.
_TABLE_RULES = {
    "contiguous": lambda e: all(a < b for a, b in zip(e, e[1:])),
    "unbounded": lambda e: all(math.isfinite(x) for x in e),
    "center": lambda e: {0, *(bisect_right(e, x) for x in e)}
    == set(range(len(e) + 1)),
    "start at 0": lambda e: e[0] > 0,
    "two bands": lambda e: len(e) >= 1,
}


@pytest.mark.parametrize(
    "edges,err",
    [
        ((95.0, 40.0), "contiguous"),
        ((40.0, math.inf), "unbounded"),
        ((40.0, 40.0, 95.0), "center"),
        ((0.0, 40.0), "start at 0"),
        ((), "two bands"),
    ],
    ids=["contiguous", "unbounded", "center", "start at 0", "two bands"],
)
def test_table_validation_errors(edges, err):
    """``BAND_EDGES`` is the only table, so its shape is checked here: the
    edges ascend strictly from above 0, are finite, there is at least one,
    and so every center 0, 1, 2, ... is some reading's band.  Each case's
    malformed edges break its rule, so the rule can fail."""
    rule = _TABLE_RULES[err]
    assert rule(BAND_EDGES)
    assert not rule(edges)


# ---------------------------------------------------------------------------
# inference windows
# ---------------------------------------------------------------------------


def test_exact_synthesis_inverts_to_the_same_band():
    rng = random.Random(0)
    model = NoiseModel.exact()
    for hd in range(7):
        got = infer_hd(synthesize(hd, model, rng))
        assert got.center == hd
        assert got.lo <= hd <= got.hi
    # distances beyond the top band saturate at the top center
    assert infer_hd(synthesize(9, model, rng)).center == 6


def test_zero_center_is_exact_with_degenerate_window():
    assert infer_hd(10.0) == InferredHd(center=0, lo=0, hi=0)


@pytest.mark.parametrize(
    "center,lo,hi", [(1, 1, 2), (2, 1, 3), (3, 2, 4), (5, 4, 6)]
)
def test_nonzero_window_is_plus_minus_one_with_floor_at_one(center, lo, hi):
    got = infer_hd(midpoint(center))
    assert (got.center, got.lo, got.hi) == (center, lo, hi)


@pytest.mark.parametrize("current", [230.0, 255.0, 1e6])
def test_top_band_window_is_open_above(current):
    assert infer_hd(current) == InferredHd(center=6, lo=5, hi=math.inf)


@pytest.mark.parametrize("kind", ["exact", "table3"])
def test_window_contains_the_distance_at_every_distance(kind):
    """The one-band error budget holds past the top band too: a distance
    of 8 or more reads as the top band, whose window has no upper edge."""
    model = NoiseModel(kind=kind)
    rng = random.Random(12)
    for hd in range(13):
        for _ in range(200):
            got = infer_hd(synthesize(hd, model, rng))
            assert got.lo <= hd <= got.hi, (hd, got)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------


def test_noise_model_validation():
    with pytest.raises(ValueError, match="kind"):
        NoiseModel(kind="uniform")
    # a finite sigma past the ceiling gave an infinite reading (1e308) or
    # overflowed the square in pearson (1e200)
    past = math.nextafter(SIGMA_MAX, math.inf)
    for sigma in (-1.0, float("inf"), float("nan"), past, 1e200, 1e308):
        with pytest.raises(ValueError, match=r"sigma must be in \[0, 1e\+100\]"):
            NoiseModel(kind="gaussian", sigma=sigma)


def test_readings_at_the_sigma_ceiling_and_their_squares_stay_finite():
    model = NoiseModel.gaussian(sigma=SIGMA_MAX)
    rng = random.Random(1)
    hds = [hd for hd in range(len(BAND_EDGES) + 2) for _ in range(100)]
    currents = synthesize_currents(hds, model, rng)
    assert all(math.isfinite(c) for c in currents)
    assert -1.0 <= pearson(hds, currents) <= 1.0  # as calibrate calls it
    # their sums of squares multiply past a float's range
    assert pearson(currents, currents) == pytest.approx(1.0)


def read_error(hd, model, rng):
    """How far the band read back from one synthesized clocking lies from
    the actual distance."""
    return infer_hd(synthesize(hd, model, rng)).center - hd


def test_exact_model_never_errs():
    rng = random.Random(1)
    hds = range(len(BAND_EDGES) + 1)  # past the top band it saturates
    assert all(read_error(hd, NoiseModel.exact(), rng) == 0 for hd in hds)


@pytest.mark.parametrize("kind,sigma", [("exact", 10.0), ("table3", 10.0), ("gaussian", 10.0), ("gaussian", 50.0)])
def test_zero_distance_is_noiseless_under_every_model(kind, sigma):
    model = NoiseModel(kind=kind, sigma=sigma)
    rng = random.Random(2)
    for _ in range(500):
        assert read_error(0, model, rng) == 0
        current = synthesize(0, model, rng)
        assert 0.0 <= current < 40.0
        assert infer_hd(current).center == 0


@pytest.mark.parametrize("kind", ["table3", "gaussian"])
def test_nonzero_distance_never_reads_back_as_zero(kind):
    model = NoiseModel(kind=kind, sigma=10.0)
    rng = random.Random(3)
    for hd in (1, 2, 3):
        for _ in range(300):
            assert hd + read_error(hd, model, rng) >= 1
            assert synthesize(hd, model, rng) >= 40.0


def test_banded_error_histogram_at_hd3():
    """10000 table3 samples at hd 3 land within 2 points of 85.2/12.0/2.8."""
    rng = random.Random(31_337)
    counts = {-1: 0, 0: 0, 1: 0}
    n = 10_000
    for _ in range(n):
        counts[read_error(3, NoiseModel.table3(), rng)] += 1
    assert abs(counts[0] / n * 100 - 85.2) <= 2.0
    assert abs(counts[1] / n * 100 - 12.0) <= 2.0
    assert abs(counts[-1] / n * 100 - 2.8) <= 2.0


def test_banded_error_floors_at_distance_one():
    rng = random.Random(4)
    errs = {read_error(1, NoiseModel.table3(), rng) for _ in range(2000)}
    assert errs == {0, 1}  # a -1 draw at hd 1 is floored back to band 1


def test_table3_synthesis_emits_shifted_band_midpoints():
    rng = random.Random(5)
    anchors = {midpoint(h) for h in (2, 3, 4)}
    for _ in range(500):
        assert synthesize(3, NoiseModel.table3(), rng) in anchors


def test_gaussian_sigma_zero_is_exact():
    rng = random.Random(6)
    model = NoiseModel.gaussian(sigma=0.0)
    for hd in range(5):
        assert synthesize(hd, model, rng) == midpoint(hd)


def test_gaussian_default_sigma_stays_within_one_band():
    rng = random.Random(7)
    model = NoiseModel.gaussian()
    for hd in (1, 2, 3, 4):
        for _ in range(500):
            assert abs(read_error(hd, model, rng)) <= 1


def assert_one_call_matches_one_call_per_clock(hds, model, seed):
    """The walk's readings, and the generator after them, are those of the
    reference that synthesized one current per call, bit for bit."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = synthesize_currents(hds, model, rng)
    want = [channel_reference.synthesize_current(hd, model, ref_rng) for hd in hds]
    # repr tells -0.0 from 0.0, and names every float exactly
    assert repr(got) == repr(want)
    assert rng.getstate() == ref_rng.getstate()


NOISE_CASES = [
    (kind, sigma) for kind in NOISE_KINDS for sigma in (0.0, 10.0, SIGMA_MAX)
]


@pytest.mark.parametrize("kind,sigma", NOISE_CASES)
def test_a_walk_of_readings_matches_one_reading_per_call(kind, sigma):
    # distances 0-20 run past the 16 precomputed midpoints; each distance
    # alone, repeated, and all of them mixed
    model = NoiseModel(kind=kind, sigma=sigma)
    for hd in range(21):
        assert_one_call_matches_one_call_per_clock([hd] * 40, model, hd)
    mix = random.Random(41)
    hds = [mix.randrange(21) for _ in range(3000)]
    assert_one_call_matches_one_call_per_clock(hds, model, 8)
    short = [mix.randrange(16) for _ in range(3000)]
    assert_one_call_matches_one_call_per_clock(short, model, 9)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_an_empty_walk_draws_nothing_and_a_negative_distance_is_refused(kind):
    model = NoiseModel(kind=kind)
    rng = random.Random(3)
    state = rng.getstate()
    assert synthesize_currents([], model, rng) == []
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="hd must be >= 0, got -1"):
        synthesize_currents([2, -1, 0], model, rng)


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------


def test_pearson_perfect_line():
    xs = [0, 1, 2, 3, 4]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_errors():
    with pytest.raises(ValueError, match="length"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="two samples"):
        pearson([1], [1])
    with pytest.raises(ValueError, match="constant"):
        pearson([1, 1, 1], [1, 2, 3])


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pearson_bounded_and_symmetric(seed):
    rng = random.Random(seed)
    xs = [rng.random() for _ in range(20)]
    ys = [rng.random() for _ in range(20)]
    r = pearson(xs, ys)
    assert -1.0 <= r <= 1.0
    assert pearson(ys, xs) == pytest.approx(r)


def test_distance_current_correlation_is_strong_at_sigma_10():
    """Synthesized channel keeps a high linear correlation, like the hardware."""
    rng = random.Random(97)
    model = NoiseModel.gaussian(sigma=10.0)
    hds = [rng.choice([0, 0, 0, 1, 1, 2, 2, 3]) for _ in range(1000)]
    currents = synthesize_currents(hds, model, rng)
    assert pearson(hds, currents) >= 0.93
