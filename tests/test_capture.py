"""Capture: device behavior, stimulus sizing and trace recording."""

import hashlib
import json
import random

import pytest

import channel_reference
from channel_reference import ReferenceDevice
from conftest import encoded_fixture, random_moore
from fsmrecon import benchmarks
from fsmrecon.attack import MAX_VECTORS_PER_ROUND
from fsmrecon.capture import (
    BlackBoxDevice,
    Trace,
    choose_vector_count,
    gen_stimulus,
    output_groups,
    run_trace,
)
from fsmrecon.channel import (
    BAND_READINGS,
    NOISE_KINDS,
    NoiseModel,
    band_center,
    infer_hd,
    midpoint,
    pearson,
)
from fsmrecon.cli import main
from fsmrecon.fsm import (
    MAX_TABLE_ENTRIES,
    EncodedFsm,
    assign_binary_encoding,
    moorify,
    parse_kiss2,
    step,
)


def make_device(name="dk27", noise=None, noise_seed=1234):
    m = parse_kiss2(benchmarks.load(name))
    if not hasattr(m, "outputs"):
        m = moorify(m)
    return BlackBoxDevice(assign_binary_encoding(m), noise or NoiseModel.exact(), noise_seed)


# ---------------------------------------------------------------------------
# sizing and stimulus
# ---------------------------------------------------------------------------


def test_vector_count_published_sizing_rule():
    assert choose_vector_count(13, 7) == 2 * 13 * 128 == 3328
    assert choose_vector_count(4, 2) == 32


def test_the_default_round_of_the_largest_table_is_within_the_ceiling():
    # the reader accepts at most MAX_TABLE_ENTRIES = X * 2**I entries, and
    # the ceiling is 8 times the default round of such a table, so no
    # complete table it reads has a default round past the ceiling
    for input_bits in range(1, 17):
        states = MAX_TABLE_ENTRIES >> input_bits
        count = choose_vector_count(states, input_bits)
        assert 8 * count == 8 * 2 * MAX_TABLE_ENTRIES == MAX_VECTORS_PER_ROUND


@pytest.mark.parametrize(
    "states,input_bits,match", [(0, 2, "state count"), (4, 0, "input bits")]
)
def test_vector_count_rejects_an_empty_machine(states, input_bits, match):
    with pytest.raises(ValueError, match=match):
        choose_vector_count(states, input_bits)


def test_negative_stimulus_count_is_refused():
    with pytest.raises(ValueError, match="count must be >= 0"):
        gen_stimulus(-1, 2, seed=1)


def test_stimulus_is_seed_deterministic_and_in_range():
    a = gen_stimulus(200, 3, seed=7)
    b = gen_stimulus(200, 3, seed=7)
    c = gen_stimulus(200, 3, seed=8)
    assert a == b
    assert a != c
    assert all(0 <= v < 8 for v in a)


@pytest.mark.parametrize("input_bits", [0, 1, 3, 7, 16])
@pytest.mark.parametrize("count", [0, 1, 420])
def test_stimulus_matches_one_draw_per_vector(count, input_bits):
    got = gen_stimulus(count, input_bits, seed=17)
    assert got == channel_reference.gen_stimulus(count, input_bits, seed=17)


# ---------------------------------------------------------------------------
# device and traces
# ---------------------------------------------------------------------------


def test_output_groups_number_outputs_in_first_seen_order():
    rng = random.Random(4)
    outputs = [rng.choice(["00", "01", "10", "11"]) for _ in range(300)]
    first = list(dict.fromkeys(outputs))
    assert output_groups(outputs) == [first.index(out) for out in outputs]
    assert output_groups([]) == []


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_trace_readings_are_the_shared_band_readings(kind):
    trace = run_trace(
        make_device("s386", NoiseModel(kind), noise_seed=2),
        gen_stimulus(420, 7, seed=2),
        seed=2,
    )
    assert all(
        inf is BAND_READINGS[band_center(c)]
        for inf, c in zip(trace.inferred, trace.currents, strict=True)
    )


def test_trace_shape_and_reset_output():
    device = make_device("dk27")
    stim = gen_stimulus(50, 1, seed=3)
    trace = run_trace(device, stim, seed=3)
    assert trace.n_steps == 50
    assert len(trace.outputs) == 51
    assert trace.outputs[0] == "00"  # dk27 reset state output
    assert len(trace.currents) == len(trace.inferred) == 50


def test_trace_refuses_mismatched_lengths():
    with pytest.raises(ValueError, match="expected 3 outputs, got 2"):
        Trace(1, 1, [0, 1], ["0", "1"], [1.0, 1.0], seed=0)
    with pytest.raises(ValueError, match="one entry per step"):
        Trace(1, 1, [0, 1], ["0", "1", "0"], [1.0], seed=0)


def test_trace_is_bit_identical_for_equal_seeds():
    stim = gen_stimulus(80, 1, seed=11)
    t1 = run_trace(make_device("dk27", NoiseModel.gaussian(), noise_seed=5), stim, seed=11)
    t2 = run_trace(make_device("dk27", NoiseModel.gaussian(), noise_seed=5), stim, seed=11)
    assert t1 == t2
    t3 = run_trace(make_device("dk27", NoiseModel.gaussian(), noise_seed=6), stim, seed=11)
    assert t3 != t1


def test_device_noise_is_independent_of_stimulus_generation():
    """Interleaving extra RNG work between steps must not change the noise."""
    stim = gen_stimulus(30, 1, seed=2)
    device = make_device("dk27", NoiseModel.gaussian(), noise_seed=9)
    base = run_trace(device, stim, seed=2)
    device2 = make_device("dk27", NoiseModel.gaussian(), noise_seed=9)
    device2.reset()
    outs = [device2._encoded.machine.outputs[device2._encoded.machine.reset]]
    currents = []
    for v in stim:
        random.random()  # unrelated RNG traffic
        (out,), (cur,) = device2.walk((v,))
        outs.append(out)
        currents.append(cur)
    assert outs == base.outputs
    assert currents == base.currents


@pytest.mark.parametrize(
    "past_top, mid_walk",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["-1", "2**input_bits", "-1-mid-walk", "2**input_bits-mid-walk"],
)
def test_out_of_range_vector_is_refused_and_changes_nothing(past_top, mid_walk):
    stim = gen_stimulus(10, 1, seed=8)
    device = make_device("dk27", NoiseModel.table3(), noise_seed=3)
    vector = 1 << device.input_bits if past_top else -1
    device.reset()
    if mid_walk:
        # the walk stops at the bad vector, where a walk of the vectors
        # before it would have ended
        with pytest.raises(ValueError, match="does not fit"):
            device.walk([*stim[:5], vector, *stim[5:]])
        reference = make_device("dk27", NoiseModel.table3(), noise_seed=3)
        reference.reset()
        reference.walk(stim[:5])
        state = reference._state
    else:
        device.walk(stim[:5])
        state = device._state
        with pytest.raises(ValueError, match="does not fit"):
            device.walk((vector,))
    assert device._state == state
    # the noise generator was not advanced either
    outputs, currents = device.walk(stim[5:])
    base = run_trace(make_device("dk27", NoiseModel.table3(), noise_seed=3), stim, seed=8)
    assert outputs == base.outputs[6:]
    assert currents == base.currents[5:]


def reference_walk(enc, noise, noise_seed, stimulus):
    """The walk one checked step at a time: ``fsm.step``, then the
    reference ``synthesize_current``, then ``infer_hd``, each called per
    clock."""
    rng = random.Random(noise_seed)
    state = enc.machine.reset
    outputs, currents, inferred = [enc.machine.outputs[state]], [], []
    for v in stimulus:
        res = step(enc, state, v)
        state = res.next_state
        outputs.append(res.output)
        currents.append(channel_reference.synthesize_current(res.hd, noise, rng))
        inferred.append(infer_hd(currents[-1]))
    return outputs, currents, inferred


def assert_walk_matches_reference(enc, noise, noise_seed, stimulus):
    trace = run_trace(BlackBoxDevice(enc, noise, noise_seed), stimulus, seed=0)
    outputs, currents, inferred = reference_walk(enc, noise, noise_seed, stimulus)
    assert trace.outputs == outputs
    # bit for bit: repr tells -0.0 from 0.0, and names every float exactly
    assert repr(trace.currents) == repr(currents)
    assert trace.inferred == inferred
    assert all(a is b for a, b in zip(trace.inferred, inferred))


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("name", benchmarks.names())
def test_walk_matches_the_per_step_reference(name, kind):
    enc = encoded_fixture(name)
    stim = gen_stimulus(300, enc.machine.input_bits, seed=12)
    assert_walk_matches_reference(enc, NoiseModel(kind), 31, stim)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_walk_past_the_precomputed_midpoints_matches_the_reference(kind):
    """Random 24-bit codes move the register 16 bits and more, past the
    midpoints the channel keeps, so synthesis computes those itself."""
    rng = random.Random(3)
    machine = random_moore(rng, 12, 2, 2)
    enc = EncodedFsm(machine, rng.sample(range(1 << 24), 12), 24)
    stim = gen_stimulus(400, 2, seed=5)
    state, hds = machine.reset, []
    for v in stim:
        res = step(enc, state, v)
        hds.append(res.hd)
        state = res.next_state
    assert sum(hd >= 16 for hd in hds) >= 20  # the fallback is exercised
    assert_walk_matches_reference(enc, NoiseModel(kind), 9, stim)
    if kind == "exact":
        trace = run_trace(BlackBoxDevice(enc, NoiseModel(kind), 9), stim, seed=0)
        assert trace.currents == [midpoint(hd) for hd in hds]


def device_state(device):
    return device._state, device._rng.getstate()


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("name", benchmarks.names())
def test_walk_matches_the_reference_device(name, kind):
    # walks in pieces, empty and one-vector ones too: each piece starts
    # where the one before it left the state and the noise
    enc = encoded_fixture(name)
    device = BlackBoxDevice(enc, NoiseModel(kind), 23)
    reference = ReferenceDevice(enc, NoiseModel(kind), 23)
    stim = gen_stimulus(400, enc.machine.input_bits, seed=6)
    assert device.reset() == reference.reset()
    for lo, hi in ((0, 0), (0, 1), (1, 150), (150, 151), (151, 400)):
        outputs, currents = device.walk(stim[lo:hi])
        want_outputs, want_currents = reference.walk(stim[lo:hi])
        assert outputs == want_outputs
        assert repr(currents) == repr(want_currents)
        assert device_state(device) == device_state(reference)


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("k", [0, 1, 57, 199])
@pytest.mark.parametrize("past_top", [False, True], ids=["-1", "2**input_bits"])
def test_a_walk_that_meets_a_bad_vector_matches_the_reference(kind, k, past_top):
    # the bad vector at position k, with good and bad vectors after it: the
    # device reaches the state the first k vectors reach, draws their
    # noise only and raises the reference's message
    enc = encoded_fixture("dk27")
    stim = gen_stimulus(200, enc.machine.input_bits, seed=k)
    bad = 1 << enc.machine.input_bits if past_top else -1
    stim[k:k] = [bad]
    stim.append(-5)
    devices = [
        cls(enc, NoiseModel(kind), 8) for cls in (BlackBoxDevice, ReferenceDevice)
    ]
    messages = []
    for device in devices:
        device.reset()
        with pytest.raises(ValueError, match="does not fit") as exc:
            device.walk(iter(stim))
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == f"input vector {bad} does not fit in 1 bits"
    prefix = BlackBoxDevice(enc, NoiseModel(kind), 8)
    prefix.reset()
    _, currents = prefix.walk(stim[:k])
    assert device_state(devices[0]) == device_state(devices[1]) == device_state(prefix)
    # the readings of the k vectors before it are the reference's
    reference = ReferenceDevice(enc, NoiseModel(kind), 8)
    reference.reset()
    assert repr(currents) == repr(reference.walk(stim[:k])[1])


def test_reset_replays_identical_noise():
    device = make_device("dk27", NoiseModel.table3(), noise_seed=21)
    stim = gen_stimulus(40, 1, seed=4)
    t1 = run_trace(device, stim, seed=4)
    t2 = run_trace(device, stim, seed=4)  # run_trace resets the device
    assert t1 == t2


@pytest.mark.parametrize("name", benchmarks.names())
def test_exact_channel_inferred_centers_match_actual_distances(name):
    enc = encoded_fixture(name)
    m = enc.machine
    device = BlackBoxDevice(enc, NoiseModel.exact(), noise_seed=0)
    stim = gen_stimulus(64, m.input_bits, seed=5)
    trace = run_trace(device, stim, seed=5)
    state = m.reset
    for k, v in enumerate(stim):
        nxt = m.delta[(state, v)]
        actual = (enc.encodings[state] ^ enc.encodings[nxt]).bit_count()
        assert trace.inferred[k].center == actual
        state = nxt


def test_window_always_contains_actual_distance_under_table3():
    m = moorify(parse_kiss2(benchmarks.load("train4")))
    enc = assign_binary_encoding(m)
    device = BlackBoxDevice(enc, NoiseModel.table3(), noise_seed=77)
    stim = gen_stimulus(400, 2, seed=6)
    trace = run_trace(device, stim, seed=6)
    state = m.reset
    for k, v in enumerate(stim):
        nxt = m.delta[(state, v)]
        actual = (enc.encodings[state] ^ enc.encodings[nxt]).bit_count()
        inf = trace.inferred[k]
        if actual == 0:
            assert (inf.center, inf.lo, inf.hi) == (0, 0, 0)
        else:
            assert inf.lo <= actual <= min(inf.hi, enc.width)
        state = nxt


def test_distance_current_correlation_on_a_machine_walk():
    device = make_device("bbtas", NoiseModel.gaussian(sigma=10.0), noise_seed=13)
    stim = gen_stimulus(1000, 2, seed=13)
    trace = run_trace(device, stim, seed=13)
    centers = [inf.center for inf in trace.inferred]
    assert pearson(centers, trace.currents) >= 0.93


# ---------------------------------------------------------------------------
# pinned device output
# ---------------------------------------------------------------------------


# sha256 over what the simulated device emits.  ``captures``: outputs,
# ``repr`` of the currents and the band centers of a 300-step capture of
# every bundled machine under every noise kind (noise seed 3, stimulus seed
# 4).  ``calibrate``: the ``--deterministic`` report of ``calibrate
# --samples 2000 --seed 7`` under every noise kind, Python version removed.
# Centers, not windows, are hashed, so a change to the window rule alone
# does not move these.
PINNED_DEVICE = {
    "captures": (
        "3eda344dc84f4dd7170ec747bb7f8c98"
        "df64d134796ec9018d823559675edbec"
    ),
    "calibrate": (
        "57f920107661a644d145d55ee0a8d628"
        "40f1d5a3c21f25fa01e026d0d11c015f"
    ),
}


def _capture_digest():
    h = hashlib.sha256()
    for name in benchmarks.names():
        enc = encoded_fixture(name)
        stim = gen_stimulus(300, enc.machine.input_bits, 4)
        for kind in NOISE_KINDS:
            trace = run_trace(BlackBoxDevice(enc, NoiseModel(kind), 3), stim, 4)
            h.update("".join(trace.outputs).encode())
            h.update(repr(trace.currents).encode())
            h.update(bytes(inf.center for inf in trace.inferred))
    return h.hexdigest()


def _calibrate_digest(capsys):
    h = hashlib.sha256()
    for kind in NOISE_KINDS:
        main(["calibrate", "--samples", "2000", "--seed", "7",
              "--noise", kind, "--deterministic"])
        rep = json.loads(capsys.readouterr().out)
        del rep["versions"]["python"]
        h.update(json.dumps(rep, sort_keys=True).encode())
    return h.hexdigest()


def test_device_output_is_pinned(capsys):
    got = {"captures": _capture_digest(), "calibrate": _calibrate_digest(capsys)}
    assert got == PINNED_DEVICE
