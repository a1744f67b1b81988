"""Machine model: KISS2 parsing/serialization, conversion, encodings, stepping."""

import hashlib
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kiss2_reference
from fsmrecon import benchmarks
from fsmrecon.fsm import (
    DanglingStateError,
    EncodedFsm,
    IncompleteMachineError,
    Kiss2Error,
    MealyFsm,
    MooreFsm,
    NondeterminismError,
    assign_binary_encoding,
    int_to_bits,
    moorify,
    parse_kiss2,
    serialize_kiss2,
    step,
    transition_count,
)


# ---------------------------------------------------------------------------
# bit vectors and hamming distance
# ---------------------------------------------------------------------------


def hamming_oracle(a: int, b: int, width: int) -> int:
    """Independent bit-loop distance, used to check the popcount path."""
    count = 0
    for k in range(width):
        if ((a >> k) & 1) != ((b >> k) & 1):
            count += 1
    return count


def test_hamming_matches_bit_loop_oracle_width_8():
    """``step`` reports the popcount distance between register codes."""
    rng = random.Random(80_801)
    m = MooreFsm(
        1, 1, ["a", "b"], 0, {(s, v): v for s in (0, 1) for v in (0, 1)}, ["0", "1"]
    )
    for _ in range(1000):
        a, b = rng.randrange(256), rng.randrange(256)
        got = step(EncodedFsm(m, [a, b], 8), 0, 1).hd
        assert got == hamming_oracle(a, b, 8)


@given(width=st.integers(min_value=1, max_value=16), data=st.data())
def test_bit_string_round_trip(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    s = int_to_bits(value, width)
    assert len(s) == width
    assert int(s, 2) == value


def test_int_to_bits_is_msb_first():
    assert int_to_bits(4, 3) == "100"


@pytest.mark.parametrize(
    "value,width,match",
    [(0, 0, "width must be positive"), (4, 2, "does not fit"), (-1, 2, "does not fit")],
)
def test_int_to_bits_refuses_what_does_not_fit(value, width, match):
    with pytest.raises(ValueError, match=match):
        int_to_bits(value, width)


# ---------------------------------------------------------------------------
# KISS2 parsing
# ---------------------------------------------------------------------------


def test_lion_parses_as_mealy_with_published_shape():
    m = parse_kiss2(benchmarks.load("lion"))
    assert isinstance(m, MealyFsm)
    assert m.state_count == 4
    assert m.input_bits == 2
    assert m.output_bits == 1
    assert m.states[m.reset] == "st0"
    assert m.is_complete
    assert transition_count(m) == 16


def test_dk27_parses_as_moore():
    m = parse_kiss2(benchmarks.load("dk27"))
    assert isinstance(m, MooreFsm)
    assert m.state_count == 7
    assert m.input_bits == 1
    assert m.output_bits == 2
    assert m.outputs[m.states.index("s3")] == "11"
    assert m.is_complete


@pytest.mark.parametrize("name", benchmarks.names())
def test_fixtures_parse_complete_and_deterministic(name):
    m = parse_kiss2(benchmarks.load(name))
    assert m.is_complete
    assert len(set(m.states)) == m.state_count


def test_dontcare_expansion_is_eager():
    m = parse_kiss2(".i 2\n.o 1\n-- a a 0\n")
    assert transition_count(m) == 4


def test_identical_duplicate_rows_collapse():
    m = parse_kiss2(".i 1\n.o 1\n0 a a 0\n0 a a 0\n1 a a 0\n")
    assert transition_count(m) == 2


def test_conflicting_rows_are_nondeterminism_error():
    text = ".i 1\n.o 1\n0 a b 1\n1 a a 0\n0 b a 0\n1 b b 1\n-  b a 0\n"
    with pytest.raises(NondeterminismError) as exc:
        parse_kiss2(text)
    assert exc.value.line == 7


def test_dangling_reset_reference():
    with pytest.raises(DanglingStateError):
        parse_kiss2(".i 1\n.o 1\n.r ghost\n0 a a 0\n1 a a 0\n")


@pytest.mark.parametrize(
    "text,line",
    [
        (".i 2\n.o 1\n0- a a\n", 3),  # missing field
        (".i 2\n.o 1\n02 a a 0\n", 3),  # bad input char
        (".i 2\n.o 1\n00 a a 2\n", 3),  # bad output char
        (".i 2\n.o 1\n00 a a -\n", 3),  # don't-care output
        (".i 2\n.o 1\n000 a a 1\n", 3),  # width mismatch
        (".q 2\n.o 1\n00 a a 1\n", 1),  # unknown directive
        (".i x\n.o 1\n00 a a 1\n", 1),  # non-numeric width
        (".i 2\n.o 1\n.r\n00 a a 1\n", 3),  # reset with no name
        (".i 2\n.o 1\n00 a a 1\n01 a a 10\n", 4),  # output width mismatch
        (".i ²\n.o 1\n00 a a 1\n", 1),  # a digit int() refuses
        (".p ¹\n.i 2\n.o 1\n00 a a 1\n", 1),  # likewise in an advisory count
    ],
)
def test_syntax_errors_carry_line_numbers(text, line):
    with pytest.raises(Kiss2Error) as exc:
        parse_kiss2(text)
    assert exc.value.line == line


ROWS_2X1 = "00 a a 0\n01 a a 0\n10 a a 0\n11 a a 0\n"


@pytest.mark.parametrize(
    "text,line",
    [
        # rows set 2 input bits; a later .i must not rewrite them as 3
        (ROWS_2X1 + ".i 3\n", 5),
        # rows set 1 output bit; a later .o 2 would claim 2-bit outputs
        (ROWS_2X1 + ".o 2\n", 5),
        (".i 2\n.i 3\n" + ROWS_2X1, 2),
    ],
    ids=["trailing .i", "trailing .o", "repeated .i"],
)
def test_width_directive_disagreeing_with_an_earlier_width_is_refused(text, line):
    with pytest.raises(Kiss2Error, match="disagrees with the width") as exc:
        parse_kiss2(text)
    assert exc.value.line == line


def test_width_directive_agreeing_with_an_earlier_width_is_accepted():
    m = parse_kiss2(".i 2\n.o 1\n" + ROWS_2X1 + ".i 2\n.o 1\n")
    assert (m.input_bits, m.output_bits) == (2, 1)
    assert transition_count(m) == 4


ROWS_AB = "0 a b 0\n1 a a 0\n0 b a 1\n1 b b 1\n"


def test_reset_directive_naming_a_different_state_is_refused():
    # a trailing .r must not move the reset named before the rows
    with pytest.raises(Kiss2Error, match="disagrees with the reset") as exc:
        parse_kiss2(".r a\n" + ROWS_AB + ".r b\n")
    assert exc.value.line == 6


def test_reset_directive_repeating_the_same_state_is_accepted():
    m = parse_kiss2(".r b\n" + ROWS_AB + ".r b\n")
    assert m.states == ["a", "b"]
    assert m.reset == 1


def test_empty_input_rejected():
    with pytest.raises(Kiss2Error, match="no transition rows"):
        parse_kiss2("# nothing here\n.i 2\n.o 1\n")


def test_dont_care_expansion_past_the_bound_is_refused():
    # one row of 17 don't-cares is 2**17 entries, twice MAX_TABLE_ENTRIES
    with pytest.raises(Kiss2Error, match="expands past 65536") as exc:
        parse_kiss2(".i 17\n.o 1\n" + "-" * 17 + " a a 1\n")
    assert exc.value.line == 3


def test_expansion_bound_sums_the_rows_and_names_the_row_past_it():
    rows = "".join(f"{'-' * 15} {s} {s} 1\n" for s in "abc")
    with pytest.raises(Kiss2Error) as exc:
        parse_kiss2(".i 15\n.o 1\n" + rows)
    assert exc.value.line == 5  # 2**15 entries per row: the third passes


def test_huge_dont_care_row_is_refused_before_expanding():
    # 2**40 entries could never be built; the count alone refuses them
    start = time.perf_counter()
    with pytest.raises(Kiss2Error, match="expands past"):
        parse_kiss2(".i 40\n.o 1\n" + "-" * 40 + " a a 1\n")
    assert time.perf_counter() - start < 1.0


@st.composite
def kiss2_texts(draw):
    """KISS2-like text: rows over a few states, some of them duplicates,
    conflicting or malformed, among comments, blank lines and directives
    that may come late, disagree, be malformed or end the table."""
    in_bits = draw(st.sampled_from([1, 2, 2, 3, 17]))
    out_bits = draw(st.integers(min_value=1, max_value=2))
    state = st.sampled_from(["a", "b", "c", "s0"])

    def field(chars, width):
        return "".join(draw(st.lists(
            st.sampled_from(chars), min_size=width, max_size=width
        )))

    def line():
        kind = draw(st.sampled_from(
            ["row"] * 12 + ["bad row"] * 3
            + ["dontcare row", "odd row", "comment", "directive"]
        ))
        if kind.endswith("row"):
            ins = field("01-" if in_bits < 17 else "0011111-", in_bits)
            if kind == "dontcare row":
                ins = "-" * in_bits
            parts = [ins, draw(state), draw(state), field("01", out_bits)]
            if kind == "odd row":  # a field short or one too many
                if draw(st.booleans()):
                    del parts[draw(st.integers(0, 3))]
                else:
                    parts.append("x")
            elif kind == "bad row":  # a bad character, or a width off by one
                k = draw(st.sampled_from([0, 3]))
                parts[k] = draw(st.sampled_from([
                    parts[k][:-1] + "2", parts[k][:-1] + "-", parts[k][1:],
                    parts[k] + "0",
                ]))
            return " ".join(parts)
        if kind == "comment":
            return draw(st.sampled_from(["", "   ", "# a comment", "#"]))
        return draw(st.sampled_from([
            f".i {in_bits}", f".o {out_bits}", f".i {in_bits + 1}",
            f".o {out_bits + 1}", ".p 4", ".s 3", ".r a", ".r b", ".r ghost",
            ".r", ".e", ".q 1", ".i x", ".p ²", ".i 2 3",
        ]))

    head = draw(st.sampled_from(
        ["", f".i {in_bits}\n.o {out_bits}\n", ".r c\n"]
    ))
    lines = draw(st.lists(st.just(None).map(lambda _: line()), max_size=20))
    return head + "\n".join(lines)


def parse_outcome(parse, text):
    """The machine ``parse`` makes of ``text``, or its refusal's type,
    message and line."""
    try:
        return parse(text)
    except Kiss2Error as exc:
        return type(exc), str(exc), exc.line


@given(text=kiss2_texts())
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_two_pass_reference(text):
    got = parse_outcome(parse_kiss2, text)
    want = parse_outcome(kiss2_reference.parse_kiss2, text)
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("name", benchmarks.names())
def test_fixtures_parse_as_the_two_pass_reference_does(name):
    text = benchmarks.load(name)
    got = parse_kiss2(text)
    assert type(got) is type(kiss2_reference.parse_kiss2(text))
    assert got == kiss2_reference.parse_kiss2(text)


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", benchmarks.names())
def test_fixture_round_trip_preserves_machine(name):
    m1 = parse_kiss2(benchmarks.load(name))
    m2 = parse_kiss2(serialize_kiss2(m1))
    assert m1 == m2
    # a Moore table is stored as the writer writes it; the Mealy ones
    # (lion, train4) keep their don't-care rows, so their text cannot
    if isinstance(m1, MooreFsm):
        assert serialize_kiss2(m1) == benchmarks.load(name)


# sha256 of every bundled fixture text: the tables the attack is judged on
PINNED_FIXTURES = {
    "bbtas": "77db90fc6d2c37f3de7c6278972ce69831836d78106dd02f9cc86881a759fc7a",
    "dk27": "7f0f2c12668e33c7948ac1937d7a0e6dd974b23a1510ab3122a8a3d84a690193",
    "lion": "ea022909c97ffa959c51dd2c8f3c45f0c4ce3f27f0084d6cb7458589bfd6781e",
    "mc": "d1af6f3979fa7d43fe368e29d09bd3485c2cf2af5f8d808f99f6749919c83400",
    "opus": "820de45b75fce0826d255ac99cc8733e569d1bac3d5ee3de907ed77b38a297a9",
    "s386": "57d66b7b6fc70563f949f103a313f2e02da11df3d47ff50284d0d88acd17f398",
    "shiftreg": "2bbd1fddecfa8b465d527066faaf912a7ecfe3a5f6f0d5afe19ea1bfadc5e1d9",
    "train4": "c6e87ece795e1f52d76c62be9ee369e5a43483adb01f580f64c186b389f77dc8",
}


def test_fixture_texts_are_pinned():
    got = {
        name: hashlib.sha256(benchmarks.load(name).encode()).hexdigest()
        for name in benchmarks.names()
    }
    assert got == PINNED_FIXTURES


def random_moore(rng: random.Random) -> MooreFsm:
    nstates = rng.randint(1, 9)
    input_bits = rng.randint(1, 3)
    output_bits = rng.randint(1, 4)
    states = [f"q{k}" for k in range(nstates)]
    delta = {
        (s, v): rng.randrange(nstates)
        for s in range(nstates)
        for v in range(1 << input_bits)
    }
    outputs = [int_to_bits(rng.randrange(1 << output_bits), output_bits) for _ in states]
    return MooreFsm(input_bits, output_bits, states, rng.randrange(nstates), delta, outputs)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_moore_round_trip(seed):
    m1 = random_moore(random.Random(seed))
    m2 = parse_kiss2(serialize_kiss2(m1))
    # States unreachable in one step may never be *entered*; their outputs are
    # unobservable from the table, so the reparse may classify Mealy only if
    # annotation was inconsistent — which serialize_kiss2 never produces.
    assert isinstance(m2, MooreFsm)
    assert m2.states == m1.states
    assert m2.reset == m1.reset
    assert m2.delta == m1.delta
    for s in range(m1.state_count):
        entered = any(nxt == s for nxt in m1.delta.values())
        if entered:
            assert m2.outputs[s] == m1.outputs[s]


# ---------------------------------------------------------------------------
# moorify
# ---------------------------------------------------------------------------


def test_moorify_preserves_transition_count_train4():
    mealy = parse_kiss2(benchmarks.load("train4"))
    assert isinstance(mealy, MealyFsm)
    moore = moorify(mealy)
    assert transition_count(moore) == 4 * 2**2 == 16
    assert moore.delta == {k: nxt for k, (nxt, _) in mealy.transitions.items()}
    assert moore.states == mealy.states


def test_moorify_first_takes_lexicographically_first_incoming():
    mealy = parse_kiss2(benchmarks.load("train4"))
    moore = moorify(mealy, strategy="first")
    # st2 is first entered from (st0, input 10) with edge output 0.
    assert moore.outputs[mealy.states.index("st2")] == "0"


def test_moorify_majority_differs_from_first_on_train4():
    mealy = parse_kiss2(benchmarks.load("train4"))
    moore = moorify(mealy, strategy="majority")
    # st2's incoming edges carry outputs {0: once, 1: three times}.
    assert moore.outputs[mealy.states.index("st2")] == "1"


def test_moorify_unentered_reset_gets_all_zero_output():
    text = ".i 1\n.o 2\n.r a\n0 a b 11\n1 a b 11\n0 b b 11\n1 b b 11\n"
    m = parse_kiss2(text)
    if isinstance(m, MooreFsm):  # never-entered 'a' defaults consistently
        assert m.outputs[0] == "00"
    mealy = MealyFsm(
        input_bits=1,
        output_bits=2,
        states=["a", "b"],
        reset=0,
        transitions={(0, 0): (1, "11"), (0, 1): (1, "11"), (1, 0): (1, "11"), (1, 1): (1, "11")},
    )
    assert moorify(mealy).outputs[0] == "00"


def test_moorify_requires_complete_machine():
    mealy = MealyFsm(1, 1, ["a"], 0, {(0, 0): (0, "1")})
    with pytest.raises(IncompleteMachineError):
        moorify(mealy)


def test_moorify_rejects_unknown_strategy():
    mealy = parse_kiss2(benchmarks.load("lion"))
    with pytest.raises(ValueError, match="strategy"):
        moorify(mealy, strategy="median")


# ---------------------------------------------------------------------------
# encodings and stepping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nstates,width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (13, 4)])
def test_binary_encoding_width(nstates, width):
    m = MooreFsm(
        input_bits=1,
        output_bits=1,
        states=[f"q{k}" for k in range(nstates)],
        reset=0,
        delta={(s, v): (s + v) % nstates for s in range(nstates) for v in (0, 1)},
        outputs=["0"] * nstates,
    )
    enc = assign_binary_encoding(m)
    assert enc.width == width
    assert enc.encodings == list(range(nstates))


def test_binary_encoding_requires_complete():
    m = MooreFsm(1, 1, ["a", "b"], 0, {(0, 0): 1}, ["0", "1"])
    with pytest.raises(IncompleteMachineError):
        assign_binary_encoding(m)


def test_step_exhaustive_hd_bounded_and_consistent():
    moore = parse_kiss2(benchmarks.load("dk27"))
    enc = assign_binary_encoding(moore)
    width = enc.width
    assert width == math.ceil(math.log2(7)) == 3
    for s in range(moore.state_count):
        for v in range(1 << moore.input_bits):
            res = step(enc, s, v)
            assert res.next_state == moore.delta[(s, v)]
            assert res.output == moore.outputs[res.next_state]
            assert 0 <= res.hd <= width
            assert (res.hd == 0) == (res.next_state == s)


def test_step_refuses_a_missing_transition():
    m = MooreFsm(1, 1, ["a", "b"], 0, {(0, 0): 1}, ["0", "1"])
    with pytest.raises(IncompleteMachineError, match="no transition for state 'a', input 1"):
        step(EncodedFsm(m, [0, 1], 1), 0, 1)


def test_step_rejects_bad_state_and_vector():
    enc = assign_binary_encoding(parse_kiss2(benchmarks.load("dk27")))
    with pytest.raises(ValueError, match="state"):
        step(enc, 99, 0)
    with pytest.raises(ValueError, match="vector"):
        step(enc, 0, 2)
