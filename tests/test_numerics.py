import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopareto.cli import main
from mopareto.generators import gen_random
from mopareto.model import save_instance
from mopareto.numerics import (
    _DIGIT_LIMIT,
    exact_sqrt,
    half_step_delta,
    parse_rational,
    render_rational,
)


def encoding_bits(r):
    """Binary encoding length of a rational: max bit length of numerator and denominator."""
    return max(abs(r.numerator).bit_length(), r.denominator.bit_length())


def test_parse_fraction_form():
    assert parse_rational("3/2") == Fraction(3, 2)


def test_parse_finite_decimal_exactly():
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_integer_and_signs():
    assert parse_rational("5") == 5
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("+7") == 7


def test_parse_zero_is_a_valid_generic_rational():
    # sign restrictions for objective values live at the instance layer
    assert parse_rational("0") == 0


def test_digit_limit_is_named_plainly_both_ways():
    # CPython's int/str digit limit; the message names it and gives no call to raise it
    message = (
        f"a number has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's int/str conversion limit"
    )
    too_long = "7" * (sys.get_int_max_str_digits() + 1)
    for text in ("1/" + too_long, too_long + "/3", too_long):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == message
    for value in (Fraction(10**5000), Fraction(1, 10**5000)):
        with pytest.raises(ValueError) as info:
            render_rational(value)
        assert str(info.value) == message


# parse_rational as it was before it read its regex groups itself: the reference for
# the differential test below (Fraction(str) matched the text a second time)
_REFERENCE_FORM = re.compile(r"^[+-]?(?:\d+/\d+|\d+(?:\.\d+)?)$")


def reference_parse_rational(text: str) -> Fraction:
    s = text.strip()
    if not _REFERENCE_FORM.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None
    except ValueError:  # the form is valid, so only the digit limit gets here
        raise ValueError(_DIGIT_LIMIT.format(sys.get_int_max_str_digits())) from None


def _outcome(parse, text):
    """(type, value) of a parse, or (exception type, message) of its failure."""
    try:
        value = parse(text)
    except Exception as exc:  # the comparison covers whatever either one raises
        return type(exc), str(exc)
    return type(value), value


_LIMIT = sys.get_int_max_str_digits()
# ASCII, Arabic-Indic, Devanagari and fullwidth digits: \d and int() accept them all
_DIGITS = st.sampled_from("0123456789\u0660\u0661\u0665\u0967\uff10\uff11\uff19")
# nonempty digit runs: short mixed ones, and runs of one digit at and past the digit limit
_DIGIT_RUNS = st.one_of(
    st.text(_DIGITS, min_size=1, max_size=4),
    st.builds(str.__mul__, _DIGITS, st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1])),
)
_SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\u00a0\u2003"), max_size=2)
# a sign, digits and a separator, in forms the grammar accepts and forms it refuses
_LITERALS = st.builds(
    lambda lead, sign, whole, sep, rest, trail: lead + sign + whole + sep + rest + trail,
    _SPACE,
    st.sampled_from(["", "", "+", "-", "--", "+-"]),
    _DIGIT_RUNS | st.just(""),
    st.sampled_from(["/", ".", "/", ".", "//", "/-", "e", " / ", "_"]),
    _DIGIT_RUNS | st.just(""),
    _SPACE,
)
_WELL_FORMED = st.builds(
    lambda lead, sign, whole, tail, trail: lead + sign + whole + tail + trail,
    _SPACE,
    st.sampled_from(["", "+", "-"]),
    _DIGIT_RUNS,
    st.just("") | st.builds(str.__add__, st.sampled_from("/."), _DIGIT_RUNS),
    _SPACE,
)


@settings(max_examples=500)
@given(st.one_of(_WELL_FORMED, _LITERALS, st.text(max_size=8)))
@example("-1.25")
@example(" 5")
@example("5\n")
@example("007/0010")
@example("1.")
@example(".5")
@example("0/0")
@example("1/0")
@example("-0.0")
@example("\u0661")
@example("\u0661/\u0662")
@example("-\u0661.\u0665")
@example("7" * (_LIMIT + 1))
@example("1/" + "7" * (_LIMIT + 1))
@example("7" * (_LIMIT + 1) + "/0")
@example("7" * _LIMIT + "." + "7" * _LIMIT)  # each part within the limit, the whole past it
@example("1." + "7" * (_LIMIT + 1))
def test_parse_matches_the_reference_parser(text):
    assert _outcome(parse_rational, text) == _outcome(reference_parse_rational, text)


@pytest.mark.parametrize("bad", ["", "a", "1/2/3", "1.2.3", "1e3", "3/-2", "inf", "1/0"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_render_canonical_forms():
    assert render_rational(Fraction(3, 2)) == "3/2"
    assert render_rational(Fraction(8, 4)) == "2"
    assert render_rational(Fraction(-5, 10)) == "-1/2"


@given(st.fractions())
def test_parse_render_round_trip(r):
    assert parse_rational(render_rational(r)) == r


def reference_render_rational(r):
    """render_rational as it was before it wrote str(r): the reference for the test below."""
    try:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
    except ValueError:
        raise ValueError(_DIGIT_LIMIT.format(sys.get_int_max_str_digits())) from None


# Values are built inside the test: repr refuses a number past the digit limit, so
# Hypothesis could not show such a drawn value.
@settings(max_examples=300)
@given(st.integers() | st.fractions(), st.sampled_from([0, _LIMIT - 1, _LIMIT]), st.booleans())
@example(1, _LIMIT - 1, True)  # _LIMIT digits, the most the interpreter writes
@example(-10, _LIMIT - 1, True)  # one digit more
@example(Fraction(3), _LIMIT - 1, True)  # a Fraction of denominator 1
@example(1, _LIMIT, False)
@example(1, 0, False)
def test_render_matches_the_reference_formatter(base, shift, up):
    """r = base * 10**shift, an int when base is one, or base / 10**shift, a Fraction."""
    r = base * 10**shift if up else Fraction(base, 10**shift)
    assert _outcome(render_rational, r) == _outcome(reference_render_rational, r)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)))
def test_half_step_delta_square_stays_within_budget(eps):
    delta = half_step_delta(eps)
    assert delta > 0
    assert (1 + delta) ** 2 <= 1 + eps


def test_half_step_delta_exact_when_square():
    # 1 + 5/4 = 9/4 = (3/2)^2
    assert half_step_delta(Fraction(5, 4)) == Fraction(1, 2)


_BELOW_THE_LADDER = "eps=1/549755813888 is too small for the dyadic delta ladder"


def test_half_step_delta_ends_at_the_finest_dyadic_rung():
    # the ladder's rungs are multiples of 2**-40, and (1 + 2**-40)**2 > 1 + 2**-39
    assert half_step_delta(Fraction(1, 2**38)) == Fraction(1, 2**40)
    with pytest.raises(ValueError, match=rf"^{_BELOW_THE_LADDER}$"):
        half_step_delta(Fraction(1, 2**39))


@pytest.mark.parametrize("algo", ["gap", "bi-dual2"])
def test_an_eps_below_the_ladder_is_a_usage_error(algo, tmp_path, capsys):
    instance = tmp_path / "i.json"
    instance.write_bytes(save_instance(gen_random(6, 2, 1)))
    argv = ["compute", "--algo", algo, "--relation", "epsilon", "--eps", f"1/{2**39}"]
    assert main([*argv, "-i", str(instance)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {_BELOW_THE_LADDER}\n"


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 256), max_value=Fraction(256)),
        min_size=2,
        max_size=12,
    )
)
def test_distinct_values_of_bounded_encoding_differ_observably(values):
    # two unequal rationals of encoding length <= M differ by at least 2**-2M
    m = max(encoding_bits(v) for v in values)
    gap = Fraction(1, 1 << (2 * m))
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            if a != b:
                assert abs(a - b) >= gap
