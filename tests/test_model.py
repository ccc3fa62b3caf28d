import json
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from enum import IntEnum
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopareto import model
from mopareto.cli import main
from mopareto.constructors import construct_grid_approx
from mopareto.dominance import DominationDigraph
from mopareto.generators import (
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_quasi2_gap,
    gen_random,
)
from mopareto.grid import cell_coord, ratio_steps_to_reach
from mopareto.model import (
    ApproximationSet,
    CertificateEntry,
    FormatError,
    GapQuery,
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
    derive_value_bound,
    load_instance,
    load_set,
    save_instance,
    save_set,
)
from mopareto.numerics import _integer, _positive, half_step_delta, render_rational
from mopareto.oracles import dual_restrict_2approx, greedy_biobjective_min


def _inst(*vectors):
    return Instance(
        p=len(vectors[0]),
        solutions=tuple(
            Solution(f"s{i}", tuple(Fraction(v) for v in vec))
            for i, vec in enumerate(vectors, start=1)
        ),
    )


class Three(IntEnum):
    THREE = 3


class FractionSubclass(Fraction):
    pass


class LooksLikeThree:
    """Duck-types the positive rational 3: a numerator and a denominator, and no more."""

    numerator, denominator = 3, 1

    def __repr__(self):
        return "LooksLikeThree()"


class TestInstanceInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Instance(
                p=1,
                solutions=(Solution("a", (Fraction(1),)), Solution("a", (Fraction(2),))),
            )

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Instance(p=1, solutions=(Solution("", (Fraction(1),)),))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            _inst((1, 0))

    @pytest.mark.parametrize(
        "bad", [Fraction(0), Fraction(-1, 3), Fraction(-10**40, 7), 0, -2], ids=repr
    )
    def test_nonpositive_value_names_the_first_solution_holding_one(self, bad):
        # the sign is read off the numerator: a Fraction's denominator is positive
        solutions = (
            Solution("a", (Fraction(1, 3), 2)),
            Solution("b", (Fraction(5), bad)),
            Solution("c", (bad, bad)),
        )
        with pytest.raises(ValueError, match=r"^nonpositive objective value in solution 'b'$"):
            Instance(p=2, solutions=solutions)

    @pytest.mark.parametrize(
        "bad",
        [0.5, 2.0, float("nan"), Decimal("1.5"), "3/2", None,
         True, False, Three.THREE, FractionSubclass(3, 2), LooksLikeThree()],
        ids=repr,
    )
    def test_a_value_that_is_no_int_or_fraction_names_its_solution(self, bad):
        solutions = (Solution("a", (Fraction(1), 2)), Solution("b", (Fraction(5), bad)))
        message = rf"^an objective value of solution 'b' must be an int or a Fraction, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Instance(p=2, solutions=solutions)

    def test_a_nonpositive_value_before_a_float_is_named_first(self):
        with pytest.raises(ValueError, match=r"^nonpositive objective value in solution 'a'$"):
            Instance(p=2, solutions=(Solution("a", (Fraction(-1), 0.5)),))

    def test_plain_int_values_are_accepted(self):
        inst = Instance(p=2, solutions=(Solution("a", (1, Fraction(1, 10**40))), Solution("b", (3, 2))))
        assert inst._rows == ((1, 1), (3, 2 * 10**40))

    def test_an_id_that_is_no_str_rejected(self):
        with pytest.raises(ValueError, match=r"^solution id 1 must be a str$"):
            Instance(p=2, solutions=(Solution(1, (Fraction(1), Fraction(2))),))

    def test_a_vector_that_is_no_tuple_rejected(self):
        with pytest.raises(ValueError, match=r"^solution 'a' must hold its values in a tuple$"):
            Instance(p=2, solutions=(Solution("a", [Fraction(1), Fraction(2)]),))

    def test_ragged_vector_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            Instance(p=2, solutions=(Solution("a", (Fraction(1),)),))

    def test_zero_objectives_rejected(self):
        with pytest.raises(ValueError, match="at least one objective"):
            Instance(p=0, solutions=())

    def test_duplicate_images_with_distinct_ids_allowed(self):
        inst = Instance(
            p=1,
            solutions=(Solution("a", (Fraction(1),)), Solution("b", (Fraction(1),))),
        )
        assert len(inst) == 2

    def test_position_follows_instance_order(self):
        inst = _inst((1, 2), (2, 1))
        assert inst.position("s1") == 0
        assert inst.position("s2") == 1
        with pytest.raises(KeyError):
            inst.position("nope")


class TestRelationSpec:
    def test_k_required_for_quasi_kinds(self):
        with pytest.raises(ValueError):
            RelationSpec(RelationKind.QUASI_K, Fraction(1))
        with pytest.raises(ValueError):
            RelationSpec(RelationKind.ONE_EXACT_QUASI_K, Fraction(1))

    def test_k_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            RelationSpec(RelationKind.EPSILON, Fraction(1), k=1)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            RelationSpec(RelationKind.EPSILON, Fraction(0))

    def test_k_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            RelationSpec(RelationKind.QUASI_K, Fraction(1), k=0)

    @pytest.mark.parametrize("k", [1.5, 1.0, Fraction(1), "1"], ids=repr)
    def test_k_must_be_an_int(self, k):
        # a float k would reach the digraph's bit-sliced count as a TypeError
        with pytest.raises(ValueError, match=rf"^k must be an int, got {re.escape(repr(k))}$"):
            RelationSpec(RelationKind.QUASI_K, Fraction(1), k=k)


class TestGapQuery:
    def test_positive_budgets_required(self):
        with pytest.raises(ValueError):
            GapQuery(b=(Fraction(0), Fraction(1)), delta=Fraction(1, 2))

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            GapQuery(b=(Fraction(1),), delta=Fraction(0))

    @pytest.mark.parametrize(
        "b, delta, what, bad",
        [
            ((float("nan"), float("nan")), Fraction(1, 2), "all budget components", "nan"),
            ((Fraction(1), float("nan")), Fraction(1, 2), "all budget components", "nan"),
            ((Fraction(1), Fraction(1)), float("nan"), "delta", "nan"),
            ((Decimal("NaN"),), Fraction(1, 2), "all budget components", "Decimal('NaN')"),
            ((Decimal("sNaN"),), Fraction(1, 2), "all budget components", "Decimal('sNaN')"),
            ((Fraction(1),), Decimal("NaN"), "delta", "Decimal('NaN')"),
            ((Fraction(1), 0.5), Fraction(1, 2), "all budget components", "0.5"),
            ((Decimal("0.5"),), Fraction(1, 2), "all budget components", "Decimal('0.5')"),
            ((float("inf"),), Fraction(1, 2), "all budget components", "inf"),
            ((Fraction(1),), 0.5, "delta", "0.5"),
            ((Fraction(1),), Decimal("0.5"), "delta", "Decimal('0.5')"),
            ((Fraction(1),), float("inf"), "delta", "inf"),
        ],
    )
    def test_nan_budget_and_nan_delta_rejected(self, b, delta, what, bad):
        # refused for the type, before a NaN or a float could decide a comparison
        with pytest.raises(ValueError, match=rf"^{what} must be an int or a Fraction, got {re.escape(bad)}$"):
            GapQuery(b=b, delta=delta)


NOT_EXACT = [float("nan"), 0.5, Decimal("0.5"), float("inf")]


@pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: RelationSpec(RelationKind.EPSILON, v), "eps"),
        (lambda v: greedy_biobjective_min(gen_random(20, 2, seed=1), v), "eps"),
        (lambda v: dual_restrict_2approx(gen_random(20, 2, seed=1), v), "eps"),
        (lambda v: half_step_delta(v), "eps"),
        (lambda v: cell_coord(Fraction(2), v, Fraction(1)), "anchor"),
        (lambda v: cell_coord(Fraction(2), Fraction(1), v), "eps"),
        (lambda v: ratio_steps_to_reach(Fraction(2), v), "eps"),
        (lambda v: gen_prop_dominated(v), "eps"),
        (lambda v: gen_prop_one_exact(v, 2), "delta"),
        (lambda v: gen_quasi2_gap(v, 2), "eps"),
    ],
    ids=[
        "RelationSpec",
        "greedy_biobjective_min",
        "dual_restrict_2approx",
        "half_step_delta",
        "cell_coord-anchor",
        "cell_coord-eps",
        "ratio_steps_to_reach",
        "gen_prop_dominated",
        "gen_prop_one_exact",
        "gen_quasi2_gap",
    ],
)
def test_a_number_that_is_not_exact_is_refused_for_its_type(call, what, value):
    with pytest.raises(ValueError, match=rf"^{what} must be an int or a Fraction, got {re.escape(repr(value))}$"):
        call(value)


def reference_derive_value_bound(instance):
    """The per-value loop derive_value_bound replaced, on the Fraction values."""
    m = 0
    for sol in instance.solutions:
        for v in sol.f:
            big = v if v >= 1 else 1 / v
            while big > (1 << m):
                m += 1
    return m


NANO = Fraction(1, 10**9)


@st.composite
def bound_cases(draw):
    """(p, vectors): values exactly 2**m or 2**-m, or 10**-9 either side, and values
    over the coprime 14- and 17-bit denominators 16381 and 131071 (an LCM of 31 bits)."""
    power = st.integers(0, 12).flatmap(
        lambda m: st.sampled_from([Fraction(1 << m), Fraction(1, 1 << m)])
    )
    near = st.builds(lambda v, step: v + step, power, st.sampled_from([0, -NANO, NANO]))
    coprime = st.builds(Fraction, st.integers(1, 1 << 20), st.sampled_from([16381, 131071]))
    p = draw(st.integers(1, 3))
    value = st.one_of(near, coprime)
    return p, draw(st.lists(st.tuples(*[value] * p), max_size=6))


class TestValueBound:
    def test_all_ones_gives_zero(self):
        assert derive_value_bound(_inst((1, 1), (1, 1))) == 0

    def test_empty_instance_gives_zero(self):
        assert derive_value_bound(Instance(p=2, solutions=())) == 0

    def test_quarter_to_eight_gives_three(self):
        assert derive_value_bound(_inst((Fraction(1, 4), 8))) == 3

    def test_dominated_family_eps_one_gives_two(self):
        # max value is (1+1)^2 = 4 and min is 1
        assert derive_value_bound(gen_prop_dominated(Fraction(1))) == 2

    def test_range_is_respected(self):
        inst = gen_random(30, 3, seed=11, value_range=5)
        m = derive_value_bound(inst)
        low, high = Fraction(1, 1 << m), Fraction(1 << m)
        assert all(low <= v <= high for s in inst for v in s.f)
        if m > 0:
            tight_low, tight_high = Fraction(1, 1 << (m - 1)), Fraction(1 << (m - 1))
            assert any(not tight_low <= v <= tight_high for s in inst for v in s.f)

    @settings(max_examples=400, deadline=None)
    @given(bound_cases(), st.sampled_from([0, 12, None]))
    @example((1, []), 0)
    @example((1, []), None)
    @example((3, []), 12)
    @example((3, []), None)
    def test_matches_the_per_value_loop(self, case, scale_bits):
        # scale_bits: every column falls back to Fractions (0), the columns
        # with a 10**-9 step or both coprime denominators do (12), none do (None)
        p, vectors = case
        with pytest.MonkeyPatch.context() as mp:
            if scale_bits is not None:
                mp.setattr(model, "_SCALE_BITS", scale_bits)
            instance = Instance(
                p, tuple(Solution(f"s{i}", v) for i, v in enumerate(vectors))
            )  # its image is cached under the patched limit
            got = derive_value_bound(instance)
            if scale_bits == 0 and vectors:
                assert all(scale is None for scale, _ in instance._image)
        assert got == reference_derive_value_bound(instance)


class TestInstanceFiles:
    def test_well_formed_round_trip(self):
        data = b'{"p": 2, "solutions": [{"id": "a", "f": ["1", "3/2"]}, {"id": "b", "f": ["1.25", "2"]}]}'
        inst = load_instance(data)
        assert inst.p == 2
        assert inst.solution("b").f == (Fraction(5, 4), Fraction(2))
        assert load_instance(save_instance(inst)) == inst

    def test_generator_output_round_trips(self):
        inst = gen_random(12, 3, seed=3)
        assert load_instance(save_instance(inst)) == inst

    def test_zero_value_rejected(self):
        for value in ("0", "-1/2"):
            data = b'{"p": 1, "solutions": [{"id": "a", "f": ["%s"]}]}' % value.encode()
            with pytest.raises(FormatError, match="nonpositive"):
                load_instance(data)

    def test_duplicate_ids_rejected(self):
        data = b'{"p": 1, "solutions": [{"id": "a", "f": ["1"]}, {"id": "a", "f": ["2"]}]}'
        with pytest.raises(FormatError, match="duplicate"):
            load_instance(data)

    def test_ragged_vector_rejected(self):
        data = b'{"p": 2, "solutions": [{"id": "a", "f": ["1"]}]}'
        with pytest.raises(FormatError):
            load_instance(data)

    def test_malformed_rational_rejected(self):
        data = b'{"p": 1, "solutions": [{"id": "a", "f": ["1e5"]}]}'
        with pytest.raises(FormatError, match="rational"):
            load_instance(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError, match="JSON"):
            load_instance(b"{")

    def test_bytes_in_no_json_encoding_rejected(self):
        # a UTF-16 byte-order mark followed by an odd byte: json.loads raises UnicodeDecodeError
        with pytest.raises(FormatError, match="JSON"):
            load_instance(b"\xff\xfe{")

    @pytest.mark.parametrize("p", ["true", "false", "1.0"])
    def test_p_must_be_a_json_integer(self, p):
        data = b'{"p": %s, "solutions": [{"id": "a", "f": ["1"]}]}' % p.encode()
        with pytest.raises(FormatError, match='"p" must be a positive integer'):
            load_instance(data)


_INSTANCE_KEYS = 'instance file must be an object with "p" and "solutions"'
_ENTRY_KEYS = 'solution entries need "id" and "f"'
_SET_KEYS = 'set file must be an object with "relation" and "members"'


@pytest.mark.parametrize(
    "load, payload, message",
    [
        (load_instance, b'[1, 2]', _INSTANCE_KEYS),
        (load_instance, b'{"p": 1}', _INSTANCE_KEYS),
        (load_instance, b'{"solutions": []}', _INSTANCE_KEYS),
        (load_instance, b'{"p": 1, "solutions": {"id": "a"}}', '"solutions" must be a list'),
        (load_instance, b'{"p": 1, "solutions": [{"f": ["1"]}]}', _ENTRY_KEYS),
        (load_instance, b'{"p": 1, "solutions": [{"id": "a"}]}', _ENTRY_KEYS),
        (load_instance, b'{"p": 1, "solutions": ["a"]}', _ENTRY_KEYS),
        (load_instance, b'{"p": 1, "solutions": [{"id": 7, "f": ["1"]}]}',
         "solution id must be a string: 7"),
        (load_instance, b'{"p": 1, "solutions": [{"id": "a", "f": "1"}]}',
         "solution 'a': \"f\" must be a list"),
        (load_instance, b'{"p": 1, "solutions": [{"id": "a", "f": [1]}]}',
         "solution 'a': rational values must be strings, got 1"),
        (load_set, b'"members"', _SET_KEYS),
        (load_set, b'{"relation": {"kind": "epsilon", "eps": "1"}, "members": "a"}',
         '"members" must be a list of id strings'),
        (load_set, b'{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["a", 2]}',
         '"members" must be a list of id strings'),
        (load_set, b'{"relation": "epsilon", "members": []}',
         'relation must be an object with "kind" and "eps"'),
    ],
)
def test_hostile_file_rejected_with_its_message(load, payload, message):
    with pytest.raises(FormatError) as info:
        load(payload)
    assert str(info.value).startswith(message)


class TestSetFiles:
    def test_round_trip_with_certificate(self):
        aset = ApproximationSet(
            relation=RelationSpec(RelationKind.QUASI_K, Fraction(1, 2), k=2),
            members=("a", "b"),
            certificate=(
                CertificateEntry(covered="a", by="a", exact_indices=(1, 2)),
                CertificateEntry(covered="c", by="b", exact_indices=(2,)),
            ),
        )
        assert load_set(save_set(aset)) == aset

    def test_relation_without_k_round_trips(self):
        aset = ApproximationSet(
            relation=RelationSpec(RelationKind.EPSILON, Fraction(1)), members=("a",)
        )
        assert load_set(save_set(aset)) == aset

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="kind"):
            load_set(b'{"relation": {"kind": "exactly", "eps": "1"}, "members": []}')

    def test_malformed_certificate_rejected(self):
        payload = (
            b'{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["a"],'
            b' "certificate": [{"covered": "a", "by": 3, "exact_indices": []}]}'
        )
        with pytest.raises(FormatError, match="certificate"):
            load_set(payload)

    def test_bytes_in_no_json_encoding_rejected(self):
        with pytest.raises(FormatError, match="JSON"):
            load_set(b"\xff\xfe{")

    def test_boolean_k_rejected(self):
        payload = b'{"relation": {"kind": "quasi-k", "eps": "1", "k": true}, "members": []}'
        with pytest.raises(FormatError, match='"k" must be an integer'):
            load_set(payload)

    @pytest.mark.parametrize(
        "relation, message",
        [
            ({"kind": "quasi-k", "eps": "1"}, "k must be an int, got None"),
            ({"kind": "epsilon", "eps": "0"}, "eps must be positive"),
            ({"kind": "epsilon", "eps": "1", "k": 2}, "relation epsilon does not take k"),
        ],
    )
    def test_a_relation_that_relation_spec_refuses_is_a_bad_set_file(
        self, relation, message, tmp_path, capsys
    ):
        payload = json.dumps({"relation": relation, "members": []})
        with pytest.raises(FormatError, match=rf"^{message}$"):
            load_set(payload)
        instance, set_file = tmp_path / "i.json", tmp_path / "s.json"
        instance.write_bytes(save_instance(gen_prop_dominated(Fraction(1))))
        set_file.write_text(payload)
        argv = ["verify", "--relation", "epsilon", "--eps", "1", "-i", str(instance)]
        assert main([*argv, "--set", str(set_file)]) == 3
        assert capsys.readouterr().err == f"bad input file: {message}\n"

    @pytest.mark.parametrize("flag", [b"true", b"false"])
    def test_boolean_exact_index_rejected(self, flag):
        payload = (
            b'{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["a"],'
            b' "certificate": [{"covered": "a", "by": "a", "exact_indices": [%s]}]}' % flag
        )
        with pytest.raises(FormatError, match="certificate"):
            load_set(payload)


def _instance_file(*rows):
    """An instance file with solutions s1, s2, ... whose "f" lists are the given rows."""
    solutions = [{"id": f"s{i}", "f": row} for i, row in enumerate(rows, start=1)]
    return json.dumps({"p": len(rows[0]), "solutions": solutions}).encode()


class TestEachLiteralIsParsedOnce:
    """load_instance parses each distinct literal once; what it reports must not change."""

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("x", "not a rational literal: 'x'"),
            ("1/0", "zero denominator in rational literal: '1/0'"),
            ("7" * (sys.get_int_max_str_digits() + 1),
             f"a number has more than {sys.get_int_max_str_digits()} digits"),
            (1, "rational values must be strings, got 1"),
            (True, "rational values must be strings, got True"),
            ([1], "rational values must be strings, got [1]"),
        ],
        ids=["malformed", "zero-denominator", "digit-limit", "int", "bool", "list"],
    )
    def test_a_bad_value_is_reported_against_the_first_solution_holding_it(self, bad, reason):
        data = _instance_file(["1", "2"], ["2", bad], [bad, "1"], ["1", bad])
        with pytest.raises(FormatError) as info:
            load_instance(data)
        assert str(info.value).startswith(f"solution 's2': {reason}")

    def test_repeated_literals_load_equal_values(self):
        inst = load_instance(_instance_file(["3/2", "1.5"], ["1.5", "3/2"], ["3/2", "7"]))
        assert [s.f for s in inst] == [(Fraction(3, 2),) * 2] * 2 + [(Fraction(3, 2), 7)]
        # a solution whose literals were all seen before shares their immutable Fractions
        assert inst.solutions[1].f == inst.solutions[0].f[::-1]
        assert all(map(operator.is_, inst.solutions[1].f, inst.solutions[0].f[::-1]))

    def test_padded_and_bare_literals_load_equal(self):
        inst = load_instance(_instance_file([" 5"], ["5"], ["5\n"], ["+5"]))
        assert {s.f for s in inst} == {(Fraction(5),)}


def reference_save_instance(instance):
    """save_instance as it was, through the indented json.dumps: the byte reference."""
    payload = {
        "p": instance.p,
        "solutions": [
            {"id": s.id, "f": [render_rational(v) for v in s.f]} for s in instance.solutions
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def reference_save_set(aset):
    """save_set as it was, through the indented json.dumps: the byte reference."""
    relation = {"kind": aset.relation.kind.value, "eps": render_rational(aset.relation.eps)}
    if aset.relation.k is not None:
        relation["k"] = aset.relation.k
    payload = {
        "relation": relation,
        "members": list(aset.members),
        "certificate": [
            {"covered": e.covered, "by": e.by, "exact_indices": list(e.exact_indices)}
            for e in aset.certificate
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


# ids that json must escape: quotes, backslashes, control characters, non-ASCII (also
# outside the BMP, written as a surrogate pair), next to plain letters
_IDS = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\u00e9\u2028\U0001f600') | st.characters(),
               min_size=1, max_size=6)
_POSITIVE = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30))


@st.composite
def instances(draw):
    p = draw(st.integers(1, 4))
    ids = draw(st.lists(_IDS, max_size=5, unique=True))
    vectors = draw(st.lists(st.tuples(*[_POSITIVE] * p), min_size=len(ids), max_size=len(ids)))
    return Instance(p=p, solutions=tuple(map(Solution, ids, vectors)))


@st.composite
def approximation_sets(draw):
    kind = draw(st.sampled_from(RelationKind))
    quasi = kind in (RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K)
    k = draw(st.integers(1, 10**20)) if quasi else None
    entries = st.builds(
        CertificateEntry, _IDS, _IDS, st.lists(st.integers(1, 10**20), max_size=3).map(tuple)
    )
    return ApproximationSet(
        relation=RelationSpec(kind, draw(_POSITIVE), k),
        members=tuple(draw(st.lists(_IDS, max_size=4))),
        certificate=tuple(draw(st.lists(entries, max_size=4))),
    )


class TestWrittenBytes:
    """save_* write json.dumps(payload, indent=2) + "\n" exactly, and load_* read it back."""

    @settings(max_examples=300)
    @given(instances())
    def test_instance_bytes_and_round_trip(self, inst):
        data = save_instance(inst)
        assert data == reference_save_instance(inst)
        assert load_instance(data) == inst

    @settings(max_examples=300)
    @given(approximation_sets())
    def test_set_bytes_and_round_trip(self, aset):
        data = save_set(aset)
        assert data == reference_save_set(aset)
        assert load_set(data) == aset

    def test_empty_lists_and_an_absent_k(self):
        inst = Instance(p=2, solutions=())
        aset = ApproximationSet(
            RelationSpec(RelationKind.EPSILON, Fraction(1)),
            members=(),
            certificate=(CertificateEntry("a", "b", ()),),
        )
        assert save_instance(inst) == b'{\n  "p": 2,\n  "solutions": []\n}\n'
        assert save_set(aset) == reference_save_set(aset)
        assert b'"members": []' in save_set(aset) and b'"exact_indices": []' in save_set(aset)
        assert b'"k"' not in save_set(aset)

    def test_a_count_is_built_only_if_its_file_reads_back(self):
        # JSON writes a bool as true or false, which the readers refuse as a count
        for count in (True, False):
            with pytest.raises(ValueError, match=rf"^p must be an int, got {count}$"):
                Instance(p=count, solutions=())
            with pytest.raises(ValueError, match=rf"^k must be an int, got {count}$"):
                RelationSpec(RelationKind.QUASI_K, Fraction(1), k=count)
        inst = Instance(p=1, solutions=())
        aset = ApproximationSet(RelationSpec(RelationKind.QUASI_K, Fraction(1), k=1), ())
        assert load_instance(save_instance(inst)) == inst
        assert load_set(save_set(aset)) == aset


EPSILON_ONE = RelationSpec(RelationKind.EPSILON, Fraction(1))


class TestASetIsBuiltOnlyIfItsFileReadsBack:
    """save_set wrote each of these values as it is, and load_set refused the file."""

    def test_a_member_that_is_no_str_is_refused(self):
        with pytest.raises(ValueError, match=r"^member id 1 must be a str$"):
            ApproximationSet(EPSILON_ONE, members=("a", 1))

    @pytest.mark.parametrize(
        "entry",
        [(1, "a", (1,)), ("a", None, (1,))]
        + [("b", "a", bad) for bad in [(0,), (1.5,), (True,), (1, 2, -3), [1], "12"]],
        ids=repr,
    )
    def test_a_certificate_entry_that_would_not_read_back_is_refused(self, entry):
        # the index True was written True, which is no JSON; 0, 1.5 and -3 were written as they are
        good = CertificateEntry("a", "a", (1, 2))
        message = rf"^malformed certificate entry: {re.escape(repr(entry))}$"
        with pytest.raises(ValueError, match=message):
            ApproximationSet(EPSILON_ONE, ("a",), (good, CertificateEntry(*entry)))

    def test_a_valid_set_still_reads_back(self):
        certificate = (CertificateEntry("a", "a", (1, 2)), CertificateEntry("b", "a", ()))
        aset = ApproximationSet(EPSILON_ONE, ("a",), certificate)
        assert load_set(save_set(aset)) == aset

    @pytest.mark.parametrize("index", [True, 1.0], ids=repr)
    def test_an_index_equal_to_an_earlier_good_one_is_refused(self, index):
        # (True,) and (1.0,) equal (1,), which the entry before holds; each index is checked
        good = CertificateEntry("a", "a", (1,))
        with pytest.raises(ValueError) as info:
            ApproximationSet(EPSILON_ONE, ("a",), (good, CertificateEntry("b", "a", (index,))))
        assert str(info.value) == f"malformed certificate entry: {('b', 'a', (index,))!r}"

    def test_the_first_of_two_entries_holding_one_bad_tuple_is_named(self):
        certificate = (CertificateEntry("a", "a", (0,)), CertificateEntry("b", "a", (0,)))
        with pytest.raises(ValueError) as info:
            ApproximationSet(EPSILON_ONE, ("a",), certificate)
        assert str(info.value) == "malformed certificate entry: ('a', 'a', (0,))"

    def test_a_str_subclass_id_is_accepted_by_the_walk(self):
        entry = CertificateEntry(StrId("a"), StrId("a"), (1,))
        aset = ApproximationSet(EPSILON_ONE, (StrId("a"),), (entry,))
        assert load_set(save_set(aset)) == aset



# ids json must escape, one of each kind the Hypothesis ids draw from
ESCAPED_IDS = ('a"b', "back\\slash", "sl/ash", "\x00\x1f\x7f", "line\nbreak", "\u00e9t\u00e9",
               "\u2028", "\U0001f600")


@pytest.fixture(scope="module")
def random_3000():
    """gen_random(3000, 3, seed=1) and its verified eps = 1/2 grid set, built once per module:
    the instance file, the set and the set file. A test that spoils a payload spoils its own
    json.loads of the bytes."""
    instance = gen_random(3000, 3, seed=1)
    aset = construct_grid_approx(instance, RelationSpec(RelationKind.EPSILON, Fraction(1, 2)))
    return SimpleNamespace(instance_file=save_instance(instance), set_file=save_set(aset), aset=aset)


class TestWrittenBytesAtRealSizes:
    """The writers against the json.dumps references on files of the sizes commands write."""

    def assert_set_bytes(self, aset):
        data = save_set(aset)
        assert data == reference_save_set(aset)
        assert load_set(data) == aset

    def assert_instance_bytes(self, inst):
        data = save_instance(inst)
        assert data == reference_save_instance(inst)
        assert load_instance(data) == inst

    def test_a_verified_grid_set_of_3000_solutions(self, random_3000):
        aset = random_3000.aset
        assert len(aset.certificate) == 3000
        assert len({e.exact_indices for e in aset.certificate}) > 1
        self.assert_set_bytes(aset)

    def test_every_exact_indices_subset_at_p_4(self):
        subsets = [c for size in range(5) for c in combinations(range(1, 5), size)]
        assert subsets[0] == () and subsets[-1] == (1, 2, 3, 4)
        entries = tuple(
            CertificateEntry(f"s{i}", f"s{i % 7}", subsets[i % len(subsets)]) for i in range(200)
        )
        spec = RelationSpec(RelationKind.QUASI_K, Fraction(1, 4), 2)
        self.assert_set_bytes(ApproximationSet(spec, tuple(f"s{i}" for i in range(7)), entries))

    def test_an_empty_certificate(self):
        aset = ApproximationSet(RelationSpec(RelationKind.ONE_EXACT, Fraction(3)), ("s1", "s2"))
        self.assert_set_bytes(aset)
        assert b'"certificate": []\n}\n' in save_set(aset)

    def test_an_instance_of_2000_solutions_at_p_4(self):
        self.assert_instance_bytes(gen_random(2000, 4, seed=3))

    def test_ids_that_need_escaping(self):
        values = [(Fraction(k + 1, 3), Fraction(7)) for k in range(len(ESCAPED_IDS))]
        inst = Instance(p=2, solutions=tuple(map(Solution, ESCAPED_IDS, values)))
        self.assert_instance_bytes(inst)
        entries = tuple(
            CertificateEntry(covered, by, (1,) if k % 2 else ())
            for k, (covered, by) in enumerate(zip(ESCAPED_IDS, reversed(ESCAPED_IDS)))
        )
        spec = RelationSpec(RelationKind.EPSILON, Fraction(1))
        self.assert_set_bytes(ApproximationSet(spec, ESCAPED_IDS, entries))


def reference_load_set(data):
    """load_set as it was before its entries were checked all at once, verbatim; the
    one-pass loop is this plus a check that the certificate is a list."""
    raw = model._load_json(data)
    if not isinstance(raw, dict) or "relation" not in raw or "members" not in raw:
        raise FormatError('set file must be an object with "relation" and "members"')
    relation = model._relation_from_json(raw["relation"])
    members = raw["members"]
    if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
        raise FormatError('"members" must be a list of id strings')
    entries = []
    for item in raw.get("certificate", []):
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("covered"), str)
            or not isinstance(item.get("by"), str)
            or not isinstance(item.get("exact_indices"), list)
            or not all(type(i) is int and i >= 1 for i in item["exact_indices"])
        ):
            raise FormatError(f"malformed certificate entry: {item!r}")
        entries.append(CertificateEntry(item["covered"], item["by"], tuple(item["exact_indices"])))
    return ApproximationSet(relation=relation, members=tuple(members), certificate=tuple(entries))


_JUNK = st.sampled_from([None, True, False, 0, -1, 1.0, 2.5, "", "1", "a", [], [1], {}, {"a": 1}])
_INDEX = st.integers(1, 10**20) | st.sampled_from([0, -3, True, False, 1.0, "1", None, [1]])


@st.composite
def certificate_items(draw):
    """A certificate entry: well formed, or with a field missing or of the wrong type, or no object."""
    indices = draw(st.lists(st.integers(1, 5), max_size=3))
    item = {"covered": draw(_IDS), "by": draw(_IDS), "exact_indices": indices}
    how = draw(st.sampled_from(["good"] * 4 + ["drop", "junk", "indices", "extra", "no object"]))
    key = draw(st.sampled_from(sorted(item)))
    if how == "drop":
        del item[key]
    elif how == "junk":
        item[key] = draw(_JUNK)
    elif how == "indices":
        item["exact_indices"] = draw(st.lists(_INDEX, min_size=1, max_size=3))
    elif how == "extra":
        item["note"] = draw(_JUNK)
    elif how == "no object":
        return draw(_JUNK)
    return item


def _outcome(load, data):
    try:
        return load(data)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def test_a_certificate_entry_is_a_named_tuple():
    entry = CertificateEntry("a", "b", (1, 2))
    assert CertificateEntry._fields == ("covered", "by", "exact_indices")
    assert entry == ("a", "b", (1, 2)) and hash(entry) == hash(("a", "b", (1, 2)))
    assert (entry.covered, entry.by, entry.exact_indices) == ("a", "b", (1, 2))
    with pytest.raises(AttributeError):
        entry.by = "c"


ABSENT = object()  # a set file without a "certificate" key


def _set_file(certificate):
    payload = {"relation": {"kind": "epsilon", "eps": "1/2"}, "members": ["a"]}
    if certificate is not ABSENT:
        payload["certificate"] = certificate
    return json.dumps(payload).encode()


class TestCertificatesLoadInOnePass:
    """load_set refuses a certificate that is no list; on a list, or with none, it returns
    what the per-entry loop returned, or raises its error for the first bad entry."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(certificate_items(), max_size=6) | st.just(ABSENT))
    # an empty object or string, or a string of digits, is no index list though tuple() takes it
    @example([{"covered": "a", "by": "a", "exact_indices": {}}])
    @example([{"covered": "a", "by": "a", "exact_indices": ""}])
    @example([{"covered": "a", "by": "a", "exact_indices": [1]},
              {"covered": "b", "by": "a", "exact_indices": "12"}])
    # a bool is no index, after a good entry
    @example([{"covered": "a", "by": "a", "exact_indices": [1]},
              {"covered": "b", "by": "a", "exact_indices": [True]}])
    def test_matches_the_per_entry_loop(self, certificate):
        data = _set_file(certificate)
        assert _outcome(load_set, data) == _outcome(reference_load_set, data)
        if certificate is not ABSENT:
            # load_set walks the items only when model._bulk_entries refuses them: it must
            # refuse exactly the lists that hold an item model._malformed refuses
            items = json.loads(data)["certificate"]  # the items as load_set gets them
            assert (model._bulk_entries(items) is None) == any(map(model._malformed, items))

    @settings(max_examples=200)
    @given(
        _JUNK.filter(lambda v: not isinstance(v, list))
        | st.dictionaries(st.sampled_from(["covered", "by", "exact_indices"]), _JUNK)
        | st.text()
    )
    @example(5)
    @example(None)
    @example(True)
    @example({})
    @example("ab")
    @example({"a": 1})
    def test_a_certificate_that_is_no_list_is_refused(self, certificate):
        # the per-entry loop raised TypeError here, or iterated the string or the object
        with pytest.raises(FormatError) as info:
            load_set(_set_file(certificate))
        assert str(info.value) == '"certificate" must be a list of entries'

    def test_the_first_bad_entry_is_named(self):
        good = {"covered": "a", "by": "a", "exact_indices": [1]}
        certificate = [good, {"covered": "b", "by": "a", "exact_indices": [0]}, {"covered": 1}]
        data = json.dumps({"relation": {"kind": "epsilon", "eps": "1"}, "members": ["a"],
                           "certificate": certificate}).encode()
        with pytest.raises(FormatError) as info:
            load_set(data)
        assert str(info.value) == (
            "malformed certificate entry: {'covered': 'b', 'by': 'a', 'exact_indices': [0]}"
        )



def reference_instance_positions(p, solutions):
    """Instance.__post_init__ as it was before its whole-list passes, verbatim: the walk
    over the solutions, returning the id -> position map it built."""
    if _integer(p, "p") < 1:
        raise ValueError("an instance needs at least one objective")
    pos = {}
    for i, sol in enumerate(solutions):
        if not isinstance(sol.id, str):
            raise ValueError(f"solution id {sol.id!r} must be a str")
        if not isinstance(sol.f, tuple):
            raise ValueError(f"solution {sol.id!r} must hold its values in a tuple")
        if not sol.id:
            raise ValueError("solution ids must be nonempty")
        if sol.id in pos:
            raise ValueError(f"duplicate solution id: {sol.id!r}")
        if len(sol.f) != p:
            raise ValueError(
                f"solution {sol.id!r} has {len(sol.f)} objective values, expected {p}"
            )
        if any(type(v) is not Fraction or v.numerator <= 0 for v in sol.f):
            for v in sol.f:  # a caller's int gets here too; the first bad value is named
                if type(v) in (int, Fraction) and v <= 0:
                    raise ValueError(f"nonpositive objective value in solution {sol.id!r}")
                _positive(v, f"an objective value of solution {sol.id!r}")
        pos[sol.id] = i
    return pos


def reference_instance(p, solutions):
    """Instance(p, solutions) and its positions, checked by the walk above."""
    pos = reference_instance_positions(p, solutions)
    return Instance(p=p, solutions=solutions), pos


def reference_load_instance(data):
    """load_instance as it was before its whole-list passes, verbatim, with the walk above
    in place of Instance's own checks: the instance and its positions."""
    raw = model._load_json(data)
    if not isinstance(raw, dict) or "p" not in raw or "solutions" not in raw:
        raise FormatError('instance file must be an object with "p" and "solutions"')
    p = raw["p"]
    if type(p) is not int or p < 1:
        raise FormatError(f'"p" must be a positive integer, got {p!r}')
    entries = raw["solutions"]
    if not isinstance(entries, list):
        raise FormatError('"solutions" must be a list')
    solutions = []
    parsed = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "f" not in entry:
            raise FormatError(f'solution entries need "id" and "f": {entry!r}')
        sol_id = entry["id"]
        if not isinstance(sol_id, str):
            raise FormatError(f"solution id must be a string: {sol_id!r}")
        values = entry["f"]
        if not isinstance(values, list):
            raise FormatError(f"solution {sol_id!r}: \"f\" must be a list")
        try:
            vec = tuple(map(parsed.__getitem__, values))
        except (KeyError, TypeError):
            vec = tuple(model._parse_value(v, f"solution {sol_id!r}") for v in values)
            parsed.update(zip(values, vec))
        solutions.append(Solution(id=sol_id, f=vec))
    try:
        return reference_instance(p, tuple(solutions))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _with_positions(instance):
    return instance, instance._pos


_LITERALS = (
    st.sampled_from(["1", "3/2", "1.25", " 7", "+2", "10/4"]) | st.integers(1, 10**6).map(str)
)
_BAD_LITERALS = st.sampled_from(
    ["0", "-1", "-3/2", "0/5", "0.0", "x", "1e5", "1/0", "",
     "7" * (sys.get_int_max_str_digits() + 1)]
)
_ENTRY_IDS = st.sampled_from(["s1", "s2", "s3", "s4"]) | _IDS  # a small pool, so ids repeat
_NO_STR = st.sampled_from([7, None, True, 1.5, ["a"], {"a": 1}, ["1"], {"id": "a"}])


@st.composite
def instance_entries(draw, p):
    """A solution entry of an instance file with p objectives: well formed, or with a key
    missing, a bad id, "f" or value, a wrong length, an extra key, or no object."""
    vector = draw(st.lists(_LITERALS, min_size=p, max_size=p))
    entry = {"id": draw(_ENTRY_IDS), "f": vector}
    how = draw(st.sampled_from(
        ["good"] * 6
        + ["drop", "id", "empty id", "f", "value", "literal", "length", "extra", "no object"]
    ))
    if how == "drop":
        del entry[draw(st.sampled_from(["id", "f"]))]
    elif how == "id":
        entry["id"] = draw(_NO_STR)
    elif how == "empty id":
        entry["id"] = ""
    elif how == "f":
        no_list = _NO_STR.filter(lambda v: not isinstance(v, list))
        entry["f"] = draw(no_list | st.sampled_from(["12", {}]))
    elif how == "value":
        vector[draw(st.integers(0, p - 1))] = draw(_NO_STR)
    elif how == "literal":
        vector[draw(st.integers(0, p - 1))] = draw(_BAD_LITERALS)
    elif how == "length":
        entry["f"] = draw(st.sampled_from([vector[:-1], vector + ["1"]]))
    elif how == "extra":
        entry["note"] = draw(_JUNK)
    elif how == "no object":
        return draw(_JUNK)
    return entry


@st.composite
def instance_payloads(draw):
    """An instance file of p = 1..3 objectives, or with a p far past its entries' lengths."""
    p = draw(st.integers(1, 3))
    declared = draw(st.sampled_from([p] * 6 + [2**31, 10**20]))
    return json.dumps({"p": declared, "solutions": draw(st.lists(instance_entries(p), max_size=6))})


class StrId(str):
    pass


class Vector(tuple):
    pass


_GOOD_VALUES = st.integers(1, 10**20) | _POSITIVE
_BAD_VALUES = st.sampled_from(
    [0, -2, Fraction(0), Fraction(-1, 3), True, False, Three.THREE, FractionSubclass(3, 2),
     FractionSubclass(-1), LooksLikeThree(), 0.5, None, "3"]
)


@st.composite
def direct_solutions(draw, p):
    """A Solution for Instance(p, ...): exact types, or a value, vector, length or id that the
    walk refuses, or a str id or tuple subclass, or a look-alike solution, that it accepts."""
    values = draw(st.lists(st.one_of(_GOOD_VALUES, _GOOD_VALUES, _GOOD_VALUES, _BAD_VALUES),
                           min_size=p, max_size=p))
    if draw(st.integers(0, 5)) == 0:
        values = draw(st.sampled_from([values[:-1], values + [1]]))
    vector = draw(st.sampled_from([tuple] * 4 + [list, Vector]))(values)
    sol_id = draw(st.sampled_from(["a", "b", "c", "d", "", 7, ["a"], StrId("a"), StrId("e")]))
    make = draw(st.sampled_from([Solution] * 5 + [SimpleNamespace]))
    return make(id=sol_id, f=vector)


class TestInstancesMatchThePerSolutionWalk:
    """load_instance and Instance check in whole-list passes; what they return or raise
    (type and message) must be what the per-entry loop and the walk returned or raised."""

    @settings(max_examples=600, deadline=None)
    @given(instance_payloads())
    # a zero before a malformed literal; an unhashable id; a duplicate id before a list value;
    # a ragged entry before an "f" that is a string
    @example(_instance_file(["1", "0"], ["x", "1"]))
    @example(json.dumps({"p": 1, "solutions": [{"id": "a", "f": ["1"]}, {"id": ["a"], "f": ["1"]}]}))
    @example(json.dumps({"p": 1, "solutions": [{"id": "a", "f": ["1"]}, {"id": "a", "f": [[1]]}]}))
    @example(json.dumps({"p": 2, "solutions": [{"id": "a", "f": ["1"]}, {"id": "b", "f": "12"}]}))
    # padded, signed and reducible literals and an extra key in a good file; an object for a
    # value; a malformed literal before a list value
    @example(json.dumps({"p": 2, "solutions": [
        {"id": "a", "f": [" 7", "+2"], "note": None}, {"id": "b", "f": ["10/4", "1.25"]}]}))
    @example(json.dumps({"p": 1, "solutions": [{"id": "a", "f": ["1"]}, {"id": "b", "f": [{}]}]}))
    @example(json.dumps({"p": 1, "solutions": [{"id": "a", "f": ["x"]}, {"id": "b", "f": [[1]]}]}))
    def test_load_instance_matches_the_per_entry_loop(self, data):
        reference = _outcome(reference_load_instance, data)
        assert _outcome(lambda d: _with_positions(load_instance(d)), data) == reference
        # load_instance walks the entries only when model._bulk_instance refuses them: the
        # passes must refuse exactly the files the loop refuses, and build what it builds
        raw = json.loads(data)  # the entries as load_instance gets them
        built = model._bulk_instance(raw["solutions"], raw["p"])
        if built is None:
            assert reference[0] is FormatError
        else:
            assert _with_positions(built) == reference

    @pytest.mark.parametrize("p", [2**31, 10**20])
    def test_a_huge_p_with_no_solutions_loads(self, p):
        data = json.dumps({"p": p, "solutions": []})
        loaded = load_instance(data)
        assert (loaded.p, loaded.solutions, loaded._pos) == (p, (), {})
        assert _outcome(reference_load_instance, data) == (loaded, {})

    @settings(max_examples=600, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(direct_solutions(p), max_size=5).map(tuple))
    ))
    @example((2, (Solution("a", (1, 2)), Solution("b", [1, 2]))))
    @example((1, (Solution("a", (1,)), Solution(["a"], (1,)))))
    @example((1, (Solution("a", (1,)), Solution("b", (True,)))))
    @example((1, (Solution(StrId("a"), Vector((1,))), Solution("b", (Fraction(1, 2),)))))
    def test_instance_matches_the_walk(self, case):
        p, solutions = case
        built = _outcome(lambda s: _with_positions(Instance(p, s)), solutions)
        assert built == _outcome(lambda s: reference_instance(p, s), solutions)


class TestTheOneBadEntryIsNamedWhenItIsTheLast:
    """After 3000 good entries, the whole-list passes fail and the walk names the last one."""

    def test_a_last_value_of_zero(self, random_3000):
        payload = json.loads(random_3000.instance_file)
        payload["solutions"][-1]["f"][-1] = "0"
        with pytest.raises(FormatError) as info:
            load_instance(json.dumps(payload))
        assert str(info.value) == "nonpositive objective value in solution 's3000'"

    def test_a_last_id_that_repeats_the_first(self, random_3000):
        payload = json.loads(random_3000.instance_file)
        payload["solutions"][-1]["id"] = payload["solutions"][0]["id"]
        with pytest.raises(FormatError) as info:
            load_instance(json.dumps(payload))
        assert str(info.value) == "duplicate solution id: 's1'"

    def test_a_last_exact_indices_of_zero(self, random_3000):
        payload = json.loads(random_3000.set_file)
        assert len(payload["certificate"]) == 3000
        payload["certificate"][-1]["exact_indices"] = [0]
        with pytest.raises(FormatError) as info:
            load_set(json.dumps(payload))
        assert str(info.value) == f"malformed certificate entry: {payload['certificate'][-1]!r}"


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments; the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestLoadInstanceWalksOnlyABadFile:
    """load_instance builds a file's Instance unchecked when its whole-list passes hold;
    Instance's walk runs only to name the bad entry of a file that fails them."""

    def payload(self):
        return json.loads(save_instance(gen_random(300, 3, seed=1)))

    def test_a_well_formed_file_is_not_walked(self, monkeypatch):
        data = save_instance(gen_random(300, 3, seed=1))
        walks = _counting(monkeypatch, Instance, "__post_init__")
        loaded = load_instance(data)
        assert walks == []
        monkeypatch.undo()
        checked = Instance(loaded.p, loaded.solutions)
        assert type(loaded) is Instance
        assert loaded == checked and hash(loaded) == hash(checked)
        assert repr(loaded) == repr(checked)
        assert loaded._pos == checked._pos
        assert save_instance(loaded) == data

    def test_a_huge_p_with_no_solutions_is_not_walked(self, monkeypatch):
        walks = _counting(monkeypatch, Instance, "__post_init__")
        loaded = load_instance(json.dumps({"p": 10**20, "solutions": []}))
        assert walks == []
        monkeypatch.undo()
        checked = Instance(10**20, ())
        assert (loaded, hash(loaded), repr(loaded)) == (checked, hash(checked), repr(checked))
        assert loaded._pos == checked._pos == {}

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda last: last["f"].__setitem__(-1, "0"),
             "nonpositive objective value in solution 's300'"),
            (lambda last: last.__setitem__("id", "s1"), "duplicate solution id: 's1'"),
            (lambda last: last.__setitem__("id", ""), "solution ids must be nonempty"),
            (lambda last: last["f"].pop(), "solution 's300' has 2 objective values, expected 3"),
        ],
        ids=["zero value", "repeated id", "empty id", "short vector"],
    )
    def test_a_bad_last_entry_is_walked_once_and_named(self, spoil, message, monkeypatch):
        payload = self.payload()
        spoil(payload["solutions"][-1])
        walks = _counting(monkeypatch, Instance, "__post_init__")
        with pytest.raises(FormatError) as info:
            load_instance(json.dumps(payload))
        assert str(info.value) == message
        assert len(walks) == 1


class TestTheWalkFormatsNoMessageForAGoodValue:
    def test_look_alike_solutions_with_good_values_call_positive_never(self, monkeypatch):
        solutions = tuple(
            SimpleNamespace(id=f"s{i}", f=(i, Fraction(1, i), Fraction(i, 7))) for i in range(1, 51)
        )
        calls = _counting(monkeypatch, model, "_positive")
        assert len(Instance(3, solutions)) == 50
        assert calls == []

    def test_a_value_of_the_wrong_type_calls_positive_once_to_name_it(self, monkeypatch):
        solutions = (SimpleNamespace(id="a", f=(1, 2)), SimpleNamespace(id="b", f=(3, 0.5)))
        calls = _counting(monkeypatch, model, "_positive")
        with pytest.raises(ValueError) as info:
            Instance(2, solutions)
        assert str(info.value) == (
            "an objective value of solution 'b' must be an int or a Fraction, got 0.5"
        )
        assert calls == [(0.5, "an objective value of solution 'b'")]


_SPEC, _ENTRY = RelationSpec(RelationKind.EPSILON, Fraction(1)), CertificateEntry("s1", "s1", (1,))


class TestRecordsRefuseTheWrongContainerOrKind:
    A, B = Solution("a", (Fraction(1), Fraction(2))), Solution("b", (Fraction(2), Fraction(1)))

    @pytest.mark.parametrize(
        "solutions, name",
        [([A, B], "list"), ((s for s in (A, B)), "generator"), ({A, B}, "set"), (None, "NoneType")],
        ids=["list", "generator", "set", "None"],
    )
    def test_an_instance_refuses_solutions_that_are_no_tuple(self, solutions, name):
        with pytest.raises(ValueError) as info:
            Instance(2, solutions)
        assert str(info.value) == f"solutions must be a tuple, got {name}"

    def test_an_instance_accepts_a_tuple_subclass_of_solutions(self):
        assert Instance(2, Vector((self.A, self.B))) == Instance(2, (self.A, self.B))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ApproximationSet(_SPEC, "s12"), "members must be a tuple, got str"),
            (lambda: ApproximationSet(_SPEC, ["s1"]), "members must be a tuple, got list"),
            (lambda: ApproximationSet(_SPEC, ("s1",), [_ENTRY]),
             "certificate must be a tuple, got list"),
            (lambda: ApproximationSet(_SPEC, ("s1",), None),
             "certificate must be a tuple, got NoneType"),
            (lambda: DominationDigraph(nodes="ab", rows=(1, 2)), "nodes must be a tuple, got str"),
            (lambda: DominationDigraph(nodes=["a"], rows=(1,)), "nodes must be a tuple, got list"),
            (lambda: GapQuery(b=[1], delta=1), "b must be a tuple, got list"),
            (lambda: GapQuery(b=(x for x in (1,)), delta=1), "b must be a tuple, got generator"),
        ],
        ids=["members-str", "members-list", "certificate-list", "certificate-None", "nodes-str",
             "nodes-list", "b-list", "b-generator"],
    )
    def test_a_record_refuses_a_sequence_field_that_is_no_tuple(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_a_record_accepts_a_tuple_subclass(self):
        aset = ApproximationSet(_SPEC, Vector(("s1",)), Vector((_ENTRY,)))
        assert aset == ApproximationSet(_SPEC, ("s1",), (_ENTRY,))
        assert GapQuery(b=Vector((1,)), delta=1) == GapQuery(b=(1,), delta=1)
        assert DominationDigraph(Vector(("a",)), (1,)) == DominationDigraph(("a",), (1,))

    @pytest.mark.parametrize("kind", ["epsilon", "bogus", None, 1], ids=repr)
    def test_a_relation_spec_refuses_a_kind_that_is_no_relation_kind(self, kind):
        with pytest.raises(ValueError) as info:
            RelationSpec(kind, Fraction(1))
        assert str(info.value) == f"relation kind must be a RelationKind, got {kind!r}"
