from fractions import Fraction

import pytest

from mopareto.generators import gen_prop_dominated, gen_random
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


def _inst(*vectors):
    return Instance(
        p=len(vectors[0]),
        solutions=tuple(
            Solution(f"s{i}", tuple(Fraction(v) for v in vec))
            for i, vec in enumerate(vectors, start=1)
        ),
    )


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


class TestGapQuery:
    def test_positive_budgets_required(self):
        with pytest.raises(ValueError):
            GapQuery(b=(Fraction(0), Fraction(1)), delta=Fraction(1, 2))

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            GapQuery(b=(Fraction(1),), delta=Fraction(0))


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

    @pytest.mark.parametrize("flag", [b"true", b"false"])
    def test_boolean_exact_index_rejected(self, flag):
        payload = (
            b'{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["a"],'
            b' "certificate": [{"covered": "a", "by": "a", "exact_indices": [%s]}]}' % flag
        )
        with pytest.raises(FormatError, match="certificate"):
            load_set(payload)
