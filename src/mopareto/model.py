"""Instances, relation specifications, approximation sets, and their file formats.

An instance is an explicit list of identified solutions, each carrying a
vector of strictly positive rational objective values (all objectives are
minimized).  Instances are immutable after construction; every downstream
operation takes a read-only view.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import lcm
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .numerics import _DIGIT_LIMIT, _integer, _positive, parse_rational, render_rational

__all__ = [
    "FormatError",
    "Solution",
    "Instance",
    "RelationKind",
    "RelationSpec",
    "CertificateEntry",
    "ApproximationSet",
    "GapQuery",
    "derive_value_bound",
    "load_instance",
    "save_instance",
    "load_set",
    "save_set",
]


class FormatError(ValueError):
    """A file or payload does not conform to the documented schema."""


@dataclass(frozen=True)
class Solution:
    """One feasible solution: an identifier plus its objective vector."""

    id: str
    f: tuple[Fraction, ...]


@dataclass(frozen=True)
class Instance:
    """An explicit multiobjective instance: p objectives, ordered solutions.

    One walk enforces, naming the first bad solution: a tuple of solutions with unique
    nonempty str ids and tuples of p values, each a positive int or Fraction by exact type.
    `load_instance` checks the same rules in whole-list passes and skips the walk if they hold.

    The fast paths compare one cached exact integer image (`_image`, from
    `_scaled`): a positive scale per column keeps every order, equality and
    ratio in it.  The pairwise references compare the Fractions.
    """

    p: int
    solutions: tuple[Solution, ...]
    _pos: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if _integer(self.p, "p") < 1:
            raise ValueError("an instance needs at least one objective")
        pos: dict[str, int] = {}
        for i, sol in enumerate(_tuple(self.solutions, "solutions")):
            if not isinstance(sol.id, str):
                raise ValueError(f"solution id {sol.id!r} must be a str")
            if not isinstance(sol.f, tuple):
                raise ValueError(f"solution {sol.id!r} must hold its values in a tuple")
            if not sol.id:
                raise ValueError("solution ids must be nonempty")
            if sol.id in pos:
                raise ValueError(f"duplicate solution id: {sol.id!r}")
            if len(sol.f) != self.p:
                raise ValueError(
                    f"solution {sol.id!r} has {len(sol.f)} objective values, expected {self.p}"
                )
            for v in sol.f:  # the first bad value is named
                if type(v) not in (int, Fraction):  # _positive raises, naming it
                    _positive(v, f"an objective value of solution {sol.id!r}")
                if v.numerator <= 0:
                    raise ValueError(f"nonpositive objective value in solution {sol.id!r}")
            pos[sol.id] = i
        object.__setattr__(self, "_pos", pos)

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.solutions)

    def solution(self, sol_id: str) -> Solution:
        return self.solutions[self.position(sol_id)]

    def position(self, sol_id: str) -> int:
        """Index of a solution in instance order (the canonical id order)."""
        try:
            return self._pos[sol_id]
        except KeyError:
            raise KeyError(f"unknown solution id: {sol_id!r}") from None

    # Cached in the instance's __dict__, outside the dataclass fields, so they
    # take no part in ==, hash or repr.
    @cached_property
    def _image(self) -> tuple[tuple[int | None, Sequence[int | Fraction]], ...]:
        """Each column as `_scaled` gives it, (scale, values in instance order); none if empty."""
        return tuple(map(_scaled, zip(*(s.f for s in self.solutions))))

    @cached_property
    def _rows(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """Each solution's image, in instance order."""
        return tuple(zip(*(values for _, values in self._image)))

    @cached_property
    def _sorted_columns(self) -> tuple[_SortedColumn, ...]:
        """Per-objective sorted-column index of the image; the gap oracle, the digraph
        and the biobjective sweeps read it."""
        return tuple(_SortedColumn(values, scale) for scale, values in self._image)


_SCALE_BITS = 8192  # LCM bits past which _scaled keeps a column's Fractions


def _scaled(column: Sequence[Fraction]) -> tuple[int | None, Sequence[int | Fraction]]:
    """(s, the column times s as ints in the same order), s the LCM of its
    denominators, or (None, the column itself) once that LCM passes _SCALE_BITS bits."""
    scale = 1
    for den in {v.denominator for v in column}:
        scale = lcm(scale, den)
        if scale.bit_length() > _SCALE_BITS:
            return None, column
    return scale, [v.numerator * (scale // v.denominator) for v in column]


class _SortedColumn:
    """One column of `Instance._image` in sorted order, answering box questions as bitsets.

    Bit k stands for solutions[k]; the values are ints, or Fractions when
    `scale` is None.  `within(b)` (values <= b, the gap oracle's budgets, as
    floor(b * scale)) is one bisect and one mask per distinct rank, cached
    (at most n + 1 masks), and one floor per budget object: `_memo` maps id(b)
    to (b, mask), the `copy.deepcopy` memo idiom (a hit must hold b itself,
    and holding b keeps its id from being reused), cleared once past n + 1
    entries.  `at_least(t)` (values >= t on the image's scale, the digraph's
    conditions) is one bisect plus a suffix mask; the n + 1 suffix masks are
    built in one pass on the first call, so the gap path never holds them.  The biobjective sweeps
    bisect `_values` and walk `_order` (a stable sort: ties in instance order)
    directly.  The index knows no relation: `dominance.values_r_dominate`
    remains the pairwise reference.
    """

    __slots__ = ("scale", "_values", "_order", "_masks", "_memo", "_suffixes")

    def __init__(self, values: Sequence[int | Fraction], scale: int | None):
        self.scale = scale
        self._order = sorted(range(len(values)), key=values.__getitem__)
        self._values = [values[k] for k in self._order]
        self._masks: dict[int, int] = {}
        self._memo: dict[int, tuple[int | Fraction, int]] = {}
        self._suffixes: list[int] = []

    def within(self, bound: int | Fraction) -> int:
        hit = self._memo.get(id(bound))
        if hit is not None and hit[0] is bound:
            return hit[1]
        num, den = bound.as_integer_ratio()  # cut on a scaled column: floor(b * scale), an int
        cut = bound if self.scale is None else num * self.scale // den
        rank = bisect_right(self._values, cut)
        mask = self._masks.get(rank)
        if mask is None:
            mask = 0
            for k in self._order[:rank]:
                mask |= 1 << k
            self._masks[rank] = mask
        if len(self._memo) > len(self._order):
            self._memo.clear()
        self._memo[id(bound)] = bound, mask
        return mask

    def at_least(self, threshold: int | Fraction) -> int:
        if not self._suffixes:  # suffixes[r]: every solution at rank r or later
            suffixes = [0]
            for k in reversed(self._order):
                suffixes.append(suffixes[-1] | 1 << k)
            self._suffixes = suffixes[::-1]
        return self._suffixes[bisect_left(self._values, threshold)]


class RelationKind(str, Enum):
    """The five approximate-dominance relation families."""

    EPSILON = "epsilon"
    ONE_EXACT = "one-exact"
    TWO_EXACT = "two-exact"
    QUASI_K = "quasi-k"
    ONE_EXACT_QUASI_K = "one-exact-quasi-k"


_KINDS_WITH_K = (RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K)

# 0-based components each kind requires exact; the quasi kinds also need k exact
_REQUIRED_EXACT = {
    RelationKind.EPSILON: (),
    RelationKind.ONE_EXACT: (0,),
    RelationKind.TWO_EXACT: (0, 1),
    RelationKind.QUASI_K: (),
    RelationKind.ONE_EXACT_QUASI_K: (0,),
}


@dataclass(frozen=True)
class RelationSpec:
    """Which approximate-dominance relation is meant, with its parameters.

    eps is a positive int or Fraction.  k, an int, is present exactly for the
    quasi-k kinds; the upper bound k <= p is checked where an instance is at hand.
    """

    kind: RelationKind
    eps: Fraction
    k: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, RelationKind):
            raise ValueError(f"relation kind must be a RelationKind, got {self.kind!r}")
        _positive(self.eps, "eps")
        if self.kind in _KINDS_WITH_K:
            if _integer(self.k, "k") < 1:  # a missing k is None, which _integer names
                raise ValueError("k must be at least 1")
        elif self.k is not None:
            raise ValueError(f"relation {self.kind.value} does not take k")

    def exact_rule(self, p: int) -> tuple[tuple[int, ...], int]:
        """(0-based components that must be exact, minimum exact count) at p >= 1."""
        required = _REQUIRED_EXACT[self.kind]
        if len(required) > p:  # only two-exact requires more than one component
            raise ValueError("two-exact dominance needs at least two objectives")
        if self.k is not None and self.k > p:
            raise ValueError(f"k={self.k} exceeds the number of objectives p={p}")
        return required, self.k or 0


class CertificateEntry(NamedTuple):
    """Coverage witness: `by` approximates `covered`, exactly in `exact_indices`.

    Indices are 1-based objective positions and list every component in which
    the covering member is at least as good, so one certificate serves every
    relation kind.  A named tuple: equal to a plain tuple of the same fields.
    """

    covered: str
    by: str
    exact_indices: tuple[int, ...]


@dataclass(frozen=True)
class ApproximationSet:
    """Selected member ids plus the coverage certificate that justifies them."""

    relation: RelationSpec
    members: tuple[str, ...]
    certificate: tuple[CertificateEntry, ...] = ()

    def __post_init__(self) -> None:  # refuse, naming it, what save_set writes and load_set refuses
        for member in _tuple(self.members, "members"):
            if not isinstance(member, str):
                raise ValueError(f"member id {member!r} must be a str")
        for covered, by, exact in _tuple(self.certificate, "certificate"):  # every index, by type
            if not (isinstance(covered, str) and isinstance(by, str)
                    and _positive_indices([exact], tuple)):
                raise ValueError(f"malformed certificate entry: {(covered, by, exact)!r}")


def _positive_indices(indices: list, kind: type) -> bool:
    """Is each of these a `kind` of positive ints, by exact type (a bool is no index)?"""
    return (
        set(map(type, indices)) <= {kind}
        and set(map(type, chain.from_iterable(indices))) <= {int}
        and min(chain.from_iterable(indices), default=1) >= 1
    )


@dataclass(frozen=True)
class GapQuery:
    """A budget-threshold query: bounds b and a slack delta, positive ints or Fractions."""

    b: tuple[int | Fraction, ...]
    delta: int | Fraction

    def __post_init__(self) -> None:
        for bound in _tuple(self.b, "b"):
            _positive(bound, "all budget components")
        _positive(self.delta, "delta")


def _tuple(value: object, what: str) -> tuple:
    """value, if a tuple (a subclass too); a list, a str or a generator is a ValueError."""
    if not isinstance(value, tuple):
        raise ValueError(f"{what} must be a tuple, got {type(value).__name__}")
    return value


def _unchecked(cls: type, **fields: object):
    """An instance of a frozen dataclass without __post_init__; the caller has checked fields."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def derive_value_bound(instance: Instance) -> int:
    """Smallest integer M >= 0 with every objective value in [2**-M, 2**M].

    Derived, never user-supplied, so the value-range assumption cannot be
    violated by configuration.  An empty instance has M = 0 (vacuously).
    Read from the extremes of each column of the integer image: with scale s,
    the largest value a/s needs a <= s * 2**M and the smallest b/s needs
    s <= b * 2**M; a Fraction fallback column uses its own numerators and
    denominators.  The least such M comes from bit lengths.
    """
    m = 0
    for scale, values in instance._image:
        high_num, high_den = max(values).as_integer_ratio()
        low_num, low_den = min(values).as_integer_ratio()
        s = scale or 1
        m = max(m, _doublings(high_num, high_den * s), _doublings(low_den * s, low_num))
    return m


def _doublings(a: int, b: int) -> int:
    """Least m >= 0 with a <= b * 2**m, for positive a and b."""
    m = max(0, a.bit_length() - b.bit_length())  # b << m has at most a's bit length
    return m + (a > b << m)


def _parse_value(text: object, context: str) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"{context}: rational values must be strings, got {text!r}")
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}") from None


def _load_json(data: bytes | str) -> object:
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # malformed, or in no JSON encoding
        raise FormatError(f"invalid JSON: {exc}") from None
    except ValueError:  # only an integer literal past the int/str digit limit gets here
        raise FormatError(_DIGIT_LIMIT.format(sys.get_int_max_str_digits())) from None


def load_instance(data: bytes | str) -> Instance:
    """Parse the JSON instance format; lossless inverse of save_instance."""
    raw = _load_json(data)
    if not isinstance(raw, dict) or "p" not in raw or "solutions" not in raw:
        raise FormatError('instance file must be an object with "p" and "solutions"')
    p = raw["p"]
    if type(p) is not int or p < 1:  # not isinstance: JSON true/false load as bool
        raise FormatError(f'"p" must be a positive integer, got {p!r}')
    entries = raw["solutions"]
    if not isinstance(entries, list):
        raise FormatError('"solutions" must be a list')
    instance = _bulk_instance(entries, p)
    if instance is not None:
        return instance
    solutions = []  # the loop names the first bad entry, and Instance any other
    parsed: dict[str, Fraction] = {}  # literal -> value; a Fraction is immutable, so shared
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
        except (KeyError, TypeError):  # a literal not seen yet, or a value that is no string
            vec = tuple(_parse_value(v, f"solution {sol_id!r}") for v in values)
            parsed.update(zip(values, vec))
        solutions.append(Solution(id=sol_id, f=vec))
    try:
        return Instance(p=p, solutions=tuple(solutions))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _bulk_instance(entries: list, p: int) -> Instance | None:
    """The Instance of well-formed entries, checked in whole-list passes by each rule of
    Instance's walk (each pass safe on what the passes before it vetted) and built without
    it; None if any entry is bad.  Each distinct literal is parsed once, its Fraction shared."""
    if not entries:  # p may be any positive int: cut no values by it
        return _unchecked(Instance, p=p, solutions=(), _pos={})
    try:
        ids = [e["id"] for e in entries]  # KeyError or TypeError: no "id", or no object
        vectors = [e["f"] for e in entries]
        if not (set(map(type, ids)) <= {str} and set(map(type, vectors)) <= {list}):
            return None
        literals = set(chain.from_iterable(vectors))  # TypeError: a list or object value
        if not (set(map(type, literals)) <= {str} and set(map(len, vectors)) <= {p}):
            return None
        # ValueError: a malformed literal, or one past the digit limit
        parsed = dict(zip(literals, map(parse_rational, literals)))
    except (KeyError, TypeError, ValueError):
        return None
    pos = dict(zip(ids, range(len(ids))))
    if min(map(attrgetter("numerator"), parsed.values())) <= 0 or len(pos) < len(ids) or "" in pos:
        return None
    values = map(parsed.__getitem__, chain.from_iterable(vectors))
    solutions = tuple(map(Solution, ids, zip(*[values] * p)))  # p values at a time, in order
    return _unchecked(Instance, p=p, solutions=solutions, _pos=pos)


def _dumps(obj: object) -> str:
    """json.dumps(obj, indent=2); here so that model stays the one module that imports json."""
    return json.dumps(obj, indent=2)


def _block(items: list[str], pad: str) -> str:
    """json.dumps(indent=2)'s list at pad, of items already written a level deeper."""
    return f"[{pad}  " + f",{pad}  ".join(items) + pad + "]" if items else "[]"


def _file(head: dict, key: str, items: list[str]) -> bytes:
    """json.dumps(head | {key: items}, indent=2) + "\n" as bytes, the items already written."""
    return (_dumps(head)[:-2] + f',\n  "{key}": ' + _block(items, "\n  ") + "\n}\n").encode()


def save_instance(instance: Instance) -> bytes:
    entry = '{\n      "id": %s,\n      "f": [\n        "%s"\n      ]\n    }'  # two levels deep
    solutions = [
        entry % (encode_basestring_ascii(s.id), '",\n        "'.join(map(render_rational, s.f)))
        for s in instance.solutions
    ]
    return _file({"p": instance.p}, "solutions", solutions)


def _relation_to_json(spec: RelationSpec) -> dict:
    out: dict = {"kind": spec.kind.value, "eps": render_rational(spec.eps)}
    if spec.k is not None:
        out["k"] = spec.k
    return out


def _relation_from_json(raw: object) -> RelationSpec:
    if not isinstance(raw, dict) or "kind" not in raw or "eps" not in raw:
        raise FormatError('relation must be an object with "kind" and "eps"')
    try:
        kind = RelationKind(raw["kind"])
    except ValueError:
        raise FormatError(f"unknown relation kind: {raw['kind']!r}") from None
    eps = _parse_value(raw["eps"], "relation eps")
    k = raw.get("k")
    if k is not None and type(k) is not int:
        raise FormatError(f'"k" must be an integer, got {k!r}')
    try:
        return RelationSpec(kind=kind, eps=eps, k=k)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_set(data: bytes | str) -> ApproximationSet:
    """Parse the JSON approximation-set format."""
    raw = _load_json(data)
    if not isinstance(raw, dict) or "relation" not in raw or "members" not in raw:
        raise FormatError('set file must be an object with "relation" and "members"')
    relation = _relation_from_json(raw["relation"])
    members = raw["members"]
    if not isinstance(members, list) or not set(map(type, members)) <= {str}:
        raise FormatError('"members" must be a list of id strings')
    items = raw.get("certificate", [])
    if not isinstance(items, list):
        raise FormatError('"certificate" must be a list of entries')
    entries = _bulk_entries(items)
    if entries is None:  # name the first malformed item
        raise FormatError(f"malformed certificate entry: {next(filter(_malformed, items))!r}")
    return _unchecked(ApproximationSet, relation=relation, members=tuple(members),
                      certificate=tuple(entries))  # the passes held every rule it checks


def _bulk_entries(items: list) -> list[CertificateEntry] | None:
    """The CertificateEntries of well-formed items, checked in whole-list passes, each
    safe on what the passes before it vetted; None if any item is malformed."""
    try:
        covered = [e["covered"] for e in items]  # KeyError or TypeError: no key, or no object
        by = [e["by"] for e in items]
        indices = [e["exact_indices"] for e in items]
    except (KeyError, TypeError):
        return None
    if set(map(type, chain(covered, by))) <= {str} and _positive_indices(indices, list):
        # CertificateEntry._make of each (covered, by, indices) without a Python call per entry
        entries = zip(covered, by, map(tuple, indices))
        return list(map(tuple.__new__, repeat(CertificateEntry), entries))
    return None


def _malformed(item: object) -> bool:
    """Is this no certificate entry?  `_bulk_entries` on it alone decides, so the two agree."""
    return _bulk_entries([item]) is None


def save_set(aset: ApproximationSet) -> bytes:
    head = {"relation": _relation_to_json(aset.relation), "members": list(aset.members)}
    # each distinct exact_indices, at most 2**p of them, is written once
    distinct = {e.exact_indices for e in aset.certificate}
    indices = {t: _block(list(map(str, t)), "\n      ") for t in distinct}
    entry = '{\n      "covered": %s,\n      "by": %s,\n      "exact_indices": %s\n    }'
    entries = [
        entry % (encode_basestring_ascii(covered), encode_basestring_ascii(by), indices[t])
        for covered, by, t in aset.certificate
    ]
    return _file(head, "certificate", entries)
