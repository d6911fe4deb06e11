"""The record classes behave as the frozen dataclasses they replace.

Each record, proof nodes included, is checked against a reference
``@dataclass(frozen=True)`` with the same name and fields, built here:
construction, ``==``, hash, ``repr``, refused assignment and deletion,
pickling, and the validation errors of the two records that validate their
fields.  Posets, terms and derived proofs survive pickling and copying; terms
come back as the one interned node.
"""

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from depcalc import (
    UNIT,
    Compose,
    Decoration,
    Equiv,
    FinitePolynomial,
    FinitePoset,
    GenCell,
    GenInstance,
    IdCell,
    InterchangerSubst,
    LawCheck,
    Obstruction,
    OtimesPar,
    PartialPolygraph,
    PolyMorphism,
    PolySignature,
    Schedule,
    StageFailure,
    StringDiagram,
    SwapCell,
    TriPar,
    Var,
    antichain,
    chain,
    derive_structure_map,
    from_pairs,
    parse_expression,
    poly,
)


def _polygraph_post_init(self):
    known = set(self.types)
    for name, src, tgt in self.generators:
        for t in src + tgt:
            if t not in known:
                raise ValueError(f"generator {name!r} uses unknown type {t!r}")
        for boundary in (src, tgt):
            for a, b in zip(boundary, boundary[1:]):
                if (a, b) not in self.compat:
                    raise ValueError(
                        f"generator {name!r} boundary has incompatible "
                        f"neighbors ({a!r}, {b!r})"
                    )


def _polynomial_post_init(self):
    if any(d < 0 for d in self.directions):
        raise ValueError("direction counts must be nonnegative")


def reference(cls, fields, post_init=None):
    namespace = {"__post_init__": post_init} if post_init else {}
    return make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


COMPAT = frozenset({("a", "a"), ("a", "b"), ("b", "a")})
GENERATORS = (("f", ("a",), ("b",)),)
POLYGRAPH = PartialPolygraph(("a", "b"), COMPAT, GENERATORS)
OTHER_POLYGRAPH = PartialPolygraph(("a", "b"), COMPAT | {("b", "b")}, GENERATORS)
HALF = Fraction(1, 2)
LEAF, OTHER_LEAF = Equiv(Var(0), Var(0)), Equiv(Var(1), Var(1))

#: (class, its dataclass fields, sample values, other values, validation hook)
RECORDS = [
    (Obstruction, ["elements"], ((0, 1, 2, 3),), ((0, 1, 3, 2),), None),
    (Schedule, ["start", "finish", "makespan", "critical_chain"],
     ((Fraction(0), HALF), (HALF, Fraction(2)), Fraction(2), (0, 1)),
     ((Fraction(0), HALF), (HALF, Fraction(2)), Fraction(2), (1,)), None),
    (FinitePolynomial, ["directions"], ((1, 0, 2),), ((1, 2, 0),), _polynomial_post_init),
    (PolySignature, ["counts"], ((2, 1, 0),), ((2, 1),), None),
    (PolyMorphism, ["source", "target", "position_map", "direction_maps"],
     (poly(1), poly(1), (0,), ((0,),)), (poly(1), poly(2), (0,), ((0, 0),)), None),
    (PartialPolygraph, ["types", "compat", "generators"],
     (("a", "b"), COMPAT, GENERATORS), (("a", "b"), COMPAT, ()), _polygraph_post_init),
    (GenCell, ["gen"], ("f",), ("g",), None),
    (IdCell, ["type"], ("a",), ("b",), None),
    (SwapCell, ["left", "right"], ("a", "b"), ("b", "a"), None),
    (StringDiagram, ["polygraph", "inputs", "outputs", "layers"],
     (POLYGRAPH, ("a",), ("b",), ((GenCell("f"),),)),
     (OTHER_POLYGRAPH, ("a",), ("b",), ((GenCell("f"),),)), None),
    (GenInstance, ["element", "layer", "cell", "name"], (0, 1, 2, "f"), (0, 1, 3, "f"), None),
    (StageFailure, ["stage", "reason"], (1, "types clash"), (2, "types clash"), None),
    (Decoration, ["assignment"], ({"f": HALF},), ({"f": Fraction(1)},), None),
    (LawCheck, ["kind", "law", "passed", "details"], ("tensor", "productor", True, "1 vs 1"),
     ("tensor", "productor", False, "1 vs 1"), None),
    (Equiv, ["source", "target"], (Var(0), Var(0)), (Var(0), Var(1)), None),
    (Compose, ["left", "right"], (LEAF, OTHER_LEAF), (OTHER_LEAF, LEAF), None),
    (OtimesPar, ["parts"], ((LEAF, OTHER_LEAF),), ((LEAF,),), None),
    (TriPar, ["parts"], ((LEAF, OTHER_LEAF),), ((OTHER_LEAF, LEAF),), None),
    (InterchangerSubst, ["corner_a", "corner_b", "corner_c", "corner_d"],
     (LEAF, OTHER_LEAF, LEAF, LEAF), (LEAF, LEAF, LEAF, LEAF), None),
]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:
        return str(err)


@pytest.mark.parametrize("cls, fields, sample, other, post_init", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_matches_its_frozen_dataclass(cls, fields, sample, other, post_init):
    ref = reference(cls, fields, post_init)
    record, by_keyword = cls(*sample), cls(**dict(zip(fields, sample)))
    twin, ref_twin = cls(*sample), ref(*sample)

    assert cls.__match_args__ == ref.__match_args__ == tuple(fields)
    assert [getattr(record, f) for f in fields] == list(sample)
    assert record == by_keyword == twin and not record != twin
    assert (record == cls(*other)) is (ref_twin == ref(*other)) is False
    assert record.__eq__(ref_twin) is NotImplemented and record != ref_twin
    assert record.__eq__(sample) is NotImplemented
    assert _hash_or_error(record) == _hash_or_error(ref_twin)
    assert repr(record) == repr(ref_twin)
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    for args, kwargs in ((sample + sample[:1], {}), (sample[1:], {}),
                         (sample, {fields[0]: sample[0]}), (sample, {"extra": 1})):
        for make in (cls, ref):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("cls, args", [
    (FinitePolynomial, ((1, -1),)),
    (PartialPolygraph, (("a",), frozenset(), (("f", ("a",), ("c",)),))),
    (PartialPolygraph, (("a", "b"), frozenset(), (("f", ("a", "b"), ("a",)),))),
])
def test_validating_records_raise_the_dataclass_errors(cls, args):
    row = next(row for row in RECORDS if row[0] is cls)
    with pytest.raises(ValueError) as expected:
        reference(cls, row[1], row[4])(*args)
    with pytest.raises(ValueError) as raised:
        cls(*args)
    assert str(raised.value) == str(expected.value)


def test_total_is_computed_once_and_is_not_a_field():
    assert POLYGRAPH.total is False
    assert PartialPolygraph(("a",), frozenset({("a", "a")}), ()).total is True
    assert "total" not in repr(POLYGRAPH)
    with pytest.raises(AttributeError):
        POLYGRAPH.total = True


def _round_trips(value):
    return pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)


def test_poset_hashes_as_its_size_and_rows_and_survives_copying():
    p = chain(3)
    assert hash(p) == hash((p.size, p.rows))
    twin = from_pairs(3, [(1, 2), (0, 1)])
    assert twin is not p and twin == p and hash(twin) == hash(p)
    assert p != antichain(3) and p.__eq__((p.size, p.rows)) is NotImplemented
    for copied in _round_trips(p):
        assert type(copied) is FinitePoset and copied == p and repr(copied) == repr(p)


@pytest.mark.parametrize("term", [UNIT, Var(3), parse_expression("(ox x0 (tri x1 x2))")],
                         ids=repr)
def test_terms_copy_to_the_interned_node(term):
    assert all(copied is term for copied in _round_trips(term))


def test_derived_proofs_survive_copying():
    proof = derive_structure_map(antichain(3), chain(3))
    for copied in _round_trips(proof):
        assert copied == proof and hash(copied) == hash(proof) and repr(copied) == repr(proof)
