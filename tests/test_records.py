"""The package's immutable records: equality, hashing, construction, repr, copying."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import U_BASIS_3, atoms_in
from horaprove import corpus_path, fuzz, parse_file, parse_identity, prove
from horaprove.lang import Identity, IntLit, NameRef, Pow, Product, ScalarRef, Sum
from horaprove.prover import Counterexample, EliminationNode, LeafNode
from horaprove.ring import Record

# a false law with a let, a pin, a power, a product, a q power and every family,
# so parsing, proving and fuzzing it builds an instance of every record class
FALSE_LAW = (
    "let e = p^2 - 4*q\n"
    "forall n, m: W(n+m)^2*e + 2 == -u(n)*V(m)*q^(n) with a := 1/2\n"
)


def corpus_identities(name: str) -> tuple:
    return parse_file(corpus_path(name).read_text(encoding="utf-8")).identities


def walk(value):
    """value and every record, tuple or list reachable from it."""
    yield value
    if isinstance(value, Record):
        for name in value.__slots__:
            if name != "__dict__":
                yield from walk(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from walk(item)


def one_of_each_record() -> dict:
    """class -> an instance, over every record the package builds."""
    source = parse_file(FALSE_LAW)
    (identity,) = source.identities
    found = {}
    for value in walk((source, prove(identity), fuzz(identity, 20, 1, 5))):
        if isinstance(value, Record):
            found.setdefault(type(value), value)
    return found


def test_every_record_class_is_built_by_the_false_law():
    assert set(one_of_each_record()) == set(Record.__subclasses__())


@pytest.mark.parametrize("record", one_of_each_record().values(), ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned_or_deleted(record):
    for name in record.__slots__:
        if name == "__dict__":
            continue
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_identity_equality_ignores_lets_source_and_position():
    (base,) = parse_file(FALSE_LAW).identities
    moved = Identity(base.index_vars, base.lhs, base.rhs, base.pins, (), "other text", 9, 4)
    assert moved == base and hash(moved) == hash(base)
    unpinned = Identity(base.index_vars, base.lhs, base.rhs, (), base.lets, base.source, 0, 0)
    assert unpinned != base
    swapped = Identity(base.index_vars, base.rhs, base.lhs, base.pins, (), "", 0, 0)
    assert swapped != base


def test_identity_equality_ignores_position():
    law = Identity(("n",), IntLit(2), NameRef("e"), (), (), "", 3, 7)
    unplaced = Identity(("n",), IntLit(2), NameRef("e"), (), (), "", 0, 0)
    assert law == unplaced and hash(law) == hash(unplaced)
    assert law != Identity(("m",), IntLit(2), NameRef("e"), (), (), "", 3, 7)
    assert law != Identity(("n",), IntLit(3), NameRef("e"), (), (), "", 3, 7)


def test_equal_fields_of_another_class_differ():
    terms = ((1, ScalarRef("p")), (1, ScalarRef("q")))
    assert Sum(terms) != Product(terms)
    assert Product(terms) != Sum(terms)
    assert ScalarRef("p") != NameRef("p")
    assert Sum(terms) != terms


PARSED_TWICE = tuple(
    zip(
        corpus_identities("paper.fib") + corpus_identities("mutations.fib"),
        corpus_identities("paper.fib") + corpus_identities("mutations.fib"),
    )
)


@given(st.sampled_from(PARSED_TWICE))
@settings(max_examples=40, deadline=None)
def test_equal_records_hash_equal(pair):
    first, second = pair
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for left, right in ((first.lhs, second.lhs), (first.rhs, second.rhs)):
        assert left == right and hash(left) == hash(right)


# one record of each arity that gets a fixed-arity constructor, and two larger
SIZED_RECORDS = (IntLit, Pow, LeafNode, EliminationNode, Counterexample)


def test_records_of_up_to_three_fields_get_a_fixed_arity_constructor():
    assert [len(record._fields) for record in SIZED_RECORDS] == [1, 2, 3, 5, 5]
    for record in SIZED_RECORDS[:3]:
        assert record.__init__ is not Record.__init__
        assert record.__init__.__qualname__ == f"{record.__name__}.__init__"
    for record in SIZED_RECORDS[3:]:
        assert record.__init__ is Record.__init__
    assert Pow(IntLit(2), 3) == Pow(IntLit(2), 3) and Pow(IntLit(2), 3).exponent == 3


def sized_bad_builds():
    """Keywords, too few and too many fields, for each of SIZED_RECORDS."""
    for record in SIZED_RECORDS:
        n, name = len(record._fields), record.__name__
        yield pytest.param(lambda r=record: r(**dict.fromkeys(r._fields, 0)), id=f"{name}-keywords")
        yield pytest.param(
            lambda r=record, n=n: r(*[0] * (n - 1), **{r._fields[-1]: 0}), id=f"{name}-last-keyword"
        )
        yield pytest.param(lambda r=record, n=n: r(*[0] * (n - 1)), id=f"{name}-too-few")
        yield pytest.param(lambda r=record, n=n: r(*[0] * (n + 1)), id=f"{name}-too-many")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pow(IntLit(2)),  # too few fields
        lambda: Pow(IntLit(2), 3, base=IntLit(1)),  # a field given twice
        lambda: Pow(IntLit(2), 3, width=1),  # no such field
        lambda: IntLit(1, 2),  # too many fields
        *sized_bad_builds(),
    ],
)
def test_bad_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_repr_names_every_field():
    assert repr(Pow(IntLit(2), 3)) == "Pow(base=IntLit(value=2), exponent=3)"
    assert repr(Sum(((1, ScalarRef("p")),))) == "Sum(terms=((1, ScalarRef(name='p')),))"


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}
# the false law refutes; the u-basis law proves, and its proof tree shares subtrees
COPIED_LAWS = {"false-law": FALSE_LAW, "u-basis-law": U_BASIS_3}


@pytest.mark.parametrize("law", COPIED_LAWS.values(), ids=COPIED_LAWS.keys())
@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_copies_equal_the_original_and_share_its_atoms(copier, law):
    identity = parse_identity(law)
    cert = prove(identity)
    for original in (identity, cert):
        copied = copier(original)
        assert copied == original
        pairs = list(zip(atoms_in(original), atoms_in(copied), strict=True))
        assert pairs
        assert all(left is right for left, right in pairs)
    assert copier(cert).to_json_dict() == cert.to_json_dict()
