"""Value semantics of the package's hand-written record classes.

Each class keeps the repr, equality and hashing it had as a generated
class: the repr names every field, equal fields make equal values hashed
as the tuple of those fields, and the frozen classes refuse assignment
and deletion. ``Submodule`` and ``classify._Class`` compare by identity.
"""

import copy
import inspect
import pickle
import weakref

import pytest

from alexquandle.abelian import AbelianGroup, GroupAutomorphism
from alexquandle.classify import ClassificationReport, QuandleClass, _Class, classify_order
from alexquandle.lambda_module import (
    LambdaModule,
    Polynomial,
    Submodule,
    image_one_minus_t,
    linear_module,
)
from alexquandle.quandle import IsoWitness, QuandleTable


def _values():
    """One value of each frozen class, with the fields it compares."""
    g = AbelianGroup((2, 4))
    rows = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    return [
        (g, ((2, 4),)),
        (GroupAutomorphism(g, (1, 2)), (g, (1, 2))),
        (Polynomial(9, (-4, 1)), (9, (5, 1))),
        (linear_module(5, 2), (GroupAutomorphism(AbelianGroup((5,)), (2,)),)),
        (QuandleTable(rows), (rows,)),
        (IsoWitness((1, 0)), ((1, 0),)),
        (QuandleClass(("linear", 3, 2), True, 1), (("linear", 3, 2), True, 1)),
        (classify_order(3), (3, classify_order(3).classes)),
    ]


def test_repr_names_every_field():
    module = linear_module(5, 2)
    t5 = "GroupAutomorphism(group=AbelianGroup(invariant_factors=(5,)), generator_images=(2,))"
    expected = [
        "AbelianGroup(invariant_factors=(2, 4))",
        "GroupAutomorphism(group=AbelianGroup(invariant_factors=(2, 4)), generator_images=(1, 2))",
        "Polynomial(modulus=9, coeffs=(5, 1))",
        f"LambdaModule(t_action={t5})",
        "QuandleTable(rows=((0, 2, 1), (2, 1, 0), (1, 0, 2)))",
        "IsoWitness(map=(1, 0))",
        "QuandleClass(representative=('linear', 3, 2), connected=True, "
        "class_size_in_enumeration=1)",
        "ClassificationReport(order=3, classes=(QuandleClass(representative=('linear', 3, 1), "
        "connected=False, class_size_in_enumeration=1), QuandleClass(representative="
        "('linear', 3, 2), connected=True, class_size_in_enumeration=1)))",
    ]
    assert [repr(value) for value, _ in _values()] == expected
    assert repr(image_one_minus_t(linear_module(9, 4))) == (
        "Submodule(as_module=LambdaModule(t_action=GroupAutomorphism(group=AbelianGroup("
        "invariant_factors=(3,)), generator_images=(1,))), from_abstract=(0, 3, 6))"
    )
    assert repr(_Class(module, ("linear", 5, 2), True)) == (
        f"_Class(image=LambdaModule(t_action={t5}), representative=('linear', 5, 2), "
        "connected=True, weight=0)"
    )


def test_equal_fields_give_equal_values_hashed_by_their_fields():
    for (value, fields), (again, _) in zip(_values(), _values()):
        assert value is not again
        assert value == again and not value != again
        assert hash(value) == hash(again) == hash(fields)
        assert value != fields  # another class never compares equal
    assert AbelianGroup((2, 4)) != AbelianGroup((8,))
    assert Polynomial(9, (5, 1)) != Polynomial(9, (4, 1))
    assert QuandleClass(("linear", 3, 2), True, 1) != QuandleClass(("linear", 3, 2), True, 2)


def test_automorphism_equality_ignores_the_element_map():
    g = AbelianGroup((2, 4))
    checked = GroupAutomorphism(g, (1, 2))
    trusted = GroupAutomorphism._trusted(g, (1, 2), checked.element_map)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.element_map == checked.element_map
    # a trusted map is taken as given, and still only its images compare
    assert GroupAutomorphism._trusted(g, (1, 2), ()) == checked
    assert GroupAutomorphism(g, (1, 6)) != checked


def test_submodule_and_class_compare_by_identity():
    sub = image_one_minus_t(linear_module(9, 4))
    twin = Submodule(sub.as_module, sub.from_abstract)
    assert sub != twin and sub == sub
    module = linear_module(5, 2)
    first, second = _Class(module, ("linear", 5, 2), True), _Class(module, ("linear", 5, 2), True)
    assert first != second and len({first, second}) == 2
    first.weight += 3  # classify counts a class's members on it
    assert first.weight == 3


def test_frozen_values_refuse_assignment_and_deletion():
    for value, _ in _values():
        for name in (*inspect.signature(type(value)).parameters, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    automorphism = _values()[1][0]
    with pytest.raises(AttributeError):
        automorphism.element_map = ()


def test_copies_and_pickles_are_equal():
    for value, _ in _values():
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
    automorphism = _values()[1][0]
    assert pickle.loads(pickle.dumps(automorphism)).element_map == automorphism.element_map
    sub = image_one_minus_t(linear_module(9, 4))
    assert repr(pickle.loads(pickle.dumps(sub))) == repr(sub)


def test_constructors_take_the_fields_in_order_and_allow_weak_references():
    fields = {
        AbelianGroup: ["invariant_factors"],
        GroupAutomorphism: ["group", "generator_images"],
        Polynomial: ["modulus", "coeffs"],
        LambdaModule: ["t_action"],
        Submodule: ["as_module", "from_abstract"],
        QuandleTable: ["rows"],
        IsoWitness: ["map"],
        QuandleClass: ["representative", "connected", "class_size_in_enumeration"],
        ClassificationReport: ["order", "classes"],
        _Class: ["image", "representative", "connected", "weight"],
    }
    for cls, names in fields.items():
        assert list(inspect.signature(cls).parameters) == names, cls
    assert AbelianGroup(invariant_factors=(2, 4)) == AbelianGroup((2, 4))
    assert _Class(linear_module(5, 2), ("linear", 5, 2), True).weight == 0
    for value, _ in _values():
        assert weakref.ref(value)() is value
