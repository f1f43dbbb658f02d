"""Value semantics of the package's immutable types: construction by keyword
with the documented defaults, equality and hashing over the fields, no
assignment or deletion, and a pinned ``repr`` for each type."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from fairmix.engine import FixedPointState
from fairmix.envy import Certificate, EfCheck, EnvyGraph, PeCheck
from fairmix.hard import CertifiedOutcome, DichotomyReport, DisjointnessInput
from fairmix.lp import LinearProgram
from fairmix.model import (
    Instance,
    MixedAllocation,
    PureAllocation,
    UtilityKernel,
    UtilityProfile,
    WeightVector,
    all_partitions_allocation_set,
)


def _profile():
    return UtilityProfile(table=({0: 1, 1: 2},), scale=1, raw_num=({0: 0, 1: 1},), raw_den=(1,))


def _lottery():
    return MixedAllocation(k=3, pairs=[(2, "2/3"), (0, F(1, 3))])


def _weight():
    return WeightVector(w=(F(1, 3), "2/3"), epsilon=F(1, 4))


# one keyword-built object per type, with its repr as the types printed it
# when they were dataclasses
CASES = {
    "PureAllocation": (lambda: PureAllocation(bundles=[1, 2]), "PureAllocation(bundles=(1, 2))"),
    "UtilityProfile": (
        _profile,
        "UtilityProfile(table=({0: 1, 1: 2},), scale=1, raw_num=({0: 0, 1: 1},), raw_den=(1,))",
    ),
    "Instance": (
        lambda: Instance(n=1, m=1, utilities=_profile(), allocations=all_partitions_allocation_set(1, 1)),
        "Instance(n=1, m=1, utilities=UtilityProfile(table=({0: 1, 1: 2},), scale=1,"
        " raw_num=({0: 0, 1: 1},), raw_den=(1,)), allocations=AllocationSet(k=2, n=1))",
    ),
    "UtilityKernel": (
        lambda: UtilityKernel(own_num=((1, 2),), points=((1,), (2,)), frontier=((2,),), members=((1,),)),
        "UtilityKernel(own_num=((1, 2),), points=((1,), (2,)), frontier=((2,),), members=((1,),))",
    ),
    "MixedAllocation": (
        _lottery,
        "MixedAllocation(k=3, pairs=((0, Fraction(1, 3)), (2, Fraction(2, 3))))",
    ),
    "WeightVector": (
        _weight,
        "WeightVector(w=(Fraction(1, 3), Fraction(2, 3)), epsilon=Fraction(1, 4))",
    ),
    "EnvyGraph": (
        lambda: EnvyGraph(n=2, edges=((1, 0, F(1, 9)),)),
        "EnvyGraph(n=2, edges=((1, 0, Fraction(1, 9)),))",
    ),
    "EfCheck": (lambda: EfCheck(ok=True), "EfCheck(ok=True, witness=None)"),
    "PeCheck": (lambda: PeCheck(ok=True), "PeCheck(ok=True, dominator=None, gains=None, weight=None)"),
    "Certificate": (
        lambda: Certificate(ef=EfCheck(ok=False, witness=(1, 0, F(1, 9))), pe=PeCheck(ok=True, weight=(F(1, 2),) * 2)),
        "Certificate(ef=EfCheck(ok=False, witness=(1, 0, Fraction(1, 9))), pe=PeCheck(ok=True, dominator=None,"
        " gains=None, weight=(Fraction(1, 2), Fraction(1, 2))), fixed_point_residual=None)",
    ),
    "LinearProgram": (
        lambda: LinearProgram(objective=(1, 2), constraints=(((1, 1), 1),)),
        "LinearProgram(objective=(1, 2), constraints=(((1, 1), 1),))",
    ),
    "DisjointnessInput": (
        lambda: DisjointnessInput(p=1, x1=[1], x2=(0,)),
        "DisjointnessInput(p=1, x1=(1,), x2=(0,))",
    ),
    "CertifiedOutcome": (
        lambda: CertifiedOutcome(kind="deterministic", bundles=(1, 2), split_index=None, welfare=F(3)),
        "CertifiedOutcome(kind='deterministic', bundles=(1, 2), split_index=None, welfare=Fraction(3, 1))",
    ),
    "DichotomyReport": (
        lambda: DichotomyReport(
            p=1,
            x1=(1,),
            x2=(0,),
            intersecting=False,
            target_welfare=F(6),
            certified=(),
            dichotomy_holds=True,
            flagged_mixed=(),
        ),
        "DichotomyReport(p=1, x1=(1,), x2=(0,), intersecting=False, target_welfare=Fraction(6, 1),"
        " certified=(), dichotomy_holds=True, flagged_mixed=())",
    ),
    "FixedPointState": (
        lambda: FixedPointState(p=_lottery(), w=_weight(), residual=F(0), iteration=1, nu=_weight().w),
        "FixedPointState(p=MixedAllocation(k=3, pairs=((0, Fraction(1, 3)), (2, Fraction(2, 3)))),"
        " w=WeightVector(w=(Fraction(1, 3), Fraction(2, 3)), epsilon=Fraction(1, 4)),"
        " residual=Fraction(0, 1), iteration=1, nu=(Fraction(1, 3), Fraction(2, 3)))",
    ),
}

# their fields hold dicts, so hashing them raises, as it did before
UNHASHABLE = {"UtilityProfile", "Instance"}

parametrize_cases = pytest.mark.parametrize("name", sorted(CASES))


@parametrize_cases
def test_repr_is_pinned(name):
    build, text = CASES[name]
    assert repr(build()) == text


@parametrize_cases
def test_equal_fields_give_equal_objects_and_hashes(name):
    build = CASES[name][0]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    # equality needs the same type, not only the same fields
    assert a != object() and a != repr(a)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@parametrize_cases
def test_copies_and_pickles_keep_type_and_fields(name):
    obj = CASES[name][0]()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and repr(twin) == repr(obj)


def test_unequal_fields_give_unequal_objects():
    assert EfCheck(ok=True) != EfCheck(ok=False)
    assert PeCheck(ok=True) != PeCheck(ok=True, weight=(F(1, 2),) * 2)
    assert PureAllocation((1, 2)) != PureAllocation((2, 1))


@parametrize_cases
def test_fields_can_be_neither_assigned_nor_deleted(name):
    obj = CASES[name][0]()
    before = repr(obj)
    fields = list(vars(obj))
    assert fields and all(f"{field}=" in before for field in fields)
    for field in fields + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert repr(obj) == before


def test_keyword_defaults():
    pe = PeCheck(ok=True)
    assert (pe.dominator, pe.gains, pe.weight) == (None, None, None)
    assert EfCheck(ok=False).witness is None
    assert Certificate(ef=EfCheck(True), pe=pe).fixed_point_residual is None


def test_positional_and_keyword_construction_agree():
    assert PeCheck(False, None, (F(1),), None) == PeCheck(ok=False, gains=(F(1),))
    assert Instance(1, 1, _profile(), all_partitions_allocation_set(1, 1)) == CASES["Instance"][0]()


def test_unchecked_wrappers_equal_checked_construction():
    assert MixedAllocation._of(3, ((0, F(1, 3)), (2, F(2, 3)))) == _lottery()
    assert WeightVector._of((F(1, 3), F(2, 3)), F(1, 4)) == _weight()


def test_cached_properties_still_fill_on_first_read():
    inst = CASES["Instance"][0]()
    assert inst.rho == 1 and inst.kernel is inst.kernel
    assert inst.utilities.raw_values == ({0: F(0), 1: F(1)},)
    # the caches sit outside the fields: equality and repr are unchanged
    assert inst == CASES["Instance"][0]() and repr(inst) == CASES["Instance"][1]
