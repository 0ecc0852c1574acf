"""The value-class contract: every immutable record of the package.

One instance of each class is built through the public constructors.  For
each: setting or deleting any field raises ``AttributeError``; a value
class is equal, with an equal hash, to a twin rebuilt from its constructor
fields, while a record with identity equality is equal only to itself;
``repr`` is the ``Name(field=value, ...)`` text, pinned below; and a copy
or a pickled and loaded instance is rebuilt from its constructor fields.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from skewpoly.evaluation import certify_tuple
from skewpoly.maps import (
    CheckRecord,
    Certificate,
    DdxDer,
    IdentityAut,
    InnerAut,
    InnerDer,
    LinComb,
    QDiffDer,
    QShiftAut,
    ZeroDer,
    inner_aut,
)
from skewpoly.normalize import find_nonvanishing_point, normalize
from skewpoly.nullstellensatz import (
    Witness,
    cns_witness,
    gordon_motzkin_check,
    make_evaluation_set,
)
from skewpoly.ore import OreRing, Variable
from skewpoly.parser import parse_expr
from skewpoly.scalars import HQ, Q, QX

I, J = HQ.i(), HQ.j()
WEYL = OreRing(QX, [("t", IdentityAut(), DdxDer())])
QUAT = OreRing(HQ, [("t", IdentityAut(), ZeroDer())])


def _chain():
    return normalize(WEYL, [parse_expr("t^2 + x", WEYL)])


def _partition():
    return gordon_motzkin_check(parse_expr("t^2 + 1", QUAT), [I, J])


def _witness():
    sets = [make_evaluation_set([HQ.zero(), HQ.one()])]
    return cns_witness(parse_expr("t^2 + 1", QUAT), sets)


RECORDS = (CheckRecord("leibniz(t)", 0, 0, True),
           CheckRecord("commute(id, d/dx)", 4, 1))
RING = "OreRing(Qx[t;id,d/dx], commuting)"
CLASS = ("ConjugacyClass(members=(Quaternion(i), Quaternion(j)), "
         "trace=Fraction(0, 1), norm=Fraction(1, 1))")
SUB = ("Substitution(target=0, shifts=(), scale=RationalFunction(1), "
       "leading_value=RationalFunction(1))")
REL = (f"MonicRelation(ring={RING}, var=0, degree=2, "
       "tails=(<SkewPoly 0>, <SkewPoly x>))")
STEP = f"NormalizationStep(substitution={SUB}, relation={REL})"

# (name, instance, constructor fields, derived fields, value equality, repr)
CASES = [
    ("Rational", lambda: Q.from_fraction(Fraction(-3, 4)), ("value",), (),
     True, "Rational(-3/4)"),
    ("RationalFunction", lambda: QX.make((1, 2), (3, 0, 1)),
     ("ints_num", "ints_den"), (), True,
     "RationalFunction((2*x + 1)/(x^2 + 3))"),
    ("Quaternion", lambda: HQ.make(Fraction(1, 2), 0, -1, 3), ("ints", "den"),
     (), True, "Quaternion(1/2 - j + 3*k)"),
    ("IdentityAut", IdentityAut, (), (), True, "IdentityAut()"),
    ("InnerAut", lambda: InnerAut(HQ.make(1, 2, 0, 1)), ("c",), ("c_inv",),
     True, "InnerAut(c=Quaternion(1 + 2*i + k))"),
    ("QShiftAut", lambda: QShiftAut(Fraction(3, 2)), ("q",), (), True,
     "QShiftAut(q=Fraction(3, 2))"),
    ("ZeroDer", ZeroDer, ("twist",), (), True, "ZeroDer(twist=IdentityAut())"),
    ("DdxDer", DdxDer, (), (), True, "DdxDer()"),
    ("InnerDer", lambda: InnerDer(J, inner_aut(I)), ("c", "twist"), (), True,
     "InnerDer(c=Quaternion(j), twist=InnerAut(c=Quaternion(i)))"),
    ("QDiffDer", lambda: QDiffDer(QShiftAut(2)), ("shift",), ("step_inv",),
     True, "QDiffDer(shift=QShiftAut(q=Fraction(2, 1)))"),
    ("LinComb", lambda: LinComb(((QX.from_int(2), DdxDer()),)), ("terms",),
     (), True, "LinComb(terms=((RationalFunction(2), DdxDer()),))"),
    ("CheckRecord", lambda: RECORDS[1],
     ("law", "samples", "failures", "analytic"), (), True,
     "CheckRecord(law='commute(id, d/dx)', samples=4, failures=1, "
     "analytic=None)"),
    ("Certificate", lambda: Certificate(RECORDS), ("records",), ("ok",), True,
     "Certificate(records=(CheckRecord(law='leibniz(t)', samples=0, "
     "failures=0, analytic=True), CheckRecord(law='commute(id, d/dx)', "
     "samples=4, failures=1, analytic=None)))"),
    ("Variable", lambda: Variable("t", IdentityAut(), DdxDer()),
     ("name", "aut", "der"), (), True,
     "Variable(name='t', aut=IdentityAut(), der=DdxDer())"),
    ("AutomorphicTuple",
     lambda: certify_tuple(WEYL, [WEYL.variable(0)], WEYL.twists()),
     ("ambient", "elements", "twists", "certificate"), (), False,
     f"AutomorphicTuple(ambient={RING}, "
     "elements=(<SkewPoly t>,), twists=((IdentityAut(), DdxDer()),), "
     "certificate=Certificate(records=(CheckRecord(law='automorphic(s1)', "
     "samples=64, failures=0, analytic=True),)))"),
    ("EvaluationSet", lambda: make_evaluation_set([HQ.one(), I, J]),
     ("elements", "conjugate_pairs"), (), True,
     "EvaluationSet(elements=(Quaternion(1), Quaternion(i), Quaternion(j)), "
     "conjugate_pairs=((1, 2),))"),
    ("Witness", _witness, ("point", "value", "scanned"), (), True,
     "Witness(point=(Quaternion(0),), value=Quaternion(1), scanned=1)"),
    ("ConjugacyClass", lambda: _partition().classes[0],
     ("members", "trace", "norm"), (), True, CLASS),
    ("ClassPartition", _partition, ("degree", "classes"), (), True,
     f"ClassPartition(degree=2, classes=({CLASS},))"),
    ("Substitution", lambda: _chain().steps[0].substitution,
     ("target", "shifts", "scale", "leading_value"), (), False, SUB),
    ("MonicRelation", lambda: _chain().relations[0],
     ("ring", "var", "degree", "tails"), (), False, REL),
    ("PointSearch",
     lambda: find_nonvanishing_point(parse_expr("t - 1", QUAT),
                                     iter([HQ.one(), HQ.zero()])),
     ("point", "value", "specializations"), (), True,
     "PointSearch(point=(Quaternion(0),), value=Quaternion(-1), "
     "specializations=2)"),
    ("NormalizationStep", lambda: _chain().steps[0],
     ("substitution", "relation"), (), False, STEP),
    ("NormalizationResult", _chain,
     ("ring", "steps", "presentation", "relations", "skipped", "images"), (),
     False, f"NormalizationResult(ring={RING}, steps=({STEP},), "
     f"presentation={RING}, relations=({REL},), skipped=(), images=None)"),
]


@pytest.mark.parametrize("name, make, fields, derived, value, text", CASES,
                         ids=[case[0] for case in CASES])
def test_value_class_contract(name, make, fields, derived, value, text):
    obj = make()
    assert type(obj).__name__ == name
    for field in fields + derived:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    twin = type(obj)(*(getattr(obj, field) for field in fields))
    if value:
        assert twin == obj and hash(twin) == hash(obj)
    else:
        assert twin != obj and obj == obj
        assert hash(obj) == object.__hash__(obj)
    assert repr(obj) == text
    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and repr(clone) == text
        assert all(getattr(clone, f) == getattr(obj, f) for f in derived)
        if value:
            assert clone == obj and hash(clone) == hash(obj)


def test_record_constructor_takes_exactly_its_fields():
    # Record.__init__ takes the fields by position, as the deleted
    # forwarding constructors did, and refuses any other count by name
    point = (HQ.zero(),)
    assert Witness(point, HQ.one(), 1) == _witness()
    for args in ((point, HQ.one()), (point, HQ.one(), 1, 2)):
        with pytest.raises(TypeError, match="^Witness takes 3 fields, got"):
            Witness(*args)
    with pytest.raises(TypeError, match="^IdentityAut takes 0 fields, got 1"):
        IdentityAut(I)
