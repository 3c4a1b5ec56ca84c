"""The record contract shared by every public record class: equal values
compare and hash equal, fields cannot be assigned, the constructor takes its
fields by position and by keyword in the listed order, it refuses bad
input with its message, and tuple + and * raise TypeError on either side.
Every to_json_obj result is plain JSON data, so no record reaches
json.dumps, which would write it as an array."""

import pytest

from steincheck import cli, handle, intlin, obstruct, quadform, surgery
from steincheck.handle import (
    AlgebraicFourManifold,
    FramedLinkPresentation,
    SteinFramingReport,
    stein_checks,
)
from steincheck.intlin import (
    AbelianGroup,
    IntMatrix,
    SmithDecomposition,
    _Record,
    cokernel,
    smith_normal_form,
)
from steincheck.obstruct import (
    GenusBound,
    HomeoClasses,
    InfinitudeCertificate,
    adjunction_lower_bound,
    homeo_classes,
    infinitude_report,
)
from steincheck.quadform import FormClass, QuadraticForm, SquareSolutions, classify, solve_square
from steincheck.surgery import LogTransformFamilyMember, TorusMappingClass, fp_matrix, x_family


MODULES = (intlin, quadform, handle, surgery, obstruct, cli)


def form():
    return QuadraticForm.from_rows([[0, 1], [1, -2]], labels=("T", "S"))


def link():
    return FramedLinkPresentation(IntMatrix.from_rows([[0, 1], [1, -2]]), (0, 0), (1, -1))


# class -> (a builder that makes a new instance on each call, the field names in order)
RECORDS = {
    IntMatrix: (lambda: IntMatrix.from_rows([[1, 2], [3, 4]]), ("rows", "cols", "entries")),
    SmithDecomposition: (lambda: smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])),
                         ("U", "D", "V")),
    AbelianGroup: (lambda: cokernel(IntMatrix.from_rows([[0], [6]])), ("free_rank", "torsion")),
    QuadraticForm: (form, ("gram", "labels")),
    FormClass: (lambda: classify(form()),
                ("rank", "signature", "parity", "determinant")),
    SquareSolutions: (lambda: solve_square(form(), -2), ("vectors", "complete")),
    FramedLinkPresentation: (link, ("linking", "rot", "tb")),
    AlgebraicFourManifold: (lambda: x_family(3).manifold,
                            ("form", "c1", "euler", "sig", "simply_connected",
                             "boundary_homology_sphere", "name", "stein")),
    SteinFramingReport: (lambda: stein_checks(link()), ("framing_ok", "parity_ok")),
    LogTransformFamilyMember: (lambda: x_family(3), ("p", "manifold", "s_class")),
    TorusMappingClass: (lambda: fp_matrix(2), ("matrix",)),
    GenusBound: (lambda: adjunction_lower_bound(x_family(3).manifold, (1, 1)),
                 ("class_coords", "self_intersection", "c1_pairing")),
    InfinitudeCertificate: (lambda: infinitude_report("odd", range(1, 4)),
                            ("parity", "parameters", "bounds", "rigidity", "all_homeomorphic",
                             "classes")),
    HomeoClasses: (lambda: homeo_classes([x_family(p).manifold for p in range(4)]),
                   ("class_of", "representatives", "between")),
}

# class -> the values it derives from its fields, as read-only properties
DERIVED = {
    FormClass: ("definiteness", "unimodular"),
    GenusBound: ("lower_bound",),
    InfinitudeCertificate: ("family_label", "bounds_increasing", "conclusion"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    build, fields = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    if cls is QuadraticForm:
        classify(a)  # the class kept on a form is not part of its value
    assert a == b and not a != b and repr(a) == repr(b)
    if cls is HomeoClasses:
        with pytest.raises(TypeError):  # ``between`` is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
    values = [getattr(a, name) for name in fields]
    assert cls(*values) == cls(**dict(zip(fields, values))) == a
    for name in fields + DERIVED.get(cls, ()):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert all(isinstance(getattr(cls, name), property) for name in DERIVED.get(cls, ()))
    assert a == b


BAD_INPUT = [
    (lambda: IntMatrix(-1, 0, ()), "matrix dimensions must be nonnegative"),
    (lambda: IntMatrix(rows=2, cols=1, entries=((1,),)), "row count does not match entries"),
    (lambda: IntMatrix(2, 2, ((1, 2), (3,))), "ragged rows in matrix entries"),
    (lambda: IntMatrix(2, 2, ([0, 1], [1, 0])), "matrix rows must be tuples"),
    (lambda: IntMatrix(1, 1, ((True,),)), "matrix entries must be integers"),
    (lambda: QuadraticForm(IntMatrix.from_rows([[0, 1], [2, 0]])), "Gram matrix must be symmetric"),
    (lambda: QuadraticForm(gram=form().gram, labels=("T",)), "label count must match the rank"),
    (lambda: FramedLinkPresentation(IntMatrix.from_rows([[0, 1], [2, 0]]), (0, 0)),
     "linking matrix must be symmetric"),
    (lambda: FramedLinkPresentation(linking=link().linking, rot=(0,)),
     "rotation numbers must match the number of 2-handles"),
    (lambda: FramedLinkPresentation(link().linking, (0, 0), tb=(1,)),
     "tb numbers must match the number of 2-handles"),
    (lambda: AlgebraicFourManifold(form=form(), c1=(0,), euler=3, sig=0, simply_connected=True,
                                   boundary_homology_sphere=True),
     "c1 vector length must match the rank of the form"),
    (lambda: TorusMappingClass(IntMatrix.from_rows([[1, 0], [0, 1]])),
     "torus mapping class must be a 3x3 matrix"),
    (lambda: TorusMappingClass(matrix=IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])),
     "torus mapping class must have determinant 1"),
]


@pytest.mark.parametrize("build, message", BAD_INPUT, ids=[m for _, m in BAD_INPUT])
def test_constructor_refuses_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


BAD_REPLACE = [
    (lambda: IntMatrix.from_rows([[1, 2], [2, 1]])._replace(rows=5), "row count does not match entries"),
    (lambda: IntMatrix._make((2, 2, ((1, 2), (3,)))), "ragged rows in matrix entries"),
    (lambda: form()._replace(gram=IntMatrix.from_rows([[1, 2], [3, 4]])), "Gram matrix must be symmetric"),
    (lambda: QuadraticForm._make((form().gram, ("T",))), "label count must match the rank"),
    (lambda: link()._replace(rot=(0,)), "rotation numbers must match the number of 2-handles"),
    (lambda: x_family(3).manifold._replace(c1=(0,)), "c1 vector length must match the rank of the form"),
    (lambda: fp_matrix(2)._replace(matrix=IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])),
     "torus mapping class must have determinant 1"),
]


@pytest.mark.parametrize("build, message", BAD_REPLACE, ids=[m for _, m in BAD_REPLACE])
def test_replace_and_make_run_the_constructor_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_checked_records_refuse_tuple_arithmetic(cls):
    a = RECORDS[cls][0]()
    for op in (lambda: a + a, lambda: 2 * a, lambda: a * 2, lambda: (1,) + a):
        with pytest.raises(TypeError):
            op()
    assert a._replace() == a and type(a._replace()) is cls
    # only QuadraticForm keeps an instance dict, for the class classify stores on it
    assert hasattr(a, "__dict__") == (cls is QuadraticForm)


def test_records_lists_every_record_class():
    """Every tuple subclass the modules define is in RECORDS, so a record added
    later runs the contract tests too."""
    defined = {cls for module in MODULES for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__}
    assert defined == set(RECORDS)
    assert all(issubclass(cls, _Record) for cls in RECORDS)


def plain_json(obj) -> bool:
    """Whether obj is built from dicts with string keys, lists, strings,
    ints, bools and None only; a tuple, and so a record, is not."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and plain_json(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(plain_json(v) for v in obj)
    return obj is None or isinstance(obj, (str, int))


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if hasattr(cls, "to_json_obj")],
                         ids=lambda cls: cls.__name__)
def test_to_json_obj_holds_no_record(cls):
    assert plain_json(RECORDS[cls][0]().to_json_obj())
