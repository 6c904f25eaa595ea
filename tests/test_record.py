"""The Record contract: what the value types kept from frozen dataclasses."""

import functools
import json
from fractions import Fraction

import pytest

from specpoly import (
    AffineNormalization,
    DiffOperator,
    EigenResult,
    FamilyKind,
    FamilySpec,
    GramEntry,
    Interval,
    OperatorMatrix,
    OrthoReport,
    Poly,
    PowerFactor,
    RomanovskiPair,
    RomanovskiReport,
    Spectrum,
    WeightExpr,
    bochner_normalize,
    build_operator,
    classical_presets,
    derive_weight,
    eigentable,
    finite_orthogonality_report,
    gram_matrix,
)
from specpoly._record import Record
from specpoly.quadrature import QuadResult

from oracles import BoundaryVerdict, IntegrabilityVerdict, boundary_vanishing, integrability


def chebyshev1_weight() -> WeightExpr:
    op = build_operator(classical_presets()["chebyshev1"])
    return derive_weight(op.coeffs[2], op.coeffs[1])


class TestConstruction:
    def test_positional_keyword_and_default(self):
        positional = GramEntry(0, 2, Fraction(-4, 45), "exact", True)
        keyword = GramEntry(m=0, n=2, value=Fraction(-4, 45), method="exact", integrable=True)
        assert positional == keyword
        assert (positional.err_est, positional.relative, positional.note) == (None, None, None)
        mixed = GramEntry(1, 3, 0.5, "quadrature", True, note="x", relative=0.25)
        assert (mixed.err_est, mixed.relative, mixed.note) == (None, 0.25, "x")

    def test_all_defaults(self):
        w = WeightExpr()
        assert w.constant == 1 and w.power_factors == () and w.quad_exp is None
        assert w.exp_poly == Poly() and w.arctan_coeff == 0
        assert w.interval == Interval(Fraction(-1), Fraction(1))

    def test_fields_in_declaration_order(self):
        assert GramEntry._fields == (
            "m", "n", "value", "method", "integrable", "err_est", "relative", "note")

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((0, 1), {}),  # missing fields
            ((0, 1, None, None, True), {"bogus": 1}),  # unknown field
            ((0, 1, None, None, True), {"m": 0}),  # repeated field
            ((0, 1, None, None, True, None, None, None, "extra"), {}),  # too many
        ],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            GramEntry(*args, **kwargs)

    def test_post_init_refusals(self):
        with pytest.raises(ValueError, match=r"empty interval \(1, 1\)"):
            Interval(Fraction(1), Fraction(1))
        with pytest.raises(ValueError, match="jacobi eps must be"):
            FamilySpec(FamilyKind.JACOBI, eps=0)

    def test_default_after_required_is_refused(self):
        with pytest.raises(TypeError):
            type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})


class TestValueSemantics:
    def test_equality_and_hash_by_fields(self):
        a = PowerFactor(Fraction(1), Fraction(-1, 2))
        b = PowerFactor(Fraction(1), Fraction(-1, 2))
        assert a == b and hash(a) == hash(b)
        assert a != PowerFactor(Fraction(1), Fraction(1, 2))
        assert hash(a) == hash((Fraction(1), Fraction(-1, 2)))

    def test_cached_property_does_not_enter_equality(self):
        used, fresh = chebyshev1_weight(), chebyshev1_weight()
        used.log_eval(0.25)  # computes the cached _float_form
        assert "_float_form" in vars(used) and "_float_form" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)

    def test_other_types_never_equal(self):
        assert IntegrabilityVerdict(True, ()) != BoundaryVerdict(True, ())
        assert IntegrabilityVerdict(True, ()).__eq__((True, ())) is NotImplemented
        assert PowerFactor(Fraction(0), Fraction(1)) != (Fraction(0), Fraction(1))

    def test_repr_matches_dataclass(self):
        entry = GramEntry(0, 2, Fraction(-4, 45), "exact", True)
        assert repr(entry) == (
            "GramEntry(m=0, n=2, value=Fraction(-4, 45), method='exact', integrable=True, "
            "err_est=None, relative=None, note=None)"
        )


class TestImmutability:
    @pytest.mark.parametrize("name", ["m", "value", "not_a_field"])
    def test_assignment_and_deletion_raise(self, name):
        entry = GramEntry(0, 1, Fraction(0), "exact", True)
        with pytest.raises(AttributeError):
            setattr(entry, name, 5)
        with pytest.raises(AttributeError):
            delattr(entry, name)
        assert entry == GramEntry(0, 1, Fraction(0), "exact", True)

    def test_cached_property_still_caches(self):
        m = build_operator(classical_presets()["legendre"]).matrix(3)
        assert m.entries is m.entries
        assert m.entries[1][1] == -2


class Pair(Record):
    a: object
    b: object = None


class TestToJson:
    def test_fields_in_order_under_their_names(self):
        entry = GramEntry(0, 2, Fraction(-4, 45), "exact", True)
        assert entry.to_json() == {
            "m": 0, "n": 2, "value": "-4/45", "method": "exact", "integrable": True,
            "err_est": None, "relative": None, "note": None,
        }
        assert list(entry.to_json()) == list(GramEntry._fields)

    def test_fraction_becomes_its_exact_string(self):
        assert Pair(Fraction(-4, 45), Fraction(3)).to_json() == {"a": "-4/45", "b": "3"}

    def test_nested_tuples_become_lists(self):
        data = Pair(((1, 2), (Fraction(1, 3),), ()), ()).to_json()
        assert data == {"a": [[1, 2], ["1/3"], []], "b": []}

    def test_nested_record_becomes_its_own_to_json(self):
        inner = Pair(Fraction(1, 2))
        assert Pair(inner, (inner,)).to_json() == {
            "a": {"a": "1/2", "b": None}, "b": [{"a": "1/2", "b": None}]}
        weight = chebyshev1_weight()  # WeightExpr keeps its own keys
        assert Pair(weight).to_json()["a"] == weight.to_json()

    def test_other_values_pass_through(self):
        data = Pair(None, (0.25, True, False, "x", 3)).to_json()
        assert data == {"a": None, "b": [0.25, True, False, "x", 3]}
        assert [type(v) for v in data["b"]] == [float, bool, bool, str, int]


# ---------------------------------------------------------------------------
# the contract, class by class: every Record subclass in the package, and the oracles' one


def _package_records() -> list[type]:
    found, stack = [], list(Record.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("specpoly."):
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def _legendre_op():
    return build_operator(classical_presets()["legendre"])


# one instance per class, from the library's own calls where they are cheap
SAMPLES = {
    DiffOperator: _legendre_op,
    OperatorMatrix: lambda: _legendre_op().matrix(3),
    Spectrum: lambda: _legendre_op().spectrum(3),
    EigenResult: lambda: eigentable(_legendre_op(), 2)[2],
    FamilySpec: lambda: FamilySpec.jacobi(1, Fraction(-1, 2), 3),
    AffineNormalization: lambda: bochner_normalize(Poly((1, 0, -1))),
    QuadResult: lambda: QuadResult(0.5, 1e-12, 3, 97),
    PowerFactor: lambda: PowerFactor(Fraction(1), Fraction(-1, 2)),
    Interval: lambda: Interval(Fraction(-1), None),
    WeightExpr: chebyshev1_weight,
    IntegrabilityVerdict: lambda: integrability(chebyshev1_weight(), 2),
    BoundaryVerdict: lambda: boundary_vanishing(chebyshev1_weight(), Poly((1, 0, -1)), (1, 2)),
    GramEntry: lambda: GramEntry(0, 2, Fraction(-4, 45), "exact", True),
    OrthoReport: lambda: gram_matrix(classical_presets()["legendre"], 2),
    RomanovskiPair: lambda: RomanovskiPair(0, 1, "orthogonal", 0.0, 0.0),
    RomanovskiReport: lambda: finite_orthogonality_report(Fraction(-13, 2), 1, 3),
}
# the oracles' verdicts are Records too
RECORDS = _package_records() + [BoundaryVerdict, IntegrabilityVerdict]
# the only classes with a __post_init__, and an argument list each refuses
REFUSALS = {
    DiffOperator: (([[1, 2]],), r"coefficient of y\^\(0\) has degree 1 > 0"),
    Interval: ((Fraction(1), Fraction(1)), r"empty interval \(1, 1\)"),
    FamilySpec: ((FamilyKind.JACOBI, Fraction(0), Fraction(0), 0), "jacobi eps must be"),
}
# the only classes whose JSON keys are not their fields
OWN_JSON_KEYS = {
    DiffOperator: ["a"],
    EigenResult: ["degree", "eigenvalue_of_L", "lambda_ode_convention", "status", "monic",
                  "eigenspace_dim", "basis"],
    WeightExpr: ["constant", "power_factors", "quad_exp", "exp_poly", "arctan_coeff", "interval",
                 "formula"],
}
CACHED = [
    (cls, name) for cls in RECORDS for name, v in vars(cls).items()
    if isinstance(v, functools.cached_property)
]


def _defaulted(cls) -> list[str]:
    return [f for f in cls._fields if hasattr(cls, f)]


def test_every_record_class_has_a_sample():
    assert set(RECORDS) == set(SAMPLES) and len(_package_records()) == 14
    assert {cls for cls in RECORDS if hasattr(cls, "__post_init__")} == set(REFUSALS)
    assert {cls for cls in RECORDS if "to_json" in vars(cls)} == set(OWN_JSON_KEYS)
    assert CACHED == [
        (OperatorMatrix, "entries"), (WeightExpr, "_float_form"), (WeightExpr, "_pearson"),
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_positional_and_keyword_construction(self, cls):
        sample = SAMPLES[cls]()
        values = sample._values()
        assert type(sample) is cls and len(values) == len(cls._fields)
        assert cls(*values) == sample
        assert cls(**dict(zip(cls._fields, values))) == sample
        assert hash(cls(*values)) == hash(sample)
        assert repr(sample) == f"{cls.__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(cls._fields, values)) + ")"
        with pytest.raises(TypeError):
            cls(*values, None)  # one too many
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})  # given twice

    def test_defaults(self, cls):
        sample, defaulted = SAMPLES[cls](), _defaulted(cls)
        required = len(cls._fields) - len(defaulted)
        assert list(cls._fields[required:]) == defaulted  # defaults come last
        built = cls(*sample._values()[:required])
        for f in defaulted:
            assert getattr(built, f) is getattr(cls, f)
        if required:
            with pytest.raises(TypeError):
                cls(*sample._values()[: required - 1])

    def test_to_json_field_order(self, cls):
        data = SAMPLES[cls]().to_json()
        assert list(data) == OWN_JSON_KEYS.get(cls, list(cls._fields))
        assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("cls", list(REFUSALS), ids=lambda c: c.__name__)
def test_post_init_refusals(cls):
    args, message = REFUSALS[cls]
    with pytest.raises(ValueError, match=message):
        cls(*args)


@pytest.mark.parametrize("cls, name", CACHED, ids=lambda v: getattr(v, "__name__", v))
def test_cached_property(cls, name):
    used, fresh = SAMPLES[cls](), SAMPLES[cls]()
    value = getattr(used, name)
    assert getattr(used, name) is value and name in vars(used) and name not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)


def test_init_is_compiled_at_the_first_instance():
    class Triple(Record):
        a: int
        b: int = 2
        c: int = 3

    stub = Triple.__init__
    first = Triple(1, c=4)
    assert Triple.__init__ is not stub and Triple.__init__.__qualname__.endswith("Triple.__init__")
    assert Triple.__init__.__defaults__ == (2, 3)
    assert list(vars(first)) == ["a", "b", "c"] and first == Triple(1, 2, 4)
    with pytest.raises(TypeError):
        Triple()
