"""The Record contract: what the value types kept from frozen dataclasses."""

from fractions import Fraction

import pytest

from specpoly import (
    FamilyKind,
    FamilySpec,
    GramEntry,
    Interval,
    Poly,
    PowerFactor,
    WeightExpr,
    build_operator,
    classical_presets,
    derive_weight,
)
from specpoly._record import Record
from specpoly.weights import BoundaryVerdict, IntegrabilityVerdict


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
