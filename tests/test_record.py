"""The Record contract: what the value types kept from frozen dataclasses."""

import functools
import json
from fractions import Fraction
from pathlib import Path

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
from test_payload_digests import family_grams, preset_grams, romanovski_reports


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


class Hidden(Record):
    a: object
    _b: object = None


DOUBLED = []  # each Doubled.twice computed, by its a


class Doubled(Record):
    a: int
    twice: int = functools.cached_property(lambda self: DOUBLED.append(self.a) or 2 * self.a)


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

    def test_underscore_field_is_stored_not_printed(self):
        # a stored field that to_json leaves out: an __init__ parameter, in ==, hash and repr
        assert Hidden._fields == ("a", "_b") and Hidden._keys == ("a",)
        hidden = Hidden(1, _b=2)
        assert hidden.to_json() == {"a": 1} and Hidden(1, 3).to_json() == hidden.to_json()
        assert hidden == Hidden(1, 2) and hash(hidden) == hash(Hidden(a=1, _b=2))
        assert hidden != Hidden(1, 3) and hidden != Hidden(1)
        assert repr(hidden) == "Hidden(a=1, _b=2)"
        with pytest.raises(AttributeError):
            hidden._b = 3

    def test_cached_property_is_a_computed_key(self):
        # printed, computed once on its first read, left out of ==, hash and repr, and no field
        assert Doubled._fields == ("a",) and Doubled._keys == ("a", "twice")
        DOUBLED.clear()
        doubled, fresh = Doubled(3), Doubled(3)
        assert "twice" not in vars(doubled) and DOUBLED == []
        assert doubled.to_json() == {"a": 3, "twice": 6} and doubled.twice == 6
        assert DOUBLED == [3] and vars(doubled)["twice"] == 6
        assert doubled == fresh and hash(doubled) == hash(fresh) and repr(doubled) == repr(fresh)
        assert "twice" not in repr(doubled)
        with pytest.raises(TypeError):
            Doubled(3, twice=6)
        with pytest.raises(AttributeError):
            doubled.twice = 7

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


ROMANOVSKI = lambda: finite_orthogonality_report(Fraction(-13, 2), 1, 3)
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
    RomanovskiReport: ROMANOVSKI,
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
# the annotated names whose class value is a property or a cached_property: printed by
# to_json, and no field
COMPUTED = [(cls, name) for cls in RECORDS for name in cls._keys if name not in cls._fields]


def _defaulted(cls) -> list[str]:
    return [f for f in cls._fields if hasattr(cls, f)]


def test_every_record_class_has_a_sample():
    assert set(RECORDS) == set(SAMPLES) and len(_package_records()) == 14
    assert {cls for cls in RECORDS if hasattr(cls, "__post_init__")} == set(REFUSALS)
    assert {cls for cls in RECORDS if "to_json" in vars(cls)} == set(OWN_JSON_KEYS)
    assert CACHED == [
        (OperatorMatrix, "entries"), (OrthoReport, "entries"), (OrthoReport, "notes"),
        (RomanovskiReport, "statuses"), (RomanovskiReport, "degenerate_degree_pairs"),
        (RomanovskiReport, "pairs"), (WeightExpr, "_float_form"), (WeightExpr, "_pearson"),
    ]


def test_stored_state_and_computed_keys():
    # ROADMAP aim 2's count of settable fields, and the keys derived from them
    assert sum(len(cls._fields) for cls in _package_records()) == 52
    assert COMPUTED == [
        (OperatorMatrix, "n"),
        (OrthoReport, "max_degree"),
        (OrthoReport, "entries"),
        (OrthoReport, "off_diagonal_max_relative"),
        (OrthoReport, "notes"),
        (RomanovskiPair, "err_est"),
        (RomanovskiReport, "gamma"),
        (RomanovskiReport, "max_degree"),
        (RomanovskiReport, "statuses"),
        (RomanovskiReport, "degenerate_degree_pairs"),
        (RomanovskiReport, "pairs"),
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
        assert list(data) == OWN_JSON_KEYS.get(cls, list(cls._keys))
        assert json.loads(json.dumps(data)) == data
        if cls not in OWN_JSON_KEYS:  # every field but the unprinted ones (underscore)
            assert {f for f in cls._fields if not f.startswith("_")} <= set(data)
            assert not any(k.startswith("_") for k in data)


@pytest.mark.parametrize("cls, name", COMPUTED, ids=lambda v: getattr(v, "__name__", v))
class TestComputedKey:
    def test_read_only_and_no_parameter(self, cls, name):
        sample = SAMPLES[cls]()
        value = getattr(sample, name)
        with pytest.raises(AttributeError):
            setattr(sample, name, value)
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields, sample._values())), **{name: value})
        assert (name in vars(sample)) == ((cls, name) in CACHED)  # a cached_property keeps it
        assert sample.to_json()[name] == SAMPLES[cls]().to_json()[name]

    def test_left_out_of_equality_hash_and_repr(self, cls, name, monkeypatch):
        a, b = SAMPLES[cls](), SAMPLES[cls]()
        shown = repr(a)
        monkeypatch.setattr(cls, name, property(lambda self: object()))  # never equal twice
        assert getattr(a, name) != getattr(b, name)
        assert a == b and hash(a) == hash(b) and repr(a) == shown
        assert f", {name}=" not in shown and f"({name}=" not in shown


def _replace(record, **changes):
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


def _edit(gram, pair, value):
    """gram with the router's answer to pair given value in place of its own (within the
    reach, where a pair the certified regime does not store is the certified zero)."""
    tol, route, certified, answers = gram._answer
    answered = dict(answers)
    answer = answered[pair] if certified is None else answered.get(pair, certified[0])
    answered[pair] = (value, *answer[1:])
    return _replace(gram, _answer=(tol, route, certified, tuple(answered.items())))


def test_report_equality():
    # the benchmark's repeat check compares two calls' reports: a report compares by what it
    # stores, the router's compact answer, which fixes every entry it prints, and a Romanovski
    # report by (alpha, beta) and that of its Gram report, which fix every key it prints
    chebyshev1 = lambda: gram_matrix(classical_presets()["chebyshev1"], 4)  # quadrature floats
    legendre = lambda: gram_matrix(classical_presets()["legendre"], 4)  # the certified regime
    for build in (chebyshev1, legendre, ROMANOVSKI):
        assert build() == build() and hash(build()) == hash(build())
    gram, rom = chebyshev1(), ROMANOVSKI()
    entry = gram.entries[1]
    assert (entry.m, entry.n, entry.method) == (0, 1, "quadrature")
    assert legendre()._answer[2] is not None and len(legendre()._answer[3]) == 5  # diagonals
    assert rom._gram._answer[2] is not None and len(rom._gram._answer[3]) == 4  # within reach 7
    for gram in (chebyshev1(), legendre(), rom._gram):
        for m, n in ((1, 1), (0, 1)):  # one diagonal, one off-diagonal value
            edited = _edit(gram, (m, n), gram.entry(m, n).value + 1)
            assert edited != gram and edited.entry(m, n).value == gram.entry(m, n).value + 1
            assert edited.to_json() != gram.to_json()
        assert _replace(gram, degrees=gram.degrees[:-1]) != gram  # one degree
        assert _replace(gram, _notes=("x",)) != gram
    for m, n in ((1, 1), (0, 1)):  # a Romanovski report through its Gram report's answer
        edited = _replace(rom, _gram=_edit(rom._gram, (m, n), rom._gram.entry(m, n).value + 1))
        assert edited != rom
    assert edited.pairs[0].verdict == "inconclusive" and rom.pairs[0].verdict == "orthogonal"
    assert _replace(rom, alpha=rom.alpha - 1) != rom


def _golden_reports() -> list:
    golden = Path(__file__).parent / "golden"
    paths = [*golden.glob("gram-*.txt"), *golden.glob("romanovski-report-*.txt")]
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(paths)
            if not p.stem.endswith("-table")]


# every committed JSON report, and the reports of the payload digests' groups
REPORT_SOURCES = {
    "golden": _golden_reports,
    "preset-grams": lambda: [payload for _, _, payload in preset_grams()],
    "family-grams": lambda: [payload for _, payload in family_grams()],
    "romanovski-reports": lambda: [row[3] for row in romanovski_reports()],
}


@pytest.mark.parametrize("source", REPORT_SOURCES)
def test_computed_keys_print_what_was_stored(source):
    # each computed key's value from the stored fields it now reads, over reports
    # that the golden files and payload digests pin byte for byte
    reports = [r for r in REPORT_SOURCES[source]() if isinstance(r, dict)]  # not refusals
    assert len(reports) >= 3
    for rep in reports:
        if "gamma" in rep:  # a Romanovski report
            assert Fraction(rep["gamma"]) == Fraction(rep["alpha"]) - 2
            assert rep["max_degree"] == len(rep["statuses"]) - 1
            assert all(p["err_est"] is None for p in rep["pairs"])
        else:
            assert rep["max_degree"] == max(rep["degrees"], default=0)
            rels = [e["relative"] for e in rep["entries"]
                    if e["m"] != e["n"] and e["relative"] is not None]
            assert rep["off_diagonal_max_relative"] == max(rels, default=None)


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
