"""The four workloads: seeded inputs, the call each input makes, and the
checks on its output.

A workload is a fixed batch of cases drawn from the seed, in a fixed order
of shapes (the seed changes parameters, not the order).  The first case
has no seeded parameters where the workload has such a case, so the
untimed warm-up call on it costs the same whatever the seed.  A run
executes whole rounds of that batch, so every run attempts the same mix
of calls.
Each check compares an output with a value the benchmark computes itself
(``exact.py``) or with a property the method must have; the program's own
code is never the reference.  Parameters come from regions where every
call succeeds today; the regions left out are listed in the README.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import subprocess
from dataclasses import dataclass, field
from fractions import Fraction as F

import exact as ex

EIGEN_DEGREE = 20
GRAM_EXACT_JACOBI_DEGREE = 8
GRAM_EXACT_CQ_DEGREE = 10
QUADRATURE_DEGREE = 6
QUAD_REL_TOL = 1e-8

# Parameter grids for the quadrature calls.  Every point was run through
# gram_matrix / finite_orthogonality_report and passes the checks, so no
# seed can draw a call that fails.
_NONINT_EXPONENTS = [F(p, q) for p, q in (
    (-3, 4), (-2, 3), (-1, 2), (-1, 3), (-1, 4), (1, 4), (1, 3), (1, 2),
    (2, 3), (3, 4), (5, 4), (4, 3), (3, 2), (5, 3), (7, 4))]
_HERMITE_A = [F(-2), F(-9, 4), F(-7, 3), F(-5, 2), F(-8, 3), F(-11, 4), F(-3)]
_HERMITE_B = [s * F(p, q) for s in (1, -1) for p, q in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1))]
_ROMANOVSKI_ALPHA = [F(-29, 4), F(-22, 3), F(-15, 2), F(-23, 3), F(-31, 4)]
_ROMANOVSKI_BETA = [s * F(p, q) for s in (1, -1) for p, q in ((1, 3), (1, 2), (2, 3), (1, 1), (3, 2))]
_CLI_ROMANOVSKI_ALPHA = [F(-13, 2), F(-20, 3), F(-27, 4), F(-19, 3), F(-25, 4)]


@dataclass
class Case:
    kind: str
    label: str
    degree: int
    family: str = ""
    eps: int = -1
    alpha: F = F(0)
    beta: F = F(0)
    preset: str = ""
    argv: tuple = ()
    extra: dict = field(default_factory=dict)
    arg: object = None  # the specpoly input, built at set-up

    @property
    def ab(self) -> tuple[list, list]:
        return ex.family_coefficients(self.family, self.eps, self.alpha, self.beta)


PRESETS = {
    "legendre": ("jacobi", -1, F(-2), F(0)),
    "chebyshev1": ("jacobi", -1, F(-1), F(0)),
    "chebyshev2": ("jacobi", -1, F(-3), F(0)),
    "hermite": ("hermite", -1, F(-2), F(0)),
    "laguerre": ("laguerre", -1, F(-1), F(1)),
    "chaudhry-qadir": ("chaudhry-qadir", -1, F(0), F(0)),
}


def _preset_case(kind: str, name: str, degree: int) -> Case:
    family, eps, alpha, beta = PRESETS[name]
    return Case(kind, name, degree, family, eps, alpha, beta, preset=name)


def _rational(rng: random.Random, lo: int, hi: int) -> F:
    """A non-integer p/q in [lo, hi] with a small denominator."""
    while True:
        q = rng.randint(2, 7)
        value = F(rng.randint(lo * q, hi * q), q)
        if value.denominator != 1:
            return value


def _family_case(kind: str, family: str, eps: int, alpha: F, beta: F, degree: int) -> Case:
    label = f"{family}(eps={eps:+d}, alpha={alpha}, beta={beta})" if family == "jacobi" else (
        f"{family}(alpha={alpha}, beta={beta})")
    return Case(kind, label, degree, family, eps, alpha, beta)


def _jacobi_from_exponents(kind: str, a: F, b: F, degree: int) -> Case:
    """Jacobi operator whose weight is (1-x)^a (1+x)^b."""
    case = _family_case(kind, "jacobi", -1, -2 - a - b, b - a, degree)
    case.extra["exponents"] = (a, b)
    return case


# ---------------------------------------------------------------------------
# inputs


def eigen_cases(rng: random.Random) -> list[Case]:
    """20 eigentables at degree 20.  mu_j = a2 j(j-1) + alpha j repeats when
    alpha = -a2 (j+k-1); the degrees above (j+k)/2 then fall back to the
    exact kernel.  Five cases (25%, the slow class) collide with beta != 0,
    where every collision is defective and costs 2-3x a normal call.  One
    collides with beta = 0: the operator is parity-symmetric, collisions at
    odd k - j are degenerate (dimension 2), and the call costs like a
    normal one."""
    n = EIGEN_DEGREE
    cases = [_preset_case("eigen", name, n) for name in ("legendre", "hermite", "laguerre", "chaudhry-qadir")]
    for family, count in (("jacobi", 3), ("laguerre", 3), ("hermite", 3), ("romanovski", 1)):
        for _ in range(count):
            cases.append(_family_case("eigen", family, -1, _rational(rng, -6, 6), _rational(rng, -6, 6), n))
    for family, a2, beta in (("romanovski", 1, F(0)), ("jacobi", -1, None), ("jacobi", -1, None),
                             ("jacobi", -1, None), ("romanovski", 1, None), ("romanovski", 1, None)):
        # j + k = n + 1: the ten degrees (n+1)/2 < k <= n collide
        beta = _rational(rng, -6, 6) if beta is None else beta
        cases.append(_family_case("eigen", family, -1, F(-a2 * n), beta, n))
    return cases


def gram_exact_cases(rng: random.Random) -> list[Case]:
    """15 Jacobi weights (1-x)^a (1+x)^b with integer a + b = 3 at degree 8,
    5 chaudhry-qadir at degree 10; both cost about the same per call."""
    cases = [_preset_case("gram-exact", "chaudhry-qadir", GRAM_EXACT_CQ_DEGREE) for _ in range(5)]
    for _ in range(15):
        a = rng.randint(0, 3)
        cases.append(_jacobi_from_exponents("gram-exact", F(a), F(3 - a), GRAM_EXACT_JACOBI_DEGREE))
    return cases


def gram_quadrature_cases(rng: random.Random) -> list[Case]:
    """7 Jacobi Gram matrices with non-integer exponents, 7 Hermite Gram
    matrices, 6 Romanovski reports, all at degree 6.  The first is the
    Chebyshev weight (1-x^2)^(-1/2) for every seed."""
    n = QUADRATURE_DEGREE
    cases = [_jacobi_from_exponents("gram-quadrature", F(-1, 2), F(-1, 2), n)]
    for _ in range(6):
        a, b = rng.choice(_NONINT_EXPONENTS), rng.choice(_NONINT_EXPONENTS)
        cases.append(_jacobi_from_exponents("gram-quadrature", a, b, n))
    for _ in range(7):
        cases.append(_family_case("gram-quadrature", "hermite", -1,
                                  rng.choice(_HERMITE_A), rng.choice(_HERMITE_B), n))
    for _ in range(6):
        cases.append(_family_case("romanovski", "romanovski", -1,
                                  rng.choice(_ROMANOVSKI_ALPHA), rng.choice(_ROMANOVSKI_BETA), n))
    return cases


def cli_cases(rng: random.Random) -> list[Case]:
    """The six commands at the sizes of the README examples, JSON output."""
    spectrum = _preset_case("cli", rng.choice(sorted(PRESETS)), 4)
    spectrum.argv = ("spectrum", "--preset", spectrum.preset, "--n-max", "4")
    eigenfns = _preset_case("cli", rng.choice(["legendre", "hermite", "laguerre"]), 8)
    eigenfns.argv = ("eigenfns", "--preset", eigenfns.preset, "--n-max", "8")
    weight = _family_case("cli", "romanovski", -1, rng.choice(_CLI_ROMANOVSKI_ALPHA),
                          rng.choice(_ROMANOVSKI_BETA), 0)
    weight.argv = ("weight", "--family", "romanovski", "--alpha", str(weight.alpha),
                   "--beta", str(weight.beta))
    gram = _jacobi_from_exponents("cli", F(rng.randint(0, 1)), F(rng.randint(0, 1)), 8)
    gram.argv = ("gram", "--family", "jacobi", "--alpha", str(gram.alpha), "--beta",
                 str(gram.beta), "--n-max", "8")
    report = _family_case("cli", "romanovski", -1, rng.choice(_CLI_ROMANOVSKI_ALPHA),
                          rng.choice(_ROMANOVSKI_BETA), 5)
    report.argv = ("romanovski-report", "--alpha", str(report.alpha), "--beta",
                   str(report.beta), "--n-max", "5")
    # c (x - r1)(x - r2) y'' + (b1 x + b0) y' with rational roots r1 < r2
    r1 = F(rng.randint(-6, 2), rng.randint(1, 3))
    r2 = r1 + F(rng.randint(1, 6), rng.randint(1, 3))
    c = rng.choice([-2, -1, F(-1, 2), F(1, 3), 1, 3])
    op_a = ex.scale(ex.mul([-r1, F(1)], [-r2, F(1)]), F(c))
    op_b = [_rational(rng, -3, 3), _rational(rng, -3, 3)]
    normalize = Case("cli", "normalize", 0, extra={"a": op_a, "b": op_b})
    normalize.argv = ("normalize", "--operator-json", "OPERATOR_JSON")
    cases = [spectrum, eigenfns, weight, gram, report, normalize]
    for case in cases:
        case.label = " ".join(case.argv)
    return cases


# ---------------------------------------------------------------------------
# checks on JSON-shaped payloads; each returns None or the reason it failed


def _poly(strings) -> list:
    return ex.trim([F(s) for s in strings])


def check_eigen_rows(case: Case, rows: list, n: int) -> str | None:
    a, b = case.ab
    if len(rows) != n + 1:
        return f"{len(rows)} rows for degrees 0..{n}"
    recurrence = None
    if case.preset in ex.PRESET_RECURRENCES:
        recurrence = ex.three_term(n, *ex.PRESET_RECURRENCES[case.preset])
    mus = [ex.eigenvalue(a, b, j) for j in range(n + 1)]
    for j, row in enumerate(rows):
        err = _check_eigen_row(a, b, j, mus, row, recurrence)
        if err:
            return f"degree {j}: {err}"
    return None


def _check_eigen_row(a, b, j, mus, row, recurrence) -> str | None:
    mu = mus[j]
    if row["degree"] != j:
        return f"degree field {row['degree']}"
    if F(row["eigenvalue_of_L"]) != mu or F(row["lambda_ode_convention"]) != -mu:
        return "eigenvalue differs from the closed-form diagonal"
    if mu in mus[:j]:
        dim, has_degree_j = ex.kernel_facts(a, b, j)
        if not has_degree_j:
            status = "NoDegreeNEigenfunction"
        else:
            status = "Degenerate" if dim >= 2 else "UniqueMonic"
    else:
        dim, status = 1, "UniqueMonic"
    if row["status"] != status or row["eigenspace_dim"] != dim:
        return f"{row['status']} dim {row['eigenspace_dim']}, expected {status} dim {dim}"
    basis = [_poly(p) for p in row["basis"]]
    if len(basis) != dim or any(len(p) > j + 1 for p in basis):
        return "basis size or degree is wrong"
    if ex.rank([p + [F(0)] * (j + 1 - len(p)) for p in basis]) != dim:
        return "basis is linearly dependent"
    if any(ex.apply_op(a, b, p) != ex.scale(p, mu) for p in basis):
        return "a basis vector is not an eigenvector"
    if status == "NoDegreeNEigenfunction":
        return None if row["monic"] is None else "monic given where none exists"
    p = _poly(row["monic"])
    if len(p) != j + 1 or p[-1] != 1:
        return "not monic of its degree"
    if ex.apply_op(a, b, p) != ex.scale(p, mu):
        return "L y != mu y"
    if recurrence is not None and p != recurrence[j]:
        return "differs from the three-term recurrence"
    return None


def _entries(rep: dict, degrees: list) -> dict | str:
    got = {(e["m"], e["n"]): e for e in rep["entries"]}
    want = [(m, n) for i, m in enumerate(degrees) for n in degrees[i:]]
    if sorted(got) != want:
        return "Gram entries do not cover every pair of degrees"
    if rep["degrees"] != degrees:
        return f"degrees {rep['degrees']}"
    return got


def _cq_norm(n: int) -> F:
    """integral_0^1 p_n(t)^2 / (1 - t) dt with p_n solved here."""
    a, b = ex.family_coefficients("chaudhry-qadir", -1, 0, 0)
    p = ex.monic_eigenfunction(a, b, n)
    return -ex.integrate(ex.divide_by_root(ex.mul(p, p), 1), 0, 1)


def check_gram_exact(case: Case, rep: dict) -> str | None:
    n = case.degree
    cq = case.family == "chaudhry-qadir"
    degrees = list(range(1, n + 1)) if cq else list(range(n + 1))
    entries = _entries(rep, degrees)
    if isinstance(entries, str):
        return entries
    for (m, k), e in entries.items():
        if e["method"] != "exact" or not e["integrable"]:
            return f"({m},{k}) took route {e['method']}"
        if m != k:
            if e["value"] != "0" or e["relative"] != 0.0:
                return f"off-diagonal ({m},{k}) = {e['value']} is not exactly 0"
            continue
        if cq:
            want = _cq_norm(m)
        else:
            ea, eb = case.extra["exponents"]
            want = ex.jacobi_norm_exact(m, int(ea), int(eb))
        if F(e["value"]) != want:
            return f"diagonal ({m},{m}) = {e['value']}, expected {want}"
    if rep["off_diagonal_max_relative"] != 0.0:
        return "off_diagonal_max_relative is not 0"
    return None


def check_gram_quadrature(case: Case, rep: dict) -> str | None:
    n = case.degree
    entries = _entries(rep, list(range(n + 1)))
    if isinstance(entries, str):
        return entries
    for (m, k), e in entries.items():
        if e["method"] != "quadrature" or not e["integrable"] or not isinstance(e["value"], float):
            return f"({m},{k}) took route {e['method']}"
        if m != k:
            if e["relative"] is None or not e["relative"] <= QUAD_REL_TOL:
                return f"off-diagonal ({m},{k}) relative {e['relative']} > {QUAD_REL_TOL}"
            continue
        if case.family == "hermite":
            want = ex.hermite_norm(m, float(case.alpha), float(case.beta))
        else:
            ea, eb = case.extra["exponents"]
            want = ex.jacobi_norm_float(m, float(ea), float(eb))
        if not ex.rel_diff(e["value"], want) <= QUAD_REL_TOL:
            return f"diagonal ({m},{m}) = {e['value']!r}, expected {want!r}"
    if not rep["off_diagonal_max_relative"] <= QUAD_REL_TOL:
        return "off_diagonal_max_relative above tolerance"
    return None


def check_romanovski(case: Case, rep: dict) -> str | None:
    n, alpha, beta = case.degree, case.alpha, case.beta
    gamma = alpha - 2
    if (F(rep["alpha"]), F(rep["beta"]), F(rep["gamma"])) != (alpha, beta, gamma):
        return "alpha/beta/gamma fields"
    a, b = case.ab
    mus = [ex.eigenvalue(a, b, j) for j in range(n + 1)]
    statuses = []
    for j in range(n + 1):
        if mus[j] not in mus[:j]:
            statuses.append("UniqueMonic")
            continue
        dim, has_degree_j = ex.kernel_facts(a, b, j)
        statuses.append("Degenerate" if has_degree_j and dim >= 2 else
                        "UniqueMonic" if has_degree_j else "NoDegreeNEigenfunction")
    if rep["statuses"] != statuses:
        return f"statuses {rep['statuses']}"
    collisions = [[i, j] for j in range(n + 1) for i in range(j) if mus[i] == mus[j]]
    if sorted(rep["degenerate_degree_pairs"]) != collisions:
        return "degenerate_degree_pairs"
    pairs = {(p["m"], p["n"]): p for p in rep["pairs"]}
    if sorted(pairs) != [(m, k) for m in range(n + 1) for k in range(m + 1, n + 1)]:
        return "pairs do not cover every m < n"
    for (m, k), p in pairs.items():
        if m + k + gamma + 1 >= 0:
            want = "non-integrable"
        elif mus[m] == mus[k]:
            want = "degenerate-pair"
        elif "NoDegreeNEigenfunction" in (statuses[m], statuses[k]):
            want = "inconclusive"
        else:
            want = "orthogonal"
        if p["verdict"] != want:
            return f"pair ({m},{k}) is {p['verdict']}, expected {want}"
        if want == "orthogonal" and not (p["relative"] is not None and p["relative"] <= QUAD_REL_TOL):
            return f"pair ({m},{k}) relative {p['relative']} > {QUAD_REL_TOL}"
    return None


def _check_operator_json(op: dict, a: list, b: list) -> str | None:
    got = [_poly(c) for c in op["a"]]
    if got != [[], b, a]:
        return "operator coefficients"
    return None


def check_spectrum(case: Case, out: dict) -> str | None:
    a, b = case.ab
    n = case.degree
    if out["n_max"] != n:
        return "n_max"
    err = _check_operator_json(out["operator"], a, b)
    if err:
        return err
    mus = [ex.eigenvalue(a, b, j) for j in range(n + 1)]
    rows = out["spectrum"]
    if [(r["degree"], F(r["eigenvalue_of_L"]), F(r["lambda_ode_convention"])) for r in rows] != [
            (j, mu, -mu) for j, mu in enumerate(mus)]:
        return "spectrum differs from the closed-form diagonal"
    if out["distinct"] != (len(set(mus)) == len(mus)):
        return "distinct flag"
    mult = {F(m["eigenvalue_of_L"]): m["degrees"] for m in out["multiplicity"]}
    if mult != {mu: [j for j in range(n + 1) if mus[j] == mu] for mu in mus}:
        return "multiplicity"
    return None


def check_weight(case: Case, out: dict) -> str | None:
    # (p a)' = p b with a = x^2 + 1, b = alpha x + beta forces
    # p = (x^2+1)^((alpha-2)/2) exp(beta arctan x) on the real line
    want = {
        "power_factors": [],
        "quad_exp": F(case.alpha - 2, 2),
        "exp_poly": [],
        "arctan_coeff": case.beta,
        "interval": {"lo": None, "hi": None},
    }
    got = {
        "power_factors": out["power_factors"],
        "quad_exp": F(out["quad_exp"]),
        "exp_poly": _poly(out["exp_poly"]),
        "arctan_coeff": F(out["arctan_coeff"]),
        "interval": out["interval"],
    }
    if got != want:
        return f"weight {got}, expected {want}"
    if F(out["constant"]) != 1 or not (out["pearson"]["ok"] and out["pearson"]["symbolic_zero"]):
        return "constant or Pearson verdict"
    return None


def check_normalize(case: Case, out: dict) -> str | None:
    a, b = case.extra["a"], case.extra["b"]
    s, t, c = F(out["s"]), F(out["t"]), F(out["c"])
    if out["normal_form"] != "x^2-1" or s <= 0:
        return "normal form or scale sign"
    if ex.compose(a, s, t) != ex.scale([F(-1), F(0), F(1)], c):
        return "a(s u + t) != c (u^2 - 1)"
    if F(out["eigenvalue_scale"]) != s * s / c:
        return "eigenvalue_scale"
    want = [ex.scale(ex.compose(p, s, t), s * s / (c * s**k)) for k, p in enumerate(([], b, a))]
    if [_poly(p) for p in out["operator"]["a"]] != want:
        return "normalized operator"
    return None


# ---------------------------------------------------------------------------
# wrong answers for the self-test: each must be rejected by its check


def _changed(payload, edit) -> object:
    wrong = copy.deepcopy(payload)
    edit(wrong)
    return wrong


def perturb_eigen_rows(rows: list) -> list:
    def coefficient(w):
        poly = w[-1]["monic"] or w[-1]["basis"][0]
        poly[0] = str(F(poly[0]) + F(1, 10**6))

    def eigenvalue(w):
        w[-1]["eigenvalue_of_L"] = str(F(w[-1]["eigenvalue_of_L"]) + 1)

    def status(w):
        w[-1]["status"] = "Degenerate" if w[-1]["status"] != "Degenerate" else "UniqueMonic"

    return [("coefficient changed by 1e-6", _changed(rows, coefficient)),
            ("eigenvalue changed", _changed(rows, eigenvalue)),
            ("status changed", _changed(rows, status))]


def perturb_gram(rep: dict) -> list:
    def diagonal(w):
        e = next(e for e in w["entries"] if e["m"] == e["n"])
        if isinstance(e["value"], str):
            e["value"] = str(F(e["value"]) * (1 + F(1, 10**6)))
        else:
            e["value"] *= 1 + 1e-6

    def off_diagonal(w):
        e = next(e for e in w["entries"] if e["m"] != e["n"])
        if isinstance(e["value"], str):
            e["value"] = str(F(1, 10**6))
        else:
            e["relative"] = 1e-6

    return [("diagonal off by 1e-6", _changed(rep, diagonal)),
            ("off-diagonal entry 1e-6", _changed(rep, off_diagonal))]


def perturb_romanovski(rep: dict) -> list:
    def relative(w):
        next(p for p in w["pairs"] if p["verdict"] == "orthogonal")["relative"] = 1e-6

    def verdict(w):
        p = w["pairs"][-1]
        p["verdict"] = "orthogonal" if p["verdict"] != "orthogonal" else "inconclusive"

    return [("orthogonal pair with relative 1e-6", _changed(rep, relative)),
            ("verdict flipped", _changed(rep, verdict))]


# ---------------------------------------------------------------------------
# workloads


class LibraryWorkload:
    """Calls into specpoly from the benchmark process."""

    def __init__(self, name: str, make_cases, calls_per_s: float):
        self.name = name
        self.make_cases = make_cases
        self.calls_per_s = calls_per_s

    def cases(self, seed: int) -> list[Case]:
        return self.make_cases(random.Random(f"{self.name}:{seed}"))

    def prepare(self, cases: list[Case], sp, env) -> None:
        for case in cases:
            if case.family == "chaudhry-qadir":
                case.arg = sp.FamilySpec.chaudhry_qadir()
            else:
                case.arg = getattr(sp.FamilySpec, case.family)(
                    *((case.eps,) if case.family == "jacobi" else ()), case.alpha, case.beta)

    def call(self, case: Case, sp):
        if case.kind == "eigen":
            return sp.eigentable(sp.build_operator(case.arg), case.degree)
        if case.kind == "romanovski":
            return sp.finite_orthogonality_report(case.alpha, case.beta, case.degree)
        return sp.gram_matrix(case.arg, case.degree)

    def payload(self, case: Case, out):
        if case.kind == "eigen":
            return [r.to_json() for r in out]
        return out.to_json()

    def check(self, case: Case, payload) -> str | None:
        if case.kind == "eigen":
            return check_eigen_rows(case, payload, case.degree)
        if case.kind == "romanovski":
            return check_romanovski(case, payload)
        if case.kind == "gram-exact":
            return check_gram_exact(case, payload)
        return check_gram_quadrature(case, payload)

    def perturbations(self, case: Case, payload) -> list:
        """Wrong answers the check must reject (for the self-test)."""
        if case.kind == "eigen":
            return perturb_eigen_rows(payload)
        if case.kind == "romanovski":
            return perturb_romanovski(payload)
        return perturb_gram(payload)


# Runs one command as a child and prints the child's peak RSS in KiB.  A
# child's ru_maxrss counts the RSS of the process that spawned it, so the
# worker (about 20 MB) cannot measure a CLI call (about 16 MB) itself; this
# launcher, started with -S, holds about 8 MB.
_RSS_LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); "
    "print(os.wait4(pid, 0)[2].ru_maxrss)")


class CliWorkload:
    """Sequential `python -m specpoly` runs, one process per call."""

    name = "cli"
    calls_per_s = 6.0

    def __init__(self, root, out_dir, python: str):
        self.root = root
        self.out_dir = out_dir
        self.python = python
        self.env: dict = {}
        self.in_process = False

    def cases(self, seed: int) -> list[Case]:
        self.seed = seed
        return cli_cases(random.Random(f"{self.name}:{seed}"))

    def prepare(self, cases: list[Case], sp, env) -> None:
        self.env = env
        for case in cases:
            if "OPERATOR_JSON" in case.argv:
                path = self.out_dir / f"operator-seed{self.seed}.json"
                a, b = case.extra["a"], case.extra["b"]
                path.write_text(json.dumps({"a": [["0"], [str(c) for c in b], [str(c) for c in a]]}))
                case.argv = tuple(str(path.relative_to(self.root)) if x == "OPERATOR_JSON" else x
                                  for x in case.argv)
                case.label = " ".join(case.argv)

    def call(self, case: Case, sp):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = sp.cli.main(list(case.argv))
            return code, buf.getvalue().encode()
        proc = subprocess.run([self.python, "-m", "specpoly", *case.argv], cwd=self.root,
                              env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    def peak_rss_mb(self, cases: list[Case]) -> float:
        """The largest peak RSS of one CLI call over the batch, each call
        run once more under the small launcher, outside the timed rounds."""
        peaks = []
        for case in cases:
            proc = subprocess.run(
                [self.python, "-S", "-c", _RSS_LAUNCHER, self.python, "-m", "specpoly", *case.argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
                text=True, timeout=60, check=True)
            peaks.append(int(proc.stdout) / 1024.0)
        return max(peaks)

    def payload(self, case: Case, out):
        return out

    def check(self, case: Case, payload) -> str | None:
        code, stdout = payload
        if code != 0:
            return f"exit code {code}"
        try:
            out = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        command = case.argv[0]
        if command == "spectrum":
            return check_spectrum(case, out)
        if command == "eigenfns":
            if out["n_max"] != case.degree:
                return "n_max"
            return _check_operator_json(out["operator"], *case.ab) or check_eigen_rows(
                case, out["eigenfunctions"], case.degree)
        if command == "weight":
            return check_weight(case, out)
        if command == "gram":
            return check_gram_exact(case, out)
        if command == "romanovski-report":
            return check_romanovski(case, out)
        return check_normalize(case, out)

    def perturbations(self, case: Case, payload) -> list:
        code, stdout = payload
        out = json.loads(stdout)
        command = case.argv[0]
        if command == "eigenfns":
            wrong = [dict(out, eigenfunctions=rows) for _, rows in perturb_eigen_rows(out["eigenfunctions"])]
        elif command == "gram":
            wrong = [rep for _, rep in perturb_gram(out)]
        elif command == "romanovski-report":
            wrong = [rep for _, rep in perturb_romanovski(out)]
        else:
            field_name = {"spectrum": "spectrum", "weight": "quad_exp", "normalize": "s"}[command]
            wrong = [_changed(out, lambda w: _bump(w, field_name))]
        bad = [("exit code 1", (1, stdout)), ("truncated stdout", (0, stdout[: len(stdout) // 2]))]
        bad += [(f"changed content {i}", (0, json.dumps(w, indent=2).encode() + b"\n"))
                for i, w in enumerate(wrong)]
        return bad


def _bump(out: dict, field_name: str) -> None:
    if field_name == "spectrum":
        out["spectrum"][-1]["eigenvalue_of_L"] = str(F(out["spectrum"][-1]["eigenvalue_of_L"]) + 1)
    else:
        out[field_name] = str(F(out[field_name]) + F(1, 10**6))


WORKLOADS = {
    "eigen-deep": lambda root, out_dir, python: LibraryWorkload("eigen-deep", eigen_cases, 9.0),
    "gram-exact": lambda root, out_dir, python: LibraryWorkload("gram-exact", gram_exact_cases, 22.0),
    "gram-quadrature": lambda root, out_dir, python: LibraryWorkload(
        "gram-quadrature", gram_quadrature_cases, 15.0),
    "cli": CliWorkload,
}


def call_count(workload, batch: int, seconds: int) -> int:
    """Whole rounds: at least 100 calls, else the calls that fill `seconds`
    at the workload's nominal rate on the reference machine."""
    calls = max(100, math.ceil(workload.calls_per_s * seconds))
    return math.ceil(calls / batch) * batch


def self_test_cases(cases: list[Case]) -> list[Case]:
    """One case of each shape in the batch: kind, family, preset, collision."""
    seen, picked = set(), []
    for case in cases:
        key = (case.kind, case.family, case.preset, case.alpha.denominator == 1, case.argv[:1])
        if key not in seen:
            seen.add(key)
            picked.append(case)
    return picked
