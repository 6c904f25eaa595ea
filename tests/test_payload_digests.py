"""Byte identity of the library's JSON payloads, as one sha256 per group.

A fixed corpus, drawn from one seed per group, is turned into the ``to_json()``
payloads the CLI prints (or the refusal's type and text, where a call raises), and
each group's payloads are hashed as one JSON document.  The golden CLI files pin
small degrees only; these groups reach degree 40 and a few hundred operators:

* ``preset-operators``: each classical preset's operator, spectrum, weight with its
  Pearson verdict, and eigentable at degrees 0..40;
* ``preset-grams``: each preset's Gram matrix at every n_max in 0..40, except on the
  three presets that take quadrature, at n_max 0, 5, 10, 20 and 40 (chebyshev1,
  chebyshev2) or 30 (hermite, whose sweep at 40 runs its whole level budget before
  it refuses);
* ``family-grams``: 200 seeded Gram matrices, 50 each of Jacobi (integer and
  non-integer exponents), Laguerre, Romanovski (near and past the reach) and
  chaudhry-qadir-type operators c (x - r1)(x - r2) D^2 + b D whose weight has an
  exponent <= -1 at an end, where the eigenfunctions are divided;
* ``romanovski-reports``: 60 seeded finite orthogonality reports;
* ``eigentables``: 80 seeded operators of orders 1-4, each with a forced eigenvalue
  collision, and their eigentables.

Quadrature and moment entries are floats computed through libm, so a group that
holds them is pinned to the platform the digests were made on (Linux, glibc,
x86-64), where CPython 3.10 through 3.13 give the same five digests.  A change
that alters one byte of one payload changes its group's digest:
``test_digest_sees_one_ulp_and_one_fraction`` plants both faults.

A change that alters output on purpose updates the digests it moves, as with the
golden files, and says which groups moved and why.  To print the table, run
``PYTHONPATH=src python tests/test_payload_digests.py``.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from specpoly import (
    DiffOperator,
    FamilySpec,
    Poly,
    build_operator,
    classical_presets,
    derive_weight,
    eigentable,
    finite_orthogonality_report,
    gram_matrix,
    pearson_check,
)

DIGESTS = {
    "preset-operators": "6accef17adc55707863f92a0532d3e2a467de605fde9efa436816bbd777ffa49",
    "preset-grams": "8d68a14373eef5a3006faadb56438314e5389b17ad939ddd9fe11fc4ade0c6b0",
    "family-grams": "5f122ccdcf3c5a83ff679818df7723fbe0c4241a24fd91c9a17b70c824a02451",
    "romanovski-reports": "8b28a8ad98f10e71dc904e66958d2e4be715552923056a348463f189300887e4",
    "eigentables": "fde2450bb1ca3561915946f7823c60fcd87fe687c53b51a2d5e44de647bf23c9",
}

QUADRATURE_PRESETS = {"chebyshev1": (0, 5, 10, 20, 40), "chebyshev2": (0, 5, 10, 20, 40),
                      "hermite": (0, 5, 10, 20, 30)}


def _payload(call):
    """call()'s JSON payload, or its refusal as "Type: text"."""
    try:
        return call()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _weight(op: DiffOperator):
    a, b = op.coeffs[2], op.coeffs[1]
    weight = derive_weight(a, b)
    ok = pearson_check(weight, a, b)
    return {**weight.to_json(), "pearson": {"ok": ok, "symbolic_zero": ok}}


def _rat(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def preset_operators() -> list:
    out = []
    for name, spec in classical_presets().items():
        op = build_operator(spec)
        out.append([
            name,
            op.to_json(),
            op.spectrum(40).to_json(),
            _payload(lambda: _weight(op)),
            [r.to_json() for r in eigentable(op, 40)],
        ])
    return out


def preset_grams() -> list:
    out = []
    for name, spec in classical_presets().items():
        sizes = QUADRATURE_PRESETS.get(name, range(41))
        out.extend([name, n, _payload(lambda: gram_matrix(spec, n).to_json())] for n in sizes)
    return out


def family_grams() -> list:
    rng = random.Random(1701)
    calls = []  # (label, Gram function, its first argument, n_max)
    for _ in range(50):  # Jacobi on (-1, 1): half of them with integer exponents
        if rng.random() < 0.5:
            alpha, beta = Fraction(-2 * rng.randint(1, 5)), Fraction(rng.randint(-4, 4))
        else:
            alpha, beta = _rat(rng, 9, 4), _rat(rng, 9, 4)
        spec = FamilySpec.jacobi(-1, alpha, beta)
        calls.append((spec.describe(), gram_matrix, spec, rng.randint(0, 8)))
    for _ in range(50):
        spec = FamilySpec.laguerre(_rat(rng, 5, 3) or Fraction(-1), _rat(rng, 9, 4))
        calls.append((spec.describe(), gram_matrix, spec, rng.randint(0, 12)))
    for _ in range(50):
        spec = FamilySpec.romanovski(_rat(rng, 30, 4), _rat(rng, 9, 2))
        calls.append((spec.describe(), gram_matrix, spec, rng.randint(0, 14)))
    for _ in range(50):  # weight |x - r1|^E1 |x - r2|^E2 on (r1, r2), integer E_i in -4..2
        r1 = _rat(rng, 6, 3)
        r2 = r1 + Fraction(rng.randint(1, 6), rng.randint(1, 3))
        e1, e2 = rng.randint(-4, 2), rng.randint(-4, 2)
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(3, 2)])
        a = c * Poly((-r1, 1)) * Poly((-r2, 1))
        b = c * ((e1 + 1) * Poly((-r2, 1)) + (e2 + 1) * Poly((-r1, 1)))
        op = DiffOperator([Poly(), b, a])
        calls.append((op.to_json(), gram_matrix, op, rng.randint(0, 10)))
    return [[label, _payload(lambda: gram(arg, n).to_json())] for label, gram, arg, n in calls]


def romanovski_reports() -> list:
    rng = random.Random(1702)
    out = []
    for _ in range(60):
        alpha, beta, n = _rat(rng, 24, 4), _rat(rng, 9, 2), rng.randint(0, 12)
        report = _payload(lambda: finite_orthogonality_report(alpha, beta, n).to_json())
        out.append([str(alpha), str(beta), n, report])
    return out


def _falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1))


def collision_operators() -> list[tuple[DiffOperator, int]]:
    """Operators sum_k a_k D^k of orders 1-4, deg a_k <= k, whose eigenvalues
    lambda_d = sum_k c_k d (d-1) ... (d-k+1) (c_k the leading x^k coefficient of a_k)
    collide at two drawn degrees m < n: c_1 is solved for, the rest are drawn."""
    rng = random.Random(1703)
    out = []
    for order in (1, 2, 3, 4):
        for _ in range(20):
            m = rng.randint(0, 5)
            n = m + rng.randint(1, 4)
            top = {k: _rat(rng, 4, 3) or Fraction(1) for k in range(2, order + 1)}
            shift = sum(c * (_falling(n, k) - _falling(m, k)) for k, c in top.items())
            top[1] = -shift / (n - m) if order > 1 else Fraction(0)
            coeffs = [Poly()]
            for k in range(1, order + 1):
                lower = [_rat(rng, 3, 2) if rng.random() < 0.5 else 0 for _ in range(k)]
                coeffs.append(Poly((*lower, top[k])))
            if order == 1:  # every eigenvalue is 0: a nonzero a_1 keeps the operator
                coeffs[1] = Poly((_rat(rng, 3, 2) or Fraction(1),))
            out.append((DiffOperator(coeffs), n + rng.randint(0, 3)))
    return out


def eigentables() -> list:
    return [
        [op.to_json(), _payload(lambda: [r.to_json() for r in eigentable(op, n)])]
        for op, n in collision_operators()
    ]


GROUPS = {
    "preset-operators": preset_operators,
    "preset-grams": preset_grams,
    "family-grams": family_grams,
    "romanovski-reports": romanovski_reports,
    "eigentables": eigentables,
}


def digest(payloads) -> str:
    return hashlib.sha256(json.dumps(payloads).encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return {name: build() for name, build in GROUPS.items()}


@pytest.mark.parametrize("group", list(GROUPS))
def test_group_digest(corpus, group):
    assert digest(corpus[group]) == DIGESTS[group]


def _planted(payloads, is_target, change):
    """A copy of payloads with one leaf that is_target accepts replaced by change(leaf)."""
    copy = json.loads(json.dumps(payloads))
    stack = [copy]
    while stack:
        node = stack.pop()
        for key, leaf in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(leaf, (dict, list)):
                stack.append(leaf)
            elif is_target(leaf):
                node[key] = change(leaf)
                return copy
    raise LookupError("no leaf to plant a fault in")


def _is_fraction(leaf) -> bool:
    return isinstance(leaf, str) and "/" in leaf and leaf.replace("/", "").lstrip("-").isdigit()


def test_digest_sees_one_ulp_and_one_fraction(corpus):
    # a planted one-ulp change to one float entry, and one changed Fraction, each
    # move the digest of the group that holds it
    grams = corpus["family-grams"]
    want = digest(grams)
    is_float = lambda leaf: isinstance(leaf, float) and leaf != 0
    assert digest(_planted(grams, is_float, lambda v: math.nextafter(v, math.inf))) != want
    assert digest(_planted(grams, _is_fraction, lambda v: str(Fraction(v) + 1))) != want
    assert digest(_planted(grams, is_float, lambda v: v)) == want  # the copy alone moves nothing


if __name__ == "__main__":
    for name, build in GROUPS.items():
        print(f'    "{name}": "{digest(build())}",')
