"""Acceptance suite: one test per replication criterion.

Each test registers a human-readable "criterion N: PASS/FAIL" line in the
terminal summary and then asserts the criterion with zero tolerance.
Criterion 7 compares the printed expansion coefficients verbatim with the
derived ones: the leading one agrees and the other five are exactly their
negatives (a published sign slip). The test checks that this slip is
reproduced and that the CLI reports it as [DIFF] records with exit code 1,
so the discrepancy is documented and the suite still passes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random

from conftest import as_fraction, record_criterion, random_poly
from multistruct.arith import MultiPoly, binomial_poly, format_poly, var
from multistruct.chow import (
    BundleClass,
    euler_characteristic,
    koszul_complete_intersection,
    koszul_euler,
    line_bundle,
    split_bundle,
    wedge_powers,
)
from multistruct.cli import main
from multistruct.cohomology import (
    Assumption,
    CohomPair,
    double_conic_side_pairs,
    ext_vanishing_claim,
    family_dimension,
    format_dim,
    tangent_dimension_double_conic,
)
from multistruct.graded import (
    alphabeta_builder,
    compose,
    default_pair,
    injectivity_certificate,
    pointwise_exactness,
    splitting_type,
    symbolic_complex_identities,
    DEFAULT_POINTS,
)
from multistruct.integrality import (
    BinomialExpansion,
    congruence_residues,
    from_binomial_basis,
    schwarzenberger_verdict,
    to_binomial_basis,
)
from multistruct.structures import (
    double_conic_structure,
    hilbert_double_plane,
    hilbert_of_layers,
    hilbert_triple_plane,
    solve_chern_from_hilbert,
)

t = var("t")
r = var("r")
R = var("R")
c1, c2, c3 = var("c1"), var("c2"), var("c3")


def criterion(number: int):
    """Guarantee a summary line even when the computation itself errors."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except AssertionError:
                raise
            except Exception as exc:
                record_criterion(number, False, f"did not complete: {exc!r}")
                raise

        return inner

    return wrap


def check(number: int, ok: bool, detail: str) -> None:
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


def replicate_target(target: str, tmp_path) -> tuple[int, list[dict]]:
    """Run one CLI target through the real interface, return (exit, records)."""
    path = tmp_path / f"{target}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["replicate", target, "--json", str(path)])
    return code, json.loads(path.read_text())["records"]


@criterion(1)
def test_criterion_01_hilbert_of_double_conic():
    got = hilbert_of_layers(double_conic_structure())
    ok = got == 4 * t + r + 2
    check(1, ok, f"layered Hilbert polynomial is {got} (expected 4t + r + 2)")


@criterion(2)
def test_criterion_02_tangent_dimension():
    certificates = {rv: injectivity_certificate(rv) for rv in range(0, 7)}
    assumption = Assumption(r_min=1)
    sides = double_conic_side_pairs(assumption)
    tangent = tangent_dimension_double_conic(sides, assumption, all(certificates.values()))[2].h1
    family = family_dimension(assumption)
    ok = (
        all(certificates.values())
        and tangent == 2 * r + 15
        and family == tangent
    )
    check(
        2,
        ok,
        f"tangent dimension {format_dim(tangent)} under r >= 1, family {format_dim(family)}, "
        f"certificates for r = 0..6 all produced",
    )


@criterion(3)
def test_criterion_03_twelve_displayed_dimensions():
    assumption = Assumption(r_min=1)
    from multistruct.cohomology import solve_exact_sequence

    pairs = double_conic_side_pairs(assumption)
    pairs["middle1"] = solve_exact_sequence(pairs["aux1_left"], pairs["aux1_right"], assumption)
    pairs["middle2"] = solve_exact_sequence(pairs["aux2_left"], pairs["aux2_right"], assumption)
    zero = MultiPoly.zero()
    expected = {
        "aux1_left": CohomPair(r - 1, zero),
        "aux1_right": CohomPair(zero, 2 * r + 7),
        "aux2_left": CohomPair(2 * r - 1, zero),
        "aux2_right": CohomPair(zero, r + 7),
        "middle1": CohomPair(r - 1, 2 * r + 7),
        "middle2": CohomPair(2 * r - 1, r + 7),
    }
    mismatches = [key for key in expected if pairs[key] != expected[key]]
    ok = not mismatches
    check(
        3,
        ok,
        "all twelve displayed dimensions reproduced as linear forms"
        if ok
        else f"mismatch at {mismatches}",
    )


@criterion(4)
def test_criterion_04_koszul_euler():
    quadric = koszul_euler(split_bundle([-1, -1, -2], 5))
    base_ok = quadric == (t + 1) * (t + 1)
    triples = [
        (d1, d2, d3)
        for d1 in range(1, 4)
        for d2 in range(d1, 4)
        for d3 in range(d2, 4)
    ]
    agree = sum(
        1
        for degrees in triples
        if koszul_euler(split_bundle([-d for d in degrees], 5))
        == koszul_complete_intersection(degrees)
    )
    ok = base_ok and agree == len(triples)
    check(
        4,
        ok,
        f"chi of the (1,1,2) section scheme is {quadric}; "
        f"{agree}/{len(triples)} complete-intersection triples agree",
    )


@criterion(5)
def test_criterion_05_symbolic_koszul_coefficients(tmp_path):
    chi = koszul_euler(BundleClass(3, (c1, c2, c3), 5))
    t2_ok = chi.coeff_of("t", 2) == (-c3).scalar_div(2)
    t1_ok = chi.coeff_of("t", 1) == (-(c1 + 6) * c3).scalar_div(2)
    published_constant = ((c2 - 2 * c1 * c1 - 18 * c1 - 51) * c3).scalar_div(2)
    constant_matches = chi.coeff_of("t", 0) == published_constant

    code, records = replicate_target("koszul", tmp_path)
    record = next(x for x in records if x["claim_id"] == "koszul/constant-term")
    record_ok = record["match"] == constant_matches
    exit_ok = code == (0 if all(x["match"] for x in records) else 1)
    ok = t2_ok and t1_ok and record_ok and exit_ok
    check(
        5,
        ok,
        "t^2 and t coefficients match the published template; constant-term "
        f"comparison emitted as record (match={record['match']}), exit code {code}",
    )


@criterion(6)
def test_criterion_06_chern_solving():
    d1, d2, d3 = solve_chern_from_hilbert(hilbert_double_plane(), "paper")
    double_ok = (
        d1 == r - 3
        and d2 == (3 * r * r + 9 * r + 26).scalar_div(2)
        and d3 == MultiPoly.const(-2)
    )
    t1, t2, t3 = solve_chern_from_hilbert(hilbert_triple_plane(), "paper")
    subs = {"r": 3 * R}
    triple_ok = (
        t1.substitute(subs) == 6 * R - 3
        and t2.substitute(subs) == 57 * R * R + 27 * R + 13
        and t3.substitute(subs) == MultiPoly.const(-3)
    )
    ok = double_ok and triple_ok
    check(
        6,
        ok,
        "published template solves to (r-3, (3r^2+9r+26)/2, -2) and, after "
        "r = 3R, (6R-3, 57R^2+27R+13, -3)",
    )


@criterion(7)
def test_criterion_07_printed_expansion_coefficients(tmp_path):
    printed = {
        5: MultiPoly.const(3),
        4: -(r - 3),
        3: r * r + 7 * r + 10,
        2: (7 * r**3 + 30 * r * r + 29 * r - 54).scalar_div(12),
        1: (r**4 - 24 * r**3 - 197 * r * r - 560 * r - 548).scalar_div(48),
        0: -(19 * r**5 + 235 * r**4 + 1305 * r**3 + 3765 * r * r + 5616 * r + 3140).scalar_div(480),
    }
    triple = solve_chern_from_hilbert(hilbert_double_plane(), "paper")
    chi = euler_characteristic(BundleClass(3, triple, 5))
    expansion = to_binomial_basis(chi, 5)
    matches = {i: expansion.coefficient(i) == printed[i] for i in printed}
    negated = {i for i in printed if expansion.coefficient(i) == -printed[i]}
    slip_ok = matches[5] and negated == {0, 1, 2, 3, 4}
    printed_display = from_binomial_basis(
        BinomialExpansion(5, tuple(printed[i] for i in range(6)))
    )
    display_ok = printed_display == 6 * binomial_poly(5) - chi
    # Vandermonde: C(t+a+5, 5) = sum_k C(a, k) C(t+5-k, 5-k), so the
    # C(t+4, 4) coefficient of any chi_E on P5 is c1; the print says -c1.
    vandermonde_ok = expansion.coefficient(4) == triple[0]

    code, records = replicate_target("expansion", tmp_path)
    paper = [
        x
        for x in records
        if x["template"] == "paper" and x["claim_id"].startswith("expansion/C(")
    ]
    by_index = {
        i: x for i in printed for x in paper if x["claim_id"] == f"expansion/C(t+{i},{i})"
    }
    records_ok = len(paper) == 6 and len(by_index) == 6
    match_ok = records_ok and all(
        (x["paper_value"], x["computed_value"], x["match"])
        == (format_poly(printed[i]), format_poly(expansion.coefficient(i)), matches[i])
        for i, x in by_index.items()
    )
    # run_expansion attaches the sign-slip note only to a negated coefficient;
    # the direct negation check above confirms each note independently.
    notes_ok = records_ok and all(
        i in negated and "sign slip" in x["notes"]
        for i, x in by_index.items()
        if not x["match"]
    )
    ok = slip_ok and display_ok and vandermonde_ok and match_ok and notes_ok and code == 1
    check(
        7,
        ok,
        f"{sum(matches.values())}/6 printed coefficients reproduced; "
        f"{len(negated)}/6 are the negatives of the derived ones, reported as "
        f"[DIFF], exit code {code}",
    )


@criterion(8)
def test_criterion_08_congruence_verdicts(tmp_path):
    cubic = 7 * r**3 + 30 * r * r + 29 * r - 54
    quartic = r**4 - 24 * r**3 - 197 * r * r - 560 * r - 548
    quintic = 207 * R**4 - 1512 * R**3 - 1845 * R * R - 828 * R - 134
    pair_empty = (
        congruence_residues(cubic, 3) & congruence_residues(quartic, 3) == set()
    )
    quintic_empty = congruence_residues(quintic, 3) == set()

    verdicts = {}
    for name, hilbert in (
        ("double-plane", hilbert_double_plane()),
        ("triple-plane", hilbert_triple_plane()),
    ):
        for template in ("paper", "derived"):
            triple = solve_chern_from_hilbert(hilbert, template)
            verdicts[name, template] = schwarzenberger_verdict(
                BundleClass(3, triple, 5)
            ).conclusion
    paper_ok = (
        verdicts["double-plane", "paper"] == "nonexistence"
        and verdicts["triple-plane", "paper"] == "nonexistence"
    )
    derived_reported = all(
        verdicts[name, "derived"] in ("nonexistence", "exists-candidate")
        for name in ("double-plane", "triple-plane")
    )

    code, records = replicate_target("congruence", tmp_path)
    derived_records = [
        x for x in records if x["template"] == "derived" and "verdict" in x["claim_id"]
    ]
    ok = (
        pair_empty
        and quintic_empty
        and paper_ok
        and derived_reported
        and len(derived_records) == 2
        and code == 0
    )
    check(
        8,
        ok,
        "mod-3 admissible sets empty for both printed pairs; published-template "
        "verdicts nonexistence; derived-template verdicts "
        f"{verdicts['double-plane', 'derived']}/{verdicts['triple-plane', 'derived']} reported",
    )


@criterion(9)
def test_criterion_09_wedge_powers(tmp_path):
    rng = random.Random(0)
    agree = 0
    for _ in range(50):
        twists = [rng.randint(-5, 5) for _ in range(3)]
        lam2, lam3 = wedge_powers(split_bundle(twists, 5))
        pairwise = [twists[0] + twists[1], twists[0] + twists[2], twists[1] + twists[2]]
        if lam2 == split_bundle(pairwise, 5) and lam3 == split_bundle([sum(twists)], 5):
            agree += 1
    lam2, _ = wedge_powers(BundleClass(3, (c1, c2, c3), 5))
    symbolic_ok = (
        lam2.chern[1] == c1 * c1 + c2 and lam2.chern[2] == c1 * c2 - c3
    )
    c1_matches = lam2.chern[0] == 3 * c1

    code, records = replicate_target("wedge", tmp_path)
    record = next(x for x in records if x["claim_id"] == "wedge/lambda2-c1")
    record_ok = record["match"] == c1_matches
    exit_ok = code == (0 if all(x["match"] for x in records) else 1)
    ok = agree == 50 and symbolic_ok and record_ok and exit_ok
    check(
        9,
        ok,
        f"{agree}/50 random split bundles agree with the split-case classes; "
        "symbolic c2' and c3' match the printed ones; c1' comparison emitted "
        f"as record (match={record['match']}), exit code {code}",
    )


@criterion(10)
def test_criterion_10_graded_certificates():
    s, u = var("s"), var("u")
    symbolic_ok = symbolic_complex_identities()
    failures = []
    for rv in range(0, 7):
        pairs = {
            "monomial": default_pair(rv),
            "dense": type(default_pair(rv))(
                rv, s ** (rv + 2) + u ** (rv + 2), s * u ** (rv + 3)
            ),
        }
        for label, pair in pairs.items():
            cx = alphabeta_builder(pair)
            if any(not e.is_zero() for row in compose(cx.beta, cx.alpha) for e in row):
                failures.append((rv, label, "beta.alpha"))
            ok_points, _ = pointwise_exactness(cx, list(DEFAULT_POINTS))
            if not ok_points:
                failures.append((rv, label, "pointwise"))
            if splitting_type(cx) != (rv - 4, rv - 2):
                failures.append((rv, label, "splitting"))
            if injectivity_certificate(rv, pair) is not True:
                failures.append((rv, label, "certificate"))
    ok = symbolic_ok and not failures
    check(
        10,
        ok,
        "beta.alpha = 0 symbolically; pointwise exactness, splitting "
        "(r-4, r-2), and the twisted h^0 = 0 certificate hold for r = 0..6 "
        "with two section pairs each"
        if ok
        else f"failures: {failures}",
    )


@criterion(11)
def test_criterion_11_property_suites():
    rng = random.Random(11)
    ring_ok = True
    for _ in range(200):
        a = random_poly(rng, names=("t", "r", "c1"), max_degree=3)
        b = random_poly(rng, names=("t", "r", "c1"), max_degree=3)
        c = random_poly(rng, names=("t", "r", "c1"), max_degree=3)
        ring_ok = ring_ok and (a + b) + c == a + (b + c)
        ring_ok = ring_ok and (a * b) * c == a * (b * c)
        ring_ok = ring_ok and a * (b + c) == a * b + a * c
        ring_ok = ring_ok and a + b == b + a and a * b == b * a
        ring_ok = ring_ok and a + MultiPoly.zero() == a and a * 1 == a
        ring_ok = ring_ok and (a - a).is_zero()

    from multistruct.integrality import from_binomial_basis

    basis_ok = True
    for _ in range(100):
        p = random_poly(rng, names=("t", "r"), max_degree=5)
        basis_ok = basis_ok and from_binomial_basis(to_binomial_basis(p, 5)) == p

    serre_ok = True
    for n in range(1, 6):
        chi = euler_characteristic(line_bundle(0, n))
        for d in range(-12, 13):
            lhs = as_fraction(chi.substitute({"t": d}))
            rhs = as_fraction(chi.substitute({"t": -d - n - 1}))
            serre_ok = serre_ok and lhs == (-1) ** n * rhs

    chi_one_ok = all(
        euler_characteristic(line_bundle(0, n)) == binomial_poly(n)
        and euler_characteristic(line_bundle(0, n)).substitute({"t": 0}) == 1
        for n in range(1, 6)
    )

    ext_ok = ext_vanishing_claim() and all(ext_vanishing_claim(rv) for rv in range(0, 9))

    ok = ring_ok and basis_ok and serre_ok and chi_one_ok and ext_ok
    check(
        11,
        ok,
        f"ring axioms (200 triples): {ring_ok}; binomial round trip (100): "
        f"{basis_ok}; Serre duality on [-12, 12]: {serre_ok}; chi(O) = 1 for "
        f"n = 1..5: {chi_one_ok}; Ext vanishing r = 0..8 and symbolic: {ext_ok}",
    )
