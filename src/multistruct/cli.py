"""Replication driver: one subcommand target per computation, with records.

Each target re-runs one published computation chain and emits
ReplicationRecords comparing the engine's exact result against the
published value.  Where the engine's independent derivation contradicts a
printed value, the record is emitted as a documented discrepancy (match
false, explanatory note, exit code 1): the suite distinguishes "published
text disagrees with the derivation" from "engine inconsistent with
itself" (exit code 3).

Exit codes: 0 all records match; 1 at least one documented discrepancy;
2 invalid input (including --r or a --window bound beyond R_CAP, more
than POINTS_CAP or fewer than five --points, a --points coordinate past
POINT_DIGITS_CAP digits, and a MULTISTRUCT_SEED other than [-]digits, at
most SEED_DIGITS_CAP of them), found before any target runs, and output
that cannot be written (stdout or the --json report); 3 internal
inconsistency (an EngineError raised by a self-check: negative dimension,
failed certificate, underdetermined sequence, ...) or any other
unexpected exception.

Every run ends through two writers: _to_stdout writes the records or a
help text, and _to_stderr writes the one diagnostic line of a failing
run.  A stream that cannot be written or is closed never changes the
code: a diagnostic that cannot be written is dropped, and no diagnostic
goes to stdout.
"""

from __future__ import annotations

import math
import os
import random
import re
import sys
import time
import types

from . import EngineError, __version__
from .arith import MultiPoly, format_poly, var
from .chow import (
    BundleClass,
    euler_characteristic,
    koszul_complete_intersection,
    koszul_euler,
    specialize,
    split_chern,
    splitting_oracle,
    wedge_powers,
)
from .cohomology import (
    Assumption,
    double_conic_side_pairs,
    double_conic_side_terms,
    ext_vanishing_claim,
    family_dimension,
    format_dim,
    section_degrees,
    tangent_dimension_double_conic,
)
from .graded import (
    DEFAULT_POINTS,
    SectionPair,
    certified_split,
    check_points,
    default_pair,
    injectivity_certificate,
    symbolic_complex_identities,
    symbolic_injectivity,
)
from .integrality import (
    congruence_residues,
    from_binomial_basis,
    lowest_terms,
    schwarzenberger_verdict,
    to_binomial_basis,
)
from .structures import (
    double_conic_structure,
    hilbert_double_plane,
    hilbert_of_layers,
    hilbert_triple_plane,
    paper_chi_formula,
    solve_chern_from_hilbert,
)


class ReplicationRecord:
    """One published value against the engine's recomputation.

    template names the chi template that produced the chain ("paper",
    "derived", or "n/a" when no template is involved); paper_value is "n/a"
    for engine-only consistency checks, whose match flag then reports
    internal success.  match defaults to paper_value == computed_value.
    """

    __slots__ = ("claim_id", "paper_value", "computed_value", "template", "match", "notes")

    def __init__(
        self,
        claim_id: str,
        paper_value: str,
        computed_value: str,
        template: str = "n/a",
        match: bool | None = None,
        notes: str = "",
    ):
        self.claim_id = claim_id
        self.paper_value = paper_value
        self.computed_value = computed_value
        self.template = template
        self.match = paper_value == computed_value if match is None else match
        self.notes = notes

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def report_json(records: list[ReplicationRecord]) -> dict:
    """The stable report document: version, timestamp, records, summary.

    The timestamp is the UTC instant as datetime.now(timezone.utc).isoformat()
    prints it, microseconds floored and omitted when zero, built with time.
    """
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    fraction = f".{micros:06d}" if micros else ""
    matched = sum(1 for rec in records if rec.match)
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + fraction + "+00:00",
        "records": [rec.to_dict() for rec in records],
        "summary": {
            "total": len(records),
            "matched": matched,
            "discrepancies": len(records) - matched,
        },
    }


def _fmt_triple(triple: tuple[MultiPoly, MultiPoly, MultiPoly]) -> str:
    return "; ".join(
        f"c{i} = {format_poly(c)}" for i, c in enumerate(triple, start=1)
    )


def _template_record(
    claim_id: str,
    template: str,
    paper_value: str,
    computed_value: str,
    notes: str,
    derived_notes: str,
) -> ReplicationRecord:
    """A record of a template-dependent chain.

    Under "paper" it compares against the published value; under "derived"
    there is no published counterpart, so paper_value is "n/a", the record
    matches and carries derived_notes.
    """
    if template == "paper":
        return ReplicationRecord(claim_id, paper_value, computed_value, "paper", notes=notes)
    return ReplicationRecord(claim_id, "n/a", computed_value, "derived", True, derived_notes)


def _chern_verdict(hilbert: MultiPoly, template: str):
    """The Chern triple solved from a Hilbert polynomial, and its integrality verdict."""
    triple = solve_chern_from_hilbert(hilbert, template)
    return triple, schwarzenberger_verdict(BundleClass(3, triple, 5))


def _braces(values) -> str:
    """A residue set as the records print it: {0, 2}."""
    return "{" + ", ".join(map(str, sorted(values))) + "}"


def _residue_table(verdict) -> str:
    return "; ".join(f"mod {q}: {_braces(residues)}" for q, residues in verdict.admissible_residues)


# -- double conic --------------------------------------------------------------


def run_double_conic(args) -> list[ReplicationRecord]:
    records: list[ReplicationRecord] = []
    t, r = var("t"), var("r")

    hilbert = hilbert_of_layers(double_conic_structure())
    records.append(
        ReplicationRecord(
            "double-conic/hilbert",
            format_poly(4 * t + r + 2),
            format_poly(hilbert),
            notes="sum of the layer characteristics (2t+1) + (2t+r+1)",
        )
    )

    # injectivity_certificate returns True or raises GradedCertificateError,
    # so past this loop every r value is certified.
    for rv in args.r_values:
        injectivity_certificate(rv)
        records.append(
            ReplicationRecord(
                f"double-conic/injectivity-certificate[r={rv}]",
                "injective",
                "injective",
                notes="connecting map certified via the graded complex",
            )
        )

    assumption = Assumption(r_min=1) if args.r == "sym" else Assumption(fixed=args.r)

    sides = double_conic_side_pairs(assumption)
    aux1_left, aux1_right, aux2_left, aux2_right = zip(
        map(str, double_conic_side_terms().values()), sides.values()
    )
    aux1, aux2, main_pair = tangent_dimension_double_conic(sides, assumption, symbolic_injectivity())
    zero = MultiPoly.zero()
    side = "side term of the auxiliary sequences, tensored by the dualizing sheaf"
    middle = "middle term solved from the six-term sequence"
    for (name, pair), (h0, h1), notes in (
        (aux1_left, (r - 1, zero), side),
        (aux1_right, (zero, 2 * r + 7), side),
        (aux2_left, (2 * r - 1, zero), side),
        (aux2_right, (zero, r + 7), side),
        (("middle-aux1", aux1), (r - 1, 2 * r + 7), middle),
        (("middle-aux2", aux2), (2 * r - 1, r + 7), middle),
    ):
        records.append(
            ReplicationRecord(
                f"double-conic/h[{name}]",
                f"({format_dim(assumption.specialize(h0))}, {format_dim(assumption.specialize(h1))})",
                f"({format_dim(pair.h0)}, {format_dim(pair.h1)})",
                notes=notes,
            )
        )

    tangent = main_pair.h1
    family = family_dimension(assumption)
    want_tangent = format_dim(assumption.specialize(2 * r + 15))
    records.append(
        ReplicationRecord(
            "double-conic/tangent-dimension",
            want_tangent,
            format_dim(tangent),
            notes="solved with the connecting-map injectivity certificate",
        )
    )
    records.append(
        ReplicationRecord(
            "double-conic/family-dimension",
            want_tangent,
            format_dim(family),
            notes=f"8 + (2r+7); equals the tangent dimension: {tangent == family}",
        )
    )
    records.append(
        ReplicationRecord(
            "double-conic/family-section-degrees",
            "degrees r+4 and r+3",
            "degrees " + " and ".join(map(format_dim, section_degrees())),
            match=False,
            notes=(
                "the published prose assigns degrees r+4 and r+3 to the section pair, "
                "but the published identifications give r+2 and r+4, and the published "
                "count 8 + (r+3) + (r+5) - 1 = 2r+15 agrees only with the latter"
            ),
        )
    )
    return records


# -- plane structures -----------------------------------------------------------


def _plane_records(
    prefix: str,
    hilbert: MultiPoly,
    hilbert_expected: MultiPoly,
    hilbert_note: str,
    paper_triple: tuple[MultiPoly, MultiPoly, MultiPoly],
    templates: list[str],
) -> list[ReplicationRecord]:
    records = [
        ReplicationRecord(
            f"{prefix}/hilbert",
            format_poly(hilbert_expected),
            format_poly(hilbert),
            notes=hilbert_note,
        )
    ]
    for template in templates:
        triple, verdict = _chern_verdict(hilbert, template)
        records.append(
            _template_record(
                f"{prefix}/chern",
                template,
                _fmt_triple(paper_triple),
                _fmt_triple(triple),
                "triangular solve of the published template against the Hilbert polynomial",
                "no published counterpart; solved under the independently derived "
                "template (constant denominator 12), reproduction check passed",
            )
        )
        substitution = (
            f"r = {verdict.substitution[0]}*R + {verdict.substitution[1]}"
            if verdict.substitution
            else "none"
        )
        residues = f"admissible residues: {_residue_table(verdict)}; substitution: {substitution}"
        records.append(
            _template_record(
                f"{prefix}/verdict",
                template,
                "nonexistence",
                verdict.conclusion,
                residues,
                "no published counterpart; under the derived template the integrality "
                f"obstruction disappears; {residues}",
            )
        )
    return records


def run_double_plane(args) -> list[ReplicationRecord]:
    r = var("r")
    t = var("t")
    expected = t * t + (r + 3) * t + (r * r + 3 * r + 4).scalar_div(2)
    paper_triple = (
        r - 3,
        (3 * r * r + 9 * r + 26).scalar_div(2),
        MultiPoly.const(-2),
    )
    return _plane_records(
        "double-plane",
        hilbert_double_plane(),
        expected,
        "C(t+2,2) + C(t+r+2,2) expanded",
        paper_triple,
        args.templates,
    )


def _printed_triple_plane_coefficient() -> MultiPoly:
    """The published C(t+1,1) coefficient of the triple-plane chi_E, after r = 3R."""
    R = var("R")
    return (207 * R**4 - 1512 * R**3 - 1845 * R * R - 828 * R - 134).scalar_div(12)


def run_triple_plane(args) -> list[ReplicationRecord]:
    r, R, t = var("r"), var("R"), var("t")
    expected = (
        (3 * t * t).scalar_div(2)
        + ((6 * r + 9) * t).scalar_div(2)
        + (5 * r * r + 9 * r + 6).scalar_div(2)
    )
    paper_triple = (
        2 * r - 3,
        (19 * r * r + 27 * r + 39).scalar_div(3),
        MultiPoly.const(-3),
    )
    records = _plane_records(
        "triple-plane",
        hilbert_triple_plane(),
        expected,
        "layer characteristics of the primitive triple structure",
        paper_triple,
        args.templates,
    )
    if "paper" in args.templates:
        triple, verdict = _chern_verdict(hilbert_triple_plane(), "paper")
        substituted = tuple(c.substitute({"r": 3 * R}) for c in triple)
        records.append(
            ReplicationRecord(
                "triple-plane/substituted-chern",
                _fmt_triple((6 * R - 3, 57 * R * R + 27 * R + 13, MultiPoly.const(-3))),
                _fmt_triple(substituted),
                template="paper",
                notes="after the forced reparametrization r = 3R",
            )
        )
        computed = verdict.expansion.coefficient(1)
        printed = _printed_triple_plane_coefficient()
        records.append(
            ReplicationRecord(
                "triple-plane/C(t+1,1)-coefficient",
                format_poly(printed),
                format_poly(computed),
                template="paper",
                notes=(
                    "computed coefficient is the negative of the published one (same global "
                    "sign slip as the displayed quintic expansion); never-integral verdict "
                    "is invariant under negation, so the nonexistence conclusion stands"
                ),
            )
        )
    return records


# -- wedge powers ----------------------------------------------------------------


def run_wedge(args) -> list[ReplicationRecord]:
    c1, c2, c3 = var("c1"), var("c2"), var("c3")
    symbolic = BundleClass(3, (c1, c2, c3), 5)
    lambda2, lambda3 = wedge_powers(symbolic)
    records = [
        ReplicationRecord(
            "wedge/lambda2-c1",
            format_poly(3 * c1),
            format_poly(lambda2.chern[0]),
            match=False,
            notes=(
                "published value 3c1 contradicts the splitting principle, which gives "
                "(rank-1) c1 = 2c1 for rank 3; verified against 50 random split bundles"
            ),
        ),
        ReplicationRecord(
            "wedge/lambda2-c2", format_poly(c1 * c1 + c2), format_poly(lambda2.chern[1])
        ),
        ReplicationRecord(
            "wedge/lambda2-c3", format_poly(c1 * c2 - c3), format_poly(lambda2.chern[2])
        ),
        ReplicationRecord(
            "wedge/lambda3-c1",
            format_poly(c1),
            format_poly(lambda3.chern[0]),
            notes="top wedge is the determinant line bundle O(c1)",
        ),
    ]

    seed = args.seed
    rng = random.Random(seed)
    agree = 0
    trials = 50
    for _ in range(trials):
        twists = [rng.randint(-5, 5) for _ in range(3)]
        chern = split_chern(twists)
        w2 = [specialize(c, chern) for c in lambda2.chern]
        w3 = specialize(lambda3.chern[0], chern)
        pairwise = [twists[0] + twists[1], twists[0] + twists[2], twists[1] + twists[2]]
        if w2 == split_chern(pairwise) and w3 == sum(twists):
            agree += 1
    records.append(
        ReplicationRecord(
            "wedge/split-agreement",
            "n/a",
            f"{agree}/{trials} random split bundles agree",
            match=agree == trials,
            notes=f"pairwise-sum oracle, seed {seed}",
        )
    )
    oracle = splitting_oracle(3)
    records.append(
        ReplicationRecord(
            "wedge/splitting-oracle",
            "n/a",
            "; ".join(f"{k}: {v}" for k, v in sorted(oracle.items())),
            match=all(oracle.values()),
            notes="symbolic-root identities for the character, Adams, wedge, and Koszul maps",
        )
    )
    return records


# -- koszul template ---------------------------------------------------------------


def run_koszul(args) -> list[ReplicationRecord]:
    c1, c2, c3 = var("c1"), var("c2"), var("c3")
    symbolic = koszul_euler(BundleClass(3, (c1, c2, c3), 5))
    published = paper_chi_formula(c1, c2, c3)
    records = [
        ReplicationRecord(
            f"koszul/{claim}",
            format_poly(published.coeff_of("t", k)),
            format_poly(symbolic.coeff_of("t", k)),
            notes=notes,
        )
        for claim, k, notes in (
            ("t2-coefficient", 2, "quadratic coefficient of the alternating Koszul characteristic"),
            ("t1-coefficient", 1, ""),
            (
                "constant-term",
                0,
                "published denominator 2; independent derivation gives 12, confirmed by "
                "the complete-intersection oracle on all ten degree triples",
            ),
        )
    ]

    ci = specialize(symbolic, split_chern([-1, -1, -2]))
    t = var("t")
    records.append(
        ReplicationRecord(
            "koszul/ci[1,1,2]",
            format_poly((t + 1) * (t + 1)),
            format_poly(ci),
            notes="zero scheme of degrees (1,1,2): a quadric surface section",
        )
    )
    triples = [
        (d1, d2, d3)
        for d1 in range(1, 4)
        for d2 in range(d1, 4)
        for d3 in range(d2, 4)
    ]
    good = sum(
        1
        for degrees in triples
        if specialize(symbolic, split_chern([-d for d in degrees]))
        == koszul_complete_intersection(degrees)
    )
    records.append(
        ReplicationRecord(
            "koszul/ci-oracle",
            "n/a",
            f"{good}/{len(triples)} degree triples agree",
            match=good == len(triples),
            notes="alternating binomial-sum oracle vs the characteristic-class computation",
        )
    )
    return records


# -- binomial expansion --------------------------------------------------------------


def _printed_expansion() -> list[MultiPoly]:
    r = var("r")
    return [
        -(19 * r**5 + 235 * r**4 + 1305 * r**3 + 3765 * r * r + 5616 * r + 3140).scalar_div(480),
        (r**4 - 24 * r**3 - 197 * r * r - 560 * r - 548).scalar_div(48),
        (7 * r**3 + 30 * r * r + 29 * r - 54).scalar_div(12),
        r * r + 7 * r + 10,
        -(r - 3),
        MultiPoly.const(3),
    ]


def run_expansion(args) -> list[ReplicationRecord]:
    records: list[ReplicationRecord] = []
    printed = _printed_expansion()
    for template in args.templates:
        triple = solve_chern_from_hilbert(hilbert_double_plane(), template)
        chi = euler_characteristic(BundleClass(3, triple, 5))
        expansion = to_binomial_basis(chi, 5)
        for i in range(5, -1, -1):
            computed = expansion.coefficient(i)
            if computed == printed[i]:
                notes = ""
            elif computed == -printed[i]:
                notes = (
                    "published coefficient is the negative of the computed one; "
                    "the published display reassembles to 6 chi(O(t)) - chi_E(t), "
                    "a global sign slip below the top coefficient"
                )
            else:
                notes = "published coefficient differs from the computed one"
            records.append(
                _template_record(
                    f"expansion/C(t+{i},{i})",
                    template,
                    format_poly(printed[i]),
                    format_poly(computed),
                    notes,
                    "no published counterpart under the derived template",
                )
            )
        reassembled = from_binomial_basis(expansion)
        records.append(
            ReplicationRecord(
                "expansion/reassembly",
                "n/a",
                "exact" if reassembled == chi else "failed",
                template=template,
                match=reassembled == chi,
                notes="from_binomial_basis inverts to_binomial_basis on chi_E",
            )
        )
    return records


# -- congruences ------------------------------------------------------------------


def run_congruence(args) -> list[ReplicationRecord]:
    records: list[ReplicationRecord] = []
    printed = _printed_expansion()
    cubic, _ = lowest_terms(printed[2])
    quartic, _ = lowest_terms(printed[1])
    quintic_R, _ = lowest_terms(_printed_triple_plane_coefficient())
    cubic_set = congruence_residues(cubic, 3)
    quartic_set = congruence_residues(quartic, 3)
    both = cubic_set & quartic_set
    records.append(
        ReplicationRecord(
            "congruence/double-plane-mod3",
            "empty (impossible)",
            "empty" if not both else _braces(both),
            template="paper",
            match=not both,
            notes=(
                f"residues of the cubic: {sorted(cubic_set)}; of the quartic: "
                f"{sorted(quartic_set)}; both congruences required simultaneously"
            ),
        )
    )
    r_set = congruence_residues(quintic_R, 3)
    records.append(
        ReplicationRecord(
            "congruence/triple-plane-mod3",
            "empty (never integral)",
            "empty" if not r_set else _braces(r_set),
            template="paper",
            match=not r_set,
            notes="the C(t+1,1) coefficient after r = 3R; negation-invariant",
        )
    )
    for template in args.templates:
        for prefix, hilbert in (
            ("double-plane", hilbert_double_plane()),
            ("triple-plane", hilbert_triple_plane()),
        ):
            _, verdict = _chern_verdict(hilbert, template)
            table = _residue_table(verdict)
            records.append(
                _template_record(
                    f"congruence/{prefix}-verdict",
                    template,
                    "nonexistence",
                    verdict.conclusion,
                    f"admissible residues: {table}",
                    f"recomputed under the derived template; admissible residues: {table}",
                )
            )
    return records


# -- graded complex -----------------------------------------------------------------


def _second_pair(rv: int) -> SectionPair:
    s, u = var("s"), var("u")
    return SectionPair(rv, s ** (rv + 2) + u ** (rv + 2), s * u ** (rv + 3))


def run_graded(args) -> list[ReplicationRecord]:
    records = [
        ReplicationRecord(
            "graded/symbolic-identities",
            "beta . alpha = 0",
            "beta . alpha = 0" if symbolic_complex_identities() else "failed",
            notes="with the 2x2 minors of beta equal to -2b^2, 4ab, -2a^2",
        )
    ]
    points = args.points
    for rv in args.r_values:
        for label, pair in (("monomial", default_pair(rv)), ("dense", _second_pair(rv))):
            injectivity_certificate(rv, pair, points)  # True or raises
            split = certified_split(pair, tuple(points))  # the certificate's cached result
            twisted = tuple(sorted(a - rv - 2 for a in split))
            records.append(
                ReplicationRecord(
                    f"graded/splitting[r={rv},{label}]",
                    f"({rv - 4}, {rv - 2})",
                    f"({split[0]}, {split[1]})",
                    notes=(
                        f"twisted by -r-2 gives {twisted}, certificate "
                        "produced; h0 of the twist is 0"
                    ),
                    match=split == (rv - 4, rv - 2) and twisted == (-6, -4),
                )
            )
    return records


# -- ext vanishing --------------------------------------------------------------------


def run_ext_claim(args) -> list[ReplicationRecord]:
    records: list[ReplicationRecord] = []
    notes = "first cohomology of the twisted dual kernel bundle on the plane"
    if args.r == "sym":
        vanished = ext_vanishing_claim()
        records.append(
            ReplicationRecord(
                "ext-claim/vanishing[symbolic]",
                "0",
                "0" if vanished else "nonzero",
                notes="solved symbolically for every r >= 0 from the nine-term chain",
            )
        )
        notes = ""
    for rv in args.r_values:
        vanished = ext_vanishing_claim(rv)
        records.append(
            ReplicationRecord(
                f"ext-claim/vanishing[r={rv}]", "0", "0" if vanished else "nonzero", notes=notes
            )
        )
    return records


RUNNERS = {
    "double-conic": run_double_conic,
    "double-plane": run_double_plane,
    "triple-plane": run_triple_plane,
    "wedge": run_wedge,
    "koszul": run_koszul,
    "expansion": run_expansion,
    "congruence": run_congruence,
    "graded": run_graded,
    "ext-claim": run_ext_claim,
}


# -- argument handling -----------------------------------------------------------------


# Largest |r| accepted by --r and by either --window bound.  The graded slice
# matrices grow with r: a graded run at r = 128 takes about 30 times as long
# as at r = 32.
R_CAP = 32

# Most digits accepted in the numerator or the denominator of a --points
# coordinate, which must read [-]p or [-]p/q as str(Fraction) prints it.
# No other form is read: an exponent form such as 1e100000 would be an
# integer of 100,001 digits that every fiber evaluation of the certificate
# chain would then carry.
POINT_DIGITS_CAP = 100

# Most --points accepted.  Every certificate chain screens every point, so
# the run time grows linearly with the count: `replicate graded --r 32`
# took 0.28 s with 5 points and 1.62 s with 10,000.  The count is read from
# the commas before any coordinate is parsed.
POINTS_CAP = 64
# Compiled on first use, by re's own cache: only --points reads it.
_COORDINATE = r"-?([0-9]+)(?:/([0-9]+))?"

# Most digits accepted in MULTISTRUCT_SEED, which must read [-]digits.
SEED_DIGITS_CAP = 18

# The exit-2 message of each target that needs r >= 0, from --r and from
# both --window bounds; double-conic also needs --r >= 1.
_NONNEGATIVE_R = {
    "double-conic": "r must be a nonnegative integer",
    "graded": "graded complexes need r >= 0",
    "ext-claim": "the vanishing claim is stated for r >= 0",
}


def _shown(text: str) -> str:
    """Rejected input as an error message quotes it: cut after 40 characters."""
    return text if len(text) <= 40 else text[:40] + "..."


def _one_of(choices: tuple[str, ...]):
    """A reader of one of choices; a rejected value is quoted cut."""

    def read(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice: {_shown(text)!r}")
        return text

    return read


def _check_cap(flag: str, value: int) -> int:
    if abs(value) > R_CAP:
        raise ValueError(
            f"{flag} values must lie in -{R_CAP}..{R_CAP}, got {_shown(str(value))}"
        )
    return value


def _parse_r(text: str):
    if text == "sym":
        return "sym"
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(
            f"--r expects an integer or 'sym', got {_shown(text)!r}"
        ) from exc
    return _check_cap("--r", value)


def _parse_window(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"--window expects a..b, got {_shown(text)!r}")
    try:
        start, stop = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(
            f"--window expects integer bounds, got {_shown(text)!r}"
        ) from exc
    if stop < start:
        raise ValueError("--window bounds must be ascending")
    return range(_check_cap("--window", start), _check_cap("--window", stop) + 1)


def _coordinate(text: str) -> tuple[int, int]:
    """(numerator, denominator) of a --points coordinate [-]p or [-]p/q."""
    m = re.fullmatch(_COORDINATE, text)
    if not m or any(len(g or "") > POINT_DIGITS_CAP for g in m.groups()):
        raise ValueError(
            f"--points coordinates must read p or p/q with at most "
            f"{POINT_DIGITS_CAP} digits each, got {_shown(text)!r}"
        )
    p, q = m.groups()
    return -int(p) if text[0] == "-" else int(p), int(q or 1)


def _parse_points(text: str) -> list[tuple[int, int]]:
    """Each s:u as the primitive integer representative of the point [s:u]."""
    count = text.count(",") + 1
    if count > POINTS_CAP:
        raise ValueError(f"--points takes at most {POINTS_CAP} points, got {count}")
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        s_txt, sep, u_txt = chunk.partition(":")
        if not sep:
            raise ValueError(f"--points expects s:u pairs, got {_shown(chunk)!r}")
        (s_num, s_den), (u_num, u_den) = _coordinate(s_txt), _coordinate(u_txt)
        if not s_den or not u_den:
            raise ValueError(f"bad point {_shown(chunk)!r}")
        scale = math.lcm(s_den, u_den)
        s, u = s_num * (scale // s_den), u_num * (scale // u_den)
        g = math.gcd(s, u)
        if not g:
            raise ValueError("[0:0] is not a projective point")
        points.append((s // g, u // g))
    return points


def _read_seed() -> int:
    """MULTISTRUCT_SEED as an int; unset or empty means 0."""
    text = os.environ.get("MULTISTRUCT_SEED", "")
    digits = text.removeprefix("-")  # ASCII digits only: str.isdigit also takes "²" and "١"
    if text and not (len(digits) <= SEED_DIGITS_CAP and digits.isascii() and digits.isdigit()):
        raise ValueError(
            f"MULTISTRUCT_SEED must read [-]digits with at most {SEED_DIGITS_CAP} digits, "
            f"got {_shown(text)!r}"
        )
    return int(text or "0")


def _check_r(target: str, args) -> None:
    """Raise ValueError if the target rejects the --r or --window given."""
    lowest = args.r_values[0]
    if target == "double-conic" and args.r != "sym" and lowest < 1:
        raise ValueError("the double-conic family needs r >= 1")
    if target in _NONNEGATIVE_R and lowest < 0:
        raise ValueError(_NONNEGATIVE_R[target])


_HELP_FLAGS = ("-h", "--help")

# Each option of replicate: the attribute it sets, its reader and its default.
_OPTIONS = {
    "--r": ("r", _parse_r, "sym"),
    "--template": ("template", _one_of(("paper", "derived", "both")), "both"),
    "--points": ("points", _parse_points, DEFAULT_POINTS),
    "--json": ("json_path", str, None),
    "--window": ("window", _parse_window, range(0, 7)),
}

# The usage and help texts argparse printed for this command line at 80 columns.
_USAGE = "usage: multistruct [-h] {replicate} ...\n"
_HELP = _USAGE + """
Exact replication driver for the multiple-structure computations.

positional arguments:
  {replicate}
    replicate  re-run a computation chain and compare

options:
  -h, --help   show this help message and exit
"""
_REPLICATE_USAGE = """\
usage: multistruct replicate [-h] [--r R] [--template {paper,derived,both}]
                             [--points POINTS] [--json JSON_PATH]
                             [--window WINDOW]
                             {double-conic,double-plane,triple-plane,wedge,koszul,expansion,congruence,graded,ext-claim,all}
"""
_REPLICATE_HELP = _REPLICATE_USAGE + """
positional arguments:
  {double-conic,double-plane,triple-plane,wedge,koszul,expansion,congruence,graded,ext-claim,all}

options:
  -h, --help            show this help message and exit
  --r R                 integer value in -32..32, or 'sym'
  --template {paper,derived,both}
                        which chi template drives the template-dependent
                        chains
  --points POINTS       s:u pairs, comma separated, each coordinate p or p/q;
                        each pair is read as the coprime integers of the point
                        [s:u]
  --json JSON_PATH      write the JSON report here
  --window WINDOW       a..b parameter window, bounds in -32..32
"""

# A word argparse reads as a flag: "-" and more, no space, not a negative number.
# Tried only on words that start with "-", and compiled on first use.
_FLAG_LIKE = r"-(?!\d+$|\d*\.\d+$)[^ ]+$"


def _flag(word, flags):
    """The flag of flags a word names, and the value it gives after "=" or None.

    A word names a flag by a unique prefix of it.  With flags empty every
    word is positional, (None, None); otherwise a flag-like word that names
    none of them is an unknown flag, "".
    """
    name, sep, value = word.partition("=")
    named = [f for f in flags if f.startswith(name)]
    if len(named) == 1:
        return named[0], value if sep else None
    return "" if flags and word.startswith("-") and re.match(_FLAG_LIKE, word) else None, None


def _to_stderr(line, code):
    """Write one diagnostic line to stderr and flush it; the code given.

    A line that cannot be written is dropped, whether stderr is unwritable
    or was closed at start-up (None): the code stays the one the line
    announces, never the 1 of a documented discrepancy.
    """
    try:
        if sys.stderr:
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    return code


def _to_stdout(text):
    """Write text to stdout and flush it; 0, or 2 after a diagnostic if it cannot be written.

    A stdout closed at start-up (None) takes nothing, as print writes nothing to it.
    """
    try:
        if sys.stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk is not a discrepancy (1)
        return _to_stderr(f"invalid input: cannot write output: {exc}", 2)
    return 0


def _fail(values, message):
    """Exit 2 with the message after the usage of replicate, once its values exist."""
    usage, prog = (_REPLICATE_USAGE, "multistruct replicate") if values else (_USAGE, "multistruct")
    raise SystemExit(_to_stderr(f"{usage}{prog}: error: {message}", 2))


def parse_args(argv: list[str] | None = None) -> types.SimpleNamespace:
    """The target and options of `multistruct replicate`, read left to right.

    A flag takes its value as --name=value or as the next word, which must
    not read as a flag.  "--" makes every later word of its level
    positional.  -h or --help prints the help of its level and exits 0.
    The first bad word exits 2 with the usage of its level; unknown flags
    and stray words are reported last, with the top-level usage.
    """
    words = list(sys.argv[1:] if argv is None else argv)
    values, extras, flags = None, [], _HELP_FLAGS
    while words:
        word = words.pop(0)
        flag, value = _flag(word, flags)
        if word == "--" and flags:
            flags = ()
            continue
        if flag in _HELP_FLAGS:
            if value is not None:
                _fail(values, f"argument -h/--help: ignored explicit argument {value!r}")
            raise SystemExit(_to_stdout(_REPLICATE_HELP if values else _HELP))
        if flag:
            if value is None:
                if not words or _flag(words[0], flags)[0] is not None:
                    _fail(values, f"argument {flag}: expected one argument")
                value = words.pop(0)
            attr, read, _ = _OPTIONS[flag]
        elif flag == "" or values and "target" in values:
            extras.append(_shown(word))
            continue
        elif values:
            flag = attr = "target"
            read, value = _one_of((*RUNNERS, "all")), word
        elif word == "replicate":
            values, flags = {attr: default for attr, _, default in _OPTIONS.values()}, (*_HELP_FLAGS, *_OPTIONS)
            continue
        else:
            _fail(values, f"argument command: invalid choice: {_shown(word)!r} (choose from 'replicate')")
        try:
            values[attr] = read(value)
        except ValueError as exc:
            _fail(values, f"argument {flag}: {exc}")
    if not values or "target" not in values:
        _fail(values, "the following arguments are required: " + ("target" if values else "command"))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return types.SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """The exit code of `multistruct` on argv, or on the command line when argv is None.

    Called with a list, main returns the code, and a usage error or -h
    raises SystemExit from parse_args.  Run as the program (argv None),
    main does not return: every run, a usage error and -h included, ends
    the process with os._exit, skipping the interpreter's teardown (freeing
    every module and cached value one object at a time, and flushing the
    streams once more, which turns a write that already failed into exit
    120), so atexit handlers do not run.  Nothing is left to flush there,
    since both writers flush what they write.
    """
    if argv is not None:
        return _replicate(parse_args(argv))
    try:
        code = _replicate(parse_args())
    except SystemExit as exc:  # a usage error or -h, already written
        code = exc.code
    os._exit(code)


def _replicate(args: types.SimpleNamespace) -> int:
    """Check the input, run the targets, write the records; the exit code."""
    args.templates = ["paper", "derived"] if args.template == "both" else [args.template]
    args.r_values = (args.r,) if isinstance(args.r, int) else tuple(args.window)

    targets = RUNNERS if args.target == "all" else [args.target]
    records: list[ReplicationRecord] = []
    try:
        # every input is checked before the first runner starts
        args.seed = _read_seed()
        check_points(args.points)
        for target in targets:
            _check_r(target, args)
        for target in targets:
            records.extend(RUNNERS[target](args))
    except EngineError as exc:
        return _to_stderr(f"internal inconsistency: {exc}", 3)
    except ValueError as exc:
        return _to_stderr(f"invalid input: {exc}", 2)
    except Exception as exc:  # a failed self-check must never read as a discrepancy (1)
        return _to_stderr(f"internal error: {type(exc).__name__}: {exc}", 3)

    discrepancies = sum(1 for rec in records if not rec.match)
    lines = []
    for rec in records:
        tag, published = (" ok ", "") if rec.match else ("DIFF", f"  [published: {rec.paper_value}]")
        lines.append(f"[{tag}] {rec.claim_id} ({rec.template}): {rec.computed_value}{published}\n")
    lines.append(
        f"summary: {len(records)} records, {len(records) - discrepancies} matched, "
        f"{discrepancies} discrepancies\n"
    )
    code = _to_stdout("".join(lines))
    if code:
        return code
    if args.json_path:
        import json

        try:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(report_json(records), handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            return _to_stderr(f"invalid input: cannot write report: {exc}", 2)

    return 1 if discrepancies else 0


if __name__ == "__main__":
    sys.exit(main())
