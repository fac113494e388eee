"""Check that the tests still catch a fixed list of faults in the fast paths.

Usage, from anywhere::

    python3 scripts/mutants.py [CHECKOUT]

CHECKOUT defaults to the repository holding this script.  Each entry of
``MUTANTS`` names a file, an exact source snippet, its replacement and the
test node ids that must catch the fault.  First every snippet must occur
exactly once in its file, so the list follows the code; then the named tests
must pass on an unmutated copy of the checkout.  Then, for each entry, the
checkout is copied to a temporary directory, the one edit is applied and the
named tests are run there: pytest must report a failing test (exit status
1).  A collection error, a usage error or a timeout counts as not caught.
The checkout itself is never written.

Prints one line per entry and a summary; exits 0 when every mutant is
caught and 1 otherwise.  The tests run one copy at a time, so a full run
takes about as long as the named tests take, once per entry plus once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GRADED = "src/multistruct/graded.py"
CLI = "src/multistruct/cli.py"
CHOW = "src/multistruct/chow.py"
ARITH = "src/multistruct/arith.py"
INTEGRALITY = "src/multistruct/integrality.py"
KERNELS = "src/multistruct/_kernels.py"
COHOMOLOGY = "src/multistruct/cohomology.py"
SPLITTING = "tests/test_graded.py::TestSplitting"
RANK = "tests/test_graded.py::TestIntegerRank"
SECTIONS = "tests/test_graded.py::TestSectionPairs"
STEP = "tests/test_graded.py::TestSliceStep"
PLANTED = "test_common_zero_check_matches_planted_roots_and_dense_sylvester"
ORACLES = "tests/test_cli.py::TestSpecializedOracles"
ONCE = "tests/test_cli.py::TestComputedOnce"
COMMAND_LINE = "tests/test_cli.py::TestCommandLine"
SIGNS = "tests/test_cohomology.py::TestOneSignProcedure"
P1 = "tests/test_cohomology.py::TestLineBundleCohomology"
SEQUENCES = "tests/test_cohomology.py::TestExactSequences"
PROGRAM_EXIT = "tests/test_cli.py::TestProgramExit"
EXIT_PATH = "tests/test_cli.py::TestOneExitPath"
SYMBOLIC = "tests/test_graded.py::TestSymbolicInjectivity"
FAST_PATHS = "tests/test_arith.py::TestFastPaths"
STORED_FORM = "tests/test_arith.py::TestStoredForm"

# (name, file, snippet, replacement, test node ids that must catch it)
MUTANTS = (
    (
        "one-twist reading of y off by one",
        GRADED,
        "y = cokernel_h0(cx, d_star) - d_star - 1",
        "y = cokernel_h0(cx, d_star) - d_star",
        [f"{SPLITTING}::test_splitting_values", f"{SPLITTING}::test_one_twist_matches_the_full_profile"],
    ),
    (
        "split-model check dropped",
        GRADED,
        "    if any(cokernel_h0(cx, d) != max(d + x + 1, 0) + max(d + y + 1, 0) for d in twists):",
        "    if False:",
        [f"{SPLITTING}::test_profile_off_the_split_model_rejected", f"{SPLITTING}::test_torsion_cokernel_rejected"],
    ),
    (
        "slice_rank memo not read",
        GRADED,
        "    rank = ranks.get(d)\n",
        "    rank = None\n",
        [
            "tests/test_graded.py::TestSliceMatrix::test_slice_rank_cached_by_value",
            f"{SPLITTING}::test_each_twist_computed_once",
        ],
    ),
    (
        "certified_split cache removed",
        GRADED,
        "@functools.cache\ndef certified_split(",
        "def certified_split(",
        [
            "tests/test_graded.py::TestCertificateCache::test_repeat_runs_no_chain_step",
            "tests/test_graded.py::TestCertificateCache::test_graded_target_splits_each_pair_once",
        ],
    ),
    (
        "mod-p full-rank early return forced",
        GRADED,
        "    if len(pivots) == full:\n        return full\n",
        "    return full\n",
        [f"{RANK}::test_random_matrices_match_bareiss", f"{RANK}::test_thin_products_are_rank_deficient"],
    ),
    (
        "lead rows counted from a list instead of a set",
        GRADED,
        "    if len({min(column) for column in columns if column}) == full:",
        "    if len([min(column) for column in columns if column]) == full:",
        [f"{RANK}::test_random_matrices_match_bareiss", f"{RANK}::test_thin_products_are_rank_deficient"],
    ),
    (
        "exact check of the kernel vector over Z skipped",
        GRADED,
        "    return not any(image.values())",
        "    return True",
        [f"{RANK}::test_short_modular_rank_falls_back_to_bareiss"],
    ),
    (
        "reconstruction denominator bound dropped",
        GRADED,
        "    if abs(t1) > bound:\n        return None\n",
        "",
        [f"{RANK}::test_rational_reconstruction"],
    ),
    (
        "Sylvester slice read one degree too high",
        GRADED,
        "    return slice_rank(section_row(p), m + n - 1) == m + n\n",
        "    return slice_rank(section_row(p), m + n) == m + n\n",
        [f"{SECTIONS}::test_common_zero_check", f"{SECTIONS}::{PLANTED}"],
    ),
    (
        "Sylvester rank allowed one short",
        GRADED,
        "    return slice_rank(section_row(p), m + n - 1) == m + n\n",
        "    return slice_rank(section_row(p), m + n - 1) >= m + n - 1\n",
        [f"{SECTIONS}::test_common_zero_check", f"{SECTIONS}::{PLANTED}"],
    ),
    (
        "screen rank test never fails",
        GRADED,
        "        if matrix_rank([[A, B]]) != 1:",
        "        if matrix_rank([[A, B]]) > 1:",
        [
            "tests/test_graded.py::TestComplex::test_pointwise_catches_common_zero",
            "tests/test_graded.py::TestFiberScreen::test_fractional_common_zero_fails_the_screen",
        ],
    ),
    (
        "sparse slice row index read from the u-exponent",
        GRADED,
        "columns.append({tops[i] - k0 - ds: c for i, ds, c in entries})",
        "columns.append({tops[i] - (n0 - k0) - ds: c for i, ds, c in entries})",
        ["tests/test_graded.py::TestSliceMatrix::test_sparse_slices_match_the_fraction_reference"],
    ),
    (
        "symbolic identities cache removed",
        GRADED,
        "@functools.cache\ndef symbolic_complex_identities(",
        "def symbolic_complex_identities(",
        ["tests/test_graded.py::TestCertificateCache::test_symbolic_identities_evaluated_once"],
    ),
    (
        "ext-claim window check removed",
        CLI,
        '    "ext-claim": "the vanishing claim is stated for r >= 0",\n',
        "",
        ["tests/test_cli.py::TestFaultInjection::test_bad_r_exits_2"],
    ),
    (
        "per-target r checks dropped from main",
        CLI,
        "        for target in targets:\n            _check_r(target, args)\n",
        "",
        ["tests/test_cli.py::TestFaultInjection::test_bad_input_enters_no_runner"],
    ),
    (
        "MULTISTRUCT_SEED read by int() alone",
        CLI,
        "    if text and not (len(digits) <= SEED_DIGITS_CAP and digits.isascii() and digits.isdigit()):",
        "    if False:",
        ["tests/test_cli.py::TestSeed::test_rejected_naming_the_variable"],
    ),
    (
        "seed check accepts 19 digits",
        CLI,
        "len(digits) <= SEED_DIGITS_CAP and",
        "len(digits) <= SEED_DIGITS_CAP + 1 and",
        ["tests/test_cli.py::TestPatternFreeChecks"],
    ),
    (
        "seed check accepts non-ASCII digits",
        CLI,
        " and digits.isascii() and digits.isdigit()):",
        " and digits.isdigit()):",
        ["tests/test_cli.py::TestPatternFreeChecks"],
    ),
    (
        "empty-slice shortcut also taken for one-dimensional slices",
        GRADED,
        "        if not full or below is not None",
        "        if full <= 1 or below is not None",
        [f"{STEP}::test_only_empty_slices_are_ranked_unbuilt"],
    ),
    (
        "empty slices built again",
        GRADED,
        "        if not full or below is not None",
        "        if below is not None",
        [f"{STEP}::test_absent_component_is_masked", f"{ONCE}::test_replicate_all_census_in_a_fresh_process"],
    ),
    (
        "entry terms converted on every call",
        GRADED,
        "@functools.cache\ndef _su_terms(",
        "def _su_terms(",
        [f"{ONCE}::test_replicate_all_census_in_a_fresh_process"],
    ),
    (
        "slice step reads B at ds == 1",
        GRADED,
        "{i: c for i, ds, c in column if ds == 0}",
        "{i: c for i, ds, c in column if ds == 1}",
        [f"{STEP}::test_stepped_ranks_match_bareiss", f"{RANK}::test_certificate_slices_match_bareiss"],
    ),
    (
        "slice step counts absent source components",
        GRADED,
        "        if d + a >= 0\n    ]",
        "    ]",
        [f"{STEP}::test_absent_component_is_masked", f"{STEP}::test_stepped_ranks_match_bareiss"],
    ),
    (
        "slice step bound off by one",
        GRADED,
        "below + _pure_u_rank(M, d) >= full:",
        "below + _pure_u_rank(M, d) >= full - 1:",
        [f"{STEP}::test_short_slices_are_never_stepped_to_full", f"{STEP}::test_stepped_ranks_match_bareiss"],
    ),
    (
        "slice step taken from degree d-2",
        GRADED,
        "        below = ranks.get(d - 1)",
        "        below = ranks.get(d - 2)",
        [f"{RANK}::test_certificate_slices_match_bareiss"],
    ),
    (
        "Bareiss fallback after a failed kernel proof removed",
        GRADED,
        "    rows = [[0] * len(columns) for _ in range(n_rows)]\n",
        "    return len(pivots)\n",
        [f"{RANK}::test_short_modular_rank_falls_back_to_bareiss"],
    ),
    (
        "--points count cap dropped",
        CLI,
        "    if count > POINTS_CAP:",
        "    if False:",
        ["tests/test_cli.py::TestPointsBound::test_one_past_the_count_cap_exits_2_before_any_coordinate"],
    ),
    (
        "EngineError mapped to exit 1 instead of 3",
        CLI,
        'return _to_stderr(f"internal inconsistency: {exc}", 3)',
        'return _to_stderr(f"internal inconsistency: {exc}", 1)',
        ["tests/test_cli.py::TestFaultInjection::test_engine_failures_exit_3"],
    ),
    (
        "truncate drops h^n",
        CHOW,
        'if exponent(key, "h") <= n}',
        'if exponent(key, "h") < n}',
        [
            "tests/test_chow.py::TestTruncate::test_hyperplane_powers_on_p3",
            "tests/test_chow.py::TestTruncate::test_truncating_only_at_the_end_agrees",
        ],
    ),
    (
        "Adams scaling h -> (k+1)h",
        CHOW,
        'return c.substitute({"h": k * var("h")})',
        'return c.substitute({"h": (k + 1) * var("h")})',
        [
            "tests/test_chow.py::TestAdamsAndWedge::test_adams_on_line_bundle",
            "tests/test_chow.py::TestSplittingOracle::test_rank3_all_identities",
        ],
    ),
    (
        "complete-intersection oracle specializes at O(d) instead of O(-d)",
        CLI,
        "        if specialize(symbolic, split_chern([-d for d in degrees]))",
        "        if specialize(symbolic, split_chern([d for d in degrees]))",
        [f"{ORACLES}::test_koszul_equals_the_per_bundle_pipeline"],
    ),
    (
        "wedge oracle specializes lambda^2 at the dual bundle",
        CLI,
        "        w2 = [specialize(c, chern) for c in lambda2.chern]",
        "        w2 = [specialize(c, split_chern([-t for t in twists])) for c in lambda2.chern]",
        [f"{ORACLES}::test_wedge_equals_the_per_bundle_pipeline"],
    ),
    (
        "wedge_powers per-bundle cache removed",
        CHOW,
        "@functools.cache\ndef wedge_powers(",
        "def wedge_powers(",
        [f"{ORACLES}::test_replicate_all_counts_in_a_fresh_process"],
    ),
    (
        "koszul_euler per-bundle cache removed",
        CHOW,
        "@functools.cache\ndef koszul_euler(",
        "def koszul_euler(",
        [f"{ORACLES}::test_replicate_all_counts_in_a_fresh_process"],
    ),
    (
        "packed-key product merges keys by bitwise or",
        KERNELS,
        "            key = ea + eb",
        "            key = ea | eb",
        [
            "tests/test_kernels.py::TestPureKernels::test_mul_cancellation",
            "tests/test_arith.py::TestArithmetic::test_product_expansion",
        ],
    ),
    (
        "packed-key degree guard of the product dropped",
        ARITH,
        "        if top >= _DEGREE_CAP:",
        "        if False:",
        ["tests/test_arith.py::TestExponentGuards::test_product_degree_guard"],
    ),
    (
        "Horner step of the congruences adds c*rho",
        INTEGRALITY,
        "            value = (value * rho + c) % m",
        "            value = (value + c * rho) % m",
        [
            "tests/test_integrality.py::TestCongruences::test_matches_substitute_reference",
            "tests/test_integrality.py::TestCongruences::test_no_polynomial_arithmetic",
        ],
    ),
    (
        "--points digit cap dropped",
        CLI,
        '    if not m or any(len(g or "") > POINT_DIGITS_CAP for g in m.groups()):',
        "    if not m:",
        ["tests/test_cli.py::TestPointsBound::test_other_coordinates_exit_2_at_once"],
    ),
    (
        "h_p1 without the fixed-r specialization",
        COHOMOLOGY,
        "    d = assumption.specialize(d)\n    if assumption.nonneg(d + 1):",
        "    if assumption.nonneg(d + 1):",
        [
            f"{P1}::test_fixed_values_are_constants",
            f"{SIGNS}::test_symbolic_cohomology_evaluates_to_the_fixed_and_brute_force_values",
        ],
    ),
    (
        "nonneg reads only the constant coefficient",
        COHOMOLOGY,
        "        return all(c >= 0 for c in p.numerators()[0].values())",
        "        return p.numerators()[0].get(0, 0) >= 0",
        [
            f"{SIGNS}::test_linear_forms_match_the_half_line_criterion",
            "tests/test_cohomology.py::TestAssumption::test_decidability",
        ],
    ),
    (
        "nonneg loosened to >= -1",
        COHOMOLOGY,
        "c >= 0 for c in p.numerators()",
        "c >= -1 for c in p.numerators()",
        [
            f"{SIGNS}::test_linear_forms_match_the_half_line_criterion",
            "tests/test_cohomology.py::TestAssumption::test_check_nonneg",
        ],
    ),
    (
        "double-conic tangent dimension read from h^0 of the main sequence",
        CLI,
        "    tangent = main_pair.h1\n",
        "    tangent = main_pair.h0\n",
        [
            "tests/test_cli.py::TestRecords::test_fixed_r_mode",
            "tests/test_cli.py::TestRecords::test_fixed_r_records_evaluate_the_symbolic_forms",
        ],
    ),
    (
        "r values taken from the window under --r",
        CLI,
        "    args.r_values = (args.r,) if isinstance(args.r, int) else tuple(args.window)\n",
        "    args.r_values = tuple(args.window)\n",
        [
            "tests/test_cli.py::TestRecords::test_fixed_r_replaces_the_window",
            "tests/test_cli.py::TestFaultInjection::test_bad_r_exits_2",
        ],
    ),
    (
        "koszul t^2 record reads the t coefficient",
        CLI,
        '("t2-coefficient", 2, ',
        '("t2-coefficient", 1, ',
        ["tests/test_cli.py::TestJsonReport::test_example_report_regenerates"],
    ),
    (
        "symbolic twist off by one",
        GRADED,
        "    _no_twisted_sections(_twists(r)[2], r, Assumption(r_min=0))\n",
        "    _no_twisted_sections(_twists(r)[2], r - 1, Assumption(r_min=0))\n",
        [f"{SYMBOLIC}::test_sections_appear_exactly_when_the_twisted_target_reaches_degree_0"],
    ),
    (
        "certified-split cross-check dropped",
        GRADED,
        "    if split != cx.beta.target:\n",
        "    if False:\n",
        [f"{SYMBOLIC}::test_split_other_than_the_target_of_beta_rejected"],
    ),
    (
        "section degree off by one",
        COHOMOLOGY,
        "pullback_degree(L_BUNDLE.tensor(ConicBundle(0, -m))) for m in CONORMAL_TWISTS",
        "pullback_degree(L_BUNDLE.tensor(ConicBundle(0, -m))) + 1 for m in CONORMAL_TWISTS",
        [
            "tests/test_cohomology.py::TestTangentComputation::test_family_dimension_matches",
            "tests/test_cli.py::TestDerivedRecords::test_section_degree_record_is_derived",
        ],
    ),
    (
        "certificate takes no points as the default points",
        GRADED,
        "    sample = DEFAULT_POINTS if points is None else tuple(points)\n",
        "    sample = tuple(points) if points else DEFAULT_POINTS\n",
        ["tests/test_graded.py::TestCertificate::test_no_points_is_not_the_default"],
    ),
    (
        "Chern verdict always solved under the paper template",
        CLI,
        "    triple = solve_chern_from_hilbert(hilbert, template)\n",
        '    triple = solve_chern_from_hilbert(hilbert, "paper")\n',
        ["tests/test_cli.py::TestRecords::test_congruence_template_verdicts"],
    ),
    (
        "explicit record match ignored",
        CLI,
        "paper_value == computed_value if match is None else match",
        "paper_value == computed_value if match is None else True",
        [
            "tests/test_cli.py::TestJsonReport::test_report_json_counts",
            "tests/test_cli.py::TestExitCodes::test_all_aggregates",
        ],
    ),
    (
        "double-conic expected values not specialized at a fixed r",
        CLI,
        'f"({format_dim(assumption.specialize(h0))}, {format_dim(assumption.specialize(h1))})"',
        'f"({format_dim(h0)}, {format_dim(h1)})"',
        ["tests/test_cli.py::TestRecords::test_fixed_r_records_evaluate_the_symbolic_forms"],
    ),
    (
        "echoed input not cut",
        CLI,
        '    return text if len(text) <= 40 else text[:40] + "..."\n',
        "    return text\n",
        [
            "tests/test_cli.py::TestEchoedInput::test_long_value_gives_a_short_error_line",
            "tests/test_cli.py::TestEchoedInput::test_long_target_gives_a_short_error_line",
            "tests/test_cli.py::TestEchoedInput::test_long_word_gives_a_short_error_line",
        ],
    ),
    (
        "a flag-like word taken as a value",
        CLI,
        "                if not words or _flag(words[0], flags)[0] is not None:",
        "                if not words:",
        [COMMAND_LINE],
    ),
    (
        "unrecognized words ignored",
        CLI,
        "    if extras:\n",
        "    if False:\n",
        [COMMAND_LINE],
    ),
    (
        "missing target accepted",
        CLI,
        '    if not values or "target" not in values:',
        "    if not values:",
        [COMMAND_LINE],
    ),
    (
        "scalar_div without the sign normalization",
        ARITH,
        "        if n < 0:\n            n, d = -n, -d\n",
        "",
        ["tests/test_arith.py::TestIntPairs::test_scalar_operations_match_fraction_arithmetic"],
    ),
    (
        "--points representative without the lcm scaling",
        CLI,
        "        s, u = s_num * (scale // s_den), u_num * (scale // u_den)\n",
        "        s, u = s_num, u_num\n",
        ["tests/test_cli.py::TestPointsBound::test_printed_fractions_are_accepted"],
    ),
    (
        "stdout not flushed before the hard exit",
        CLI,
        "            sys.stdout.write(text)\n            sys.stdout.flush()\n",
        "            sys.stdout.write(text)\n",
        [
            f"{PROGRAM_EXIT}::test_fresh_process_equals_in_process[ext-claim-buffered]",
            f"{PROGRAM_EXIT}::test_fresh_process_equals_in_process[all-json-buffered]",
        ],
    ),
    (
        "failed write exits 1",
        CLI,
        'return _to_stderr(f"invalid input: cannot write output: {exc}", 2)',
        'return _to_stderr(f"invalid input: cannot write output: {exc}", 1)',
        [f"{PROGRAM_EXIT}::test_unwritable_stdout_exits_2"],
    ),
    (
        "diagnostic write unguarded",
        CLI,
        "    try:\n        if sys.stderr:\n            sys.stderr.write(line + \"\\n\")\n"
        "            sys.stderr.flush()\n    except OSError:\n        pass  # nowhere left to report it\n",
        "    if sys.stderr:\n        sys.stderr.write(line + \"\\n\")\n        sys.stderr.flush()\n",
        [
            f"{EXIT_PATH}::test_stream_failure_keeps_the_exit_code[usage-error-stderr-full]",
            f"{EXIT_PATH}::test_stream_failure_keeps_the_exit_code[window-past-cap-stderr-full]",
            f"{EXIT_PATH}::test_stream_failure_keeps_the_exit_code[report-unwritable-stderr-full]",
        ],
    ),
    (
        "help written past the writer",
        CLI,
        "            raise SystemExit(_to_stdout(_REPLICATE_HELP if values else _HELP))\n",
        "            sys.stdout.write(_REPLICATE_HELP if values else _HELP)\n            raise SystemExit(0)\n",
        [f"{EXIT_PATH}::test_stream_failure_keeps_the_exit_code[help-stdout-full]"],
    ),
    (
        "hash cached on the class, not the instance",
        ARITH,
        "            self._hash = h = hash((self._den, frozenset(self._num.items())))\n",
        "            type(self)._hash = h = hash((self._den, frozenset(self._num.items())))\n",
        ["tests/test_arith.py::TestStoredForm::test_hash_is_the_documented_one_before_and_after_first_use"],
    ),
    (
        "power identity dropped",
        ARITH,
        "        return MultiPoly.const(1) if result is None else result\n",
        "        return result\n",
        ["tests/test_arith.py::TestArithmetic::test_pow_is_the_repeated_product"],
    ),
    (
        "timestamp drops the microseconds",
        CLI,
        '    fraction = f".{micros:06d}" if micros else ""\n',
        '    fraction = ""\n',
        ["tests/test_cli.py::TestJsonReport::test_timestamp_is_the_datetime_isoformat[microseconds]"],
    ),
    (
        "section pair degree off by one",
        GRADED,
        "    return target[0] - middle[1], target[0] - middle[0]\n",
        "    return target[0] - middle[1] + 1, target[0] - middle[0]\n",
        [f"{SECTIONS}::test_default_pair"],
    ),
    (
        "exactness check at a known term dropped",
        COHOMOLOGY,
        "            if left is not None and right is not None and dims[i] != left + right:\n",
        "            if False:\n",
        [f"{SEQUENCES}::test_exactness_checked_at_a_known_term"],
    ),
    (
        "rank nonnegativity unchecked",
        COHOMOLOGY,
        "        assumption.check_nonneg(value, context)\n",
        "",
        [f"{SEQUENCES}::test_negative_rank_rejected"],
    ),
    (
        "connecting-map fact ignored",
        COHOMOLOGY,
        "(2,) if connecting_injective else ()",
        "()",
        [
            f"{SEQUENCES}::test_inconsistent_fact_detected",
            "tests/test_cohomology.py::TestTangentComputation::test_symbolic_tangent_dimension",
        ],
    ),
    (
        "n-ary sum drops a denominator scale",
        ARITH,
        "                out[key] = get(key, 0) + c * f\n",
        "                out[key] = get(key, 0) + c\n",
        [f"{FAST_PATHS}::test_sum_matches_repeated_addition"],
    ),
    (
        "truncated product bound off by one",
        CHOW,
        "truncate(b, n - i) for i, part",
        "truncate(b, n - i + 1) for i, part",
        ["tests/test_chow.py::TestTruncate::test_truncated_product_matches_truncating_the_full_product"],
    ),
    (
        "shifted-binomial cache keyed on the shift alone",
        ARITH,
        "    key = (s, n)\n",
        "    key = s\n",
        [f"{FAST_PATHS}::test_shifted_binomial_matches_the_substitution_route"],
    ),
    (
        "binomial cache keyed on the shift alone",
        ARITH,
        "    key = (s, n)\n",
        "    key = s\n",
        ["tests/test_chow.py::TestKoszul::test_ci_oracle_equals_the_substitution_route"],
    ),
    (
        "a scalar's exponent left in the degree field",
        ARITH,
        "                key -= (e << shift) + (e << _DEGREE_SHIFT)\n                c *= n**e\n",
        "                key -= e << shift\n                c *= n**e\n",
        [f"{STORED_FORM}::test_random_operations_match_reference"],
    ),
    (
        "a Fraction value scaled by d**e instead of d**(top - e)",
        ARITH,
        "c *= d ** (top - e)",
        "c *= d**e",
        [f"{STORED_FORM}::test_random_operations_match_reference"],
    ),
)

TIMEOUT_S = 600


def copy_checkout(checkout: Path, into: Path) -> Path:
    """A copy of the checkout's files, without its git data and caches."""
    target = into / "checkout"
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".replbench_out")
    shutil.copytree(checkout, target, ignore=ignore)
    return target


def run_tests(copy: Path, tests: list[str]) -> int | None:
    """pytest's exit status on the named tests of a copy, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parent.parent
    stale = [
        (name, path, n)
        for name, path, snippet, _, _ in MUTANTS
        if (n := (checkout / path).read_text(encoding="utf-8").count(snippet)) != 1
    ]
    for name, path, n in stale:
        print(f"[STALE] {name}: snippet occurs {n} times in {path}")
    if stale:
        return 1

    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        status = run_tests(copy_checkout(checkout, Path(tmp)), every_test)
    if status != 0:
        print(f"[BROKEN] the unmutated checkout fails its named tests (pytest status {status})")
        return 1
    print(f"unmutated: all {len(every_test)} named test ids pass")

    missed = 0
    for name, path, snippet, replacement, tests in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
            copy = copy_checkout(checkout, Path(tmp))
            source = copy / path
            source.write_text(
                source.read_text(encoding="utf-8").replace(snippet, replacement), encoding="utf-8"
            )
            status = run_tests(copy, tests)
        caught = status == 1
        missed += not caught
        shown = "timeout" if status is None else f"pytest status {status}"
        print(f"[{'caught' if caught else 'MISSED'}] {name} ({path}; {shown})")
    print(f"summary: {len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
