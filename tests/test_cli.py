import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import topoinv
from topoinv.spaces import SpaceId, catalog

from cli_runner import run


def payload(result):
    assert result.exit_code in (0, 3), result.output
    return json.loads(result.output)


def test_ucharrank_exact():
    res = run("ucharrank", "RX:7,2")
    assert res.exit_code == 0
    data = payload(res)
    assert data["result"] == {"N": 6, "case": "a1", "kind": "exact", "value": 5}
    assert data["schema"] == "topoinv/1"


def test_ucharrank_stiefel_quaternionic():
    data = payload(run("ucharrank", "HV:5,2"))
    assert data["result"]["value"] == 14
    assert data["result"]["kind"] == "exact"


def test_ucharrank_interval():
    data = payload(run("ucharrank", "FV:8,2"))
    assert (data["result"]["lo"], data["result"]["hi"]) == (3, 6)


def test_ucharrank_uncovered_exits_3():
    res = run("ucharrank", "RV:3,2")
    assert res.exit_code == 3
    assert json.loads(res.output)["result"]["kind"] == "uncovered"


def test_invalid_space_exits_2():
    assert run("ucharrank", "RV:2,5").exit_code == 2
    assert run("ucharrank", "nonsense").exit_code == 2
    assert run("cohomology", "QQ:3,1").exit_code == 2


def test_cohomology_series():
    data = payload(run("cohomology", "RX:5,2"))
    assert data["result"]["series"] == [1, 1, 1, 1, 1, 1, 1, 1]
    assert data["result"]["trunc"] == {"N": 4, "deg": 1}
    assert data["result"]["dimension"] == 7


def test_cohomology_exterior_degrees():
    data = payload(run("cohomology", "CV:3,3"))
    assert [g["deg"] for g in data["result"]["gens"]] == [1, 3, 5]


def test_cohomology_max_deg_truncates_and_pads():
    data = payload(run("cohomology", "HX:5,2", "--max-deg", "8"))
    assert data["result"]["series"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    wide = payload(run("cohomology", "RX:5,2", "--max-deg", "9"))
    assert wide["result"]["series"] == [1] * 8 + [0, 0]


def test_cohomology_max_deg_builds_only_the_printed_degrees():
    # CV:600,600 has top degree 360000; the series is cut before it is built
    data = payload(run("cohomology", "CV:600,600", "--max-deg", "3"))
    assert data["result"]["series"] == [1, 1, 0, 1]
    assert data["result"]["top_degree"] == 360000
    assert run("cohomology", "CV:600,600", "--max-deg", "-1").exit_code == 2


def test_cohomology_of_a_large_truncation_order():
    # y^599 needs ten bits of a monomial code
    data = payload(run("cohomology", "RX:600,2", "--max-deg", "3"))
    assert data["result"]["series"] == [1, 1, 1, 1]


def _assert_refused_at_once(args, message):
    start = time.perf_counter()
    res = run(*args)
    assert time.perf_counter() - start < 1, args
    assert res.exit_code == 2, args
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], args
    assert res.stdout == "", args


def test_series_over_its_cap_exits_2_with_one_error_line():
    _assert_refused_at_once(("cohomology", "RX:5,2", "--max-deg", "300000000"), "cap 1048576")
    _assert_refused_at_once(("cohomology", "CV:1200,1200"), "cap 1048576")


def test_long_fibers_are_refused_at_once_and_orders_answer_for_every_n():
    _assert_refused_at_once(("cuplength", "RV:1000000,999999"), "exceed cap 16384")
    _assert_refused_at_once(("cohomology", "FV:1000000000,499999999", "--max-deg", "3"),
                            "exceed cap 16384")
    # a witness lists one factor per cup: y^(N-1) alone is over its cap
    _assert_refused_at_once(("cuplength", "RX:2097152,2"), "exceeds cap 1048576")
    # the oracle names its generator masks by their power of two
    _assert_refused_at_once(("cuplength", "RX:16385,16384", "--mode", "oracle"),
                            "2^16383 generator masks exceed oracle cap 2^16")
    start = time.perf_counter()
    data = payload(run("ucharrank", "CX:100000000,99999999"))
    assert time.perf_counter() - start < 2
    assert data["result"]["N"] == 256


def test_verify_max_n_is_bounded():
    for max_n in ("17", "100000"):
        _assert_refused_at_once(("verify", "--max-n", max_n), "at most 16")
    # the grids start at n = 2: a smaller bound would check nothing and pass
    for max_n in ("1", "0", "-3"):
        _assert_refused_at_once(("verify", "--suite", "palindrome", "--max-n", max_n),
                                "--max-n must be at least 2")


def test_cohomology_emit_presentation():
    data = payload(run("cohomology", "RX:5,2", "--emit-presentation"))
    assert data["result"]["trunc"] == {"N": 4, "deg": 1}
    assert data["result"]["gens"] == [{"j": 4, "deg": 4, "square": "zero"}]
    assert data["result"]["space"] == "RX:5,2"


def test_cuplength_with_bounds_flags_discrepancy():
    data = payload(run("cuplength", "RX:5,2", "--with-bounds"))
    assert data["result"]["value"] == 4
    assert data["result"]["witness"] == ["y", "y", "y", "y4"]
    assert data["result"]["bounds"] == [{"name": "dim-minus-index", "value": 3}]
    assert data["result"]["violations"] == ["dim-minus-index"]
    assert any("exceeded" in w for w in data["warnings"])


def test_cuplength_plain_and_oracle():
    assert payload(run("cuplength", "HX:5,2"))["result"]["value"] == 4
    assert payload(run("cuplength", "CV:2,2"))["result"]["value"] == 2
    assert payload(run("cuplength", "RX:5,2", "--mode", "oracle"))["result"]["value"] == 4


def test_s3map_examples():
    assert payload(run("s3map", "--from", "Sp:2", "--to", "Sp:4"))["result"]["status"] == "possible"
    data = payload(run("s3map", "--from", "HV:6,2", "--to", "HV:5,2"))
    assert data["result"]["status"] == "impossible"
    assert "n-k=4 > m-l=3" in data["result"]["detail"]
    assert payload(run("s3map", "--from", "S4n-1:2", "--to", "S4n-1:3"))["result"]["status"] == "possible"
    assert payload(run("s3map", "--from", "S4n-1:5", "--to", "HV:6,2"))["result"]["status"] == "not-ruled-out"
    assert run("s3map", "--from", "S:19", "--to", "HV:6,2").exit_code == 2


def test_table_csv_rows():
    res = run("table", "ucharrank", "CX", "--n", "3..5", "--k", "2..2", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "family,n,k,kind,value,lo,hi,case,N"
    assert lines[1] == "CX,3,2,exact,4,,,C.odd,2"
    assert lines[2] == "CX,4,2,exact,4,,,C.even,4"
    assert lines[3] == "CX,5,2,exact,8,,,C.odd,4"


def test_table_empty_range_is_header_only():
    res = run("table", "ucharrank", "RX", "--n", "5..4", "--format", "csv")
    assert res.exit_code == 0
    assert res.output.strip() == "family,n,k,kind,value,lo,hi,case,N"


def test_table_cuplength_values():
    res = run("table", "cuplength", "HX", "--n", "5..6", "--k", "2..2", "--format", "json")
    rows = json.loads(res.output)
    assert [(r["n"], r["value"]) for r in rows] == [(5, 4), (6, 6)]


def test_table_skips_invalid_combinations():
    res = run("table", "ucharrank", "RX", "--n", "3..4", "--k", "2..4", "--format", "csv")
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 + 3  # (3,2), (4,2), (4,3)


def test_table_guards_huge_ranges():
    assert run("table", "ucharrank", "RX", "--n", "3..200").exit_code == 2
    for bad in (("--n", "abc"), ("--n", "3.."), ("--n", "3..10", "--k", "x"),
                ("--n", "3..10000000000"), ("--n", "5", "--k", "2..10000000000")):
        res = run("table", "ucharrank", "RX", *bad)
        assert res.exit_code == 2, bad
        assert isinstance(res.exception, SystemExit), bad
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, bad
    # values below 1 name no space and are dropped before the grid is built
    res = run("table", "ucharrank", "RX", "--n", "-10000000000..4", "--format", "csv")
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 1 + 3


def test_out_of_range_spec_says_so():
    for spec in ("RX:3,9", "RV:2,5", "FV:4,2"):
        res = run("ucharrank", spec)
        assert res.exit_code == 2, spec
        assert res.stderr == f"error: parameters out of range for {spec}\n"
    res = run("ucharrank", "RX:3")
    assert res.exit_code == 2
    assert res.stderr == "error: cannot parse space spec 'RX:3'\n"
    for source, target, message in (
        ("HV:2,3", "Sp:2", "parameters out of range for HV:2,3"),
        ("S4n-1:0", "Sp:2", "sphere parameter must be positive, got 0"),
        ("Sp:2", "Sp:-1", "group parameter must be positive, got -1"),
    ):
        res = run("s3map", "--from", source, "--to", target)
        assert res.exit_code == 2, (source, target)
        assert res.stdout == "" and res.stderr == f"error: {message}\n", (source, target)
    res = run("s3map", "--from", "HV:3", "--to", "Sp:2")
    assert res.exit_code == 2
    assert res.stderr == "error: cannot parse G-space spec 'HV:3'\n"


def test_usage_errors_print_one_error_line():
    # an option's prefix is no option: `--with` is not `--with-bounds`
    for args in (("table", "ucharrank", "XX", "--n", "3"), ("table",), ("nosuch",),
                 ("verify", "--mx-n", "3"), ("cuplength", "RX:5,2", "--with")):
        res = run(*args)
        assert res.exit_code == 2, args
        assert isinstance(res.exception, SystemExit), args
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, args
    assert "invalid choice: 'XX'" in run("table", "ucharrank", "XX", "--n", "3").stderr
    help_text = run("table", "--help")
    assert help_text.exit_code == 0 and help_text.output.startswith("usage:")
    version = run("--version")
    assert version.exit_code == 0 and "version" in version.output
    bare = run()
    assert bare.exit_code == 2 and bare.stderr.startswith("usage:")
    assert all(name in bare.stderr for name in ("ucharrank", "cohomology", "table", "verify"))


def test_help_prints_usage_on_stdout_at_each_level():
    for args in (("--help",), ("--meta", "--help"), *((name, "--help") for name in (
            "ucharrank", "cohomology", "cuplength", "s3map", "table", "verify"))):
        res = run(*args)
        assert (res.exit_code, res.stderr) == (0, ""), args
        assert res.stdout.startswith("usage:"), args
    assert "--emit-presentation" in run("cohomology", "--help").stdout
    assert "COMMAND" in run("--help").stdout
    # --help is read wherever it stands among the command's options
    assert run("table", "ucharrank", "XX", "--help").stdout.startswith("usage:")
    # after `--` it is a value, here a space spec
    assert run("ucharrank", "--", "--help").exit_code == 2


def test_version_and_meta_come_before_the_command():
    version = run("--version")
    assert (version.exit_code, version.stdout) == (0, f"topoinv, version {topoinv.__version__}\n")
    assert json.loads(run("--meta", "ucharrank", "RX:7,2").stdout)["meta"]["version"]
    for args in (("ucharrank", "RX:7,2", "--meta"), ("ucharrank", "RX:7,2", "--version")):
        res = run(*args)
        assert res.exit_code == 2, args
        assert res.stderr == f"error: unrecognized arguments: {args[-1]}\n", args


def test_usage_errors_name_what_is_wrong():
    for args, message in (
        (("s3map", "--from", "Sp:2"), "the following arguments are required: --to"),
        (("s3map", "--to", "Sp:2"), "the following arguments are required: --from"),
        (("table", "ucharrank", "RX"), "the following arguments are required: --n"),
        (("table", "ucharrank", "RX", "--n"), "argument --n: expected one argument"),
        (("table", "ucharrank", "RX", "--n", "3", "--jobs", "2"), "unrecognized arguments: --jobs"),
        (("verify", "--jobs", "2"), "unrecognized arguments: --jobs"),
        (("cuplength", "RX:5,2", "--with"), "unrecognized arguments: --with"),
        (("cuplength", "RX:5,2", "--mode", "exact"), "invalid choice: 'exact'"),
        (("cuplength", "RX:5,2", "--with-bounds=yes"), "unrecognized arguments: --with-bounds=yes"),
        (("ucharrank", "RX:7,2", "RX:5,2"), "unrecognized arguments: RX:5,2"),
        (("nosuch",), "argument COMMAND: invalid choice: 'nosuch'"),
        (("--meta",), "the following arguments are required: COMMAND"),
        (("--verbose", "ucharrank", "RX:7,2"), "argument COMMAND: invalid choice: '--verbose'"),
    ):
        res = run(*args)
        assert res.exit_code == 2, args
        assert res.stdout == "" and res.stderr.count("\n") == 1, args
        assert res.stderr.startswith("error: ") and message in res.stderr, (args, res.stderr)


def test_option_values_are_the_next_token():
    # a value that looks like a number below zero is still the option's value
    start = time.perf_counter()
    res = run("table", "ucharrank", "RX", "--n", "-10000000000..4", "--format", "csv")
    assert time.perf_counter() - start < 1
    assert res.exit_code == 0 and len(res.stdout.splitlines()) == 1 + 3
    assert run("cohomology", "RX:5,2", "--max-deg", "-1").stderr == (
        "error: --max-deg must be nonnegative\n")
    # options may precede the positionals, and `--` ends the options
    moved = run("table", "--n", "3..5", "--format", "csv", "ucharrank", "--k", "2", "--", "CX")
    assert moved.stdout == run("table", "ucharrank", "CX", "--n", "3..5", "--k", "2",
                               "--format", "csv").stdout


def test_interrupt_prints_one_error_line(monkeypatch):
    import topoinv.cli

    def interrupted(space):
        raise KeyboardInterrupt

    monkeypatch.setattr(topoinv.cli, "ucharrank", interrupted)
    res = run("ucharrank", "RX:7,2")
    assert res.exit_code == 1
    assert res.stderr == "error: aborted\n"


def test_table_cuplength_runs_no_oracle(monkeypatch):
    import topoinv.gralg

    calls = []
    sweep = topoinv.gralg._sweep

    def counted(rules):
        calls.append(rules)
        return sweep(rules)

    monkeypatch.setattr(topoinv.gralg, "_sweep", counted)
    res = run("table", "cuplength", "RX", "--n", "3..12", "--format", "csv")
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 1 + len(catalog(["RX"], range(3, 13)))
    assert calls == []


def _subprocess_env() -> dict:
    src = str(Path(topoinv.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_import_leaves_the_process_pool_unloaded():
    # a query pays for none of these; modules loaded before the import (some
    # hosts' site preloads) do not count
    code = ("import sys; before = set(sys.modules); import topoinv.cli; "
            "print(sorted(m for m in set(sys.modules) - before if m in ('dataclasses', "
            "'inspect', 'datetime', 'multiprocessing', 'concurrent.futures.process', 'click', "
            "'argparse', 'gettext', 'array', 'struct', 'topoinv.checks')))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # the pipe's reader is gone before the query starts, so writing stdout
    # raises BrokenPipeError: at the final flush for a short document, mid-run
    # for the grid.  stdout to a pipe is block-buffered unless PYTHONUNBUFFERED.
    env = {key: value for key, value in _subprocess_env().items() if key != "PYTHONUNBUFFERED"}
    for args in (("ucharrank", "RX:7,2"), ("table", "ucharrank", "RX", "--n", "3..128")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run([sys.executable, "-m", "topoinv.cli", *args], stdout=write_end,
                                 stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (1, ""), args


def test_table_deterministic_and_parallel():
    args = ("table", "ucharrank", "RX", "--n", "3..10", "--k", "2..9", "--format", "csv")
    first = run(*args)
    second = run(*args)
    assert first.output == second.output


def test_meta_wraps_payload_without_changing_it():
    plain = json.loads(run("ucharrank", "RX:7,2").output)
    wrapped = json.loads(run("--meta", "ucharrank", "RX:7,2").output)
    assert wrapped["payload"] == plain
    assert "generated_at" in wrapped["meta"]


def test_verify_palindrome_suite():
    res = run("verify", "--suite", "palindrome", "--max-n", "6")
    assert res.exit_code == 0
    assert "PASS" in res.output


def test_verify_all_small_reports_expected_warnings():
    res = run("verify", "--suite", "all", "--max-n", "5")
    assert res.exit_code == 0
    assert "expected warning" in res.output
    assert "RX:5,2" in res.output


def test_spectral_check_reads_the_truncation_order(monkeypatch):
    # the first nonzero differential of a quotient X:n,k, k >= 2, lies on page
    # d*N for the truncation order N, |y| = d; an order off by one must fail
    # the check on every such space of every quotient family
    import topoinv.checks
    from topoinv.spaces import truncation_order

    quotients = [space for space in catalog(["RX", "FV", "CX", "HX"], range(2, 13))
                 if space.k >= 2]
    assert len(quotients) == 185
    for space in quotients:
        assert topoinv.checks._check_spectral(space) == (None, []), space
    monkeypatch.setattr(topoinv.checks, "truncation_order",
                        lambda space: truncation_order(space) + 1)
    for space in quotients:
        failure, _ = topoinv.checks._check_spectral(space)
        assert failure is not None and failure.startswith(f"{space}: first differential"), space
    failure, _ = topoinv.checks._check_spectral(SpaceId.parse("HX:5,2"))
    assert failure == "HX:5,2: first differential on page 16 != 4 * order 5"


def test_verify_suite_choices_are_the_grid_suites():
    # every grid suite of topoinv.checks can be run alone, and nothing else
    import topoinv.checks
    from topoinv.cli import _COMMANDS

    choices = _COMMANDS["verify"][2]["--suite"][1]
    assert sorted(choices) == sorted([name for name, _, _ in topoinv.checks._GRID_SUITES] + ["all"])
    res = run("verify", "--suite", "cup", "--max-n", "4")
    assert res.exit_code == 0, res.output
    assert res.stdout.startswith("cup: ") and "verify: PASS" in res.stdout, res.stdout


def test_query_payloads_share_the_schema():
    for args in (
        ("ucharrank", "RX:7,2"),
        ("cohomology", "CV:3,3"),
        ("cuplength", "HX:5,2"),
        ("s3map", "--from", "Sp:2", "--to", "Sp:4"),
    ):
        data = payload(run(*args))
        assert set(data) == {"schema", "query", "result", "provenance", "warnings"}
        assert data["schema"] == "topoinv/1"


def test_csv_column_count_is_constant():
    res = run("table", "ucharrank", "RX", "--n", "3..8", "--format", "csv")
    for line in res.output.strip().splitlines():
        assert line.count(",") == 8


def test_oracle_over_its_cap_exits_2_with_one_error_line():
    start = time.perf_counter()
    res = run("cuplength", "RV:18,17", "--mode", "oracle")
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == ["error: 2^17 generator masks exceed oracle cap 2^16"]
    assert res.stdout == ""
    # like the closed form, the oracle lists no witness of more than 2^20 factors
    _assert_refused_at_once(("cuplength", "RX:2097152,2", "--mode", "oracle"),
                            "exceeds cap 1048576")


def test_oracle_answers_where_only_y_is_large():
    # y's order counts toward no oracle cap: CX:65537,1 has one generator mask
    res = run("cuplength", "CX:65537,1", "--mode", "oracle")
    assert res.exit_code == 0, res.output
    assert payload(res)["result"]["value"] == 65536
    res = run("cuplength", "RX:70000,2", "--mode", "oracle")
    assert res.exit_code == 0, res.output
    closed_form = payload(run("cuplength", "RX:70000,2"))["result"]["value"]
    assert payload(res)["result"]["value"] == closed_form


def test_work_cap_environment_variable_is_ignored(monkeypatch):
    monkeypatch.setenv("TOPOINV_WORK_CAP", "4")
    res = run("cuplength", "RX:5,2", "--mode", "oracle")
    assert res.exit_code == 0
    assert payload(res)["result"]["value"] == 4


def test_with_bounds_only_adds_the_bounds():
    # in either mode the value and witness are cup_length's, with or without bounds
    for mode in ("generators", "oracle"):
        plain = payload(run("cuplength", "RX:5,2", "--mode", mode))
        bounded = payload(run("cuplength", "RX:5,2", "--mode", mode, "--with-bounds"))
        assert bounded["result"].pop("bounds") == [{"name": "dim-minus-index", "value": 3}]
        assert bounded["result"].pop("violations") == ["dim-minus-index"]
        assert bounded.pop("warnings") == ["bound dim-minus-index=3 exceeded by exact value 4"]
        assert plain.pop("warnings") == []
        assert bounded == plain, mode


def test_table_answers_spheres_as_uncovered():
    res = run("table", "ucharrank", "RV", "--n", "3..5", "--format", "csv")
    assert res.exit_code == 0, res.output
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    spheres = [row for row in rows if row[2] == "1"]
    assert [row[1] for row in spheres] == ["3", "4", "5"]
    assert all(row[3] == "uncovered" for row in spheres)
    assert payload(run("ucharrank", "RV:5,1"))["result"]["kind"] == "uncovered"


def _wrong_oracle(monkeypatch):
    # the one oracle sweep finds every word one factor longer
    import topoinv.gralg

    sweep = topoinv.gralg._sweep

    def wrong_sweep(rules):
        length, parent, factor = sweep(rules)
        return [n + 1 for n in length], parent, factor

    monkeypatch.setattr(topoinv.gralg, "_sweep", wrong_sweep)
    # forget the shapes swept before the fault, so every block is swept again
    monkeypatch.setattr(topoinv.gralg, "_ORACLE_OF_SHAPE", {})


def test_verify_reports_cup_disagreement_as_failure(monkeypatch):
    _wrong_oracle(monkeypatch)
    # the whole-ring oracle goes through the same sweep
    closed = payload(run("cuplength", "RX:5,2"))["result"]["value"]
    assert payload(run("cuplength", "RX:5,2", "--mode", "oracle"))["result"]["value"] == closed + 1
    res = run("verify", "--suite", "all", "--max-n", "3")
    assert res.exit_code == 1
    assert "FAIL: RV:3,2: closed form gave" in res.output
    assert isinstance(res.exception, SystemExit)  # clean exit, not an uncaught error


def test_verify_cross_checks_cup_length_up_to_the_oracle_cap(monkeypatch):
    # cup_report sums the oracle over tensor blocks, so it checks CX:16,11
    # (2^10 masks) and RV:18,17 (2^17, above the whole-ring oracle's cap) alike
    # (run_suites records the error as that space's failure, naming it once)
    import topoinv.checks
    from topoinv.errors import TopoinvError
    from topoinv.invariants import cup_report

    for spec in ("CX:16,11", "RV:18,17"):
        assert topoinv.checks._check_cup(SpaceId.parse(spec)) == (None, [])
    _wrong_oracle(monkeypatch)
    for spec in ("CX:16,11", "RV:18,17"):
        with pytest.raises(TopoinvError, match=f"{spec}: closed form gave"):
            cup_report(SpaceId.parse(spec))
        monkeypatch.setattr(topoinv.checks, "catalog",
                            lambda families, grid: [SpaceId.parse(spec)])
        [(_, spaces, failures, _, skips, _, _)] = topoinv.checks.run_suites("cup", 2)
        assert (spaces, skips, len(failures)) == (1, [], 1)
        assert failures[0].startswith(f"{spec}: closed form gave"), failures
        assert failures[0].count(spec) == 1, failures


def test_cup_report_cross_checks_the_longest_chain_a_fiber_allows(monkeypatch):
    # RV:16385,16384 holds the chain g1 -> g2 -> ... -> g16384 of 15
    # generators, 2^15 masks in one block: swept afresh within 2 s, and a
    # wrong oracle is caught on it
    import topoinv.gralg
    from topoinv.errors import TopoinvError
    from topoinv.invariants import cup_report

    space = SpaceId.parse("RV:16385,16384")
    start = time.perf_counter()
    assert cup_report(space).exact.value == 1 << 17
    assert time.perf_counter() - start < 2
    chain = tuple(range(1, 15)) + (-1,)  # each bit squares onto the next
    assert topoinv.gralg._ORACLE_OF_SHAPE[chain] == (1 << 15) - 1
    _wrong_oracle(monkeypatch)
    with pytest.raises(TopoinvError, match="RV:16385,16384: closed form gave"):
        cup_report(space)


def test_verify_cup_suite_sweeps_each_block_shape_once(monkeypatch):
    # the 791 spaces of the grid split into blocks of 16 shapes (square
    # rules), and the oracle sweeps each shape once
    import topoinv.gralg
    from topoinv.invariants import cup_report

    sweeps = []
    sweep = topoinv.gralg._sweep

    def counted(rules):
        sweeps.append(rules)
        return sweep(rules)

    monkeypatch.setattr(topoinv.gralg, "_sweep", counted)
    res = run("verify", "--suite", "cup", "--max-n", "16")
    assert res.exit_code == 0, res.output
    assert "cup: 791 spaces, 0 failures" in res.stdout
    assert len(sweeps) == len(set(sweeps)) == 16
    sweeps.clear()
    cup_report(SpaceId.parse("RV:16,15"))
    assert sweeps == []


def test_verify_cup_suite_builds_each_ring_once(monkeypatch):
    import topoinv.checks
    import topoinv.invariants
    import topoinv.spaces

    built = []

    def counted(space):
        built.append(space)
        return topoinv.spaces.presentation(space)

    for module in (topoinv.checks, topoinv.invariants):
        monkeypatch.setattr(module, "presentation", counted)
    res = run("verify", "--suite", "cup", "--max-n", "16")
    assert res.exit_code == 0, res.output
    assert len(built) == len(set(built)) == 791


def test_cuplength_with_bounds_builds_the_ring_once(monkeypatch):
    import topoinv.cli
    import topoinv.invariants
    import topoinv.spaces

    built = []

    def counted(space):
        built.append(space)
        return topoinv.spaces.presentation(space)

    for module in (topoinv.cli, topoinv.invariants):
        monkeypatch.setattr(module, "presentation", counted)
    res = run("cuplength", "RX:5,2", "--with-bounds")
    assert res.exit_code == 0, res.output
    assert built == [SpaceId.parse("RX:5,2")]


def test_cuplength_with_bounds_reads_the_closed_form_once(monkeypatch):
    # cup_report's closed form is the query's value in generators mode
    import topoinv.gralg

    calls = []
    closed_form = topoinv.gralg._cup_from_chains

    def counted(p):
        calls.append(p)
        return closed_form(p)

    monkeypatch.setattr(topoinv.gralg, "_cup_from_chains", counted)
    plain = payload(run("cuplength", "RV:11,10"))
    assert len(calls) == 1
    calls.clear()
    bounded = payload(run("cuplength", "RV:11,10", "--with-bounds"))
    assert len(calls) == 1
    assert bounded["result"] == {**plain["result"], "bounds": [], "violations": []}


def test_cup_disagreement_in_a_query_exits_1_without_traceback(monkeypatch):
    _wrong_oracle(monkeypatch)
    res = run("cuplength", "RV:3,2", "--with-bounds")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: RV:3,2: closed form gave")


def test_verify_fails_a_broken_catalog_ring_with_exit_1(monkeypatch):
    # every square set to zero breaks Borel's rule on the real Stiefel rings:
    # a broken catalog, so each such space fails and verify exits 1, not 2
    import topoinv.spaces
    from topoinv.gralg import SQ_ZERO, SimpleGenerator

    monkeypatch.setattr(topoinv.spaces, "SimpleGenerator",
                        lambda label, degree, square: SimpleGenerator(label, degree, SQ_ZERO))
    res = run("verify", "--suite", "all", "--max-n", "4")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and "error:" not in res.stderr
    assert "FAIL: RV:3,2: Borel's rule needs the square of generator 1" in res.stderr
    # RV:3,2 and RV:4,3, the rings with a square, in each suite that builds them
    for line in ("palindrome: 41 spaces, 2 failures", "steenrod: 24 spaces, 2 failures",
                 "spectral: 17 spaces, 0 failures"):
        assert line in res.stdout, res.stdout
    assert "verify: FAIL" in res.stdout
    # each FAIL line names its suite, so no two of the six are the same
    lines = res.stderr.splitlines()
    assert len(lines) == len(set(lines)) == 6, lines
    assert sorted(line.rsplit(" ", 1)[1] for line in lines) == sorted(
        f"[{suite}]" for suite in ("palindrome", "steenrod", "cup") for _ in range(2))


@pytest.mark.parametrize("family, top, failures", [
    ("FV", lambda space, m: space.k + m, 14),  # binom(k+m, m) for binom(k+m-1, m)
    ("HX", lambda space, m: space.n | 1, 6),  # binom(n|1, m) for binom(n, m)
], ids=["FV", "HX"])
def test_verify_catches_a_planted_coefficient(monkeypatch, family, top, failures):
    # the coefficients of `family` read binom(top(space, m), m), which only
    # the spectral route sees
    import topoinv.spaces
    from topoinv.parity import binom_parity

    parity = topoinv.spaces._coefficient_parity

    def planted(space, m):
        if space.family.value != family:
            return parity(space, m)
        return binom_parity(top(space, m), m)

    monkeypatch.setattr(topoinv.spaces, "_coefficient_parity", planted)
    res = run("verify", "--suite", "all", "--max-n", "12")
    assert res.exit_code == 1
    assert f"spectral: 217 spaces, {failures} failures" in res.stdout, res.stdout
    lines = res.stderr.splitlines()
    assert len(lines) == failures and all(line.endswith(" [spectral]") for line in lines), lines


def test_verify_counts_a_cap_refusal_as_skipped(monkeypatch):
    # a lowered fiber cap refuses the spectral check of the spaces with the
    # most fiber generators: each is skipped and named, not failed
    import topoinv.spaces
    from topoinv.errors import WorkCapExceeded
    from topoinv.spaces import serre_verify

    monkeypatch.setattr(topoinv.spaces, "FIBER_CAP", 4)
    spaces, refusals = catalog(["RX", "FV", "CX", "HX"], range(2, 9)), []
    for space in spaces:
        try:
            serre_verify(space)
        except WorkCapExceeded as exc:
            refusals.append(str(exc))
    total, skipped = len(spaces), len(refusals)
    assert 0 < skipped < total
    res = run("verify", "--suite", "spectral", "--max-n", "8")
    assert res.exit_code == 0, res.output
    assert res.stdout == (f"spectral: {total} spaces, 0 failures, {skipped} skipped\n"
                          f"verify: PASS ({total - skipped} checks, 0 expected warnings, "
                          f"{skipped} skipped)\n")
    assert res.stderr.splitlines() == [f"skipped: {message} [spectral]" for message in refusals]


def test_verify_meta_times_each_suite_on_stderr():
    # stdout is that of a plain run; stderr holds one time line per suite,
    # a grid suite's naming its three slowest spaces
    plain = run("verify", "--suite", "all", "--max-n", "3")
    res = run("--meta", "verify", "--suite", "all", "--max-n", "3")
    assert res.exit_code == plain.exit_code == 0 and res.stdout == plain.stdout
    lines = res.stderr.splitlines()
    names = ["palindrome", "spectral", "steenrod", "cup", "parity", "equivariant"]
    assert [line.split()[1] for line in lines] == names, lines
    for line in lines:
        parts = line.split("; ")
        assert parts[0].startswith("time: ") and parts[0].endswith(" ms"), line
        assert len(parts) == (1 if line.split()[1] in ("parity", "equivariant") else 4), line
        assert all(SpaceId.parse(part.split()[0]) and part.endswith(" ms") for part in parts[1:])


def test_verify_fails_the_single_checks(monkeypatch):
    # a wrong binomial parity and an identity map ruled out
    import topoinv.checks
    from topoinv.equivariant import FeasibilityVerdict
    from topoinv.spaces import Family, SpaceId

    parity, feasibility = topoinv.checks.binom_parity, topoinv.checks.feasibility
    monkeypatch.setattr(topoinv.checks, "binom_parity",
                        lambda n, j: 1 - parity(n, j) if (n, j) == (64, 32) else parity(n, j))
    monkeypatch.setattr(topoinv.checks, "feasibility",
                        lambda source, target: FeasibilityVerdict("impossible", "planted", "planted")
                        if source == target == SpaceId(Family.HV, 3, 2)
                        else feasibility(source, target))
    res = run("verify", "--suite", "all", "--max-n", "2")
    assert res.exit_code == 1
    assert "parity: FAILED\nequivariant: FAILED\n" in res.stdout, res.stdout
    assert res.stderr == ("FAIL: parity mismatch at (64, 32) [parity]\n"
                          "FAIL: identity map ruled out on HV:3,2 [equivariant]\n")


def test_verify_checks_the_index_against_exact_binomials(monkeypatch):
    # a mod-2 index read at the start of the fiber's range is wrong on 1,414
    # of the 2,080 pairs 1 <= k <= n <= 64; the first is HV:2,2
    import topoinv.checks
    from topoinv.spaces import fiber_range

    monkeypatch.setattr(topoinv.checks, "truncation_order",
                        lambda space: fiber_range(space).start)
    res = run("verify", "--suite", "all", "--max-n", "2")
    assert res.exit_code == 1
    assert "equivariant: FAILED\n" in res.stdout, res.stdout
    assert res.stderr == "FAIL: mod-2 index of HV:2,2 is alpha^1, not alpha^2 [equivariant]\n"


def test_verify_checks_binom_divides_against_exact_binomials(monkeypatch):
    # the equal-gap pair (l - 1, m - n) of binom_divides planted as (l, m - n):
    # no identity map reaches it (m = n returns first), and it is wrong on 404
    # of the 11,440 equal-gap tuples with n, m <= 32
    import inspect
    import math

    import topoinv.checks
    import topoinv.parity

    source = inspect.getsource(topoinv.parity.binom_divides)
    assert source.count("((l - 1, m - n), (m, m - n))") == 1
    namespace = dict(vars(topoinv.parity))
    exec(source.replace("((l - 1, m - n)", "((l, m - n)"), namespace)
    planted = namespace["binom_divides"]
    tuples = [(n, k, m, m - n + k) for n in range(1, 33) for m in range(1, 33)
              for k in range(max(n - m, 0) + 1, n + 1)]
    wrong = [(n, k, m, l) for n, k, m, l in tuples
             if planted(n, k, m, l) != (math.comb(m, n - k + 1) % math.comb(n, n - k + 1) == 0)]
    assert (len(tuples), len(wrong)) == (11440, 404)
    monkeypatch.setattr(topoinv.checks, "binom_divides", planted)
    res = run("verify", "--suite", "all", "--max-n", "2")
    assert res.exit_code == 1
    assert "equivariant: FAILED\n" in res.stdout, res.stdout
    assert res.stderr == f"FAIL: binom_divides wrong at {wrong[0]} [equivariant]\n"


def test_verify_multiplies_out_the_cup_witness(monkeypatch):
    # a witness of the right length, one more y and one fewer chain root,
    # vanishes in every ring with a generator: y^N = 0, and a Stiefel ring
    # has no y; the value still agrees with the oracle
    import topoinv.invariants
    from topoinv.gralg import CupMode, CupResult, cup_length
    from topoinv.spaces import presentation

    def planted(p, mode=CupMode.GENERATOR_SEARCH):
        res = cup_length(p, mode)
        if CupMode(mode) is CupMode.GENERATOR_SEARCH and p.num_gens:
            return CupResult(res.value, (p.y_symbol,) + res.witness[:-1])
        return res

    monkeypatch.setattr(topoinv.invariants, "cup_length", planted)
    res = run("verify", "--suite", "cup", "--max-n", "5")
    spaces = catalog(["RV", "CV", "HV", "RX", "FV", "CX", "HX"], range(2, 6))
    failures = sum(1 for space in spaces if presentation(space).num_gens)
    assert res.exit_code == 1
    assert f"cup: {len(spaces)} spaces, {failures} failures" in res.stdout, res.stdout
    lines = res.stderr.splitlines()
    assert len(lines) == failures and all(line.endswith(" [cup]") for line in lines), lines
    assert "FAIL: RX:5,2: witness product vanishes at factor 4 (y) [cup]" in lines
    assert "FAIL: RV:3,2: witness product vanishes at factor 1 (y) [cup]" in lines


def test_verify_loads_no_process_pool():
    code = ("import sys; before = set(sys.modules); import topoinv.cli; "
            "topoinv.cli.main(['verify', '--suite', 'all', '--max-n', '2']); "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert "verify: PASS" in out.stdout, out.stdout
    assert out.stdout.splitlines()[-1] == "[]"


def test_verify_steenrod_never_lists_the_basis(monkeypatch):
    from topoinv.gralg import AlgebraPresentation

    def no_basis(self):
        raise AssertionError("basis listed")

    monkeypatch.setattr(AlgebraPresentation, "basis_codes", no_basis)
    res = run("verify", "--suite", "steenrod", "--max-n", "6")
    assert res.exit_code == 0, res.output
    assert "verify: PASS" in res.output
    # RV:n,k with 1 <= k < n, CV and HV with 1 <= k <= n, for 2 <= n <= 6
    assert "steenrod: 55 spaces, 0 failures" in res.output  # 15 + 20 + 20


_FAMILIES = ["RV", "CV", "HV", "RX", "FV", "CX", "HX"]
_JUNK_FAMILIES = ["", "XX", "rv", "R V", "RV:", "S4n-1"]
_bound = st.integers(-3, 40)


@st.composite
def space_specs(draw):
    """FAMILY:n,k specs, well formed about two times in three."""
    if draw(st.integers(0, 2)):
        fam, shape = draw(st.sampled_from(_FAMILIES)), "{f}:{n},{k}"
    else:
        fam = draw(st.sampled_from(_FAMILIES + _JUNK_FAMILIES))
        shape = draw(st.sampled_from(["{f}:{n},{k}", "{f}:{n}", "{f}{n},{k}",
                                      "{f}:{n},{k},{n}", "{f}:{n}..{k},{k}", "{f}:x,{k}"]))
    n = draw(_bound)
    k = draw(st.integers(-3, max(min(n + 1, 40), -3)))  # k <= n + 1 keeps most specs valid
    return shape.format(f=fam, n=n, k=k)


@st.composite
def large_space_specs(draw):
    """Valid or out-of-range specs with n up to a few thousand."""
    fam = draw(st.sampled_from(_FAMILIES))
    return f"{fam}:{draw(st.integers(41, 3000))},{draw(st.integers(1, 40))}"


@st.composite
def range_specs(draw):
    """lo..hi ranges of at most two values, well formed about two times in three."""
    lo = draw(_bound)
    hi = lo + draw(st.integers(-1, 1))
    if draw(st.integers(0, 2)):
        return draw(st.sampled_from([f"{lo}..{hi}", f"{lo}"]))
    return draw(st.sampled_from([f"{lo}..", f"..{hi}", "abc", f"{lo}..x", f"{lo}...{hi}", ""]))


@st.composite
def cli_queries(draw):
    command = draw(st.sampled_from(["ucharrank", "cohomology", "cuplength", "bounds", "table",
                                    "max-deg", "verify"]))
    if command == "table":
        invariant = draw(st.sampled_from(["ucharrank", "cuplength", "", "cup", "UCHARRANK"]))
        return ["table", invariant, draw(st.sampled_from(_FAMILIES + _JUNK_FAMILIES)),
                "--n", draw(range_specs()), "--k", draw(range_specs()), "--format", "csv"]
    if command == "verify":
        # only above the bound: a legal grid may take many seconds
        suite = draw(st.sampled_from(["all", "palindrome", "spectral", "steenrod"]))
        return ["verify", "--suite", suite, "--max-n", str(draw(st.integers(17, 10**9)))]
    spec = draw(st.one_of(space_specs(), large_space_specs()))
    if command == "max-deg":
        return ["cohomology", "--max-deg", str(draw(st.integers(-3, 10**9))), "--", spec]
    if command == "bounds":
        return ["cuplength", "--with-bounds", "--", spec]
    return [command, "--", spec]


def _answers_or_refuses_cleanly(args):
    start = time.perf_counter()
    res = run(*args)
    assert time.perf_counter() - start < 2, args
    assert res.exit_code in (0, 2, 3), (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), args
    assert len(res.stderr.splitlines()) <= 1, (args, res.stderr)


@given(cli_queries())
@settings(max_examples=80, deadline=None)
def test_cli_error_contract_on_generated_inputs(args):
    _answers_or_refuses_cleanly(args)


_huge = st.integers(1, 10**9)


@st.composite
def huge_queries(draw):
    """Queries on specs with n and k up to 10^9: k small, near n or n/2
    (the longest fibers of each family), or anywhere."""
    n = draw(_huge)
    near = draw(st.sampled_from([n, n // 2]))
    k = draw(st.one_of(st.integers(1, 40), st.integers(max(near - 40, 1), near + 1), _huge))
    spec = f"{draw(st.sampled_from(_FAMILIES))}:{n},{k}"
    gspace = draw(st.sampled_from([f"HV:{n},{k}", f"Sp:{n}", f"S4n-1:{n}"]))
    m = n + draw(st.sampled_from([0, 1, 40, n]))
    target = draw(st.sampled_from([f"HV:{m},{k + m - n}", f"HV:{m},{k}", f"Sp:{m}", f"S4n-1:{m}"]))
    return draw(st.sampled_from([
        ["ucharrank", spec], ["cohomology", spec], ["cohomology", spec, "--emit-presentation"],
        ["cohomology", spec, "--max-deg", str(draw(st.integers(0, 64)))],
        ["cuplength", spec], ["cuplength", spec, "--with-bounds"],
        ["cuplength", spec, "--mode", "oracle"], ["s3map", "--from", gspace, "--to", target],
    ]))


@given(huge_queries())
@settings(max_examples=60, deadline=None)
def test_cli_error_contract_up_to_a_billion(args):
    _answers_or_refuses_cleanly(args)
