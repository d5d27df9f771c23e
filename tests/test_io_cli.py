"""Grammar parsing, system-file round trips, CSV schema, exit codes, and the
experiment runner's determinism."""

import argparse
import io
import json
import os
import random
import re
import time
from pathlib import Path

import pytest

from sgb import (
    Polynomial,
    PrimeField,
    gb_up_to,
    parse_polynomial,
    parse_system,
    parse_system_doc,
    poly_to_string,
    read_csv,
    run_experiment,
    sample_system,
    sample_Z_system,
    serialize_system_doc,
    summarize,
    system_doc,
    write_csv,
)
from sgb import engine, hilbert
from sgb import io as sgbio
from sgb.analysis import child_seed
from sgb.cli import build_parser
from sgb.io import CSV_COLUMNS, worker_count
from sgb.errors import BadModulus, ParseError, SgbError, UnknownVariable
from conftest import random_polynomial, run_cli


FIXTURE = '{"field":{"char":7},"vars":["x1","x2"],"polys":["x1^2 + x2^2","x1*x2"]}'
HUGE_DEGREES = (
    '{"field":{"char":31},"vars":["x1","x2","x3"],'
    '"polys":["x1^100000000 + x2^100000000","x3^2"]}'
)
# `sgb experiment -n 3 -m 4 -d 2,2,2,2 --trials 3 --seed 3`: no basis of these
# trials comes near the S-pair limit
PAIR_LIMIT_CSV = (
    ",".join(CSV_COLUMNS) + "\n"
    "0,6532028347405268032,ok,3,4,2;2;2;2,31,0,2,3,3,3,4,true,true,true,true,true,true,buchberger,NA\n"
    "1,6532028347405268033,ok,3,4,2;2;2;2,31,0,2,3,3,3,4,true,true,true,true,true,true,buchberger,NA\n"
    "2,6532028347405268034,ok,3,4,2;2;2;2,31,0,2,3,3,3,4,true,true,true,true,true,true,buchberger,NA\n"
)
# its basis is its generators, but listing the degree-5000 monomials takes
# C(5003, 3) ~ 2.1e10 tuples
HIGH_DEGREE = (
    '{"field":{"char":31},"vars":["x1","x2","x3","x4"],'
    '"polys":["x1^2","x2^2","x3^2","x4^5000"]}'
)


class TestPolynomialGrammar:
    def test_basic_terms(self, f7):
        names = ["x1", "x2"]
        f = parse_polynomial("x1^2 + x2^2", names, f7)
        assert f == Polynomial(f7, 2, {(2, 0): 1, (0, 2): 1})
        assert parse_polynomial("3*x1*x2^2", names, f7) == Polynomial(
            f7, 2, {(1, 2): 3}
        )
        assert parse_polynomial("5", names, f7) == Polynomial(f7, 2, {(0, 0): 5})

    def test_modular_reduction_and_minus(self, f7):
        names = ["x1"]
        f = parse_polynomial("3*x1 - 10", names, f7)
        assert f == Polynomial(f7, 1, {(1,): 3, (0,): 4})
        # unicode minus accepted
        g = parse_polynomial("3*x1 − 10", names, f7)
        assert g == f

    def test_whitespace_and_repeats(self, f7):
        names = ["x1", "x2"]
        f = parse_polynomial("  x1 *x2 ^ 2+ x1  ", names, f7)
        assert f == Polynomial(f7, 2, {(1, 2): 1, (1, 0): 1})
        # repeated variables multiply out
        assert parse_polynomial("x1*x1", names, f7) == Polynomial(f7, 2, {(2, 0): 1})
        # duplicate monomials accumulate
        assert parse_polynomial("x1 + x1", names, f7) == Polynomial(f7, 2, {(1, 0): 2})

    def test_unknown_variable(self, f7):
        with pytest.raises(UnknownVariable):
            parse_polynomial("x3", ["x1", "x2"], f7)

    def test_parse_errors_carry_position(self, f7):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x1 + % x2", ["x1", "x2"], f7)
        assert exc.value.line == 1 and exc.value.column == 6
        for bad in ("x1 +", "* x1", "x1 ^ x2", "3 3", "x1 5"):
            with pytest.raises(ParseError):
                parse_polynomial(bad, ["x1", "x2"], f7)

    def test_round_trip_canonical(self, f31):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, f31, n, max_deg=3)
            names = [f"x{i+1}" for i in range(n)]
            assert parse_polynomial(poly_to_string(f, names), names, f31) == f


class TestSystemFiles:
    def test_fixture_parses(self):
        system = parse_system(FIXTURE)
        assert system.field.p == 7 and system.n == 2 and system.m == 2
        assert system.homogeneous

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            parse_system('{"field":{"char":6},"vars":["x1"],"polys":["x1"]}')

    def test_bad_documents(self):
        for bad in (
            "not json",
            "[1,2]",
            '{"vars":["x1"],"polys":[]}',
            '{"field":{"char":7},"vars":[],"polys":[]}',
            '{"field":{"char":7},"vars":["z1"],"polys":[]}',
            '{"field":{"char":7},"vars":["x1","x1"],"polys":[]}',
            '{"field":{"char":7},"vars":["y","x1"],"polys":[]}',
            '{"field":{"char":7},"vars":["x1"],"polys":[5]}',
            '{"field":{"char":7},"vars":["x1"],"polys":"x1"}',
        ):
            with pytest.raises(ParseError):
                parse_system(bad)

    def test_parser_never_leaks_internal_errors(self):
        # fuzzed inputs must fail with domain errors only
        import random

        from sgb import PrimeField
        from sgb.errors import SgbError

        f7 = PrimeField(7)
        rng = random.Random(0)
        alphabet = "x12y^*+- ()−abz0356789\n\t."
        for _ in range(2000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
            try:
                parse_polynomial(s, ["x1", "x2"], f7)
            except SgbError:
                pass

    def test_round_trip_corpus(self, f31):
        rng = random.Random(1)
        for k in range(50):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            degrees = tuple(rng.randint(1, 3) for _ in range(m))
            system = sample_system(n, m, degrees, f31, seed=k)
            doc = system_doc(system, meta={"seed": k, "construction": "generic"})
            text = serialize_system_doc(doc)
            back = parse_system_doc(text)
            assert back.system.field == system.field
            assert back.system.polys == system.polys
            assert back.meta == doc.meta
            assert serialize_system_doc(back) == text

    def test_homogenization_variable_round_trip(self, f7):
        doc = parse_system_doc(
            '{"field":{"char":7},"vars":["x1","y"],"polys":["x1^2 + 3*x1*y + 5*y^2"]}'
        )
        assert doc.names == ("x1", "y")
        assert serialize_system_doc(doc).count("y") >= 2


class TestCliCommands:
    def test_gb_engines_agree(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(FIXTURE)
        code_b, out_b, _ = run_cli(["gb", str(path), "--engine", "buchberger"])
        code_m, out_m, _ = run_cli(["gb", str(path), "--engine", "macaulay", "--cap", "3"])
        assert code_b == code_m == 0
        assert out_b == out_m == "x1^2 + x2^2\nx1*x2\nx2^3\n"

    def test_gb_cap_below_the_top_degree_is_raised_to_it(self, tmp_path):
        # gb_up_to refuses a cap below the largest generator degree 2
        # (DegreeTooSmall); the CLI raises --cap 1 to it
        path = tmp_path / "sys.json"
        path.write_text(FIXTURE)
        code_b, out_b, err_b = run_cli(["gb", str(path), "--engine", "buchberger"])
        code, out, err = run_cli(["gb", str(path), "--engine", "macaulay", "--cap", "1"])
        assert code == code_b == 0 and err == err_b == ""
        assert out == out_b == "x1^2 + x2^2\nx1*x2\nx2^3\n"

    def test_gb_default_cap_gives_the_complete_basis(self, tmp_path):
        # Krull dimension one: the default cap 2 (the largest generator
        # degree) and the Lazard bound 4 are both below the true maximal
        # basis degree 5, so Buchberger's loop must supply the rest
        path = tmp_path / "sys.json"
        system = sample_Z_system(4, 3, (2, 2, 2), PrimeField(2), seed=2)
        path.write_text(serialize_system_doc(system_doc(system)))
        code_b, out_b, err_b = run_cli(["gb", str(path), "--engine", "buchberger"])
        code, out, err = run_cli(["gb", str(path)])
        assert code == code_b == 0 and err == err_b == ""
        assert out == out_b and len(out.splitlines()) == 8
        assert max(g.degree() for g in gb_up_to(system, 4)) == 5

    def test_gb_default_cap_is_the_largest_generator_degree(self, tmp_path):
        # the basis is the generators; at the Lazard cap 118 the degree loop
        # M_40..M_118 would need 1.3e9 cells and be refused (MatrixTooLarge)
        path = tmp_path / "powers.json"
        path.write_text(
            '{"field":{"char":31},"vars":["x1","x2","x3"],"polys":["x1^40","x2^40","x3^40"]}'
        )
        code, out, err = run_cli(["gb", str(path)])
        assert code == 0 and err == ""
        assert out == "x1^40\nx2^40\nx3^40\n"

    def test_bound_with_huge_degrees(self):
        # m = n is a closed form; m > n refuses the series cap up front
        start = time.monotonic()
        code, out, _ = run_cli(["bound", "-n", "3", "-m", "3", "-d", "1000000,1000000,1000000"])
        assert code == 0 and "D_nm=2999998" in out
        code, out, err = run_cli(["bound", "-n", "2", "-m", "3", "-d", "1000000,1000000,1000000"])
        assert code == 1 and out == "" and "CapExhausted" in err
        assert time.monotonic() - start < 1

    def test_bound_fixture(self):
        code, out, _ = run_cli(["bound", "-n", "2", "-m", "3", "-d", "2,2,2"])
        assert code == 0
        assert "D_nm=2" in out and "lazard=3" in out
        assert "cost_new=" in out and "cost_classic=" in out

    def test_verify_fixture(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            '{"field":{"char":7},"vars":["x1","x2"],"polys":["x1^2","x1*x2"]}'
        )
        code, out, _ = run_cli(["verify", str(path), "--seed", "1"])
        assert code == 0
        assert "ineq_maxGB=true" in out and "ineq_Dnm=true" in out
        assert "ell=x2" in out and "equality_attained=true" in out

    def test_analyze_fixture(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(FIXTURE)
        code, out, _ = run_cli(["analyze", str(path)])
        assert code == 0
        assert "krull_dim=0" in out and "d_reg=3" in out
        assert "cryptographic=true" in out

    def test_homogenize_round_trip(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            '{"field":{"char":7},"vars":["x1"],"polys":["x1^2 + 3*x1 + 5"]}'
        )
        code, out, _ = run_cli(["homogenize", str(path)])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["vars"] == ["x1", "y"]
        assert parsed["polys"] == ["x1^2 + 3*x1*y + 5*y^2"]

    def test_exit_codes(self, tmp_path):
        # usage errors
        assert run_cli(["bogus"])[0] == 2
        assert run_cli(["bound", "-n", "2"])[0] == 2
        # domain error: composite modulus
        path = tmp_path / "bad.json"
        path.write_text('{"field":{"char":6},"vars":["x1"],"polys":["x1"]}')
        code, _, err = run_cli(["analyze", str(path)])
        assert code == 1 and "BadModulus" in err
        # domain error: unknown variable
        path.write_text('{"field":{"char":7},"vars":["x1"],"polys":["x3"]}')
        code, _, err = run_cli(["analyze", str(path)])
        assert code == 1 and "UnknownVariable" in err
        # missing file is reported, not raised
        code, _, err = run_cli(["gb", str(tmp_path / "missing.json")])
        assert code == 1 and "error:" in err
        # invalid parameter combination is reported, not raised
        code, _, err = run_cli(
            ["experiment", "-n", "1", "-m", "2", "-d", "2,2", "--construction", "Z"]
        )
        assert code == 1 and "error: DimensionMismatch: " in err
        code, _, err = run_cli(["experiment", "-n", "1", "-m", "1", "-d", "2", "--construction", "Z"])
        assert code == 1 and "error: DimensionMismatch: " in err
        # help exits 0
        assert run_cli(["--help"])[0] == 0

    @pytest.mark.parametrize("meta", ["5", "[1]", "null", '"ab"'])
    def test_meta_that_is_not_an_object_is_a_parse_error(self, tmp_path, meta):
        path = tmp_path / "sys.json"
        path.write_text('{"field":{"char":7},"vars":["x1"],"polys":["x1"],"meta":%s}' % meta)
        for command in ("gb", "analyze", "verify", "homogenize"):
            code, out, err = run_cli([command, str(path)])
            assert code == 1 and out == "" and "error: ParseError" in err, command

    @pytest.mark.parametrize("cap", [[], ["--cap", "3"], ["--cap", "100000000"]])
    def test_gb_refuses_oversized_matrices(self, tmp_path, cap):
        path = tmp_path / "huge.json"
        path.write_text(HUGE_DEGREES)
        code, out, err = run_cli(["gb", str(path)] + cap)
        assert code == 1 and out == "" and "MatrixTooLarge" in err

    def test_gb_refuses_a_one_variable_power_over_the_width(self, tmp_path):
        # the default cap is 2^31: listing its one monomial must not copy
        # range(2^31) first, which ran out of memory
        path = tmp_path / "power.json"
        path.write_text('{"field":{"char":31},"vars":["x1"],"polys":["x1^2147483648"]}')
        code, out, err = run_cli(["gb", str(path)])
        assert code == 1 and out == "" and "DegreeTooLarge" in err

    def test_analyze_refuses_oversized_monomial_lists(self, tmp_path):
        path = tmp_path / "high.json"
        path.write_text(HIGH_DEGREE)
        start = time.monotonic()
        code, out, err = run_cli(["analyze", str(path)])
        assert code == 1 and out == "" and "error: MatrixTooLarge" in err
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gb", "SYS", "--engine", "buchberger"],
            # the rows up to degree 2 leave two S-pairs to the completion
            ["gb", "SYS", "--engine", "macaulay", "--cap", "2"],
            ["analyze", "SYS"],
            ["verify", "SYS"],
        ],
    )
    def test_every_basis_route_stops_at_the_pair_limit(self, tmp_path, monkeypatch, argv):
        path = tmp_path / "sys.json"
        path.write_text(FIXTURE)
        argv = [str(path) if a == "SYS" else a for a in argv]
        assert run_cli(argv)[0] == 0
        monkeypatch.setattr(engine, "MAX_S_PAIRS", 1)
        code, out, err = run_cli(argv)
        assert code == 1 and out == "" and "error: BudgetExhausted" in err

    def test_readme_flag_table_matches_the_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines():
            _, command, flags, _ = row.split("|")
            documented[command.strip().strip("`")] = set(re.findall(r"--[a-z-]+", flags))
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        accepted = {
            command: {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
            - {"--help"}
            for command, sub in subparsers.choices.items()
        }
        assert documented == accepted

    @pytest.mark.parametrize(
        "argv",
        [
            ["gb", "SYS", "--seed", "1"],
            ["analyze", "SYS", "--engine", "buchberger"],
            ["verify", "SYS", "--cap", "3"],
            ["homogenize", "SYS", "--omega", "2.5"],
            ["bound", "-n", "2", "-m", "3", "-d", "2,2,2", "--trials", "5"],
            ["verify", "SYS", "--engine", "capped"],
            ["verify", "SYS", "--engine", "macaulay"],
            ["experiment", "-n", "2", "-m", "3", "-d", "2,2,2", "--engine", "buchberger"],
            ["experiment", "-n", "2", "-m", "3", "-d", "2,2,2", "--pair-budget", "0"],
            ["experiment", "-n", "2", "-m", "3", "-d", "2,2,2", "--pair-budget", "-4"],
            ["experiment", "-n", "2", "-m", "3", "-d", "2,2,2", "--pair-budget", "1.5"],
            ["experiment", "-n", "2", "-m", "3", "-d", "2,2,2", "--pair-budget", "lots"],
            ["verify", "SYS", "--pair-budget", "10"],
            ["gb", "SYS", "--engine", "buchberger", "--cap", "1000000"],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, argv):
        path = tmp_path / "sys.json"
        path.write_text(FIXTURE)
        code, out, err = run_cli([str(path) if a == "SYS" else a for a in argv])
        assert code == 2 and out == "" and "usage:" in err


class TestExperiment:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = [
            "experiment", "-n", "2", "-m", "3", "-d", "2,2,2", "-q", "31",
            "--trials", "8", "--seed", "5", "--construction", "generic",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code1, sum1, _ = run_cli(args + ["--out", str(out1)])
        code2, sum2, _ = run_cli(args + ["--out", str(out2)])
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert sum1 == sum2
        lines = out1.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 9
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_z_rows_have_positive_dimension(self):
        records = run_experiment(
            2, 3, (2, 2, 2), 31, trials=10, seed=3, construction="Z"
        )
        assert all(r.status == "ok" and r.r >= 1 for r in records)

    def test_no_violations_on_verified_rows(self):
        records = run_experiment(
            3, 4, (2, 2, 2, 2), 31, trials=15, seed=9, construction="generic"
        )
        for r in records:
            if r.hypotheses_verified:
                assert r.ineq_maxGB is not False
                assert r.ineq_Dnm is not False

    def test_summary_mentions_rates(self):
        records = run_experiment(
            2, 3, (2, 2, 2), 31, trials=6, seed=1, construction="generic"
        )
        text = summarize(records)
        assert "cryptographic_rate=" in text and "generalized_rate=" in text
        assert "gap_hist=" in text

    def test_csv_round_trips_into_summary_tool(self):
        records = run_experiment(
            3, 4, (2, 2, 2, 2), 31, trials=5, seed=4, construction="Z"
        )
        buf = io.StringIO()
        write_csv(records, buf)
        back = read_csv(buf.getvalue())
        assert back == records
        assert summarize(back) == summarize(records)

    def test_engine_column_names_the_route(self, monkeypatch):
        # in 6 variables degree 3 has 56 monomials, so the bases of I and
        # I^sigma come from the Macaulay engine; in 5 it has 35, and they
        # come from the Buchberger oracle.  A failed trial names its route too
        monkeypatch.setenv("SGB_THREADS", "1")
        routed = run_experiment(6, 7, (2,) * 7, 31, trials=2, seed=1)
        plain = run_experiment(5, 5, (2,) * 5, 31, trials=2, seed=1)
        failed = run_experiment(6, 4, (2,) * 4, 31, trials=1, seed=1)
        assert [(r.status, r.engine) for r in routed] == [("ok", "macaulay")] * 2
        assert [(r.status, r.engine) for r in plain] == [("ok", "buchberger")] * 2
        assert [(r.status, r.engine) for r in failed] == [("DimensionTooHigh", "macaulay")]

    def test_single_worker_env(self, monkeypatch):
        monkeypatch.setenv("SGB_THREADS", "1")
        records = run_experiment(
            2, 2, (2, 2), 31, trials=4, seed=2, construction="generic"
        )
        assert [r.trial for r in records] == [0, 1, 2, 3]

    def test_worker_count_is_clamped(self, monkeypatch):
        # only the count is computed; no pool is started with it
        cores = os.cpu_count() or 1
        monkeypatch.setenv("SGB_THREADS", "1000000")
        assert worker_count(3) == min(3, cores)
        assert worker_count(10**9) == cores
        monkeypatch.delenv("SGB_THREADS")
        assert worker_count(1) == 1
        assert worker_count(10**9) == cores

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_worker_count_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("SGB_THREADS", value)
        with pytest.raises(SgbError, match="SGB_THREADS"):
            worker_count(4)
        code, _, err = run_cli(["experiment", "-n", "2", "-m", "2", "-d", "2,2", "--trials", "2"])
        assert code == 1 and "SGB_THREADS" in err

    def test_records_independent_of_worker_count(self, monkeypatch):
        monkeypatch.setenv("SGB_THREADS", "1")
        serial = run_experiment(3, 3, (2, 2, 2), 31, trials=6, seed=11)
        monkeypatch.setenv("SGB_THREADS", "2")
        pooled = run_experiment(3, 3, (2, 2, 2), 31, trials=6, seed=11)
        assert serial == pooled

    def test_pair_limit(self, monkeypatch):
        args = ["experiment", "-n", "3", "-m", "4", "-d", "2,2,2,2", "--trials", "3", "--seed", "3"]
        code, out, err = run_cli(args)
        assert code == 0 and out == PAIR_LIMIT_CSV and " ok=3 " in err
        monkeypatch.setenv("SGB_THREADS", "1")  # workers see the patched limit
        monkeypatch.setattr(engine, "MAX_S_PAIRS", 1)
        code, out, err = run_cli(args)
        assert code == 0
        assert [r.status for r in read_csv(out)] == ["BudgetExhausted"] * 3
        assert " ok=0 " in err

    def test_invariant_violation_is_a_row_status(self, monkeypatch):
        # trial 1 runs with a wrong Krull dimension, so its regularity
        # profile fails; the other trials and the CSV are unaffected
        monkeypatch.setenv("SGB_THREADS", "1")
        args = ["experiment", "-n", "3", "-m", "4", "-d", "2,2,2,2", "--trials", "3", "--seed", "5"]
        clean = run_cli(args)
        real_verify, real_krull = sgbio.verify_main_theorem, hilbert.krull_dim

        def flaky(system, seed, **kwargs):
            if seed != child_seed(5, 1):
                return real_verify(system, seed=seed, **kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(hilbert, "krull_dim", lambda J: real_krull(J) + 1)
                return real_verify(system, seed=seed, **kwargs)

        monkeypatch.setattr(sgbio, "verify_main_theorem", flaky)
        code, out, err = run_cli(args)
        assert code == 1 and "error: InvariantViolation: 1 of 3 trials" in err
        rows = read_csv(out)
        assert [r.status for r in rows] == ["ok", "InvariantViolation", "ok"]
        assert rows[0] == read_csv(clean[1])[0] and rows[2] == read_csv(clean[1])[2]
        assert "invariant_violations=1 " in err and "invariant_violations=0 " in clean[2]

    def test_timings_flag_fills_elapsed(self):
        records = run_experiment(
            2, 2, (2, 2), 31, trials=2, seed=2, construction="generic", timings=True
        )
        assert all(r.elapsed_ms is not None for r in records)
        buf = io.StringIO()
        write_csv(records, buf)
        assert "NA" not in buf.getvalue().splitlines()[1].split(",")[-1]
