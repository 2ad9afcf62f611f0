"""Spec-file parsing and the command line front end.

Command behavior is exercised through cli.main(argv) with captured
streams, so these tests cover exactly what a shell user sees.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import pwldist as pw
from pwldist import cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# A triangular spec whose 'b' is an integer beyond the float range.
HUGE_B_SPEC = '{"kind": "triangular", "a": 0, "c": 1, "b": ' + "9" * 400 + "}"


def _spec(**payload):
    return json.dumps(payload)


def _csv_rows(xs, values, exact):
    """Per-row reference for the x,value CSV that eval and sample print."""
    fmt = "%.17g,%.17g\n" if exact else "%.12g,%.12g\n"
    rows = (fmt % (x, v) for x, v in zip(xs.tolist(), values.tolist()))
    return "x,value\n" + "".join(rows)


class TestParseSpec:
    def test_piecewise_linear(self):
        spec = cli.parse_spec(
            _spec(
                kind="piecewise_linear",
                breakpoints=[0, 1, 2],
                right_limits=[0.75, 0.25],
                left_limits=[0.75, 0.25],
            )
        )
        assert spec.kind == "piecewise_linear"
        assert spec.density.breakpoints.tolist() == [0, 1, 2]

    def test_polygonal(self):
        spec = cli.parse_spec(
            _spec(kind="polygonal", breakpoints=[0, 1, 2], heights=[0, 2, 0])
        )
        assert spec.polygonal is not None
        assert pw.raw_mass(spec.density) == pytest.approx(2.0)

    def test_triangular(self):
        spec = cli.parse_spec(_spec(kind="triangular", a=0, c=0.5, b=1))
        assert spec.polygonal.heights.tolist() == [0.0, 2.0, 0.0]

    def test_tetragonal_heights(self):
        spec = cli.parse_spec(
            _spec(kind="tetragonal", a=0, c=1, d=2, b=3, heights=[1, 1])
        )
        assert spec.polygonal.heights.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_tetragonal_weight(self):
        spec = cli.parse_spec(
            _spec(kind="tetragonal", a=0, c=1, d=2, b=3, w=0.5)
        )
        assert spec.polygonal.heights.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_tetragonal_requires_exactly_one_height_form(self):
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(
                _spec(
                    kind="tetragonal", a=0, c=1, d=2, b=3,
                    heights=[1, 1], w=0.5,
                )
            )
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(_spec(kind="tetragonal", a=0, c=1, d=2, b=3))

    def test_tetragonal_heights_must_be_a_pair(self):
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(
                _spec(kind="tetragonal", a=0, c=1, d=2, b=3, heights=[1])
            )

    def test_ordering_violation(self):
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(_spec(kind="triangular", a=1, c=0.5, b=0))

    def test_unknown_kind(self):
        with pytest.raises(pw.SchemaError, match="kind"):
            cli.parse_spec(_spec(kind="gaussian", a=0, c=1, b=2))

    def test_missing_kind(self):
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(_spec(a=0, c=1, b=2))

    def test_missing_field(self):
        with pytest.raises(pw.SchemaError, match="requires field 'b'"):
            cli.parse_spec(_spec(kind="triangular", a=0, c=1))

    def test_unknown_field(self):
        with pytest.raises(pw.SchemaError, match="unknown field"):
            cli.parse_spec(_spec(kind="triangular", a=0, c=0.5, b=1, q=7))

    def test_rejects_non_numeric_values(self):
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(_spec(kind="triangular", a="0", c=0.5, b=1))
        with pytest.raises(pw.SchemaError):
            cli.parse_spec(_spec(kind="triangular", a=True, c=0.5, b=1))

    def test_rejects_empty_array(self):
        text = _spec(
            kind="piecewise_linear", breakpoints=[], right_limits=[1], left_limits=[1]
        )
        with pytest.raises(pw.SchemaError) as err:
            cli.parse_spec(text)
        assert str(err.value) == "field 'breakpoints' must be a non-empty array"

    def test_rejects_non_finite(self):
        text = '{"kind": "triangular", "a": 0, "c": 0.5, "b": NaN}'
        with pytest.raises((pw.SchemaError, pw.ParseError)):
            cli.parse_spec(text)

    def test_rejects_integer_beyond_float_range(self):
        with pytest.raises(pw.SchemaError, match="field 'b' must be finite"):
            cli.parse_spec(HUGE_B_SPEC)

    @pytest.mark.parametrize(
        "items, message",
        [
            ('[0, Infinity, "x"]', "field 'breakpoints' must be finite"),
            ('[0, "x", Infinity]', "field 'breakpoints' must be a number"),
            ("[0, true, 2]", "field 'breakpoints' must be a number"),
            ("[0.5, " + "9" * 400 + ", 1.5]", "field 'breakpoints' must be finite"),
            ("[-" + "9" * 400 + ", " + "9" * 400 + ", 1.5]",
             "field 'breakpoints' must be finite"),
            # Finite numbers whose sum overflows reach the density checks.
            ("[1e308, 1e308, 1.5]", "breakpoints must be nondecreasing"),
        ],
    )
    def test_first_bad_item_names_the_error(self, items, message):
        text = (
            '{"kind": "piecewise_linear", "breakpoints": ' + items
            + ', "right_limits": [1, 1], "left_limits": [1, 1]}'
        )
        with pytest.raises(pw.SchemaError) as err:
            cli.parse_spec(text)
        assert str(err.value) == message

    def test_invalid_json_reports_position(self):
        with pytest.raises(pw.ParseError, match="line 1"):
            cli.parse_spec('{"kind": "triangular",')

    def test_top_level_must_be_object(self):
        with pytest.raises(pw.SchemaError):
            cli.parse_spec("[1, 2, 3]")


class TestSeededUniforms:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1023, 1024, 1025, 100001])
    @pytest.mark.parametrize(
        "seed", [0, 1, 42, 2**63, 2**64 - 1, -1, 2**70 + 5]
    )
    def test_matches_reference_recurrence(self, seed, n):
        state = seed
        expected = []
        for _ in range(n):
            state = (
                6364136223846793005 * state + 1442695040888963407
            ) % 2**64
            expected.append((state >> 11) * 2.0**-53)
        got = cli.seeded_uniforms(seed, n)
        assert got.tolist() == expected

    def test_range(self):
        u = cli.seeded_uniforms(7, 1000)
        assert all(0.0 <= v < 1.0 for v in u)


class TestValidateCommand:
    def test_triangular(self, capsys):
        rc = cli.main(["validate", str(DATA / "tri05.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (
            "kind = triangular\n"
            "pieces = 2\n"
            "support = [0, 1]\n"
            "mass = 1\n"
            "normalized = true\n"
        )

    def test_unnormalized_reports_false(self, capsys):
        rc = cli.main(["validate", str(DATA / "twotri_double.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mass = 2\n" in out
        assert "normalized = false\n" in out

    def test_support_width_overflow_is_refused(self, tmp_path, capsys):
        spec = tmp_path / "wide.json"
        spec.write_text(_spec(kind="triangular", a=-1e308, c=0, b=1e308))
        rc = cli.main(["validate", str(spec)])
        assert rc == 1
        assert capsys.readouterr().err == "error: support width overflows\n"

    def test_invalid_spec_names_offender(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            _spec(
                kind="piecewise_linear",
                breakpoints=[0, 1, 2],
                right_limits=[0.75, -0.25],
                left_limits=[0.75, 0.25],
            )
        )
        rc = cli.main(["validate", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "right_limits[1]" in err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        spec = tmp_path / "huge.json"
        spec.write_text(HUGE_B_SPEC)
        rc = cli.main(["validate", str(spec)])
        assert rc == 1
        assert capsys.readouterr().err == "error: field 'b' must be finite\n"

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200000,  # nested deeper than the decoder recurses
            HUGE_B_SPEC.replace("9" * 400, "9" * 5000),  # past int digit limit
        ],
        ids=["deep-nesting", "5000-digit-integer"],
    )
    def test_json_beyond_decoder_limits(self, text, tmp_path, capsys):
        spec = tmp_path / "limits.json"
        spec.write_text(text)
        assert cli.main(["validate", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        rc = cli.main(["validate", str(DATA / "nope.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["validate", "stats", "median"])
    def test_file_that_is_not_utf8(self, command, tmp_path, capsys):
        spec = tmp_path / "utf16.json"
        text = _spec(kind="triangular", a=0, c=0.5, b=1)
        spec.write_bytes(b"\xff\xfe" + text.encode())
        rc = cli.main([command, str(spec)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {spec}: not UTF-8 text (invalid start byte)\n"
        )

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestStatsCommand:
    @pytest.mark.parametrize("name", ["tri05", "tri03", "tet", "step"])
    def test_matches_golden(self, name, capsys):
        rc = cli.main(["stats", str(DATA / f"{name}.json")])
        assert rc == 0
        expected = (GOLDEN / f"{name}_stats.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_flat_gap_median_prints_both_ends(self, capsys):
        rc = cli.main(["stats", str(DATA / "twotri.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "median_min = 1\n" in out
        assert "median_max = 2\n" in out
        assert "median = " not in out

    def test_wide_triangle(self, tmp_path, capsys):
        # Squares of lengths overflow at this width; the statistics do not.
        spec = tmp_path / "wide.json"
        spec.write_text(_spec(kind="triangular", a=0, c=5e99, b=1e100))
        rc = cli.main(["stats", str(spec)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "variance = 4.16666666667e+198\n" in out
        assert "skewness = 0\n" in out
        assert "excess = -0.6\n" in out

    def test_unnormalized_input_fails(self, capsys):
        rc = cli.main(["stats", str(DATA / "twotri_double.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mass" in err

    def test_autonormalize(self, capsys):
        rc = cli.main(
            ["stats", str(DATA / "twotri_double.json"), "--autonormalize"]
        )
        assert rc == 0
        doubled = capsys.readouterr().out
        cli.main(["stats", str(DATA / "twotri.json")])
        assert doubled == capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload",
        [
            dict(kind="piecewise_linear", breakpoints=[0, 1],
                 right_limits=[1e-320], left_limits=[1e-320]),
            dict(kind="polygonal", breakpoints=[0, 1, 2],
                 heights=[0, 1e-320, 0]),
        ],
        ids=["step", "polygon"],
    )
    def test_autonormalize_refuses_a_tiny_mass(self, payload, tmp_path,
                                               capsys):
        spec = tmp_path / "tiny.json"
        spec.write_text(_spec(**payload))
        assert cli.main(["stats", str(spec), "--autonormalize"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot normalize mass 1e-320: 1/mass overflows\n"
        )

    def test_exact_round_trips(self, capsys):
        rc = cli.main(["stats", str(DATA / "tri03.json"), "--exact"])
        assert rc == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            key, _, text = line.partition(" = ")
            values[key] = text
        d = pw.canonicalize(pw.promote(pw.triangular(0, 0.3, 1)))
        assert float(values["variance"]) == pw.summary(d).variance
        assert float(values["median"]) == pw.median_set(d).v_min


class TestMedianModeCommands:
    @pytest.mark.parametrize("name", ["tri05", "tri03", "tet", "step"])
    def test_median_matches_golden(self, name, capsys):
        rc = cli.main(["median", str(DATA / f"{name}.json")])
        assert rc == 0
        expected = (GOLDEN / f"{name}_median.txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", ["tri05", "tri03", "tet", "step"])
    def test_mode_matches_golden(self, name, capsys):
        rc = cli.main(["mode", str(DATA / f"{name}.json")])
        assert rc == 0
        expected = (GOLDEN / f"{name}_mode.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_median_flat_gap(self, capsys):
        rc = cli.main(["median", str(DATA / "twotri.json")])
        assert rc == 0
        assert capsys.readouterr().out == (
            "median_min = 1\n"
            "median_max = 2\n"
            "min_attained = true\n"
            "max_attained = true\n"
        )

    def test_mode_convention_flag(self, capsys):
        rc = cli.main(
            [
                "mode",
                str(DATA / "step.json"),
                "--convention",
                "mean_limits_only",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "f_sup = 0.5\nhalf-half 1\n"
        )


class TestEvalCommand:
    def test_pdf_grid(self, capsys):
        rc = cli.main(
            ["eval", str(DATA / "tri05.json"), "--steps", "4"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "x,value\n"
            "0,0\n"
            "0.25,1\n"
            "0.5,2\n"
            "0.75,1\n"
            "1,0\n"
        )

    def test_cdf_reaches_one(self, capsys):
        rc = cli.main(
            [
                "eval",
                str(DATA / "tri05.json"),
                "--what",
                "cdf",
                "--steps",
                "2",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "x,value\n0,0\n0.5,0.5\n1,1\n"
        )

    def test_explicit_window(self, capsys):
        rc = cli.main(
            [
                "eval",
                str(DATA / "tri05.json"),
                "--from",
                "0.25",
                "--to",
                "0.75",
                "--steps",
                "2",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "x,value\n0.25,1\n0.5,2\n0.75,1\n"
        )

    def test_reversed_window(self, capsys):
        rc = cli.main(
            [
                "eval",
                str(DATA / "tri05.json"),
                "--from",
                "0.75",
                "--to",
                "0.25",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "window, message",
        [
            (["--to", "inf", "--what", "cdf"], "must be finite"),
            (["--from=-1e308", "--to=1e308"], "grid width overflows"),
            (["--from", "nan"], "must be finite"),
        ],
    )
    def test_unusable_window(self, capsys, window, message):
        # A RuntimeWarning from the grid would be an error under pytest.
        rc = cli.main(["eval", str(DATA / "tri03.json"), *window])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("what", ["pdf", "cdf"])
    @pytest.mark.parametrize(
        "window, steps",
        [((0.0, 1.0), 0), ((-0.5, 1.5), 2 * cli._ROW_BLOCK + 1)],
    )
    def test_rows_match_per_row_format(self, window, steps, what, exact,
                                       capsys):
        argv = [
            "eval", str(DATA / "tri05.json"), "--what", what,
            "--from", repr(window[0]), "--to", repr(window[1]),
            "--steps", str(steps),
        ] + (["--exact"] if exact else [])
        assert cli.main(argv) == 0
        d = cli.parse_spec((DATA / "tri05.json").read_text()).density
        xs = np.linspace(window[0], window[1], steps + 1)
        values = pw.pdf(d, xs) if what == "pdf" else pw.cdf(d, xs)
        expected = _csv_rows(xs, values, exact)
        if steps:
            assert ",0\n" in expected
            assert (",1\n" in expected) == (what == "cdf")
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "steps, message",
        [("-5", "must not be negative, got -5"),
         ("x", "invalid int value: 'x'")],
    )
    def test_bad_steps_is_a_usage_error(self, steps, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", str(DATA / "tri05.json"), "--steps", steps])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"argument --steps: {message}\n"
        )


class TestQuantileCommand:
    def test_flat_gap(self, capsys):
        rc = cli.main(
            [
                "quantile",
                str(DATA / "twotri.json"),
                "-p",
                "0.5",
                "--rule",
                "mid",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "preimage_lower = 1\n"
            "preimage_upper = 2\n"
            "quantile = 1.5\n"
        )

    def test_default_rule(self, capsys):
        rc = cli.main(["quantile", str(DATA / "twotri.json"), "-p", "0.5"])
        assert rc == 0
        assert "quantile = 1\n" in capsys.readouterr().out

    def test_p_one_with_mass_short_of_one(self, tmp_path, capsys):
        spec = tmp_path / "short.json"
        h = [1 - 5e-10, 0]
        spec.write_text(
            _spec(kind="piecewise_linear", breakpoints=[0, 1, 2],
                  right_limits=h, left_limits=h)
        )
        rc = cli.main(["quantile", str(spec), "-p", "1"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "preimage_lower = 1\n"
            "preimage_upper = 2\n"
            "quantile = 1\n"
        )

    def test_bad_probability(self, capsys):
        rc = cli.main(["quantile", str(DATA / "tri05.json"), "-p", "1.5"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSampleCommand:
    def test_deterministic_for_fixed_seed(self, capsys):
        argv = [
            "sample", str(DATA / "tri05.json"), "-n", "6", "--seed", "42",
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("x,value\n")
        assert len(first.strip().splitlines()) == 7

    def test_seed_changes_output(self, capsys):
        cli.main(
            ["sample", str(DATA / "tri05.json"), "-n", "6", "--seed", "1"]
        )
        one = capsys.readouterr().out
        cli.main(
            ["sample", str(DATA / "tri05.json"), "-n", "6", "--seed", "2"]
        )
        assert capsys.readouterr().out != one

    def test_values_invert_the_cdf(self, capsys):
        rc = cli.main(
            [
                "sample",
                str(DATA / "tri05.json"),
                "-n",
                "50",
                "--seed",
                "9",
                "--exact",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        d = pw.canonicalize(pw.promote(pw.triangular(0, 0.5, 1)))
        us = cli.seeded_uniforms(9, 50)
        for line, u_expected in zip(lines, us):
            u_text, v_text = line.split(",")
            assert float(u_text) == u_expected
            assert pw.cdf(d, float(v_text)) == pytest.approx(
                u_expected, abs=1e-12
            )

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [0, 2 * cli._ROW_BLOCK + 3])
    def test_rows_match_per_row_format(self, n, exact, capsys):
        argv = [
            "sample", str(DATA / "tet.json"), "-n", str(n), "--seed", "-3",
        ] + (["--exact"] if exact else [])
        assert cli.main(argv) == 0
        d = cli.parse_spec((DATA / "tet.json").read_text()).density
        us = cli.seeded_uniforms(-3, n)
        expected = _csv_rows(us, pw.sample(d, us), exact)
        assert capsys.readouterr().out == expected

    def test_negative_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["sample", str(DATA / "tri05.json"), "-n", "-1", "--seed", "1"]
            )
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument -n: must not be negative, got -1\n"
        )

    def test_requires_seed_and_count(self):
        with pytest.raises(SystemExit):
            cli.main(["sample", str(DATA / "tri05.json"), "-n", "5"])
        with pytest.raises(SystemExit):
            cli.main(["sample", str(DATA / "tri05.json"), "--seed", "5"])


class TestNormalizeCommand:
    def test_reports_mass_and_factor(self, tmp_path, capsys):
        out_file = tmp_path / "norm.json"
        rc = cli.main(
            [
                "normalize",
                str(DATA / "twotri_double.json"),
                "-o",
                str(out_file),
            ]
        )
        assert rc == 0
        report = capsys.readouterr().out
        assert "raw_mass = 2\n" in report
        assert "factor_k = 0.5\n" in report
        stored = json.loads(out_file.read_text())
        assert stored["kind"] == "polygonal"
        np.testing.assert_allclose(stored["heights"], [0, 1, 0, 0, 1, 0])

    def test_without_output_writes_spec_to_stdout(self, capsys):
        rc = cli.main(["normalize", str(DATA / "twotri_double.json")])
        assert rc == 0
        captured = capsys.readouterr()
        stored = json.loads(captured.out)
        assert stored["kind"] == "polygonal"
        assert "factor_k = 0.5\n" in captured.err

    def test_round_trip_stats_are_identical(self, tmp_path, capsys):
        out_file = tmp_path / "norm.json"
        cli.main(
            [
                "normalize",
                str(DATA / "twotri_double.json"),
                "-o",
                str(out_file),
            ]
        )
        capsys.readouterr()
        cli.main(["stats", str(out_file)])
        normalized = capsys.readouterr().out
        cli.main(["stats", str(DATA / "twotri.json")])
        assert normalized == capsys.readouterr().out

    def test_piecewise_linear_stays_piecewise_linear(self, tmp_path, capsys):
        src = tmp_path / "doubled_step.json"
        src.write_text(
            _spec(
                kind="piecewise_linear",
                breakpoints=[0, 1, 2],
                right_limits=[1.5, 0.5],
                left_limits=[1.5, 0.5],
            )
        )
        rc = cli.main(["normalize", str(src)])
        assert rc == 0
        stored = json.loads(capsys.readouterr().out)
        assert stored["kind"] == "piecewise_linear"
        np.testing.assert_allclose(stored["right_limits"], [0.75, 0.25])


    def test_point_values_are_scaled_too(self, tmp_path, capsys):
        src = tmp_path / "doubled_step_with_points.json"
        src.write_text(
            _spec(
                kind="piecewise_linear",
                breakpoints=[0, 1, 2],
                right_limits=[1.5, 0.5],
                left_limits=[1.5, 0.5],
                point_values=[0, 1, 0],
            )
        )
        rc = cli.main(["normalize", str(src)])
        assert rc == 0
        stored = json.loads(capsys.readouterr().out)
        assert stored["point_values"] == [0.0, 0.5, 0.0]


class TestFitCommand:
    def test_fits_points_from_csv(self, tmp_path, capsys):
        curve = tmp_path / "tent.csv"
        curve.write_text("x,y\n0,0\n0.5,1\n1,0\n")
        out_file = tmp_path / "fit.json"
        rc = cli.main(["fit", str(curve), "-o", str(out_file)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "points = 3\n" in report
        assert "pieces = 2\n" in report
        stored = json.loads(out_file.read_text())
        assert stored["kind"] == "polygonal"
        np.testing.assert_allclose(stored["heights"], [0, 2, 0])

    def test_fit_output_feeds_other_commands(self, tmp_path, capsys):
        curve = tmp_path / "tent.csv"
        curve.write_text("0,0\n0.5,1\n1,0\n")
        out_file = tmp_path / "fit.json"
        cli.main(["fit", str(curve), "-o", str(out_file)])
        capsys.readouterr()
        rc = cli.main(["stats", str(out_file)])
        assert rc == 0
        fitted = capsys.readouterr().out
        cli.main(["stats", str(DATA / "tri05.json")])
        assert fitted == capsys.readouterr().out

    def test_no_clamp_refuses_nonzero_ends(self, tmp_path, capsys):
        # Outer heights must be 0: zero ends fit as without the flag, and
        # nonzero ones are refused rather than kept.
        curve = tmp_path / "tent.csv"
        curve.write_text("x,y\n0,0\n0.5,1\n1,0\n")
        assert cli.main(["fit", str(curve)]) == 0
        clamped = capsys.readouterr().out
        assert cli.main(["fit", str(curve), "--no-clamp"]) == 0
        assert capsys.readouterr().out == clamped
        curve.write_text("x,y\n0,0.5\n0.5,1\n1,0\n")
        assert cli.main(["fit", str(curve), "--no-clamp"]) == 1
        assert capsys.readouterr().err == (
            "error: outer heights must be 0 (density vanishes outside the support)\n"
        )

    def test_bad_csv(self, tmp_path, capsys):
        curve = tmp_path / "bad.csv"
        curve.write_text("0,0,9\n1,1,9\n")
        rc = cli.main(["fit", str(curve)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_whitespace_only_rows_are_skipped(self, tmp_path, capsys):
        curve = tmp_path / "gappy.csv"
        curve.write_text("x,y\n0,0\n  ,\t\n0.5,1\n1,0\n")
        rc = cli.main(["fit", str(curve)])
        assert rc == 0
        stored = json.loads(capsys.readouterr().out)
        assert stored["breakpoints"] == [0.0, 0.5, 1.0]

    def test_non_numeric_value_after_the_header_line(self, tmp_path, capsys):
        curve = tmp_path / "typo.csv"
        curve.write_text("0,0\n0.5,abc\n1,0\n")
        rc = cli.main(["fit", str(curve)])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 2: non-numeric value\n"

    def test_field_beyond_the_csv_size_limit(self, tmp_path, capsys):
        curve = tmp_path / "long.csv"
        curve.write_text("x,y\n0," + "1" * 131073 + "\n1,0\n")
        assert cli.main(["fit", str(curve)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: field larger than field limit (131072)\n"
        )

    def test_csv_that_is_not_utf8(self, tmp_path, capsys):
        curve = tmp_path / "utf16.csv"
        curve.write_bytes(b"\xff\xfe0,0\n0.5,1\n1,0\n")
        rc = cli.main(["fit", str(curve)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {curve}: not UTF-8 text (invalid start byte)\n"
        )
