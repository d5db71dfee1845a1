"""Tests for the command-line interface (repro.cli)."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.experiments import scenario_names, validate_payload


def run_json(capsys, argv):
    """``repro run <argv> --json``, validated, without the run-varying
    ``wall_time``."""
    assert main(["run", *argv, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert validate_payload(data) == []
    del data["wall_time"]
    return data


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_shape_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "shape", "--shape", "blob"])

    def test_catalogues_nonempty(self):
        # The shape/pattern catalogues surface as the choices of the
        # registry-generated --shape/--pattern flags.
        args = build_parser().parse_args(["run", "shape", "--shape", "serpentine"])
        assert args.param_shape == "serpentine"
        args = build_parser().parse_args(["run", "shape", "--shape", "star"])
        assert args.param_shape == "star"
        args = build_parser().parse_args(
            ["run", "pattern", "--pattern", "sierpinski"]
        )
        assert args.param_pattern == "sierpinski"

    def test_retired_verbs_are_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for verb in ("serve", "submit", "status", "fetch", "demo", "count",
                     "construct", "pattern", "cube", "replicate", "repair"):
            assert f"{verb}," not in out and f",{verb}" not in out
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])


class TestCommands:
    def test_demo(self, capsys):
        assert main(["run", "demo", "--n", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'demo' (n=6)" in out
        assert "line_events: 5" in out
        assert "--- line ---" in out and "######" in out
        assert "--- square ---" in out and "square_n: 9" in out

    def test_demo_scheduler_flag(self, capsys):
        # Every uniform scheduler builds the same structures; the seeded
        # trajectories are identical by the scheduler contract, so the
        # trajectory outcome matches the default exactly (only the work
        # counter ``evaluations`` is implementation-specific).
        def outcome(*flags):
            data = run_json(capsys, ["demo", "--n", "5", "--seed", "2", *flags])
            keys = ("metrics", "renders", "events", "raw_steps", "stop_reason")
            return {k: data[k] for k in keys}

        reference = outcome()
        for kind in ("enumerate", "rejection", "hot"):
            assert outcome("--scheduler", kind) == reference
        assert main(["run", "demo", "--n", "5", "--scheduler", "round-robin"]) == 0
        assert "scheduler round-robin" in capsys.readouterr().out

    def test_demo_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "demo", "--scheduler", "nope"])

    def test_count(self, capsys):
        assert main(["run", "counting", "--n", "64", "--trials", "5",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'counting' (n=64, b=4, trials=5)" in out
        assert "mean_estimate:" in out and "success_rate:" in out

    @pytest.mark.parametrize("shape", ["star", "cross", "serpentine"])
    def test_construct(self, capsys, shape):
        assert main(["run", "shape", "--shape", shape, "--d", "7"]) == 0
        out = capsys.readouterr().out
        assert f"shape: {shape}" in out
        assert "--- shape ---" in out and "#" in out

    @pytest.mark.parametrize("pattern", ["checkerboard", "sierpinski"])
    def test_pattern(self, capsys, pattern):
        assert main(["run", "pattern", "--pattern", pattern, "--d", "6"]) == 0
        out = capsys.readouterr().out
        assert f"pattern: {pattern}" in out
        assert "--- pattern ---" in out
        assert "0" in out and "1" in out

    def test_cube(self, capsys):
        assert main(["run", "cube", "--m", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'cube' (m=3)" in out and "n: 27" in out
        assert out.count("z =") == 3

    def test_replicate_shifting(self, capsys):
        assert main(["run", "replicate", "--size", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "approach: shifting" in out
        assert "identical: True" in out
        assert "--- original ---" in out and "--- replica ---" in out

    def test_replicate_columns(self, capsys):
        assert main(["run", "replicate", "--size", "8", "--approach",
                     "columns", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "approach: columns" in out
        assert "identical: True" in out

    def test_repair(self, capsys):
        assert main(["run", "repair", "--d", "7", "--fraction", "0.25",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "nodes_attached:" in out and "matches_blueprint: True" in out
        assert "--- damaged ---" in out and "--- repaired ---" in out


class TestRecordCommand:
    def test_render_draws_frames_and_writes_the_same_bytes(self, capsys, tmp_path):
        argv = ["record", "demo", "--n", "6", "--seed", "1"]
        plain, drawn = tmp_path / "plain.trace", tmp_path / "drawn.trace"
        assert main(argv + ["--out", str(plain)]) == 0
        assert "--- end @" not in capsys.readouterr().out
        assert main(argv + ["--render", "--out", str(drawn)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^--- end @ \d+ events ---$", out, re.M)
        assert drawn.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "flag, value, match",
        [
            ("--checkpoint-every", "-3", "checkpoint_every (--checkpoint-every)"),
            ("--run", "-1", "run_index (--run)"),
        ],
    )
    def test_negative_values_are_usage_errors(
        self, capsys, tmp_path, flag, value, match
    ):
        out = tmp_path / "bad.trace"
        assert main(["record", "demo", "--n", "6", "--seed", "1", flag, value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and match in err and value in err
        assert not out.exists()


class TestRegistryCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_list_md(self, capsys):
        assert main(["list", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# EXPERIMENTS")
        assert "| `counting` |" in out

    def test_describe(self, capsys):
        assert main(["describe", "replicate"]) == 0
        out = capsys.readouterr().out
        assert "--approach" in out
        assert "choices ['shifting', 'columns']" in out

    def test_describe_reports_the_candidate_store_per_protocol(self, capsys):
        from repro.core.columnar import columnar_default

        assert main(["describe", "counting-line"]) == 0
        out = capsys.readouterr().out
        assert "store:    scalar (handler-lowered)" in out
        assert "columnar" not in out
        assert main(["describe", "demo"]) == 0
        out = capsys.readouterr().out
        exact = "dense columnar" if columnar_default() else "scalar, fallback"
        assert out.count(f"store:    {exact}") == 2  # line and square
        assert "handler-lowered" not in out

    def test_describe_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["describe", "frobnicate"])

    def test_run_generic(self, capsys):
        assert main(["run", "counting", "--n", "16", "--trials", "2",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'counting'" in out
        assert "mean_estimate" in out

    def test_run_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["run", "frobnicate"])

    def test_run_json_stdout_validates(self, capsys):
        assert main(["run", "counting", "--n", "16", "--trials", "2",
                     "--seed", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_payload(data) == []
        assert data["seed"] == 1

    def test_run_json_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["run", "demo", "--n", "5", "--seed", "0",
                     "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert validate_payload(data) == []
        assert data["renders"]["line"]

    def test_sweep_json_identical_across_workers(self, capsys, tmp_path):
        one, four = tmp_path / "w1.json", tmp_path / "w4.json"
        argv = ["sweep", "counting", "--n", "16", "--trials", "2",
                "--seeds", "4", "--base-seed", "2"]
        assert main(argv + ["--workers", "1", "--json", str(one)]) == 0
        assert main(argv + ["--workers", "4", "--json", str(four)]) == 0
        a, b = json.loads(one.read_text()), json.loads(four.read_text())
        assert validate_payload(a) == [] and validate_payload(b) == []
        strip = lambda results: [
            {k: v for k, v in r.items() if k != "wall_time"}
            for r in results
        ]
        assert strip(a["results"]) == strip(b["results"])
        assert len(a["results"]) == 4

    def test_sweep_human_output(self, capsys):
        assert main(["sweep", "counting", "--n", "16", "--trials", "1",
                     "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 trials" in out

    def test_sweep_bad_value_is_a_clean_usage_error(self, capsys):
        assert main(["sweep", "counting", "--n", "abc", "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "cannot convert" in err

    def test_run_out_of_range_param_is_a_clean_usage_error(self, capsys):
        assert main(["run", "counting", "--trials", "0"]) == 2
        assert "below the minimum" in capsys.readouterr().err

    def test_validate_command(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        assert main(["run", "counting", "--n", "16", "--trials", "1",
                     "--json", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["validate", str(good)]) == 0
        assert main(["validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "INVALID" in out


class TestUniformFlags:
    """The deterministic shape/pattern scenarios take --seed/--json like
    everyone else (they record determinism in the spec)."""

    def test_construct_accepts_seed_and_json(self, capsys):
        assert main(["run", "shape", "--shape", "star", "--d", "7",
                     "--seed", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_payload(data) == []
        assert data["seed"] == 5  # recorded even though deterministic

    def test_pattern_accepts_seed_and_json(self, capsys):
        assert main(["run", "pattern", "--pattern", "checkerboard",
                     "--d", "6", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_payload(data) == []
        assert data["metrics"]["colors"] == 2

    def test_construct_deterministic_regardless_of_seed(self, capsys):
        argv = ["shape", "--shape", "cross", "--d", "7"]
        first = run_json(capsys, argv + ["--seed", "1"])
        second = run_json(capsys, argv + ["--seed", "2"])
        assert first.pop("seed") == 1 and second.pop("seed") == 2
        assert first == second

    def test_run_emits_schema_valid_json(self, capsys):
        for argv in (
            ["demo", "--n", "5", "--seed", "1"],
            ["counting", "--n", "16", "--trials", "2", "--seed", "0"],
            ["cube", "--m", "3", "--seed", "0"],
            ["replicate", "--size", "8", "--seed", "2"],
            ["repair", "--d", "7", "--fraction", "0.25", "--seed", "4"],
        ):
            run_json(capsys, argv)


class TestInspectCommand:
    def test_inspect_square(self, capsys):
        assert main(["inspect", "square"]) == 0
        out = capsys.readouterr().out
        assert "|Q| = 6" in out
        assert "->" in out
        assert "lint: clean" in out

    def test_inspect_protocol5_lints_clean_with_seeds(self, capsys):
        assert main(["inspect", "protocol5"]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out

    def test_inspect_rejects_unknown(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["inspect", "nonexistent"])
