"""End-to-end tests of the command-line harness and its artifacts."""

import csv
import json
import math
import os
from dataclasses import fields

import pytest

from offload_game import (
    GenParams, SlotRecord, generate, load_scenario, run_dco, save_scenario, write_scenario,
)
from offload_game import cli
from offload_game.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOO_LARGE, _worker_count, main
from offload_game.model import AccessModel
import reference


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def gen_args(n, m, out, seed=1):
    return [
        "gen", "--n-users", str(n), "--channels", str(m),
        "--seed", str(seed), "--out", str(out),
    ]


class TestGen:
    def test_writes_loadable_scenario(self, tmp_path):
        out = tmp_path / "g"
        assert main(gen_args(4, 2, out)) == EXIT_OK
        doc = json.loads((out / "scenario.json").read_text())
        scenario = load_scenario(doc)
        assert scenario.n_users == 4 and scenario.channels == 2
        assert scenario == generate(GenParams(n_users=4, channels=2), 1)
        config = json.loads((out / "config.json").read_text())
        assert config["command"] == "gen" and config["version"]

    def test_flags_override_defaults(self, tmp_path):
        out = tmp_path / "g2"
        code = main(
            gen_args(3, 1, out)
            + ["--access-model", "contention", "--energy-weight-choices", "0.0,0.5"]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "scenario.json").read_text())
        assert doc["env"]["access_model"] == "contention"
        assert all(u["lambda_e"] in (0.0, 0.5) for u in doc["users"])

    @pytest.mark.parametrize("field", fields(GenParams), ids=lambda f: f.name)
    def test_every_field_has_a_flag(self, tmp_path, field):
        """Each GenParams field is settable by its flag and recorded under meta.generator."""
        default = getattr(GenParams(), field.name)
        if isinstance(default, AccessModel):
            text = expected = AccessModel.CONTENTION.value
        elif isinstance(default, tuple):
            text, expected = "0.25", [0.25]
        else:
            expected = default + 1 if isinstance(default, int) else default + 0.25
            text = repr(expected)
        assert expected != default
        out = tmp_path / "g"
        flag = "--" + field.name.replace("_", "-")
        assert main(gen_args(3, 2, out) + [flag, text]) == EXIT_OK
        generator = json.loads((out / "scenario.json").read_text())["meta"]["generator"]
        assert generator[field.name] == expected
        assert set(generator) == {f.name for f in fields(GenParams)}

    def test_non_finite_flag_is_config_error(self, tmp_path):
        """Non-finite values, bad seeds and values that make an invalid user all exit 2."""
        cases = [
            ["--cell-radius-m", "nan"],
            ["--seed", "-1"],
            ["--energy-weight-choices", "1.5"],
            ["--access-model", "contention", "--contention-weight-choices", "0"],
            ["--access-model", "contention", "--contention-peak-rate-bps", "0"],
            ["--noise-dbm", "4000"],  # finite, but its mW value overflows
            # zero access weight under interference: a move cannot lower the potential
            ["--transmit-power-mw", "0", "--energy-weight-choices", "1.0"],
            ["--device-rate-choices-ghz", "a,b"],  # not a float list
            # weights whose potential overflows: it was NaN on every slot
            ["--access-model", "contention", "--contention-weight-choices", "1e300"],
        ]
        for i, flags in enumerate(cases):
            out = tmp_path / str(i)
            assert main(gen_args(3, 2, out) + flags) == EXIT_CONFIG, flags
            assert not out.exists() or not any(out.iterdir()), flags


class TestTrace:
    def run_trace(self, tmp_path, seed=7):
        gen_out = tmp_path / "gen"
        main(gen_args(6, 2, gen_out, seed=2))
        out = tmp_path / "trace"
        code = main([
            "trace", "--scenario", str(gen_out / "scenario.json"),
            "--seed", str(seed), "--out", str(out),
        ])
        return code, out

    def test_artifacts_match_library_run(self, tmp_path):
        code, out = self.run_trace(tmp_path)
        assert code == EXIT_OK
        scenario = load_scenario(json.loads((out / "scenario.json").read_text()))
        report = run_dco(scenario, 7)
        doc = json.loads((out / "report.json").read_text())
        assert doc["result"]["final_profile"] == list(report.final_profile)
        assert doc["result"]["update_slots"] == report.update_slots
        assert doc["result"]["is_nash"] is True
        assert doc["meta"]["scenario_fingerprint"] == report.scenario_fingerprint
        assert len(doc["slots"]) == report.total_slots
        names = [f.name for f in fields(SlotRecord)]
        assert all(list(slot) == names for slot in doc["slots"])

    def test_artifacts_are_stdlib_indented_json(self, tmp_path):
        """report.json, scenario.json and config.json keep json.dumps(doc, indent=2)'s bytes."""
        code, out = self.run_trace(tmp_path)
        assert code == EXIT_OK
        scenario = load_scenario(json.loads((out / "scenario.json").read_text()))
        config = json.loads((out / "config.json").read_text())
        for name, doc in [
            ("report.json", cli.report_document(run_dco(scenario, 7))),
            ("scenario.json", save_scenario(scenario)),
            ("config.json", config),
        ]:
            assert (out / name).read_bytes() == (json.dumps(doc, indent=2) + "\n").encode(), name

    @pytest.mark.parametrize("seed, flags", [
        (475, ["--cell-radius-m", "300"]),  # slot 0 lowers φ by less than one ulp of φ
        (1, ["--n-users", "5", "--access-model", "contention", "--transmit-power-mw", "0",
             "--energy-weight-choices", "1.0"]),  # free uploads: +inf thresholds
    ], ids=["sub-ulp-descent", "free-upload"])
    def test_edge_scenarios_end_at_nash(self, tmp_path, seed, flags):
        gen_out = tmp_path / "gen"
        assert main(["gen", "--seed", str(seed), *flags, "--out", str(gen_out)]) == EXIT_OK
        out = tmp_path / "trace"
        argv = ["trace", "--scenario", str(gen_out / "scenario.json"), "--seed", str(seed)]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        scenario = load_scenario(json.loads((out / "scenario.json").read_text()))
        doc = json.loads((out / "report.json").read_text())
        final = tuple(doc["result"]["final_profile"])
        assert reference.is_nash(scenario.channel_env, scenario.user_profiles, final)
        assert all(math.isfinite(slot["potential"]) for slot in doc["slots"])

    def test_slots_csv_layout(self, tmp_path):
        _, out = self.run_trace(tmp_path)
        rows = read_csv(out / "slots.csv")
        assert rows[0] == [
            "slot", "phi", "system_overhead", "beneficial_count", "updater", "new_decision"
        ]
        assert rows[1][0] == "0"
        assert rows[-1][4] == "" and rows[-1][5] == ""  # terminal slot has no updater
        # numbers recomputable from the scenario + seed
        scenario = load_scenario(json.loads((out / "scenario.json").read_text()))
        report = run_dco(scenario, 7)
        assert float(rows[1][1]) == report.slots[0].potential

    def test_repeat_invocations_identical(self, tmp_path):
        _, out_a = self.run_trace(tmp_path / "a")
        _, out_b = self.run_trace(tmp_path / "b")
        assert (out_a / "report.json").read_text() == (out_b / "report.json").read_text()
        assert (out_a / "slots.csv").read_bytes() == (out_b / "slots.csv").read_bytes()

    def test_missing_scenario_is_config_error(self, tmp_path):
        code = main([
            "trace", "--scenario", str(tmp_path / "nope.json"), "--seed", "1",
            "--out", str(tmp_path / "t"),
        ])
        assert code == EXIT_CONFIG

    def test_internal_error_is_not_config_error(self, tmp_path, monkeypatch):
        def broken(scenario, seed):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "run_dco", broken)
        with pytest.raises(ValueError, match="internal bug"):
            self.run_trace(tmp_path)


class TestSweep:
    def sweep_args(self, out, workers=1):
        return [
            "sweep", "--n", "4..6", "--step", "2", "--seeds", "3",
            "--channels", "2", "--workers", str(workers), "--out", str(out),
        ]

    def test_summary_layout_and_determinism(self, tmp_path):
        out = tmp_path / "s"
        assert main(self.sweep_args(out)) == EXIT_OK
        summary = read_csv(out / "summary.csv")
        assert summary[0][:3] == ["n", "seeds", "mean_dco_beneficial"]
        assert [row[0] for row in summary[1:]] == ["4", "6"]
        assert all(row[1] == "3" for row in summary[1:])
        runs = read_csv(out / "runs.csv")
        assert len(runs) == 1 + 6  # header + 2 sizes x 3 seeds
        out2 = tmp_path / "s2"
        main(self.sweep_args(out2))
        assert (out / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        single = tmp_path / "s3"
        assert main(self.sweep_args(single) + ["--n", "20"]) == EXIT_OK  # one size, not a range
        assert [row[0] for row in read_csv(single / "summary.csv")[1:]] == ["20"]

    def test_parallel_equals_serial(self, tmp_path):
        serial, parallel = tmp_path / "ser", tmp_path / "par"
        main(self.sweep_args(serial))
        main(self.sweep_args(parallel, workers=2))
        assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()

    def test_worker_count_clamped(self):
        cpus = os.cpu_count() or 1
        assert _worker_count(10**6, 50) == min(cpus, 50)
        assert _worker_count(10**6, 1) == 1
        assert _worker_count(2, 6) == min(2, cpus)

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--seeds", "0"), ("--step", "0"), ("--step", "-1"),
        ("--n", "0..3"), ("--n", "5..3"), ("--seed-base", "-1"),
    ])
    def test_nonpositive_counts_rejected(self, tmp_path, flag, value):
        out = tmp_path / "bad"
        assert main(self.sweep_args(out) + [flag, value]) == EXIT_CONFIG
        assert not out.exists()


class TestOracleAndPoa:
    def test_oracle_table(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "oracle", "--n", "4", "--m", "2", "--seeds", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "summary.csv")
        header = rows[0]
        assert {"dco_beneficial", "opt_beneficial", "ce_beneficial",
                "poa_beneficial", "poa_overhead"} <= set(header)
        assert len(rows) == 4
        by = {name: i for i, name in enumerate(header)}
        for row in rows[1:]:
            assert int(row[by["dco_beneficial"]]) <= int(row[by["opt_beneficial"]])
            assert 0.0 < float(row[by["poa_beneficial"]]) <= 1.0
            assert float(row[by["poa_overhead"]]) >= 1.0

    def test_poa_table(self, tmp_path):
        out = tmp_path / "p"
        code = main([
            "poa", "--n", "3", "--m", "2", "--seeds", "2",
            "--energy-weight-choices", "0.0", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "summary.csv")
        by = {name: i for i, name in enumerate(rows[0])}
        for row in rows[1:]:
            assert row[by["beneficial_bound_low"]] != ""  # thresholds nonnegative here
            assert float(row[by["poa_overhead"]]) >= 1.0

    def test_poa_bound_that_overflows_is_left_empty(self, tmp_path):
        """Weights 1e-200 and 1e150: seed 1's t_max / q_min is inf, which used to end in a traceback."""
        out = tmp_path / "p"
        code = main([
            "poa", "--n", "4", "--m", "1", "--access-model", "contention",
            "--contention-weight-choices", "1e-200,1e150", "--energy-weight-choices", "0",
            "--seeds", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "summary.csv")
        by = {name: i for i, name in enumerate(rows[0])}
        assert rows[2][by["seed"]] == "1"
        assert rows[2][by["beneficial_bound_low"]] == ""

    @pytest.mark.parametrize("command", ["oracle", "poa"])
    def test_nonpositive_seeds_or_workers_rejected(self, tmp_path, command):
        base = [command, "--n", "3", "--m", "2", "--out", str(tmp_path / command)]
        assert main(base + ["--seeds", "0"]) == EXIT_CONFIG
        assert main(base + ["--workers", "0"]) == EXIT_CONFIG
        assert main(base + ["--seed-base", "-1"]) == EXIT_CONFIG
        # the last seed of the range must still key run_dco's Philox stream
        assert main(base + ["--seed-base", str(2**128 - 1), "--seeds", "2"]) == EXIT_CONFIG
        assert main(base + ["--profile-cap", "0"]) == EXIT_CONFIG
        assert main(base + ["--profile-cap", "-5"]) == EXIT_CONFIG

    def test_too_large_exit_code(self, tmp_path, capsys):
        code = main([
            "poa", "--n", "30", "--m", "5", "--seeds", "1", "--out", str(tmp_path / "big"),
        ])
        assert code == EXIT_TOO_LARGE
        # 2^20000 has more digits than str() converts; printing it raised ValueError
        code = main([
            "poa", "--n", "20000", "--m", "1", "--seeds", "1", "--out", str(tmp_path / "huge"),
        ])
        assert code == EXIT_TOO_LARGE
        assert "2^20000 profiles exceed the cap" in capsys.readouterr().err


class TestCeCommand:
    def test_report_written(self, tmp_path):
        gen_out = tmp_path / "gen"
        main(gen_args(5, 2, gen_out, seed=3))
        out = tmp_path / "ce"
        code = main([
            "ce", "--scenario", str(gen_out / "scenario.json"),
            "--objective", "min-overhead", "--seed", "4", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["objective"] == "min-overhead"
        assert len(doc["profile"]) == 5
        assert doc["params"]["samples"] == 200
        assert "degenerate_tol" not in doc["params"]  # a constant, not a parameter

    def test_bad_objective_rejected(self, tmp_path):
        code = main([
            "ce", "--scenario", "x.json", "--objective", "fastest", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG


def with_literal(section: str, key: str, literal: str) -> bytes:
    """A generated scenario file whose `key` in env or in the first user is the JSON text `literal`."""
    doc = save_scenario(generate(GenParams(n_users=3, channels=2), 1))
    (doc["env"] if section == "env" else doc["users"][0])[key] = "LITERAL"
    return json.dumps(doc).replace('"LITERAL"', literal).encode()


class TestBadScenarioFile:
    """A scenario file the parser cannot read, or with a number no float holds, is a config
    error for every command that reads one."""

    COMMANDS = {
        "trace": ["trace", "--seed", "1"],
        "ce": ["ce", "--objective", "max-beneficial", "--ce-iterations", "2"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{", "codec can't decode"),  # not UTF-8
        (b"[" * 100000, "recursion"),  # nested past the parser's depth
        (b"[1, 2]", "document: expected an object"),  # valid JSON, but not an object
        # ints too large for a float, and one past the parser's digit limit, raised tracebacks
        (with_literal("env", "w_hz", "9" * 400), "env.w_hz: value must be finite"),
        (with_literal("users", "q_mw", "9" * 400), "users[0].q_mw: value must be finite"),
        (with_literal("env", "w_hz", "9" * 5000), "not valid JSON"),
    ], ids=["not-utf8", "deeply-nested", "top-level-array", "huge-w-hz", "huge-q-mw", "over-long-int"])
    def test_config_error_and_no_report(self, tmp_path, capsys, command, content, reason):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = [*self.COMMANDS[command], "--scenario", str(path), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert not (out / "report.json").exists()


class TestParser:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "offload-game" in capsys.readouterr().out

    def test_no_command_is_config_error(self):
        assert main([]) == EXIT_CONFIG

    def test_scenario_file_fixture_runs(self, tmp_path):
        scenario = generate(GenParams(n_users=3, channels=2), 9)
        path = tmp_path / "sc.json"
        write_scenario(path, scenario)
        out = tmp_path / "out"
        assert main(["trace", "--scenario", str(path), "--seed", "0", "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("command, args, dropped", [
        ("sweep", ["--n", "3..4", "--seeds", "1", "--channels", "2"], {"n_users"}),
        ("oracle", ["--n", "3", "--m", "2", "--seeds", "1"], {"n_users", "channels"}),
        ("poa", ["--n", "3", "--m", "2", "--seeds", "1"], {"n_users", "channels"}),
    ], ids=["sweep", "oracle", "poa"])
    def test_cell_commands_take_no_overridden_generator_flags(
        self, tmp_path, command, args, dropped
    ):
        """--n/--m set these GenParams fields: their flags exit 2 and config.json omits them."""
        for name in sorted(dropped):
            out = tmp_path / name
            flag = "--" + name.replace("_", "-")
            assert main([command, *args, flag, "7", "--out", str(out)]) == EXIT_CONFIG
            assert not out.exists()
        out = tmp_path / "ok"
        assert main([command, *args, "--out", str(out)]) == EXIT_OK
        options = json.loads((out / "config.json").read_text())["options"]
        generator = {f.name for f in fields(GenParams)}
        assert generator - dropped <= set(options)
        assert not dropped & set(options)
        assert "ce_degenerate_tol" not in options
