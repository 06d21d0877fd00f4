"""End-to-end tests of the command-line harness and its artifacts."""

import csv
import hashlib
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from offload_game import (
    GenParams, SlotRecord, all_local, generate, load_scenario, read_scenario, run_dco, save_scenario,
    scenario_fingerprint, write_scenario,
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

    def test_threshold_scale_that_underflows_generates(self, tmp_path):
        """Bandwidth times each user's cost budget underflows to 0: exit 0, where it raised."""
        argv = ["gen", "--bandwidth-hz", "1e-300", "--task-megacycles", "1e-300",
                "--energy-weight-choices", "0", "--seed", "0", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        scenario = load_scenario(json.loads((tmp_path / "scenario.json").read_text()))
        assert set(scenario.evaluator.thresholds.tolist()) == {-scenario.channel_env.noise_mw}


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
        assert doc["meta"]["scenario_fingerprint"] == scenario_fingerprint(
            read_scenario(out / "scenario.json")
        )
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
            ("report.json", cli.report_document(run_dco(scenario, 7), scenario)),
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

    @pytest.mark.parametrize("flags", [
        # a zero time weight times an overflowing local time is 0·inf = NaN
        ["--access-model", "contention", "--transmit-power-mw", "0",
         "--device-rate-choices-ghz", "1e-300", "--energy-weight-choices", "1.0"],
        ["--device-rate-choices-ghz", "1e-300", "--energy-weight-choices", "1.0"],
        # infinite local and cloud times leave the threshold inf - inf = NaN
        ["--device-rate-choices-ghz", "1e-300", "--cloud-rate-ghz", "1e-300",
         "--energy-weight-choices", "0"],
    ], ids=["contention", "interference", "infinite-costs"])
    def test_nan_cost_is_config_error(self, tmp_path, capsys, flags):
        """A NaN cost exits 2 naming its user, where it wrote `nan` or blamed the weights."""
        argv = ["sweep", "--n", "3..3", "--seeds", "1", "--channels", "2", "--task-megacycles",
                "1e300", "--energy-per-cycle-j", "0", *flags, "--out", str(tmp_path / "s")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: users: user 0: a cost constant is not finite")
        assert not (tmp_path / "s" / "summary.csv").exists()

    @pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
    def test_all_local_overhead_is_the_all_local_total(self, access):
        """A run starts all-local, so the cell's `all_local_overhead`, its first slot's total, has the
        bits of `system_overheads` of the all-local profile."""
        for seed in range(120):
            params = GenParams(n_users=1 + seed % 58, channels=1 + seed % 7, access_model=access)
            scenario = generate(params, seed)
            total = scenario.evaluator.system_overheads([all_local(scenario)])[0]
            row = cli._sweep_cell((params, seed, seed))
            assert np.float64(row["all_local_overhead"]).tobytes() == total.tobytes(), seed

    def test_worker_count_clamped(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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

    @pytest.mark.parametrize("seed", [13, 37])
    def test_no_oracle_overhead_below_the_optimum(self, tmp_path, seed):
        """All three overhead columns add users in order, so DCO's and CE's never read below the optimum.

        Under numpy's row sum 4^8 seed 13's DCO and CE totals and seed 37's CE
        total read one ulp below `opt_overhead`.  Like `TestCanonicalScoring`,
        this relies on the scan's chunk loads matching one-row loads, which
        held with OpenBLAS on a 2-core Xeon but is not guaranteed on every BLAS.
        """
        out = tmp_path / "o"
        assert main(["oracle", "--n", "8", "--m", "3", "--seed-base", str(seed), "--seeds", "1",
                     "--out", str(out)]) == EXIT_OK
        (row,) = csv.DictReader((out / "summary.csv").read_text(encoding="utf-8").splitlines())
        optimum = float(row["opt_overhead"])
        assert float(row["dco_overhead"]) >= optimum
        assert float(row["ce_overhead"]) >= optimum

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
    def test_parallel_equals_serial(self, tmp_path, command):
        """Each worker process keeps its own canonical profiles; the table does not depend on the split."""
        tables = []
        for workers in (1, 2):
            out = tmp_path / f"{command}{workers}"
            assert main([command, "--n", "6", "--m", "3", "--seeds", "4", "--workers", str(workers),
                         "--out", str(out)]) == EXIT_OK
            tables.append((out / "summary.csv").read_bytes())
        assert tables[0] == tables[1]
        assert tables[0].count(b"\n") == 5  # header + 4 seeds

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

    @pytest.mark.parametrize("command, n, m", [("oracle", 20000, 3000), ("poa", 300000, 5)])
    def test_too_large_rejected_before_any_scenario(self, tmp_path, capsys, monkeypatch, command, n, m):
        """(M+1)^N meets the cap once the generator flags validate, before a cell generates its scenario."""
        def no_scenario(*args):
            raise AssertionError("a cell generated its scenario")

        monkeypatch.setattr(cli, "generate", no_scenario)
        out = tmp_path / command
        assert main([command, "--n", str(n), "--m", str(m), "--seeds", "1", "--out", str(out)]) == EXIT_TOO_LARGE
        assert capsys.readouterr().err == f"error: {m + 1}^{n} profiles exceed the cap 10000000\n"
        assert not (out / "summary.csv").exists()
        assert main([command, "--n", "0", "--m", str(m), "--seeds", "1", "--out", str(out)]) == EXIT_CONFIG

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


@pytest.mark.parametrize("command", [
    ["poa", "--n", "2", "--m", "1"],
    ["sweep", "--n", "2..2", "--channels", "1"],
], ids=["poa", "sweep"])
def test_totals_past_the_float_range_are_inf(tmp_path, command):
    """Local costs near the float maximum: the all-local total is +inf, with no overflow warning.

    The scan's row totals (poa) and `system_overheads` (sweep) sum them; the
    warning is an error under the test settings.
    """
    out = tmp_path / "out"
    argv = command + ["--seeds", "1", "--task-megacycles", "1e300", "--device-rate-choices-ghz", "1e-11",
                      "--energy-weight-choices", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    if command[0] == "sweep":
        runs = read_csv(out / "runs.csv")
        assert runs[1][runs[0].index("all_local_overhead")] == "inf"
    else:
        assert len(read_csv(out / "summary.csv")) == 2


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

    def test_worker_count_follows_the_cpus_this_process_may_use(self, monkeypatch):
        """On a cpuset-limited host the CPU affinity caps the workers, not the machine's CPU count."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_count(8, 100) == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
        assert _worker_count(8, 100) == 8

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


# The fixed CLI set whose files keep their bytes: each run's argv before --out, in order; a
# trace or ce run reads the scenario of the gen run it names.  Interference and contention,
# and at seed 5 a contention scenario whose uploads and device energy are free (zero costs).
GOLDEN_RUNS = [
    ("gen-30x5", ["gen", "--n-users", "30", "--channels", "5", "--seed", "1"]),
    ("gen-12x3", ["gen", "--n-users", "12", "--channels", "3", "--access-model", "contention",
                  "--seed", "2"]),
    ("gen-40x4", ["gen", "--n-users", "40", "--channels", "4", "--access-model", "contention",
                  "--transmit-power-mw", "0", "--energy-weight-choices", "1.0,0.5",
                  "--energy-per-cycle-j", "0", "--seed", "5"]),
    ("trace-30x5", ["trace", "--scenario", "gen-30x5", "--seed", "1"]),
    ("trace-12x3", ["trace", "--scenario", "gen-12x3", "--seed", "2"]),
    ("trace-40x4", ["trace", "--scenario", "gen-40x4", "--seed", "5"]),
    ("sweep", ["sweep", "--n", "10..15", "--step", "5", "--seeds", "2"]),
    ("oracle", ["oracle", "--n", "4", "--m", "2", "--seeds", "2"]),
    ("poa", ["poa", "--n", "4", "--m", "2", "--seeds", "2"]),
    ("ce-max", ["ce", "--scenario", "gen-12x3", "--objective", "max-beneficial", "--seed", "3"]),
    ("ce-min", ["ce", "--scenario", "gen-30x5", "--objective", "min-overhead", "--seed", "4"]),
]

GOLDEN_SHA256 = {
    "ce-max/config.json": "a8a9a00d06adc1975cfe76862669ec43ecf8250be5c336186ef20ecddd97c2e0",
    "ce-max/report.json": "fb2d163e44a5ba7b34a58dce0bef2a489138700db7acd773fdd87283716b5081",
    "ce-max/scenario.json": "80bad074f8fd5a567981bcd7c95c795828548a325c73aebb60e76032090b085c",
    "ce-min/config.json": "4d10e9c261c549ae3079649ce045f8ef62fcbd3aa23a596b68abcf5702914c23",
    "ce-min/report.json": "9bfa45b3f66c15452bad117e22bdd78966079ebf5e73db858e515d16a9de6d19",
    "ce-min/scenario.json": "a671e96da5977b7d495f57006995dd842bde1a480dba2b8e48df949b3a277b89",
    "gen-12x3/config.json": "0577647bcc974987840ec5dbd3391f14e0b841afded1e8f18f77d80c0106f1a3",
    "gen-12x3/scenario.json": "80bad074f8fd5a567981bcd7c95c795828548a325c73aebb60e76032090b085c",
    "gen-30x5/config.json": "77d76eebb86fca77371a7359b427f5b3ddc4021fb5f6e6a6f4eea41f9e4d33db",
    "gen-30x5/scenario.json": "a671e96da5977b7d495f57006995dd842bde1a480dba2b8e48df949b3a277b89",
    "gen-40x4/config.json": "9995fca6d8871d9881082d9a45bf1215cdf265db935dce7913d0833933f2a1a6",
    "gen-40x4/scenario.json": "48bbc8ad1aa7364e43f4b3d42553459eba2035bc44b67f2b50e52be9851bfe23",
    "oracle/config.json": "c2ae7df7a0fd4b9b281d43381f9410efd36dc332493a61d56fa2dc7aa1557414",
    "oracle/summary.csv": "c0bf20f676d1798b81197771f2e057622d3b4b7976f7af7943808be2c524616e",
    "poa/config.json": "5ce5e26397911d64d08695d49731ff3c05ababc601275f3213fb9e319de3a05f",
    "poa/summary.csv": "f86ea636ca4845ea081f909aadca85f7a7efdce3ccce2cbb479f568dc2e0e89c",
    "sweep/config.json": "f592504ab88c95b3b49992b915ed584b9a4eed27e7f7c7a7094300fadad172ca",
    "sweep/runs.csv": "3c3b4359823e444e7f290c8324dfc63110405c1031a2a6d266711a20a7b33208",
    "sweep/summary.csv": "24f4baf7efd7bbbe6f3081f9b3174cc5b29daf83b3d49c0e71ef2ac4a1fb45da",
    "trace-12x3/config.json": "d1610bfc13f38a09a7e7d5b4dbccb659b079d70bce25a0cdc79535edfc7ee72e",
    "trace-12x3/report.json": "0127d7f83eef3657b4debc59b0ce45f597f7bab7e0327d83ee223dd258dfc6c2",
    "trace-12x3/scenario.json": "80bad074f8fd5a567981bcd7c95c795828548a325c73aebb60e76032090b085c",
    "trace-12x3/slots.csv": "8a99856588f176e110e9c705fb7c778e5a29a29e2aa4ae401af34ca7b96feb22",
    "trace-30x5/config.json": "3875c6a5a7bdc9ebeac82f9ee003b4aca95e36d49e59181f12482aca5a4538f3",
    "trace-30x5/report.json": "f138deccfdb6fb43d2b37f7079ff9ce4aba5fa53d4a904b33e71e4b3c867f5c3",
    "trace-30x5/scenario.json": "a671e96da5977b7d495f57006995dd842bde1a480dba2b8e48df949b3a277b89",
    "trace-30x5/slots.csv": "a9897d15b4fbcadde1fa963a61f53c09b2636895e0bf04c38eb9d57011c0d48e",
    "trace-40x4/config.json": "dbce97c6b486328b80e47afa04887984a060e17bfb5283bfcdb360330328a058",
    "trace-40x4/report.json": "7ec86d3fe58c2920b8a194c2614b25830465cb7188c6fe924f856f7653ef4962",
    "trace-40x4/scenario.json": "48bbc8ad1aa7364e43f4b3d42553459eba2035bc44b67f2b50e52be9851bfe23",
    "trace-40x4/slots.csv": "dfd5cd06a1f9ef6174dc1c8007f1ca32c560f78f5bfed98dcad2986ad22816e9",
}


def test_fixed_cli_runs_keep_their_bytes(tmp_path):
    """Every file of the fixed CLI set hashes as recorded, with the output root as `<tmp>`.

    A change that alters output on purpose re-records these values; `pytest -vv`
    prints the new ones in the failing assertion.
    """
    for name, argv in GOLDEN_RUNS:
        argv = [str(tmp_path / arg / "scenario.json") if arg.startswith("gen-") else arg
                for arg in argv]
        assert main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK, name
    root = str(tmp_path).encode()
    digests = {
        path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes().replace(root, b"<tmp>")).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert digests == GOLDEN_SHA256
