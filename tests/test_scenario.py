"""Scenario generation and document round-trip tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offload_game import (
    CrossEntropyParams,
    GenParams,
    Objective,
    ProfileEvaluator,
    SchemaError,
    access_weight,
    convergence_slot_bound,
    cross_entropy_optimize,
    enumerate_nash,
    exhaustive_optimize,
    generate,
    load_scenario,
    read_scenario,
    run_dco,
    save_scenario,
    scenario_fingerprint,
    write_scenario,
)
from offload_game.model import AccessModel
from offload_game.scenario import ScenarioUser, dbm_to_mw
from support import integer_contention_scenario


def minimal_doc():
    return {
        "meta": {"seed": 1, "generator": {}, "version": "0.1.0"},
        "env": {"M": 2, "w_hz": 5e6, "noise_dbm": -100.0, "access_model": "interference"},
        "users": [
            {
                "q_mw": 100.0, "g": 1e-4, "b_kb": 5000.0, "d_megacycles": 1000.0,
                "f_m_ghz": 1.0, "f_c_ghz": 10.0, "gamma_j_per_cycle": 1e-9, "L_j": 0.0,
                "lambda_e": 0.0, "W": 1.0, "R_bps": 1e8,
            },
            {
                "q_mw": 100.0, "g": 2e-5, "b_kb": 5000.0, "d_megacycles": 1000.0,
                "f_m_ghz": 0.5, "f_c_ghz": 10.0, "gamma_j_per_cycle": 1e-9, "L_j": 0.0,
                "lambda_e": 0.5, "W": 2.0, "R_bps": 1e8,
            },
        ],
    }


class TestGenerate:
    def test_replay_identical(self):
        params = GenParams(n_users=8, channels=3)
        assert generate(params, 123) == generate(params, 123)
        assert generate(params, 123) != generate(params, 124)

    def test_placement_and_gain_formula(self):
        # re-derive the first user's gain from the documented sampling recipe
        params = GenParams(n_users=4)
        scenario = generate(params, 99)
        rng = np.random.default_rng(99)
        dist = np.maximum(1.0, params.cell_radius_m * np.sqrt(rng.random(4)))
        expected = dist ** -params.path_loss_exponent
        assert [u.g for u in scenario.users] == pytest.approx(list(expected), rel=0, abs=0)

    def test_time_weight_complements_energy_weight(self):
        scenario = generate(GenParams(n_users=30), 5)
        for row, profile in zip(scenario.users, scenario.user_profiles):
            assert profile.energy_weight == row.lambda_e
            assert profile.time_weight == 1.0 - row.lambda_e
        assert any(row.lambda_e == 0.0 for row in scenario.users)

    def test_choice_fields_come_from_choice_sets(self):
        params = GenParams(n_users=40)
        scenario = generate(params, 17)
        for row in scenario.users:
            assert row.f_m_ghz in params.device_rate_choices_ghz
            assert row.lambda_e in params.energy_weight_choices

    def test_area_uniform_mean_squared_distance(self):
        params = GenParams(n_users=100_000, channels=1)
        scenario = generate(params, 7)
        distances = np.array([u.g for u in scenario.users]) ** (
            -1.0 / params.path_loss_exponent
        )
        target = params.cell_radius_m**2 / 2.0
        assert abs(np.mean(distances**2) - target) <= 0.02 * target

    def test_unit_conversions(self):
        scenario = generate(GenParams(n_users=1), 3)
        row, profile = scenario.users[0], scenario.user_profiles[0]
        assert profile.input_bits == row.b_kb * 8e3
        assert profile.task_cycles == row.d_megacycles * 1e6
        assert profile.device_rate_hz == row.f_m_ghz * 1e9
        assert scenario.channel_env.noise_mw == dbm_to_mw(scenario.noise_dbm)
        assert dbm_to_mw(-100.0) == 1e-10

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(n_users=0)
        with pytest.raises(ValueError):
            GenParams(cell_radius_m=-1.0)
        with pytest.raises(ValueError):
            GenParams(device_rate_choices_ghz=())
        for overrides in ({"bandwidth_hz": 0.0}, {"transmit_power_mw": -1.0}):
            with pytest.raises(ValueError, match="bandwidth must be > 0 and transmit power >= 0"):
                GenParams(**overrides)
        for overrides in ({"input_kb": 0.0}, {"task_megacycles": 0.0}, {"cloud_rate_ghz": 0.0}):
            with pytest.raises(ValueError, match="task size, cycle count and cloud rate must be > 0"):
                GenParams(**overrides)

    @pytest.mark.parametrize("weights, channels, seed", [((1e-300, 1e300), 1, 1), ((1.0, 1e160), 2, 2)])
    def test_weights_whose_potential_overflows_rejected(self, weights, channels, seed):
        """Such weights used to give a NaN potential on every slot of a run that reported success."""
        params = GenParams(n_users=4, channels=channels, access_model=AccessModel.CONTENTION,
                           contention_weight_choices=weights)
        with pytest.raises(SchemaError, match="potential would overflow") as info:
            generate(params, seed)
        assert info.value.path == "users"
        # weights far apart whose potential stays finite are kept
        kept = generate(dataclasses.replace(params, contention_weight_choices=(1e-200, 1e150),
                                            energy_weight_choices=(0.0,)), 1)
        assert max(kept.evaluator.weights) == 1e150
        assert all(math.isfinite(record.potential) for record in run_dco(kept, 0).slots)

    @pytest.mark.parametrize("overrides", [
        {"cell_radius_m": float("nan")},
        {"bandwidth_hz": float("inf")},
        {"noise_dbm": float("-inf")},
        {"contention_peak_rate_bps": float("nan")},
        {"device_rate_choices_ghz": (1.0, float("nan"))},
    ])
    def test_non_finite_params_rejected(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            GenParams(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"access_model": "interference"},
        {"access_model": "contention"},
        {"channels": 2.0},
        {"channels": True},
        {"n_users": True},
        {"n_users": 3.0},
        {"cell_radius_m": True},  # would build the users of 1.0 under another fingerprint
        {"bandwidth_hz": "5e6"},  # failed a comparison with TypeError
        {"energy_weight_choices": (0.0, False)},
    ])
    def test_mistyped_params_rejected(self, overrides):
        """A string access model would get the contention formulas; a float count a new fingerprint."""
        with pytest.raises(ValueError):
            GenParams(**overrides)

    @pytest.mark.parametrize("as_int, as_float", [
        ({"cell_radius_m": 50}, {"cell_radius_m": 50.0}),
        ({"energy_weight_choices": (1, 0)}, {"energy_weight_choices": (1.0, 0.0)}),
        ({"contention_weight_choices": [2, 1.5]}, {"contention_weight_choices": (2.0, 1.5)}),
    ])
    def test_int_in_a_float_field_is_stored_as_its_float(self, as_int, as_float):
        """One instance, one fingerprint: an int given for a float is kept as that float."""
        params = GenParams(n_users=3, **as_int)
        assert params == GenParams(n_users=3, **as_float)
        a, b = generate(params, 1), generate(GenParams(n_users=3, **as_float), 1)
        assert json.dumps(a.generator) == json.dumps(b.generator)
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_int_too_large_for_a_float_field_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GenParams(cell_radius_m=10**400)


class TestDocuments:
    def test_round_trip_from_generated(self):
        scenario = generate(GenParams(n_users=5), 11)
        doc = json.loads(json.dumps(save_scenario(scenario)))
        assert save_scenario(load_scenario(doc)) == doc

    def test_load_save_identity_on_handwritten(self):
        doc = minimal_doc()
        assert save_scenario(load_scenario(doc)) == doc

    def test_hand_computed_access_weights(self):
        scenario = load_scenario(minimal_doc())
        env, users = scenario.channel_env, scenario.user_profiles
        assert access_weight(env, users[0]) == 100.0 * 1e-4
        assert access_weight(env, users[1]) == 100.0 * 2e-5

    def test_missing_field_names_path(self):
        doc = minimal_doc()
        del doc["users"][1]["q_mw"]
        with pytest.raises(SchemaError, match=r"users\[1\]\.q_mw"):
            load_scenario(doc)
        doc = minimal_doc()
        del doc["env"]["M"]
        with pytest.raises(SchemaError, match=r"env\.M"):
            load_scenario(doc)

    def test_wrong_types_rejected(self):
        doc = minimal_doc()
        doc["env"]["w_hz"] = "fast"
        with pytest.raises(SchemaError, match="env.w_hz"):
            load_scenario(doc)
        doc = minimal_doc()
        doc["env"]["access_model"] = "psychic"
        with pytest.raises(SchemaError, match="access_model"):
            load_scenario(doc)
        doc = minimal_doc()
        doc["users"] = []
        with pytest.raises(SchemaError, match="users"):
            load_scenario(doc)
        for key, value, message in [
            ("seed", "1", "meta.seed: expected an integer or null"),
            ("generator", [], "meta.generator: expected an object"),
            ("version", 1, "meta.version: expected a string"),
        ]:
            doc = minimal_doc()
            doc["meta"][key] = value
            with pytest.raises(SchemaError, match=message):
                load_scenario(doc)
        for channels in (0, True, 1.5):
            doc = minimal_doc()
            doc["env"]["M"] = channels
            with pytest.raises(SchemaError, match=r"env\.M: expected a positive integer"):
                load_scenario(doc)
        doc = minimal_doc()
        doc["users"][1] = [1.0]
        with pytest.raises(SchemaError, match=r"users\[1\]: expected an object"):
            load_scenario(doc)

    @pytest.mark.parametrize("row, key, literal, path", [
        (0, "g", "NaN", "users[0].g"),
        (1, "b_kb", "Infinity", "users[1].b_kb"),
        (None, "w_hz", "Infinity", "env.w_hz"),
        (None, "noise_dbm", "-Infinity", "env.noise_dbm"),
        # ints too large for a float, which raised OverflowError from the finiteness test
        pytest.param(None, "w_hz", "9" * 400, "env.w_hz", id="huge-int-env.w_hz"),
        pytest.param(None, "noise_dbm", "-" + "9" * 400, "env.noise_dbm", id="huge-int-env.noise_dbm"),
        pytest.param(0, "q_mw", "9" * 400, "users[0].q_mw", id="huge-int-users[0].q_mw"),
    ])
    def test_non_finite_numbers_rejected(self, row, key, literal, path):
        doc = minimal_doc()
        target = doc["env"] if row is None else doc["users"][row]
        target[key] = json.loads(literal)  # what json.load makes of the bare literal
        with pytest.raises(SchemaError, match="finite") as info:
            load_scenario(doc)
        assert info.value.path == path

    def test_model_invariants_surface_as_schema_errors(self):
        """Each case breaks one model invariant; the error path names env or the user."""
        cases = [
            ("interference", 0, "b_kb", 0.0, "users[0]"),
            ("interference", None, "w_hz", -1.0, "env"),
            ("contention", 1, "R_bps", 0.0, "users[1]"),  # interference ignores R_bps
            ("interference", None, "noise_dbm", 4000.0, "env"),  # overflows in mW
            ("contention", None, "noise_dbm", 4000.0, "env"),
            ("interference", 1, "q_mw", 0.0, "users[1]"),  # zero access weight
            ("interference", 0, "g", 0.0, "users[0]"),
            ("contention", 1, "W", 1e300, "users"),  # the potential overflows
        ]
        for access, row, key, value, path in cases:
            doc = minimal_doc()
            doc["env"]["access_model"] = access
            (doc["env"] if row is None else doc["users"][row])[key] = value
            with pytest.raises(SchemaError) as info:
                load_scenario(doc)
            assert info.value.path == path

    @pytest.mark.parametrize("overrides", [
        {"access_model": "interference"},
        {"access_model": "contention"},
        {"channels": 2.0},
        {"channels": True},
        {"bandwidth_hz": True},
        {"bandwidth_hz": "5e6"},
    ])
    def test_mistyped_env_fields_are_schema_errors(self, overrides):
        with pytest.raises(SchemaError) as info:
            dataclasses.replace(load_scenario(minimal_doc()), **overrides)
        assert info.value.path == "env"

    def test_no_users_is_a_schema_error(self):
        """Such a scenario used to build, save a document `load_scenario` refuses and divide by zero in a scan."""
        with pytest.raises(SchemaError) as info:
            dataclasses.replace(load_scenario(minimal_doc()), users=())
        assert (info.value.path, info.value.reason) == ("users", "expected a nonempty array")

    @pytest.mark.parametrize("key, value", [
        ("lambda_e", True), ("g", "1e-4"), ("W", None),
        # unit-converted fields, which raised TypeError from the arithmetic
        ("b_kb", "5000"), ("d_megacycles", "1000"), ("f_m_ghz", [1.0]), ("f_c_ghz", None),
        ("lambda_e", "0.5"),
    ])
    def test_mistyped_user_fields_are_schema_errors(self, key, value):
        scenario = load_scenario(minimal_doc())
        users = (scenario.users[0], dataclasses.replace(scenario.users[1], **{key: value}))
        with pytest.raises(SchemaError, match="must be a number") as info:
            dataclasses.replace(scenario, users=users)
        assert info.value.path == "users[1]"

    def test_mistyped_peak_rate_under_contention_is_schema_error(self):
        """The contention peak-rate check compared it before UserProfile could reject it."""
        scenario = load_scenario(minimal_doc())
        users = (scenario.users[0], dataclasses.replace(scenario.users[1], R_bps="1e8"))
        with pytest.raises(SchemaError, match="R_bps must be a number") as info:
            dataclasses.replace(scenario, access_model=AccessModel.CONTENTION, users=users)
        assert info.value.path == "users[1]"

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ScenarioUser)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"])
    def test_non_finite_user_fields_are_schema_errors(self, key, value):
        scenario = load_scenario(minimal_doc())
        users = (scenario.users[0], dataclasses.replace(scenario.users[1], **{key: value}))
        with pytest.raises(SchemaError, match="must be finite") as info:
            dataclasses.replace(scenario, users=users)
        assert info.value.path == "users[1]"

    @pytest.mark.parametrize("key", ["bandwidth_hz", "noise_dbm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_env_fields_are_schema_errors(self, key, value):
        with pytest.raises(SchemaError, match="must be finite") as info:
            dataclasses.replace(load_scenario(minimal_doc()), **{key: value})
        assert info.value.path == "env"

    def test_fingerprint_stable_and_content_sensitive(self):
        scenario = generate(GenParams(n_users=3), 2)
        reloaded = load_scenario(json.loads(json.dumps(save_scenario(scenario))))
        assert scenario_fingerprint(scenario) == scenario_fingerprint(reloaded)
        other = generate(GenParams(n_users=3), 3)
        assert scenario_fingerprint(scenario) != scenario_fingerprint(other)

    @pytest.mark.parametrize("env, user_field", [
        ({"bandwidth_hz": 5000000}, None),
        ({"noise_dbm": -100}, None),
        ({}, "b_kb"),
        ({"bandwidth_hz": 5000000}, "f_c_ghz"),
    ], ids=["env-w-hz", "env-noise", "user-b-kb", "env-and-user"])
    def test_int_number_has_its_round_trips_fingerprint(self, tmp_path, env, user_field):
        """A Scenario built with an int for a float is saved as that float, as it loads back."""
        scenario = generate(GenParams(n_users=3), 2)  # defaults: 5e6 Hz, -100 dBm, 5000 KB, 10 GHz
        users = list(scenario.users)
        if user_field:
            users[1] = dataclasses.replace(users[1], **{user_field: int(getattr(users[1], user_field))})
        built = dataclasses.replace(scenario, users=tuple(users), **env)
        path = tmp_path / "scenario.json"
        write_scenario(path, built)
        assert scenario_fingerprint(built) == scenario_fingerprint(read_scenario(path))
        assert scenario_fingerprint(built) == scenario_fingerprint(scenario)
        assert path.read_text() == json.dumps(save_scenario(scenario), indent=2) + "\n"

    def test_file_round_trip(self, tmp_path):
        scenario = generate(GenParams(n_users=4, access_model=AccessModel.CONTENTION), 8)
        path = tmp_path / "scenario.json"
        write_scenario(path, scenario)
        assert read_scenario(path) == scenario

    def test_unreadable_json_is_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_scenario(path)

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000, b"9" * 5000],
                             ids=["not-utf8", "deep", "int-past-the-digit-limit"])
    def test_unparsable_bytes_are_schema_errors(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match="not valid JSON") as info:
            read_scenario(path)
        assert info.value.path == str(path)

    @pytest.mark.parametrize("doc", [[1, 2], "scenario", None, 3.5])
    def test_top_level_non_object_names_the_document(self, doc):
        with pytest.raises(SchemaError) as info:
            load_scenario(doc)
        assert str(info.value) == "document: expected an object"


# what a mutated document may hold: every JSON value, the NaN and ±inf that json reads from
# bare literals, ints past a float's range, and values at the edges of the float range
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([0, -1, 10**400, -(10**400), 1e308, -1e308, 5e-324, 4000.0, "contention"]),
)
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBERS = st.floats(-10.0, 1e10) | st.integers(-3, 10**4)  # a plausible number, so some edits load


def _nodes(value, path=()):
    """The path of every value below `value`, containers included, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """`minimal_doc` under either access model after one to three edits.

    An edit sets a value to a plausible number or to any value, or deletes it.
    """
    doc = minimal_doc()
    doc["env"]["access_model"] = draw(st.sampled_from([m.value for m in AccessModel]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_nodes(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        edit = draw(st.sampled_from(["number", "number", "value", "delete"]))
        if edit == "delete":
            del parent[key]
        else:
            parent[key] = draw(_NUMBERS if edit == "number" else _VALUES)
    return doc


def _with_value(section: str, key: str, value) -> dict:
    doc = minimal_doc()
    (doc["env"] if section == "env" else doc["users"][0])[key] = value
    return doc


@settings(max_examples=400)
@example(doc=_with_value("env", "w_hz", 10**400))  # both raised OverflowError from the finiteness test
@example(doc=_with_value("users", "q_mw", 10**400))
@given(doc=mutated_documents())
def test_mutated_documents_raise_only_schema_errors(doc):
    """A document loads or raises SchemaError; one that loads saves and loads back to its fingerprint."""
    try:
        scenario = load_scenario(doc)
    except SchemaError:
        return
    reloaded = load_scenario(json.loads(json.dumps(save_scenario(scenario))))
    assert scenario_fingerprint(reloaded) == scenario_fingerprint(scenario)


def test_scenario_builds_one_evaluator(monkeypatch):
    """The simulation, the bound and every baseline share `Scenario.evaluator`."""
    built = []
    init = ProfileEvaluator.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(ProfileEvaluator, "__init__", counting_init)
    scenario = integer_contention_scenario(5, 2, seed=1)
    run_dco(scenario, 0)
    convergence_slot_bound(scenario)
    enumerate_nash(scenario)
    for objective in Objective:
        exhaustive_optimize(scenario, objective)
    cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, CrossEntropyParams(iterations=2))
    assert built == [scenario.evaluator]


class TestDistanceGainExample:
    def test_ten_meters_fourth_power_loss(self):
        # hand case for the path model: 10 m at exponent 4 is gain 1e-4
        assert 10.0 ** -4.0 == pytest.approx(1e-4, rel=1e-15)
        doc = minimal_doc()  # first user carries exactly that gain
        scenario = load_scenario(doc)
        assert scenario.users[0].g == 1e-4
