"""The JSON files against their oracle, stdlib `json.dumps(value, indent=2)`.

Every JSON file the CLI writes is the stdlib's indented text.  Two writers have
their own code.  `cli.write_report` streams a trace's report.json slot by slot,
with the C encoder writing each slot's per-user entries; its bytes must equal the
stdlib's exactly whenever the report's per-user entries are JSON numbers, bools
and None.  `scenario.write_scenario` fills each user row from the number texts
of one C-encoder call, and `scenario_fingerprint` hashes a compact sorted-key
row filled from the same texts; both must give the stdlib's bytes for every
scenario that builds.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from offload_game import (GenParams, RunReport, SchemaError, SlotRecord, generate, read_scenario,
                          run_dco, save_scenario, scenario_fingerprint, write_scenario)
from offload_game.cli import main, report_document, write_report
from offload_game.model import AccessModel
from offload_game.scenario import ScenarioUser
from test_cli import GOLDEN_RUNS


def oracle(value) -> str:
    return json.dumps(value, indent=2)


def difference(got, want):
    """None if the two texts are equal, else both near the first difference; a plain `==` on
    megabyte strings would have pytest diff them line by line."""
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return got[max(0, i - 60):i + 60], want[max(0, i - 60):i + 60]


def test_sweep_config_file(tmp_path):
    """A config.json with choice-set tuples and path strings, read back and rewritten by the oracle."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--n", "3..4", "--channels", "2", "--seeds", "1",
            "--energy-weight-choices", "1.0,0.5", "--out", str(out)]
    assert main(argv) == 0
    text = (out / "config.json").read_text(encoding="utf-8")
    assert text == oracle(json.loads(text)) + "\n"


def streamed_mismatch(tmp_path, report, scenario):
    """`difference` of the file `write_report` writes from the stdlib's bytes."""
    path = tmp_path / "report.json"
    write_report(path, report, scenario)
    want = json.dumps(report_document(report, scenario), indent=2) + "\n"
    return difference(path.read_bytes(), want.encode())


@pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
def test_streamed_report_equals_stdlib(tmp_path, access):
    cases = [GenParams(n_users=n, channels=m, access_model=access)
             for n, m in [(1, 1), (2, 1), (7, 3), (40, 5), (300, 50)]]
    # the cloud is 50x slower than the slowest device, so all-local is already the equilibrium
    still = GenParams(n_users=6, channels=2, cloud_rate_ghz=0.01, access_model=access)
    for seed, params in enumerate([*cases, still], start=3):
        scenario = generate(params, seed)
        report = run_dco(scenario, seed)
        assert streamed_mismatch(tmp_path, report, scenario) is None, params
    assert report.total_slots == 1 and report.slots[0].updater is None


@pytest.mark.parametrize("seed, params", [
    (475, GenParams(cell_radius_m=300.0)),  # slot 0 lowers φ by less than one ulp of φ
    (1, GenParams(n_users=5, access_model=AccessModel.CONTENTION, transmit_power_mw=0.0,
                  energy_weight_choices=(1.0,))),  # free uploads: +inf thresholds
], ids=["sub-ulp-descent", "free-upload"])
def test_streamed_report_of_edge_scenarios(tmp_path, seed, params):
    scenario = generate(params, seed)
    assert streamed_mismatch(tmp_path, run_dco(scenario, seed), scenario) is None


RECORD_CASES = [
    *[pytest.param(n + m, GenParams(n_users=n, channels=m, access_model=access), id=f"{access.value}-{n}x{m}")
      for access in AccessModel for n, m in [(1, 1), (2, 1), (7, 3), (40, 5), (300, 50), (1000, 166)]],
    pytest.param(475, GenParams(cell_radius_m=300.0), id="sub-ulp-descent"),
    pytest.param(1, GenParams(n_users=5, access_model=AccessModel.CONTENTION, transmit_power_mw=0.0,
                              energy_weight_choices=(1.0,)), id="free-upload"),
]


def identity_changes(slots, name) -> list:
    """Per slot, the indices where field `name` holds another object than the slot before; None on
    the first slot, which has no slot before."""
    columns = [getattr(rec, name) for rec in slots]
    return [None, *([i for i, (old, new) in enumerate(zip(prev, values, strict=True)) if old is not new]
                    for prev, values in zip(columns, columns[1:]))]


def least_load_moves(scenario, slots) -> list:
    """Per slot, whether its least channel load differs from the slot before's; True on the first.

    Each profile's loads come from its own one-row `channel_loads` call, whose bits the slot's are."""
    least = [scenario.evaluator.channel_loads([rec.profile]).min() for rec in slots]
    return [True, *(old != new for old, new in zip(least, least[1:]))]


@pytest.mark.parametrize("seed, params", RECORD_CASES)
def test_recorded_renewals_are_the_identity_changes(tmp_path, seed, params):
    """On every slot `run_dco` records exactly the `profile` and `overheads` entries that are new
    objects since the slot before, and the requesters that joined or left, except on the slots
    where the least load moved, where it rebuilt the requester set; the writer gives the stdlib's
    bytes from that record and from the same slots rebuilt without it, whose columns it re-encodes
    whole on every slot."""
    scenario = generate(params, seed)
    report = run_dco(scenario, seed)
    assert sorted(report._renewed) == ["overheads", "profile", "rtu_senders"]
    for name in ("profile", "overheads"):
        recorded = report._renewed[name]
        for slot, (got, want) in enumerate(zip(recorded, identity_changes(report.slots, name), strict=True)):
            assert got == want, (name, slot)
    toggled = report._renewed["rtu_senders"]
    assert [t is None for t in toggled] == least_load_moves(scenario, report.slots)
    for last, rec, got in zip(report.slots, report.slots[1:], toggled[1:]):
        assert got is None or got == sorted(set(last.rtu_senders) ^ set(rec.rtu_senders)), rec.slot
    rebuilt = RunReport(report.seed, report.slots)
    assert not rebuilt._renewed and not dataclasses.replace(report)._renewed
    assert rebuilt == report and repr(rebuilt) == repr(report) and hash(rebuilt) == hash(report)
    want = (json.dumps(report_document(report, scenario), indent=2) + "\n").encode()
    path = tmp_path / "report.json"
    for written in (report, rebuilt):
        write_report(path, written, scenario)
        assert difference(path.read_bytes(), want) is None


def hand_report(profiles, overheads, senders) -> RunReport:
    """A report whose slots carry the given columns; the scalars vary with them."""
    slots = tuple(
        SlotRecord(slot=t, profile=p, potential=o[0] if o else 0.5, system_overhead=-0.0,
                   beneficial_count=len(s), overheads=o, rtu_senders=s,
                   updater=s[0] if s else None, new_decision=p[0] if s else None)
        for t, (p, o, s) in enumerate(zip(profiles, overheads, senders))
    )
    return RunReport(seed=0, slots=slots)


# the scenario a hand-built report is written with; the writer reads only its fingerprint
HAND_SCENARIO = generate(GenParams(n_users=1, channels=1), 0)


NAN, INF = float("nan"), float("inf")


def test_streamed_report_change_detection_edges(tmp_path):
    """Entries that compare equal but encode differently are re-encoded, slot after slot."""
    profiles = [(1, 2, 0), (1.0, 2.0, 3.0), (1, 2, 0), (True, 2, 0), (1, 2, 0), (1, True, 0),
                (1, 2, 0), (1, 2), (1, 1, 2), (1, True, 2.0), (1, 1, 2)]
    overheads = [(1.5, 0.0, 5e-324), (1.5, -0.0, 5e-324), (1.5, 0.0, 5e-324), (NAN, INF, -INF),
                 (NAN, INF, -INF), (1.5, 2.0, 5e-324), (1.5, 2, 5e-324), (1, 2, 3),
                 (1.0, 2.0, 3.0), (1.5, 2.5, 1e-323), (1.5, 2.5, 1e-323)]
    senders = [(0, 1, 2), (1,), (), (), (2, 0), (0, 1, 2), (), (1,), (0, 1), (), (2,)]
    report = hand_report(profiles, overheads, senders)
    assert streamed_mismatch(tmp_path, report, HAND_SCENARIO) is None


def test_streamed_requesters_spliced_from_a_record(tmp_path):
    """A hand-built `rtu_senders` record, set as `run_dco` sets it: requesters join and leave at the
    first, middle and last positions, the set empties and refills, and one slot mid-run is rebuilt
    (None).  The writer splices the texts it names, so a record that drops one change gives other bytes."""
    senders = [(2, 5, 9), (1, 2, 5, 9), (1, 2, 4, 5, 9), (1, 2, 4, 5, 9, 12), (2, 4, 5, 9), (2, 4, 9),
               (2, 4), (), (3,), (0, 3, 7, 300), (0, 1, 3, 7, 8, 300), (0, 3, 8), (0, 3, 8, 10), (3,)]
    record = [None, *(sorted(set(old) ^ set(new)) for old, new in zip(senders, senders[1:]))]
    record[9] = None
    report = hand_report([(t % 3, 1) for t in range(len(senders))], [(0.5 * t,) for t in range(len(senders))],
                         senders)
    object.__setattr__(report, "_renewed", {"rtu_senders": record})
    assert streamed_mismatch(tmp_path, report, HAND_SCENARIO) is None
    record[4] = record[4][1:]
    assert streamed_mismatch(tmp_path, report, HAND_SCENARIO) is not None


# a slot's entries come from one pool: the ints, the floats, or both plus the bools, whose
# members compare equal across types (1 == 1.0 == True) and across zero signs
INTS, FLOATS_AND_SIGNS = [0, 1, 2], [0.0, -0.0, 1.0, 2.0, 5e-324, NAN, INF]
POOLS = st.sampled_from([INTS, FLOATS_AND_SIGNS, INTS + FLOATS_AND_SIGNS + [True, False]])
COLUMNS = st.integers(0, 3).flatmap(lambda n: st.lists(
    POOLS.flatmap(lambda pool: st.tuples(*[st.sampled_from(pool)] * n)), min_size=1, max_size=8
))


@given(COLUMNS)
def test_streamed_columns_of_look_alike_entries(tmp_path_factory, column):
    """Every column of one slot sequence drawn from entries that compare equal across types."""
    report = hand_report(column, column[::-1], column)
    assert streamed_mismatch(tmp_path_factory.mktemp("report"), report, HAND_SCENARIO) is None


def scenario_mismatch(tmp_path, scenario):
    """`difference` of `write_scenario`'s file from the stdlib's bytes, after checking that
    `scenario_fingerprint` is the sha256 of the stdlib's compact sorted-key text."""
    doc = save_scenario(scenario)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert scenario_fingerprint(scenario) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path = tmp_path / "scenario.json"
    write_scenario(path, scenario)
    return difference(path.read_text(encoding="utf-8"), oracle(doc) + "\n")


def test_golden_scenarios_equal_stdlib(tmp_path):
    """The scenarios of the fixed CLI set, as `gen` writes them and as they read back."""
    for name, argv in GOLDEN_RUNS:
        if argv[0] == "gen":
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            scenario = read_scenario(tmp_path / name / "scenario.json")
            assert scenario_mismatch(tmp_path, scenario) is None, name


@pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
@pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (1000, 166)])
def test_generated_scenarios_equal_stdlib(tmp_path, access, n, m):
    scenario = generate(GenParams(n_users=n, channels=m, access_model=access), n)
    assert scenario_mismatch(tmp_path, scenario) is None


# user numbers at the edges of the float range and of repr, integral floats, and ints that
# save_scenario writes as their floats; -0.0 only where a field allows zero
EDGE_NUMBERS = [5e-324, 1e308, 0.1 + 0.2, 2.0, 1e16, 3, 10**15]
FIELD_NUMBERS = {f.name: st.sampled_from(EDGE_NUMBERS) for f in dataclasses.fields(ScenarioUser)}
FIELD_NUMBERS["L_j"] = st.sampled_from([-0.0, 0.0, 0, *EDGE_NUMBERS])
FIELD_NUMBERS["lambda_e"] = st.sampled_from([0, 1, 0.0, -0.0, 1.0, 0.5, 0.1 + 0.2, 5e-324])
EDITS = st.lists(st.sampled_from(sorted(FIELD_NUMBERS)).flatmap(
    lambda name: st.tuples(st.just(name), FIELD_NUMBERS[name])), max_size=4)
GENERATORS = st.dictionaries(st.text(max_size=4), st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6), max_size=4)


@given(access=st.sampled_from(list(AccessModel)), edits=st.lists(EDITS, min_size=1, max_size=3),
       generator=GENERATORS, seed=st.sampled_from([None, 0, 2**127]))
def test_drawn_scenarios_equal_stdlib(tmp_path_factory, access, edits, generator, seed):
    """Edge numbers in the user rows, and any JSON in `meta.generator`."""
    base = generate(GenParams(n_users=len(edits), channels=2, access_model=access), 1)
    users = tuple(dataclasses.replace(u, **dict(e)) for u, e in zip(base.users, edits))
    try:
        scenario = dataclasses.replace(base, seed=seed, generator=generator, users=users)
    except SchemaError:
        assume(False)  # the numbers break a model invariant
    assert scenario_mismatch(tmp_path_factory.mktemp("scenario"), scenario) is None
