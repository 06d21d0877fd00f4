"""The indented JSON writer against its oracle, stdlib `json.dumps(value, indent=2)`.

`scenario._dumps_indented` writes every report, scenario and config file.  It
must return the stdlib's indented text exactly, whatever the value holds, so
the files keep their bytes while the C encoder writes the flat runs.
"""

import json
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from offload_game import GenParams, generate, run_dco, save_scenario
from offload_game.cli import main, report_document
from offload_game.model import AccessModel
from offload_game.scenario import _dumps_indented

Pair = namedtuple("Pair", "left right")


class AnyFloat(float):
    """A float subclass equal to everything: json's pure-Python encoder writes it as Infinity.

    The C encoder reads the double and writes its repr, so this leaf tells the
    two encoders apart; a subclass must never reach the C fast path.
    """

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = float.__hash__


def oracle(value) -> str:
    return json.dumps(value, indent=2)


def mismatch(value, margin="\n"):
    """None if the writer returns the oracle's text at `margin`, else both texts near the first
    difference; a plain `==` on megabyte strings would have pytest diff them line by line."""
    got, want = _dumps_indented(value, margin), oracle(value).replace("\n", margin)
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return got[max(0, i - 60):i + 60], want[max(0, i - 60):i + 60]


TEXT = st.text(alphabet=st.sampled_from(list('ab\n",[{}]: \\\t\x00éΦ😀')), max_size=6)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324]),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
    FLOATS.map(np.float64), FLOATS.map(AnyFloat),
)
KEYS = st.one_of(TEXT, st.sampled_from(["1", 1, "true", True, None, 2.5, float("nan")]), st.integers())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4).map(OrderedDict),
        st.builds(Pair, children, children),
    )


VALUES = LEAVES
for _ in range(4):  # containers nested up to depth 4
    VALUES = st.one_of(LEAVES, containers(VALUES))


@given(VALUES)
@example([])
@example({})
@example([[], {}, ()])
@example({1: [1, 2], "1": {"a": [3]}})  # an int key beside its string
@example({True: [0.5], None: {"x": 1}})
@example([1.5, -0.0, float("nan"), float("inf"), -float("inf")])
@example({"a\nb": ["c\n", '"', ",", "[", "{", "Φ"]})
@example(OrderedDict(b=[1], a=2))
@example(Pair([1, 2], {"k": 3.0}))
@example([np.float64(0.1), 1.0])
@example([[AnyFloat(1.5)], {"x": AnyFloat(2.0)}])
@example(7)
@example("text\n")
def test_equals_stdlib_indent_2(value):
    assert mismatch(value) is None


@given(VALUES, st.integers(0, 3))
def test_nested_margin_shifts_every_line(value, depth):
    assert mismatch(value, "\n" + "  " * depth) is None


@pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
def test_run_report_and_scenario_documents_at_n300(access):
    scenario = generate(GenParams(n_users=300, channels=50, access_model=access), 11)
    for doc in (report_document(run_dco(scenario, 11)), save_scenario(scenario)):
        assert mismatch(doc) is None


def test_sweep_config_file(tmp_path):
    """A config.json with choice-set tuples and path strings, read back and rewritten by the oracle."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--n", "3..4", "--channels", "2", "--seeds", "1",
            "--energy-weight-choices", "1.0,0.5", "--out", str(out)]
    assert main(argv) == 0
    text = (out / "config.json").read_text(encoding="utf-8")
    assert text == oracle(json.loads(text)) + "\n"
