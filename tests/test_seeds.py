"""One seed rule for every seeded entry point: an int, not a bool, in [0, 2**128).

`run_dco` has its own cases in test_dco; the property test covers it too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offload_game import (
    CrossEntropyParams,
    GenParams,
    Objective,
    SchemaError,
    all_cloud_random,
    cross_entropy_optimize,
    generate,
    run_dco,
)

TINY = GenParams(n_users=2, channels=1)
SCENARIO = generate(TINY, 0)
CE_PARAMS = CrossEntropyParams(samples=2, iterations=1)

ENTRY_POINTS = {
    "generate": lambda seed: generate(TINY, seed),
    "all_cloud_random": lambda seed: all_cloud_random(SCENARIO, seed),
    "cross_entropy_optimize": lambda seed: cross_entropy_optimize(
        SCENARIO, Objective.MIN_OVERHEAD, CE_PARAMS, seed
    ),
    "run_dco": lambda seed: run_dco(SCENARIO, seed),
}
NEW_ENTRY_POINTS = ["generate", "all_cloud_random", "cross_entropy_optimize"]


@pytest.mark.parametrize("entry", NEW_ENTRY_POINTS)
@pytest.mark.parametrize("seed", [-1, 1.5, True, 2**128], ids=["-1", "1.5", "True", "2**128"])
def test_bad_seed_is_schema_error(entry, seed):
    with pytest.raises(SchemaError) as info:
        ENTRY_POINTS[entry](seed)
    assert info.value.path == "seed"


@pytest.mark.parametrize("entry", NEW_ENTRY_POINTS)
def test_largest_seed_accepted(entry):
    ENTRY_POINTS[entry](2**128 - 1)


@settings(max_examples=200)
@given(
    entry=st.sampled_from(sorted(ENTRY_POINTS)),
    seed=st.one_of(
        st.integers(),
        st.integers(2**128 - 2, 2**128 + 1),
        st.booleans(),
        st.floats(),
    ),
)
def test_every_entry_point_accepts_exactly_the_ints_below_2_to_the_128(entry, seed):
    if type(seed) is int and 0 <= seed < 2**128:
        ENTRY_POINTS[entry](seed)
    else:
        with pytest.raises(SchemaError) as info:
            ENTRY_POINTS[entry](seed)
        assert info.value.path == "seed"
