"""The evaluator's user-major batch kernel against the user-last kernel it replaced.

`reference.UserLastKernel` keeps the user axis last, as the evaluator's
batch methods did before they put it first; the two must agree bit for bit.
The layout tests pin that a batch's memory layout and integer dtype, and
concurrent calls from two threads, move no bit of any batch method.
"""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offload_game import GenParams, SchemaError, generate, run_dco
from offload_game.game import ProfileEvaluator, _canonical_chunks
from offload_game.model import AccessModel, _cloud_cost_coefficients
import reference
from support import random_instance, simple_user
from test_dco import generator_params
from test_jsonio import least_load_moves

BATCH_METHODS = ("channel_loads", "overheads", "system_overheads", "beneficial_mask", "beneficial_counts",
                 "repair_to_beneficial", "nash_mask", "candidate_overheads", "potential")


def _signature(array) -> tuple:
    return array.shape, array.dtype, array.tobytes()


def assert_equals_the_user_last_kernel(evaluator, kernel, batch):
    """Costs, least load and every batch method of `batch`, bit for bit."""
    _, costs, loads = evaluator._batch_costs(batch)
    old_costs, old_least_load = kernel.batch_costs(batch)
    assert _signature(costs.T) == _signature(old_costs)
    assert _signature(loads[1:].min(axis=0, keepdims=True).T) == _signature(old_least_load)
    assert _signature(evaluator.overheads(batch)) == _signature(old_costs)
    assert _signature(evaluator.channel_loads(batch)) == _signature(kernel.loads(batch))
    for name in ("nash_mask", "beneficial_mask", "repair_to_beneficial", "system_overheads", "candidate_overheads"):
        assert _signature(getattr(evaluator, name)(batch)) == _signature(getattr(kernel, name)(batch)), name


def _extreme_users():
    """A user whose upload is free (zero rate coefficient) and users of weight 1e-300 and 1e150.

    1e150 is about the largest weight whose potential stays finite: the
    evaluator rejects a 1e300 weight.
    """
    free = simple_user(transmit_power_mw=0.0, time_weight=0.0, energy_weight=1.0, tail_energy_j=0.1)
    tiny = simple_user(channel_gain=1e-300, contention_weight=1e-300, peak_rate_bps=10.0)
    huge = simple_user(channel_gain=1e150, contention_weight=1e150, peak_rate_bps=1e3)
    assert _cloud_cost_coefficients(free)[0] == 0.0
    return [free, tiny, huge]


def _instances(access):
    """(evaluator, users) pairs: generated ones, and random ones with the extreme users appended."""
    for seed in range(10):
        params = GenParams(n_users=3 + seed % 5, channels=1 + seed % 4, access_model=access,
                           contention_weight_choices=(0.5, 1.0, 3.0))
        scenario = generate(params, seed)
        yield scenario.evaluator, scenario.user_profiles
    rng = np.random.default_rng(19)
    for _ in range(4):
        env, users = random_instance(rng, access=access, n_range=(2, 5))
        users = [*users, *_extreme_users()]
        yield ProfileEvaluator(env, users), users


@pytest.mark.parametrize("access", list(AccessModel))
def test_batch_methods_equal_the_user_last_kernel(access):
    """1-, 3- and 200-row batches, and the profile scan, on generated and extreme instances."""
    rng = np.random.default_rng(20)
    for evaluator, users in _instances(access):
        kernel = reference.UserLastKernel(evaluator, users)
        for rows in (1, 3, 200):
            batch = rng.integers(0, evaluator.channels + 1, size=(rows, evaluator.n_users))
            assert_equals_the_user_last_kernel(evaluator, kernel, batch)
        assert repr(evaluator._scan) == repr(kernel.scan())


@pytest.mark.parametrize("access", list(AccessModel))
def test_a_full_canonical_chunk_equals_the_user_last_kernel(access):
    """All 11,051 canonical profiles of 4⁸ in one call, and the scan over them."""
    scenario = generate(GenParams(n_users=8, channels=3, access_model=access,
                                  contention_weight_choices=(0.5, 1.0, 3.0)), 3)
    evaluator = scenario.evaluator
    kernel = reference.UserLastKernel(evaluator, scenario.user_profiles)
    (chunk,) = _canonical_chunks(8, 3)
    assert len(chunk) == 11051
    assert_equals_the_user_last_kernel(evaluator, kernel, chunk)
    assert repr(evaluator._scan) == repr(kernel.scan())


@settings(max_examples=150)
# a zero-power contention user: its upload is free, so the zero-coefficient copy runs
@example(params=GenParams(n_users=3, channels=2, access_model=AccessModel.CONTENTION, transmit_power_mw=0.0,
                          energy_weight_choices=(1.0,)), seed=0)
@given(params=generator_params(), seed=st.integers(0, 2**16))
def test_extreme_generators_score_as_the_user_last_kernel(params, seed):
    """1e±300 rates, sizes and powers, and zero powers: SchemaError, or every batch result of the old kernel.

    Numpy warnings are errors in this suite, so this also checks that every
    in-place ufunc of the kernel stays inside its error-state block.
    """
    try:
        scenario = generate(params, seed)
    except SchemaError:
        return
    evaluator = scenario.evaluator
    kernel = reference.UserLastKernel(evaluator, scenario.user_profiles)
    batch = np.random.default_rng(seed).integers(0, scenario.channels + 1, size=(40, scenario.n_users))
    assert_equals_the_user_last_kernel(evaluator, kernel, batch)
    assert repr(evaluator._scan) == repr(kernel.scan())


@pytest.fixture(params=list(AccessModel), ids=lambda access: access.value)
def scenario(request):
    # nine users: numpy's row sums no longer add the users in order from eight up
    params = GenParams(n_users=9, channels=3, access_model=request.param, contention_weight_choices=(0.5, 1.0, 3.0))
    return generate(params, 4)


@pytest.fixture
def evaluator(scenario):
    return scenario.evaluator


def test_local_users_reach_the_cost_kernel_as_nan(scenario, monkeypatch):
    """A local user's own-channel μ is NaN, never a negative load − w, whose log2 is slow.

    Both inputs, a batch and every slot of `run_dco`, reach the kernel as
    2-D all-user calls: the own-channel μ, then, on a slot where the least load
    moved and the requester set is rebuilt, the (1, 1) least load.  The granted
    user's candidates are one (1, M+1) row against its (1, 1) constants.
    """
    calls = []
    cloud_costs = ProfileEvaluator._cloud_costs

    def spy(self, mu, users=None):
        calls.append((np.array(mu), users))
        return cloud_costs(self, mu, users)

    monkeypatch.setattr(ProfileEvaluator, "_cloud_costs", spy)
    batch = np.random.default_rng(8).integers(0, 4, size=(50, 9))
    scenario.evaluator.overheads(batch)
    report = run_dco(scenario, 0)
    assert [(mu.shape, users) for mu, users in calls if users is not None] == [
        ((1, scenario.channels + 1), slice(rec.updater, rec.updater + 1)) for rec in report.slots[:-1]]
    received = [mu for mu, users in calls if users is None]
    assert np.array_equal(np.isnan(received[0]), batch.T == 0)
    rebuilt = least_load_moves(scenario, report.slots)
    slot_calls = iter(received[1:])
    assert len(received) == 1 + report.total_slots + sum(rebuilt)
    for slot, rebuilds in zip(report.slots, rebuilt):
        assert np.array_equal(np.isnan(next(slot_calls)), np.array([slot.profile]).T == 0)
        if rebuilds:
            assert next(slot_calls).shape == (1, 1)
    for mu in received:
        assert mu.ndim == 2 and np.all(mu[~np.isnan(mu)] >= 0)


def test_empty_batches_keep_their_shape(evaluator):
    one_row = np.zeros((1, 9), dtype=np.int64)
    for name in BATCH_METHODS:
        result, row_result = getattr(evaluator, name)(one_row[:0]), getattr(evaluator, name)(one_row)
        assert (result.shape, result.dtype) == ((0, *row_result.shape[1:]), row_result.dtype), name


def test_layouts_and_dtypes_give_the_bytes_of_the_c_ordered_int64_call(evaluator):
    batch = np.random.default_rng(6).integers(0, 4, size=(300, 9))
    wide = np.zeros((300, 18), dtype=np.int64)
    wide[:, ::2] = batch
    variants = {"fortran": np.asfortranarray(batch), "uint8": batch.astype(np.uint8),
                "big-endian": batch.astype(">i8"), "column-sliced": wide[:, ::2]}
    for name in BATCH_METHODS:
        expected = _signature(getattr(evaluator, name)(batch))
        for label, variant in variants.items():
            assert _signature(getattr(evaluator, name)(variant)) == expected, (name, label)


def test_two_threads_give_the_serial_results(evaluator):
    """One evaluator serves both threads: no call writes a buffer another call reads."""
    rng = np.random.default_rng(7)
    batches = [rng.integers(0, 4, size=(20000, 9)) for _ in range(2)]

    def results(batch):
        return evaluator.nash_mask(batch).tobytes(), evaluator.overheads(batch).tobytes()

    serial = [results(batch) for batch in batches]
    barrier = threading.Barrier(2)
    found = [None, None]

    def work(i):
        barrier.wait(timeout=60)
        found[i] = [results(batches[i]) for _ in range(6)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert found == [[serial[0]] * 6, [serial[1]] * 6]
