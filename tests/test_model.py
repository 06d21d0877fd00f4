"""Unit tests for the per-user cost model.

Rates, cloud costs and the profile check are the plain-loop oracle's
(`reference`); hand values pin them, so the tests that compare the package
against that oracle rest on checked formulas.  `user_overhead` is the
package's single-profile view of `ProfileEvaluator`.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from offload_game import beneficial_threshold, local_overhead, user_overhead
from offload_game.model import AccessModel, ChannelEnv, UserProfile
import reference
from support import never_beneficial_user, random_instance, random_profile, simple_env, simple_user


class TestUplinkRate:
    def test_interference_alone_unit_parameters(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        rate = reference.uplink_rate(env, [simple_user()], 0, (1,))
        assert rate == 1.0  # log2(1 + 1/1)

    def test_interference_one_cochannel_interferer(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        users = [simple_user(), simple_user()]
        rate = reference.uplink_rate(env, users, 0, (1, 1))
        assert rate == pytest.approx(math.log2(1.5), rel=1e-15)

    def test_contention_proportional_share(self):
        env = simple_env(channels=1, access=AccessModel.CONTENTION)
        users = [simple_user(peak_rate_bps=10.0), simple_user(), simple_user()]
        rate = reference.uplink_rate(env, users, 0, (1, 1, 1))
        assert rate == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_local_decision_rejected(self):
        env = simple_env()
        with pytest.raises(ValueError):
            reference.uplink_rate(env, [simple_user()], 0, (0,))

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_rate_weakly_decreases_when_channel_fills(self, access):
        rng = np.random.default_rng(5)
        for _ in range(200):
            env, users = random_instance(rng, access=access)
            a = list(random_profile(rng, env, users))
            a[0] = 1
            newcomer = int(rng.integers(1, len(users)))
            a[newcomer] = 0
            before = reference.uplink_rate(env, users, 0, tuple(a))
            a[newcomer] = 1
            after = reference.uplink_rate(env, users, 0, tuple(a))
            assert after < before  # generator draws strictly positive weights

    def test_contention_shares_on_a_channel_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            env, users = random_instance(rng, access=AccessModel.CONTENTION)
            a = random_profile(rng, env, users)
            for m in range(1, env.channels + 1):
                on = [n for n in range(len(users)) if a[n] == m]
                if not on:
                    continue
                shares = sum(
                    reference.uplink_rate(env, users, n, a) / users[n].peak_rate_bps for n in on
                )
                assert shares == pytest.approx(1.0, rel=1e-12)


class TestLocalOverhead:
    def test_even_weights(self):
        u = simple_user(
            time_weight=0.5, energy_weight=0.5, task_cycles=2.0, device_rate_hz=1.0,
            energy_per_cycle_j=1.0,
        )
        assert local_overhead(u) == 2.0

    def test_time_only_full_load_second(self):
        u = simple_user(task_cycles=1e9, device_rate_hz=1e9)
        assert local_overhead(u) == 1.0

    def test_energy_only_zero_coefficient(self):
        u = simple_user(time_weight=0.0, energy_weight=1.0, energy_per_cycle_j=0.0)
        assert local_overhead(u) == 0.0


class TestCloudOverhead:
    def test_time_only_upload_plus_execution(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        u = simple_user(input_bits=1.0, task_cycles=1.0, cloud_rate_hz=2.0)
        # alone on the channel the rate is exactly 1, so cost = 1/1 + 0.5
        assert reference.cloud_overhead(env, [u], 0, (1,)) == 1.5

    def test_energy_only_transmit_plus_tail(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        u = simple_user(
            transmit_power_mw=2.0, channel_gain=0.5, input_bits=3.0,
            time_weight=0.0, energy_weight=1.0, tail_energy_j=1.0,
        )
        # signal 2*0.5 = 1 over noise 1 gives rate 1; cost = 2*3/1 + 1
        assert reference.cloud_overhead(env, [u], 0, (1,)) == 7.0

    def test_tail_energy_ignored_at_zero_energy_weight(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        costs = {
            reference.cloud_overhead(env, [simple_user(tail_energy_j=tail)], 0, (1,))
            for tail in (0.0, 1.0, 123.0)
        }
        assert len(costs) == 1

    def test_strictly_decreasing_in_rate(self):
        u = simple_user()
        rates = np.linspace(0.2, 10.0, 50)
        costs = [reference.cloud_cost_at_rate(u, r) for r in rates]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_local_decision_rejected(self):
        with pytest.raises(ValueError):
            reference.cloud_overhead(simple_env(), [simple_user()], 0, (0,))


class TestUserOverhead:
    def test_local_branch(self):
        env = simple_env()
        u = simple_user()
        assert user_overhead(env, [u], 0, (0,)) == local_overhead(u)

    def test_cloud_branch(self):
        env = simple_env(channels=2)
        users = [simple_user(), simple_user()]
        a = (2, 2)
        assert user_overhead(env, users, 0, a) == reference.cloud_overhead(env, users, 0, a)

    def test_all_local_costs_sum_of_local(self):
        rng = np.random.default_rng(7)
        env, users = random_instance(rng)
        a = (0,) * len(users)
        total = sum(user_overhead(env, users, n, a) for n in range(len(users)))
        assert total == pytest.approx(sum(local_overhead(u) for u in users), rel=1e-15)

    def test_never_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            env, users = random_instance(rng)
            a = random_profile(rng, env, users)
            for n in range(len(users)):
                assert user_overhead(env, users, n, a) >= 0.0


class TestBeneficialThreshold:
    def test_sentinel_when_local_cannot_be_beaten(self):
        env = simple_env()
        assert beneficial_threshold(env, never_beneficial_user()) == -math.inf

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_infinite_when_any_weight_is_tolerable(self, access):
        # a free upload (zero rate coefficient) beats local at any co-channel weight
        free = simple_user(transmit_power_mw=0.0, time_weight=0.0, energy_weight=1.0,
                           energy_per_cycle_j=1.0)
        assert beneficial_threshold(simple_env(access=access), free) == math.inf
        # so does an upload whose required rate rounds to nothing against the budget
        if access is AccessModel.INTERFERENCE:
            tiny = simple_user(input_bits=1e-300)
            assert beneficial_threshold(simple_env(), tiny) == math.inf

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_cost_at_threshold_interference_matches_local(self, access):
        # at co-channel weight exactly T the cloud and local costs coincide
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            env, users = random_instance(rng, access=access, n_range=(1, 2), m_range=(1, 2))
            user = users[0]
            t = beneficial_threshold(env, user)
            if not np.isfinite(t) or t <= 0:
                continue
            if access is AccessModel.INTERFERENCE:
                other = simple_user(transmit_power_mw=t, channel_gain=1.0)
            else:
                other = simple_user(contention_weight=t, peak_rate_bps=1.0)
            pair = [user, other]
            assert reference.received_interference(env, pair, 0, 1, (1, 1)) == pytest.approx(t, rel=1e-12)
            assert reference.cloud_overhead(env, pair, 0, (1, 1)) == pytest.approx(
                local_overhead(user), rel=1e-9
            )
            checked += 1

    def test_contention_threshold_zero_when_budget_equals_share(self):
        env = simple_env(access=AccessModel.CONTENTION)
        # device 4 s, cloud 2 s, so the budget D=2 exactly matches b/R=2
        u = simple_user(input_bits=4.0, peak_rate_bps=2.0, task_cycles=4.0,
                        device_rate_hz=1.0, cloud_rate_hz=2.0)
        assert beneficial_threshold(env, u) == 0.0
        # a user with no peak rate has no threshold under contention
        with pytest.raises(ValueError, match="peak rate must be > 0 under the contention model"):
            beneficial_threshold(env, simple_user(input_bits=4.0, peak_rate_bps=0.0, task_cycles=4.0,
                                                  device_rate_hz=1.0, cloud_rate_hz=2.0))


class TestIsBeneficial:
    def exact_boundary_instance(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        user = simple_user(
            transmit_power_mw=30.0, channel_gain=1.0, input_bits=6.0,
            task_cycles=2.0, device_rate_hz=1.0, cloud_rate_hz=4.0,
        )
        return env, user

    def test_alone_with_nonnegative_threshold(self):
        env, user = self.exact_boundary_instance()
        assert beneficial_threshold(env, user) == 1.0
        assert reference.is_beneficial(env, [user], 0, (1,))

    def test_never_beneficial_user_on_any_profile(self):
        env = simple_env(channels=2)
        users = [never_beneficial_user(), simple_user()]
        for mine in (1, 2):
            for other in (0, 1, 2):
                assert not reference.is_beneficial(env, users, 0, (mine, other))

    def test_boundary_interference_counts_as_beneficial(self):
        env, user = self.exact_boundary_instance()
        pair = [user, simple_user()]  # co-channel weight exactly 1.0 = threshold
        assert reference.received_interference(env, pair, 0, 1, (1, 1)) == 1.0
        assert reference.cloud_overhead(env, pair, 0, (1, 1)) == local_overhead(user) == 2.0
        assert reference.is_beneficial(env, pair, 0, (1, 1))

    def test_local_decision_rejected(self):
        with pytest.raises(ValueError):
            reference.is_beneficial(simple_env(), [simple_user()], 0, (0,))

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_matches_threshold_test_on_random_instances(self, access):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 500:
            env, users = random_instance(rng, access=access, finite_thresholds=True)
            a = random_profile(rng, env, users)
            n = int(rng.integers(len(users)))
            if a[n] == 0:
                continue
            t = beneficial_threshold(env, users[n])
            mu = reference.received_interference(env, users, n, a[n], a)
            assert reference.is_beneficial(env, users, n, a) == (mu <= t + 1e-9 * abs(t))
            checked += 1


class TestValidation:
    def test_profile_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            reference.validate_profile(simple_env(), [simple_user()], (0, 1))

    def test_profile_entry_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            reference.validate_profile(simple_env(channels=2), [simple_user()], (3,))

    def test_profile_entry_not_int(self):
        with pytest.raises(ValueError, match="not an int"):
            reference.validate_profile(simple_env(), [simple_user()], (True,))

    def test_profile_ok(self):
        assert reference.validate_profile(simple_env(channels=2), [simple_user()] * 3, [0, 1, 2]) == (0, 1, 2)

    def test_user_invariants(self):
        with pytest.raises(ValueError):
            simple_user(input_bits=0.0)
        with pytest.raises(ValueError):
            simple_user(time_weight=0.0, energy_weight=0.0)
        with pytest.raises(ValueError):
            simple_user(energy_weight=1.5)
        with pytest.raises(ValueError):
            simple_user(contention_weight=0.0)
        for overrides in ({"transmit_power_mw": -1.0}, {"channel_gain": -1.0}):
            with pytest.raises(ValueError, match="transmit power and channel gain must be >= 0"):
                simple_user(**overrides)
        for overrides in ({"device_rate_hz": 0.0}, {"cloud_rate_hz": 0.0}):
            with pytest.raises(ValueError, match="CPU rates must be > 0"):
                simple_user(**overrides)
        for overrides in ({"energy_per_cycle_j": -1.0}, {"tail_energy_j": -1.0}):
            with pytest.raises(ValueError, match="energy coefficients must be >= 0"):
                simple_user(**overrides)
        with pytest.raises(ValueError, match="contention peak rate must be >= 0"):
            simple_user(peak_rate_bps=-1.0)

    def test_env_invariants(self):
        with pytest.raises(ValueError):
            ChannelEnv(channels=0, bandwidth_hz=1.0)
        with pytest.raises(ValueError):
            ChannelEnv(channels=1, bandwidth_hz=1.0, noise_mw=0.0)
        # the noise floor only matters under the interference model
        ChannelEnv(channels=1, bandwidth_hz=1.0, noise_mw=0.0, access=AccessModel.CONTENTION)

    @pytest.mark.parametrize("overrides", [
        {"channels": 2.0},
        {"channels": True},
        {"access": "interference"},
        {"access": "contention"},
    ])
    def test_env_rejects_mistyped_fields(self, overrides):
        with pytest.raises(ValueError):
            ChannelEnv(**{"channels": 2, "bandwidth_hz": 1.0, **overrides})

    @pytest.mark.parametrize("overrides", [
        {"bandwidth_hz": True},  # was accepted as 1 Hz
        {"bandwidth_hz": "5e6"},  # failed a comparison with TypeError
        {"noise_mw": False, "access": AccessModel.CONTENTION},
        {"noise_mw": np.int64(1)},
    ])
    def test_env_rejects_non_numbers(self, overrides):
        with pytest.raises(ValueError, match="must be a number"):
            ChannelEnv(**{"channels": 2, "bandwidth_hz": 1.0, **overrides})

    @pytest.mark.parametrize("field", [f.name for f in fields(UserProfile)])
    @pytest.mark.parametrize("value", [True, "1.0", None], ids=["bool", "str", "None"])
    def test_user_rejects_non_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            simple_user(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(UserProfile)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_user_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            simple_user(**{field: value})

    @pytest.mark.parametrize("field", ["bandwidth_hz", "noise_mw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    @pytest.mark.parametrize("access", list(AccessModel))
    def test_env_rejects_non_finite_numbers(self, field, value, access):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChannelEnv(**{"channels": 2, "bandwidth_hz": 1.0, "access": access, field: value})

    def test_user_accepts_ints_and_float_subclasses(self):
        user = simple_user(input_bits=8, task_cycles=np.float64(2.0))
        assert user.input_bits == 8 and user.task_cycles == 2.0
