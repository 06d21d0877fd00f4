"""Shared instance builders for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from offload_game import GenParams, beneficial_threshold, generate
from offload_game._version import __version__
from offload_game.model import AccessModel, ChannelEnv, UserProfile, _cloud_cost_coefficients
from offload_game.scenario import Scenario, ScenarioUser


def simple_env(channels=1, bandwidth_hz=1.0, noise_mw=1.0, access=AccessModel.INTERFERENCE):
    return ChannelEnv(channels=channels, bandwidth_hz=bandwidth_hz, noise_mw=noise_mw, access=access)


def simple_user(**overrides) -> UserProfile:
    """A small, fully hand-checkable user; override whatever the test pins."""
    fields = dict(
        transmit_power_mw=1.0,
        channel_gain=1.0,
        input_bits=1.0,
        task_cycles=1.0,
        device_rate_hz=1.0,
        cloud_rate_hz=2.0,
        energy_per_cycle_j=0.0,
        tail_energy_j=0.0,
        time_weight=1.0,
        energy_weight=0.0,
        contention_weight=1.0,
        peak_rate_bps=10.0,
    )
    fields.update(overrides)
    return UserProfile(**fields)


def random_user(rng: np.random.Generator) -> UserProfile:
    return UserProfile(
        transmit_power_mw=float(rng.uniform(0.1, 3.0)),
        channel_gain=float(rng.uniform(0.1, 2.0)),
        input_bits=float(rng.uniform(0.5, 4.0)),
        task_cycles=float(rng.uniform(0.5, 4.0)),
        device_rate_hz=float(rng.uniform(0.2, 1.0)),
        cloud_rate_hz=float(rng.uniform(2.0, 10.0)),
        energy_per_cycle_j=float(rng.uniform(0.0, 1.0)),
        tail_energy_j=float(rng.uniform(0.0, 0.3)),
        time_weight=float(rng.uniform(0.1, 1.0)),
        energy_weight=float(rng.uniform(0.0, 1.0)),
        contention_weight=float(rng.uniform(0.2, 3.0)),
        peak_rate_bps=float(rng.uniform(2.0, 20.0)),
    )


def random_instance(rng, access=AccessModel.INTERFERENCE, n_range=(2, 6), m_range=(1, 4),
                    finite_thresholds=False):
    """A small random (env, users) pair.

    With finite_thresholds=True every user is resampled until offloading can
    pay off at some interference level, which is the regime the strict
    potential-descent guarantee covers.
    """
    env = ChannelEnv(
        channels=int(rng.integers(*m_range)),
        bandwidth_hz=float(rng.uniform(0.5, 5.0)),
        noise_mw=float(rng.uniform(0.05, 0.5)),
        access=access,
    )
    users = []
    while len(users) < int(rng.integers(*n_range)):
        u = random_user(rng)
        if finite_thresholds:
            t = beneficial_threshold(env, u)
            if not np.isfinite(t):
                continue
        users.append(u)
    return env, users


def extreme_users() -> list:
    """A user whose upload is free (zero rate coefficient) and users of weight 1e-300 and 1e150.

    1e150 is about the largest weight whose potential stays finite: the
    evaluator rejects a 1e300 weight.
    """
    free = simple_user(transmit_power_mw=0.0, time_weight=0.0, energy_weight=1.0, tail_energy_j=0.1)
    tiny = simple_user(channel_gain=1e-300, contention_weight=1e-300, peak_rate_bps=10.0)
    huge = simple_user(channel_gain=1e150, contention_weight=1e150, peak_rate_bps=1e3)
    assert _cloud_cost_coefficients(free)[0] == 0.0
    return [free, tiny, huge]


def random_profile(rng, env, users) -> tuple:
    return tuple(int(x) for x in rng.integers(0, env.channels + 1, len(users)))


def integer_contention_scenario(n_users: int, channels: int, seed: int) -> Scenario:
    """Contention instance whose access weights and thresholds are exact integers.

    With time-only weighting and peak rate equal to the input size, the
    threshold reduces to (device time - cloud time - 1) * weight; the CPU
    rates are chosen so that difference is an exact small integer.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_users):
        k = int(rng.integers(0, 6))  # threshold becomes k * weight
        weight = int(rng.integers(1, 4))
        rows.append(
            ScenarioUser(
                q_mw=100.0,
                g=1.0,
                b_kb=1.0,  # 8000 bits, matching R_bps below
                d_megacycles=2.0 * (k + 1),
                f_m_ghz=0.001,  # 1e6 cycles/s: device time = d_megacycles seconds
                f_c_ghz=0.002,
                gamma_j_per_cycle=0.0,
                L_j=0.0,
                lambda_e=0.0,
                W=float(weight),
                R_bps=8000.0,
            )
        )
    return Scenario(
        seed=seed,
        generator={"source": "integer-contention"},
        version=__version__,
        channels=channels,
        bandwidth_hz=1.0,
        noise_dbm=-100.0,
        access_model=AccessModel.CONTENTION,
        users=tuple(rows),
    )


def contention_user_with_threshold(threshold: int, weight: int) -> ScenarioUser:
    """Hand-built row whose exact integer threshold is threshold (= k*weight)."""
    if threshold % weight != 0:
        raise ValueError("threshold must be a multiple of weight for this recipe")
    k = threshold // weight
    return ScenarioUser(
        q_mw=100.0, g=1.0, b_kb=1.0, d_megacycles=2.0 * (k + 1),
        f_m_ghz=0.001, f_c_ghz=0.002, gamma_j_per_cycle=0.0, L_j=0.0,
        lambda_e=0.0, W=float(weight), R_bps=8000.0,
    )


def contention_scenario_from_users(users, channels=2, seed=0) -> Scenario:
    return Scenario(
        seed=seed,
        generator={"source": "handwritten"},
        version=__version__,
        channels=channels,
        bandwidth_hz=1.0,
        noise_dbm=-100.0,
        access_model=AccessModel.CONTENTION,
        users=tuple(users),
    )


def never_beneficial_user() -> UserProfile:
    """Cloud execution alone already costs more than local computing."""
    u = simple_user(task_cycles=1.0, device_rate_hz=1.0, cloud_rate_hz=0.5)
    assert beneficial_threshold(simple_env(), u) == -np.inf
    return u


def small_paper_scenario(n_users: int, channels: int, seed: int, time_only=False) -> Scenario:
    """Default-parameter instance at an enumerable size.

    time_only drops the energy-focused users, which makes every threshold
    finite and nonnegative (the regime the efficiency bounds require).
    """
    params = GenParams(
        n_users=n_users,
        channels=channels,
        energy_weight_choices=(0.0,) if time_only else (1.0, 0.5, 0.0),
    )
    return generate(params, seed)


# user 2 of `infinite_coefficient_users`: its 1.25e303 KB input overflows the rate coefficient to +inf
INFINITE_COEFFICIENT_ROW = dict(b_kb=1.25e303, lambda_e=0.5, W=10.0)


def infinite_coefficient_users(peak_rate_bps: float = 1e308) -> tuple:
    """(scenario, rows, profiles): a seeded 3^6 contention scenario, and its user rows and
    profiles with user 2 made `INFINITE_COEFFICIENT_ROW` at peak rate `peak_rate_bps`.

    User 2's rate coefficient is +inf.  At the default peak rate its peak rate
    times weight overflows too, so its rate is +inf on every channel and its
    cloud cost inf/inf = NaN; at a finite rate its cloud cost is +inf.  Both
    are refused where the evaluator is built, since a per-user cost constant
    is not finite: `replace(scenario, users=rows)` raises SchemaError, and
    `ProfileEvaluator(scenario.channel_env, profiles)` ValueError.
    """
    scenario = generate(GenParams(n_users=6, channels=2, access_model=AccessModel.CONTENTION), 3)
    rows = list(scenario.users)
    rows[2] = replace(rows[2], **INFINITE_COEFFICIENT_ROW, R_bps=peak_rate_bps)
    profiles = [scenario._user_profile(row, f"users[{i}]") for i, row in enumerate(rows)]
    return scenario, tuple(rows), profiles
