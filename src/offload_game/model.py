"""Per-user communication/computation model.

All quantities are kept in one internal unit convention: bits, seconds,
joules, hertz, milliwatts.  Unit conversion from user-facing documents
(KB, Megacycles, GHz, dBm) happens at the scenario boundary, never here.

A decision profile is a plain tuple of ints: entry n is 0 when user n
computes locally, or a channel index in 1..M when it offloads.  Rates and
per-profile costs are computed in one place, `game.ProfileEvaluator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "AccessModel",
    "UserProfile",
    "ChannelEnv",
    "access_weight",
    "local_overhead",
    "beneficial_threshold",
]

LOCAL = 0  # decision value for on-device computing


def _check_count(name: str, value) -> None:
    """Reject a count that is not an int; a bool or an integral float is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """The one finiteness rule for input numbers: a finite int or float, not a bool.

    A bool or a numeric string is not a number, and is named by its type: the
    repr of a document's list could be megabytes long.  NaN, ±inf and an int
    too large for a float are not finite: every cost is a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


class AccessModel(Enum):
    """How co-channel users degrade each other's uplink."""

    INTERFERENCE = "interference"  # SINR-style rate, cellular spectrum sharing
    CONTENTION = "contention"  # weighted packet-level sharing, CSMA-style


@dataclass(frozen=True)
class UserProfile:
    """Immutable per-user constants.

    transmit_power_mw / channel_gain enter the uplink SINR; their product is
    also the user's footprint on co-channel neighbours.  contention_weight
    and peak_rate_bps play the analogous roles under AccessModel.CONTENTION.
    """

    transmit_power_mw: float  # uplink transmit power (mW)
    channel_gain: float  # path gain to the base-station (dimensionless)
    input_bits: float  # task input size to upload (bits)
    task_cycles: float  # CPU cycles to complete the task
    device_rate_hz: float  # device CPU rate (cycles/s)
    cloud_rate_hz: float  # cloud CPU rate assigned to this user (cycles/s)
    energy_per_cycle_j: float = 1e-9  # device energy per CPU cycle (J)
    tail_energy_j: float = 0.0  # radio tail energy after an upload (J)
    time_weight: float = 1.0  # decision weight on completion time, in [0, 1]
    energy_weight: float = 0.0  # decision weight on energy, in [0, 1]
    contention_weight: float = 1.0  # share weight when contending (> 0)
    peak_rate_bps: float = 0.0  # uncontended rate under contention (bits/s)

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # not vars(self): that slows every later field read
            value = getattr(self, name)
            if type(value) is not float or value - value:  # a finite float skips the call
                _check_real(name, value)
        if self.transmit_power_mw < 0 or self.channel_gain < 0:
            raise ValueError("transmit power and channel gain must be >= 0")
        if self.input_bits <= 0 or self.task_cycles <= 0:
            raise ValueError("task input size and cycle count must be > 0")
        if self.device_rate_hz <= 0 or self.cloud_rate_hz <= 0:
            raise ValueError("device and cloud CPU rates must be > 0")
        if self.energy_per_cycle_j < 0 or self.tail_energy_j < 0:
            raise ValueError("energy coefficients must be >= 0")
        for w in (self.time_weight, self.energy_weight):
            if not 0.0 <= w <= 1.0:
                raise ValueError("decision weights must lie in [0, 1]")
        if self.time_weight == 0.0 and self.energy_weight == 0.0:
            raise ValueError("decision weights must not both be zero")
        if self.contention_weight <= 0:
            raise ValueError("contention weight must be > 0")
        if self.peak_rate_bps < 0:
            raise ValueError("contention peak rate must be >= 0")


@dataclass(frozen=True)
class ChannelEnv:
    """The shared wireless environment: channel count, bandwidth, noise floor."""

    channels: int  # number of uplink channels M
    bandwidth_hz: float  # per-channel bandwidth (Hz)
    noise_mw: float = 1e-10  # background noise power (mW); -100 dBm default
    access: AccessModel = AccessModel.INTERFERENCE

    def __post_init__(self):
        _check_count("channel count", self.channels)
        if self.channels < 1:
            raise ValueError("channel count must be >= 1")
        if not isinstance(self.access, AccessModel):
            raise ValueError(f"access must be an AccessModel, got {self.access!r}")
        for name in ("bandwidth_hz", "noise_mw"):
            _check_real(name, getattr(self, name))
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.access is AccessModel.INTERFERENCE and self.noise_mw <= 0:
            raise ValueError("noise power must be > 0 under the interference model")


def access_weight(env: ChannelEnv, u: UserProfile) -> float:
    """The user's footprint on a shared channel, in the model's weight units."""
    if env.access is AccessModel.INTERFERENCE:
        return u.transmit_power_mw * u.channel_gain
    return u.contention_weight


def local_overhead(u: UserProfile) -> float:
    """Weighted time+energy cost of computing on the device; independent of others."""
    exec_time = u.task_cycles / u.device_rate_hz
    exec_energy = u.energy_per_cycle_j * u.task_cycles
    return u.time_weight * exec_time + u.energy_weight * exec_energy


def _cloud_cost_coefficients(u: UserProfile) -> tuple:
    """(rate_coefficient, rate_independent) so that cloud cost = coeff/r + fixed.

    Grouping the time and energy upload terms keeps the cost well defined
    at zero upload weight even when the rate degenerates to zero.
    """
    coeff = (u.time_weight + u.energy_weight * u.transmit_power_mw) * u.input_bits
    fixed = u.energy_weight * u.tail_energy_j + u.time_weight * u.task_cycles / u.cloud_rate_hz
    return coeff, fixed


def beneficial_threshold(env: ChannelEnv, u: UserProfile):
    """Largest co-channel weight sum at which offloading still beats local computing.

    Under interference the returned value is in power-gain (mW) units, under
    contention in contention-weight units.  Offloading is beneficial exactly
    when the user's received co-channel weight is <= this threshold.  Returns
    -inf when the local cost cannot be beaten at any rate and +inf when any
    co-channel weight is tolerable.
    """
    coeff, fixed = _cloud_cost_coefficients(u)
    headroom = local_overhead(u) - fixed  # cost budget available for the upload
    if headroom <= 0.0:
        return -math.inf
    if env.access is AccessModel.INTERFERENCE:
        if coeff == 0.0:
            return math.inf  # upload is free; any interference is tolerable
        exponent = coeff / (env.bandwidth_hz * headroom)
        try:
            denom = 2.0 ** exponent - 1.0
        except OverflowError:
            return -env.noise_mw  # required rate unreachable at any interference
        if denom == 0.0:
            return math.inf  # required rate negligible against the budget
        return access_weight(env, u) / denom - env.noise_mw
    if u.peak_rate_bps <= 0:
        raise ValueError("contention peak rate must be > 0 under the contention model")
    if coeff == 0.0:
        return math.inf
    return (headroom * u.peak_rate_bps / coeff - 1.0) * u.contention_weight
