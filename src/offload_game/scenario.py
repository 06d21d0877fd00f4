"""Scenario generation and (de)serialization.

A scenario document keeps the user-facing units (KB, Megacycles, GHz, dBm)
and is the source of truth; conversion to the internal model units happens
once in `Scenario.user_profiles` / `Scenario.channel_env`, and its cost
evaluator is built once, in `Scenario.evaluator`.  Loading a document and
saving it back reproduces it bit-exactly, so fingerprints are stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import SchemaError
from .game import ProfileEvaluator
from .model import AccessModel, ChannelEnv, UserProfile, _check_count, _check_real, access_weight

__all__ = [
    "GenParams",
    "ScenarioUser",
    "Scenario",
    "generate",
    "load_scenario",
    "save_scenario",
    "read_scenario",
    "write_scenario",
    "scenario_fingerprint",
]

BITS_PER_KB = 8e3
CYCLES_PER_MEGACYCLE = 1e6
HZ_PER_GHZ = 1e9

SEED_LIMIT = 2**128  # seeds key numpy streams; run_dco's Philox key is 128 bits

# Users are never placed closer than this to the base-station; an exact hit
# would make the path-gain model blow up.
MIN_DISTANCE_M = 1.0


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _check_seed(seed) -> None:
    """The seed rule of every seeded entry point: an int (not a bool) in [0, 2**128)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
        raise SchemaError("seed", f"expected an integer in [0, 2**128), got {seed!r}")


@dataclass(frozen=True)
class GenParams:
    """Knobs for random scenario generation.

    Defaults mirror a small-cell deployment: a 50 m cell, five 5 MHz
    channels, 100 mW uplinks over a fourth-power path loss, a face-
    recognition-sized task (5000 KB in, 1000 Megacycles), heterogeneous
    device CPUs, and per-user time/energy priorities drawn from a small set.
    """

    n_users: int = 30
    channels: int = 5
    cell_radius_m: float = 50.0
    path_loss_exponent: float = 4.0
    bandwidth_hz: float = 5e6
    noise_dbm: float = -100.0
    transmit_power_mw: float = 100.0
    input_kb: float = 5000.0
    task_megacycles: float = 1000.0
    device_rate_choices_ghz: tuple = (0.5, 0.8, 1.0)
    cloud_rate_ghz: float = 10.0
    energy_weight_choices: tuple = (1.0, 0.5, 0.0)
    energy_per_cycle_j: float = 1e-9
    tail_energy_j: float = 0.0
    access_model: AccessModel = AccessModel.INTERFERENCE
    contention_weight_choices: tuple = (1.0,)
    contention_peak_rate_bps: float = 100e6

    def __post_init__(self):
        _check_count("n_users", self.n_users)
        _check_count("channels", self.channels)
        if not isinstance(self.access_model, AccessModel):
            raise ValueError(f"access_model must be an AccessModel, got {self.access_model!r}")
        for f in fields(self):
            if not isinstance(f.default, (float, tuple)):  # the counts and the access model
                continue
            value = getattr(self, f.name)
            choice_set = isinstance(f.default, tuple)
            numbers = value if choice_set else (value,)
            if not numbers:
                raise ValueError(f"{f.name} must be a nonempty choice set")
            for x in numbers:
                _check_real(f.name, x)
            numbers = tuple(map(float, numbers))  # so 50 and 50.0 give one fingerprint
            object.__setattr__(self, f.name, numbers if choice_set else numbers[0])
        if self.n_users < 1 or self.channels < 1:
            raise ValueError("need at least one user and one channel")
        if self.cell_radius_m <= 0 or self.path_loss_exponent <= 0:
            raise ValueError("cell radius and path-loss exponent must be > 0")
        if self.bandwidth_hz <= 0 or self.transmit_power_mw < 0:
            raise ValueError("bandwidth must be > 0 and transmit power >= 0")
        if self.input_kb <= 0 or self.task_megacycles <= 0 or self.cloud_rate_ghz <= 0:
            raise ValueError("task size, cycle count and cloud rate must be > 0")


@dataclass(frozen=True)
class ScenarioUser:
    """One user row in scenario-document units."""

    q_mw: float  # transmit power (mW)
    g: float  # channel gain (dimensionless)
    b_kb: float  # task input size (KB, 1 KB = 8000 bits)
    d_megacycles: float  # task CPU demand (Megacycles)
    f_m_ghz: float  # device CPU rate (GHz)
    f_c_ghz: float  # assigned cloud CPU rate (GHz)
    gamma_j_per_cycle: float  # device energy per cycle (J)
    L_j: float  # radio tail energy (J)
    lambda_e: float  # energy priority in [0, 1]; time priority is 1 - lambda_e
    W: float  # contention weight
    R_bps: float  # contention peak rate (bits/s)


# the ScenarioUser fields that unit conversion or a comparison reads before UserProfile checks
# them, so a non-number among them would raise TypeError, not a SchemaError
_ARITHMETIC_FIELDS = ("b_kb", "d_megacycles", "f_m_ghz", "f_c_ghz", "lambda_e", "R_bps")


@dataclass(frozen=True)
class Scenario:
    """A fully specified problem instance plus its provenance."""

    seed: int | None
    generator: dict
    version: str
    channels: int
    bandwidth_hz: float
    noise_dbm: float
    access_model: AccessModel
    users: tuple = field(default_factory=tuple)  # tuple[ScenarioUser, ...]

    def __post_init__(self):
        """Check the model invariants once, however the scenario was built.

        A fault raises SchemaError with the path `env`, `users[i]` or, for
        access weights whose potential overflows, `users`.
        """
        self.channel_env  # noqa: B018
        self.user_profiles  # noqa: B018
        self.evaluator  # noqa: B018

    @property
    def n_users(self) -> int:
        return len(self.users)

    @cached_property
    def channel_env(self) -> ChannelEnv:
        try:
            return ChannelEnv(
                channels=self.channels,
                bandwidth_hz=self.bandwidth_hz,
                noise_mw=dbm_to_mw(self.noise_dbm),
                access=self.access_model,
            )
        except OverflowError:
            raise SchemaError("env", f"noise floor {self.noise_dbm} dBm overflows in mW") from None
        except ValueError as exc:
            raise SchemaError("env", str(exc)) from exc

    @cached_property
    def user_profiles(self) -> tuple:
        return tuple(self._user_profile(u, f"users[{i}]") for i, u in enumerate(self.users))

    @cached_property
    def evaluator(self) -> ProfileEvaluator:
        """Built once and shared: the evaluator is read-only and the scenario frozen."""
        try:
            return ProfileEvaluator(self.channel_env, self.user_profiles)
        except ValueError as exc:
            raise SchemaError("users", str(exc)) from exc

    def _user_profile(self, u: ScenarioUser, path: str) -> UserProfile:
        try:
            # one chained test in the common case; the loop only names the culprit
            if not (float is type(u.b_kb) is type(u.d_megacycles) is type(u.f_m_ghz)
                    is type(u.f_c_ghz) is type(u.lambda_e) is type(u.R_bps)):
                for name in _ARITHMETIC_FIELDS:
                    _check_real(name, getattr(u, name))
            if self.access_model is AccessModel.CONTENTION and not u.R_bps > 0:
                raise ValueError("contention peak rate must be > 0 under the contention model")
            profile = UserProfile(
                transmit_power_mw=u.q_mw,
                channel_gain=u.g,
                input_bits=u.b_kb * BITS_PER_KB,
                task_cycles=u.d_megacycles * CYCLES_PER_MEGACYCLE,
                device_rate_hz=u.f_m_ghz * HZ_PER_GHZ,
                cloud_rate_hz=u.f_c_ghz * HZ_PER_GHZ,
                energy_per_cycle_j=u.gamma_j_per_cycle,
                tail_energy_j=u.L_j,
                time_weight=1.0 - u.lambda_e,
                energy_weight=u.lambda_e,
                contention_weight=u.W,
                peak_rate_bps=u.R_bps,
            )
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
        if not access_weight(self.channel_env, profile) > 0:
            # a user nobody hears moves without changing the potential
            raise SchemaError(path, "access weight (transmit power times gain) must be > 0")
        return profile


def _json_native(value):
    """A GenParams value in JSON form: choice sets as lists, the access model by value."""
    if isinstance(value, AccessModel):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def _generator_doc(params: GenParams) -> dict:
    """Generation parameters as a JSON-native dict, in field order."""
    return {f.name: _json_native(getattr(params, f.name)) for f in fields(params)}


def generate(params: GenParams, seed: int) -> Scenario:
    """Draw a random instance: area-uniform user placement plus per-user choices.

    Placement only matters through the distance to the base-station, so the
    radial coordinate is sampled directly with the sqrt transform that makes
    the placement uniform over the disk.  Deterministic per (params, seed); a
    seed that is not an int in [0, 2**128) raises SchemaError.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    n = params.n_users
    distances = np.maximum(MIN_DISTANCE_M, params.cell_radius_m * np.sqrt(rng.random(n)))
    gains = distances**-params.path_loss_exponent
    device_rates = rng.integers(0, len(params.device_rate_choices_ghz), n)
    energy_weights = rng.integers(0, len(params.energy_weight_choices), n)
    contention_weights = rng.integers(0, len(params.contention_weight_choices), n)
    users = tuple(
        ScenarioUser(
            q_mw=params.transmit_power_mw,
            g=float(gains[i]),
            b_kb=params.input_kb,
            d_megacycles=params.task_megacycles,
            f_m_ghz=params.device_rate_choices_ghz[device_rates[i]],
            f_c_ghz=params.cloud_rate_ghz,
            gamma_j_per_cycle=params.energy_per_cycle_j,
            L_j=params.tail_energy_j,
            lambda_e=params.energy_weight_choices[energy_weights[i]],
            W=params.contention_weight_choices[contention_weights[i]],
            R_bps=params.contention_peak_rate_bps,
        )
        for i in range(n)
    )
    return Scenario(
        seed=seed,
        generator=_generator_doc(params),
        version=__version__,
        channels=params.channels,
        bandwidth_hz=params.bandwidth_hz,
        noise_dbm=params.noise_dbm,
        access_model=params.access_model,
        users=users,
    )


_USER_FIELDS = tuple(f.name for f in fields(ScenarioUser))


def _require(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path or "document", "expected an object")
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing")
    return doc[key]

def _number(value, path: str) -> float:
    try:
        _check_real("value", value)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None
    return float(value)


def load_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, validating the schema."""
    meta = _require(doc, "meta", "")
    env = _require(doc, "env", "")
    users_doc = _require(doc, "users", "")

    seed = _require(meta, "seed", "meta")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SchemaError("meta.seed", "expected an integer or null")
    generator = _require(meta, "generator", "meta")
    if not isinstance(generator, dict):
        raise SchemaError("meta.generator", "expected an object")
    version = _require(meta, "version", "meta")
    if not isinstance(version, str):
        raise SchemaError("meta.version", "expected a string")

    channels = _require(env, "M", "env")
    if isinstance(channels, bool) or not isinstance(channels, int) or channels < 1:
        raise SchemaError("env.M", "expected a positive integer")
    bandwidth = _number(_require(env, "w_hz", "env"), "env.w_hz")
    noise_dbm = _number(_require(env, "noise_dbm", "env"), "env.noise_dbm")
    access_raw = _require(env, "access_model", "env")
    try:
        access = AccessModel(access_raw)
    except ValueError:
        raise SchemaError("env.access_model", f"unknown access model {access_raw!r}") from None

    if not isinstance(users_doc, list) or not users_doc:
        raise SchemaError("users", "expected a nonempty array")
    users = []
    for i, row in enumerate(users_doc):
        path = f"users[{i}]"
        if not isinstance(row, dict):
            raise SchemaError(path, "expected an object")
        values = {name: _number(_require(row, name, path), f"{path}.{name}") for name in _USER_FIELDS}
        users.append(ScenarioUser(**values))

    return Scenario(
        seed=seed,
        generator=generator,
        version=version,
        channels=channels,
        bandwidth_hz=bandwidth,
        noise_dbm=noise_dbm,
        access_model=access,
        users=tuple(users),
    )


def save_scenario(scenario: Scenario) -> dict:
    """Scenario back to its document form; inverse of load_scenario."""
    return {
        "meta": {
            "seed": scenario.seed,
            "generator": scenario.generator,
            "version": scenario.version,
        },
        "env": {
            "M": scenario.channels,
            "w_hz": scenario.bandwidth_hz,
            "noise_dbm": scenario.noise_dbm,
            "access_model": scenario.access_model.value,
        },
        "users": [
            {name: getattr(u, name) for name in _USER_FIELDS} for u in scenario.users
        ],
    }


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable content hash of the scenario document."""
    canonical = json.dumps(save_scenario(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def read_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # bad syntax, text that is not UTF-8 and an int literal past the parser's digit
        # limit are ValueErrors; nesting past the parser's depth is as invalid
        except (ValueError, RecursionError) as exc:
            raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
    return load_scenario(doc)


_PLAIN = frozenset({str, int, float, bool, type(None)})  # what json's C encoder writes as a leaf


def _dumps_indented(value, indent: str = "\n") -> str:
    """Exactly `json.dumps(value, indent=2)`, at `indent` (a newline plus the current margin).

    Any `indent` sends `json` to its pure-Python encoder.  So a nonempty list,
    tuple or str-keyed dict of plain scalars goes to the C encoder with the
    line break and margin as its item separator; one that holds containers
    recurses.  Anything else is json's own indented text with its line breaks
    moved right, which is exact because a string's newline is always escaped.
    """
    inner = indent + "  "
    kind = type(value)
    if kind is dict and value and {str}.issuperset(map(type, value)):
        brackets, leaves = "{}", value.values()
        items = (json.dumps(k) + ": " + _dumps_indented(v, inner) for k, v in value.items())
    elif (kind is list or kind is tuple) and value:
        brackets, leaves = "[]", value
        items = (_dumps_indented(v, inner) for v in value)
    else:  # a plain leaf goes to the C encoder, whose text is the indented encoder's
        return json.dumps(value, indent=None if kind in _PLAIN else 2).replace("\n", indent)
    if _PLAIN.issuperset(map(type, leaves)):
        flat = json.dumps(value, separators=("," + inner, ": "))
        return brackets[0] + inner + flat[1:-1] + indent + brackets[1]
    # the joined body stays a temporary; a local would keep one more report-sized copy alive
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def write_scenario(path, scenario: Scenario):
    Path(path).write_text(_dumps_indented(save_scenario(scenario)) + "\n", encoding="utf-8")
