"""Reference cost model for the benchmark's output checks.

Written from the scenario document's own fields with plain numpy, so that no
check relies on the code it checks: nothing here imports offload_game.  Costs
are recomputed in a different summation order than the library uses, so
comparisons carry a relative tolerance far above rounding noise and far below
any real cost difference.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict

import numpy as np

RTOL = 1e-9
BITS_PER_KB = 8e3
CYCLES_PER_MEGACYCLE = 1e6
HZ_PER_GHZ = 1e9


class Instance:
    """Per-user cost constants of one scenario, from its document fields."""

    def __init__(self, env: dict, users: list):
        def column(key):
            return np.array([float(u[key]) for u in users])

        self.channels = int(env["M"])
        self.interference = env["access_model"] == "interference"
        self.bandwidth = float(env["w_hz"])
        self.noise = 10.0 ** (float(env["noise_dbm"]) / 10.0)
        power = column("q_mw")
        bits = column("b_kb") * BITS_PER_KB
        cycles = column("d_megacycles") * CYCLES_PER_MEGACYCLE
        energy_w = column("lambda_e")
        time_w = 1.0 - energy_w
        self.signal = power * column("g")
        self.weights = self.signal if self.interference else column("W")
        self.peak = column("R_bps")
        self.local = (
            time_w * cycles / (column("f_m_ghz") * HZ_PER_GHZ)
            + energy_w * column("gamma_j_per_cycle") * cycles
        )
        # cloud cost = upload_weight / rate + fixed: upload time and transmit
        # energy both scale with 1/rate, tail energy and cloud execution do not
        self.upload_weight = (time_w + energy_w * power) * bits
        self.fixed = energy_w * column("L_j") + time_w * cycles / (column("f_c_ghz") * HZ_PER_GHZ)

    @classmethod
    def from_document(cls, doc: dict) -> "Instance":
        return cls(doc["env"], doc["users"])

    @classmethod
    def from_scenario(cls, scenario) -> "Instance":
        env = {
            "M": scenario.channels,
            "w_hz": scenario.bandwidth_hz,
            "noise_dbm": scenario.noise_dbm,
            "access_model": scenario.access_model.value,
        }
        return cls(env, [asdict(u) for u in scenario.users])

    @property
    def n_users(self) -> int:
        return len(self.local)

    def cloud_costs_of(self, rows: np.ndarray, received: np.ndarray) -> np.ndarray:
        """Offloading cost of users `rows` at co-channel weight `received`.

        `received` has one row per entry of `rows` (or one value each when 1-D).
        """
        shape = (-1, 1) if received.ndim == 2 else (-1,)

        def per_user(values):
            return values[rows].reshape(shape)

        if self.interference:
            rate = self.bandwidth * np.log2(1.0 + per_user(self.signal) / (self.noise + received))
        else:
            weight = per_user(self.weights)
            rate = per_user(self.peak) * weight / (weight + received)
        upload_weight = per_user(self.upload_weight)
        with np.errstate(divide="ignore", invalid="ignore"):
            upload = upload_weight / rate
        fixed = per_user(self.fixed)
        return np.where(upload_weight == 0.0, fixed, upload + fixed)

    def channel_loads(self, profile: np.ndarray) -> np.ndarray:
        """Summed weight per channel; index 0 collects the local users and is unused."""
        return np.bincount(profile, weights=self.weights, minlength=self.channels + 1)

    def costs(self, profile) -> np.ndarray:
        profile = np.asarray(profile, dtype=np.int64)
        received = self.channel_loads(profile)[profile] - self.weights
        cloud = self.cloud_costs_of(np.arange(self.n_users), received)
        return np.where(profile > 0, cloud, self.local)

    def candidate_costs(self, profile, users=slice(None)) -> np.ndarray:
        """(users, channels+1) cost of every unilateral decision of the given users."""
        profile = np.asarray(profile, dtype=np.int64)
        loads = self.channel_loads(profile)[1:]
        own = profile[users, np.newaxis] == np.arange(1, self.channels + 1)
        received = loads[np.newaxis, :] - self.weights[users, np.newaxis] * own
        rows = np.arange(self.n_users)[users]
        out = np.empty((len(rows), self.channels + 1))
        out[:, 0] = self.local[rows]
        out[:, 1:] = self.cloud_costs_of(rows, received)
        return out

    def beneficial_range(self, profile) -> tuple:
        """(surely, possibly) beneficial offloader counts, bracketing near-ties."""
        profile = np.asarray(profile, dtype=np.int64)
        costs = self.costs(profile)
        offloading = profile > 0
        surely = offloading & (costs <= self.local * (1.0 - RTOL))
        possibly = offloading & (costs <= self.local * (1.0 + RTOL))
        return int(surely.sum()), int(possibly.sum())


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def improving_users(inst: Instance, profile) -> list:
    """Users with a unilateral deviation that beats their current cost."""
    profile = np.asarray(profile, dtype=np.int64)
    candidates = inst.candidate_costs(profile)
    current = candidates[np.arange(inst.n_users), profile]
    better = candidates.min(axis=1) < current * (1.0 - RTOL)
    return [int(n) for n in np.flatnonzero(better)]


def check_profile(inst: Instance, profile, label: str) -> list:
    """Problems with the shape or range of a decision profile."""
    profile = np.asarray(profile)
    if profile.shape != (inst.n_users,):
        return [f"{label}: profile shape {profile.shape} for {inst.n_users} users"]
    if profile.size and (profile.min() < 0 or profile.max() > inst.channels):
        return [f"{label}: profile entry outside 0..{inst.channels}"]
    return []


def check_nash(inst: Instance, profile, label: str) -> list:
    problems = check_profile(inst, profile, label)
    if problems:
        return problems
    movers = improving_users(inst, profile)
    if movers:
        return [f"{label}: not a Nash equilibrium; users {movers[:5]} can improve"]
    return []


def check_totals(inst: Instance, profile, overhead: float, beneficial: int, label: str) -> list:
    """The reported total cost and beneficial count of a profile."""
    problems = check_profile(inst, profile, label)
    if problems:
        return problems
    expected = float(inst.costs(profile).sum())
    if not close(overhead, expected):
        problems.append(f"{label}: system overhead {overhead!r} != reference {expected!r}")
    low, high = inst.beneficial_range(profile)
    if not low <= beneficial <= high:
        problems.append(f"{label}: beneficial count {beneficial} outside [{low}, {high}]")
    return problems


def check_trace(inst: Instance, report: dict, slots_csv: str, label: str) -> list:
    """Replay a written trace and check every slot against the reference model.

    The run must start all-local, change exactly the granted user's decision
    per slot to a best response that strictly lowers the potential, and end
    at a Nash equilibrium whose costs match the reference.
    """
    slots = report["slots"]
    result = report["result"]
    problems = []
    if not slots:
        return [f"{label}: empty trace"]
    if any(slots[0]["profile"]):
        problems.append(f"{label}: trace does not start all-local")
    rows = list(csv.reader(io.StringIO(slots_csv)))
    if len(rows) != len(slots) + 1:
        problems.append(f"{label}: slots.csv has {len(rows) - 1} rows for {len(slots)} slots")
    profile = np.zeros(inst.n_users, dtype=np.int64)
    for t, slot in enumerate(slots):
        if slot["profile"] != profile.tolist():
            problems.append(f"{label}: slot {t} profile is not the replayed one")
            break
        if t + 1 < len(rows) and float(rows[t + 1][1]) != slot["potential"]:
            problems.append(f"{label}: slot {t} phi differs between slots.csv and report.json")
        if t > 0 and not slot["potential"] < slots[t - 1]["potential"]:
            problems.append(f"{label}: potential did not strictly decrease at slot {t}")
        user, decision = slot["updater"], slot["new_decision"]
        if user is None:
            if t != len(slots) - 1:
                problems.append(f"{label}: slot {t} has no update but is not the last")
            break
        if user not in slot["rtu_senders"]:
            problems.append(f"{label}: slot {t} updater {user} did not request an update")
        row = inst.candidate_costs(profile, [user])[0]
        if not row[decision] < row[profile[user]] * (1.0 + RTOL):
            problems.append(f"{label}: slot {t} move of user {user} does not lower its cost")
        if not row[decision] <= row.min() * (1.0 + RTOL):
            problems.append(f"{label}: slot {t} move of user {user} is not a best response")
        profile[user] = decision
    if problems:
        return problems
    if result["final_profile"] != profile.tolist():
        problems.append(f"{label}: final profile is not the replayed one")
    if result["total_slots"] != len(slots) or result["update_slots"] != len(slots) - 1:
        problems.append(f"{label}: slot counts do not match the slot list")
    final = slots[-1]
    costs = inst.costs(profile)
    if not np.allclose(final["overheads"], costs, rtol=RTOL, atol=0.0):
        problems.append(f"{label}: final per-user costs differ from the reference")
    problems += check_totals(
        inst, profile, result["system_overhead"], result["beneficial_count"], label
    )
    problems += check_nash(inst, profile, label)
    return problems
