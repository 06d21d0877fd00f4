"""Totals that decide output bits add left to right under every Python version.

From Python 3.12 on, the builtin `sum` adds floats with compensation, so a
total summed by it can change bits with the interpreter.  These tests stand a
compensated sum (`math.fsum`) in for the builtin inside the modules that
total Python floats, and ask for the same bits: a seeded poa report, a sweep
summary and a trace whose +inf thresholds are stood in for by a total weight.
"""

import math

import pytest

from offload_game import GenParams, cli, game, generate, metrics, run_dco
from offload_game.metrics import poa_beneficial, poa_overhead
from offload_game.model import AccessModel, _sum_in_order

COMPENSATED_MODULES = (game, metrics, cli)  # the modules that total Python floats


def poa_reports() -> list:
    """Both reports of seeded N=8, M=3 cells, from fresh scenarios so no cached scan is reused."""
    params = [GenParams(n_users=8, channels=3, access_model=access) for access in AccessModel]
    return [repr(poa(generate(p, seed))) for p in params for seed in range(6)
            for poa in (poa_beneficial, poa_overhead)]


def sweep_summary(out) -> bytes:
    assert cli.main(["sweep", "--n", "30", "--seeds", "3", "--seed-base", "1", "--out", str(out)]) == 0
    return (out / "summary.csv").read_bytes()


def free_upload_trace() -> str:
    """Every threshold is +inf, so φ stands in twice the total weight for each: 0.1s and 0.3s round."""
    params = GenParams(n_users=5, access_model=AccessModel.CONTENTION, transmit_power_mw=0.0,
                       energy_weight_choices=(1.0,), contention_weight_choices=(0.1, 0.7, 0.3))
    return repr(run_dco(generate(params, 2), 2))


def test_outputs_keep_their_bits_under_a_compensated_sum(tmp_path, monkeypatch):
    before = poa_reports(), sweep_summary(tmp_path / "before"), free_upload_trace()
    for module in COMPENSATED_MODULES:
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    after = poa_reports(), sweep_summary(tmp_path / "after"), free_upload_trace()
    assert after[0] == before[0]
    assert after[1] == before[1]
    assert after[2] == before[2]


@pytest.mark.parametrize("values", [
    [], [0.1, 0.2, 0.3], [1e16, 1.0, -1e16], [3, 4], [2, 0.5, True], [-0.0], [x / 7 for x in range(40)],
], ids=["empty", "tenths", "cancelling", "ints", "mixed", "negative-zero", "sevenths"])
def test_sum_in_order_adds_left_to_right_from_zero(values):
    expected = 0
    for v in values:
        expected = expected + v
    got = _sum_in_order(iter(values))
    assert type(got) is type(expected) and repr(got) == repr(expected)
