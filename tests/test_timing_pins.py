"""Pinned timing beyond the golden digests: event logs, stall cycles and
horizons under non-default timing models, k in {1, 2, 5}, and random
interleavings of every machine operation with ``earliest`` bounds, at
30/3, 45/5 and 63/7.

The digests pin when every unit waits; they were captured from the
per-cycle busy-set timeline that the interval timeline replaced.
"""

import hashlib

import numpy as np
import pytest

from xbarecc.checkmem import Machine, TimingModel
from xbarecc.engine import CrossbarState, EngineConfig, Orientation, nor_op
from xbarecc.geometry import Bank, Geometry
from xbarecc.netlist import load_bundled
from xbarecc.scheduler import execute_schedule, insert_ecc, map_to_row

GEOMS = {"30/3": Geometry(30, 3), "45/5": Geometry(45, 5), "63/7": Geometry(63, 7)}
NETLISTS = ("decoder3to8", "full_adder", "mux2", "not_chain", "passthrough",
            "ripple_adder4")
TIMINGS = (
    TimingModel(xor3_cycles=3, copy_cycles=2, writeback_cycles=4,
                controller_read_cycles=2, correction_write_cycles=3,
                zero_compare_cycles=5),
    TimingModel(xor3_cycles=11, copy_cycles=1, writeback_cycles=7,
                controller_read_cycles=5, correction_write_cycles=1,
                zero_compare_cycles=2),
)


def _record(events, stall, horizon, pcs) -> str:
    return ("\n".join(ev.to_line() for ev in events)
            + f"\nstall={stall} horizon={horizon} pcs={pcs}\n")


def schedules_digest(geom: Geometry, k: int) -> str:
    """Every bundled netlist under each timing model: the schedule, then a
    replay with a data flip and a check-bit flip in the checked block row."""
    m, nb = geom.m, geom.blocks_per_side
    text = []
    for name in NETLISTS:
        nl = load_bundled(name)
        rp = map_to_row(nl, geom)
        for tm in TIMINGS:
            schedule = insert_ecc(rp, geom, tm, k)
            text.append(_record(schedule.events, schedule.stall_cycles,
                                schedule.total_cycles, schedule.pc_pairs_used))
            run = execute_schedule(schedule, dict.fromkeys(nl.inputs, 1),
                                   flips=((1, 1),),
                                   check_flips=((Bank.COUNTER, m - 1, 0, nb - 1),))
            machine = run.machine
            text.append(_record(machine.events, machine.stall_cycles,
                                machine.horizon, sorted(machine.pcs_used)))
    return hashlib.sha256("".join(text).encode()).hexdigest()


def interleaving_digest(geom: Geometry, seed: int, steps: int = 40) -> str:
    """Random critical ops (some full-lane), plain ops, line checks, block
    resets and flips, each issued with a random ``earliest``."""
    rng = np.random.default_rng(seed)
    n, m, nb = geom.n, geom.m, geom.blocks_per_side
    timing = TimingModel(*rng.integers(1, 12, size=6).tolist())
    cells = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
    machine = Machine(CrossbarState(geom, cells), timing=timing,
                      pc_pairs=int(rng.integers(1, 6)))
    machine.engine_cfg = EngineConfig(require_output_init=False)
    orientations = list(Orientation)
    for _ in range(steps):
        earliest = int(rng.integers(0, machine.horizon + 20))
        orientation = orientations[int(rng.integers(0, 2))]
        kind = int(rng.integers(0, 6))
        if kind <= 2:
            out = int(rng.integers(0, n))
            ins = tuple({int(x) for x in rng.integers(0, n, 2)} - {out}) or ((out + 1) % n,)
            lanes = (range(n) if kind == 1 else
                     rng.integers(0, n, int(rng.integers(1, 6))).tolist())
            op = nor_op(orientation, ins, out, frozenset(lanes))
            if kind == 2:
                machine.noncritical_op(op, earliest)
            else:
                machine.critical_op(op, earliest)
        elif kind == 3:
            machine.check_block_row(int(rng.integers(0, nb)), orientation, earliest)
        elif kind == 4:
            machine.block_ecc_reset(int(rng.integers(0, nb)), int(rng.integers(0, nb)),
                                    earliest)
        else:
            row, col = (int(x) for x in rng.integers(0, n, 2))
            machine.inject_data_flip(row, col)
            machine.inject_check_flip(list(Bank)[int(rng.integers(0, 2))],
                                      int(rng.integers(0, m)),
                                      int(rng.integers(0, nb)), int(rng.integers(0, nb)))
    text = _record(machine.events, machine.stall_cycles, machine.horizon,
                   sorted(machine.pcs_used))
    return hashlib.sha256(text.encode()).hexdigest()


# (geometry, k) -> sha256 of every schedule's and replay's record
SCHEDULE_DIGESTS = {
    ("30/3", 1):
        "1a17566550bc67d5e0bcb7407c4790ca9f6026230c52d5bd62549c027a18e422",
    ("30/3", 2):
        "bedc4bb2ca82ff724ced2cda99c91a12c1d3525e896bf6474b265cda3ad5c130",
    ("30/3", 5):
        "51f68c193b78a6e872de522a7b92917b6b09163424a111b10b137be75c5e0682",
    ("45/5", 1):
        "87608415557215bbdd4de852013ce5a1c22f5b593ba9ed6af4e5637a34f3c645",
    ("45/5", 2):
        "b111a8e4d1e29981c683c92c4674a9c8ee3c7e77ad5d5c1a9ecc7b59e864a031",
    ("45/5", 5):
        "3865d0c17a1626dc5509d2217f21db93d6fc040e91dc080cb7a5dc8377613591",
    ("63/7", 1):
        "5b2907581ca9967158b8a8ef75fa75066e8c4f39d43c2533be299170def6d828",
    ("63/7", 2):
        "907e309005adb6f82f463cd5360f068ec0993099f11033433b84b7c705c90400",
    ("63/7", 5):
        "4b235af0598c1361758570b2c74b205fff2e966110fe17de79aa05686d52791f",
}

# (geometry, seed) -> sha256 of the interleaving's record
INTERLEAVING_DIGESTS = {
    ("30/3", 1):
        "eb7edab6821087b3ea95c0e0b5c65daef4eef60036821884ca44140d64355f67",
    ("30/3", 2):
        "09758636f6d6e887d2488657359918d7d396c6898abfb6a1c8d3c725fe9894af",
    ("30/3", 3):
        "4dd21db6a46c355cb10440684017903b9638fa74cf565157408a90558716b84d",
    ("45/5", 1):
        "c87bf523156213e4369c4c5b3c925ff6356f5216264acaadddd028273cdbbee3",
    ("45/5", 2):
        "87586bf91da19b1785989fda42ab322f2231be5963c8890b0583b2bc6a8cd45e",
    ("45/5", 3):
        "c8201438bd6959f998d819d15bb04315ee0d71140d38ddc8620043681b45d4b2",
    ("63/7", 1):
        "531cba40609f4cc2b60a347693e9624ab409e1d37f90a866960392dd08fb9a6d",
    ("63/7", 2):
        "49c86ad2be18a157f3b5fbb1f92149ec6666b48f6ff70f9da790dae289a9bb88",
    ("63/7", 3):
        "f88943157d055c12b1264fc1ea9efa1bb67c51eb960cbe3127758087c0f0c340",
}


@pytest.mark.parametrize("geom, k", list(SCHEDULE_DIGESTS))
def test_schedules_under_non_default_timing_match_pinned_digests(geom, k):
    assert schedules_digest(GEOMS[geom], k) == SCHEDULE_DIGESTS[geom, k]


@pytest.mark.parametrize("geom, seed", list(INTERLEAVING_DIGESTS))
def test_random_interleavings_match_pinned_digests(geom, seed):
    assert interleaving_digest(GEOMS[geom], seed) == INTERLEAVING_DIGESTS[geom, seed]
