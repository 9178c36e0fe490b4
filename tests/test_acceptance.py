"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools

import numpy as np
import pytest
from test_checkmem import touched_check_cells, written_cells

from xbarecc.checkmem import Machine, TimingModel, device_counts
from xbarecc.engine import CrossbarState, Orientation, init_op
from xbarecc.geometry import Bank, Geometry
from xbarecc.netlist import BUNDLED, load_bundled
from xbarecc.parity import (
    BlockParity,
    Diagnosis,
    DiagnosisKind,
    apply_correction,
    compute_syndrome,
    decode_syndrome,
    encode_block,
)
from xbarecc.reliability import (
    ReliabilityParams,
    block_failure_probability,
    monte_carlo_block_failure,
    mttf_baseline,
    mttf_proposed,
)
from xbarecc.scheduler import execute_schedule, insert_ecc, map_to_row, report

PROPOSED_POINTS = [
    (0.00001, 4.68684e14), (0.0000372759, 3.37305e13), (0.00013895, 2.42754e12),
    (0.000517947, 1.74706e11), (0.0019307, 1.25734e10), (0.00719686, 9.04888e8),
    (0.026827, 6.51235e7), (0.1, 4.68686e6), (0.372759, 337318.0),
    (1.3895, 24287.5), (5.17947, 1759.12), (19.307, 138.124),
    (71.9686, 25.8214), (268.27, 24.0), (1000.0, 24.0),
]

G30 = Geometry(30, 3)
TM = TimingModel()


def ok(num, text):
    print(f"ACCEPTANCE {num:>3} PASS  {text}")


def test_c01_baseline_mttf_anchor():
    got = mttf_baseline(ReliabilityParams(lambda_fit=1e-5))
    assert got == pytest.approx(12512.0, rel=5e-3)
    ok("C1", f"baseline MTTF(1e-5) = {got:.1f} h within 0.5% of 12512")


def test_c02_proposed_curve_and_saturation():
    worst = 0.0
    for lam, ref in PROPOSED_POINTS:
        got = mttf_proposed(ReliabilityParams(lambda_fit=lam))
        rel = abs(got - ref) / ref
        worst = max(worst, rel)
        assert rel < 0.02, f"lambda={lam}: {got} vs {ref}"
    for fn in (mttf_baseline, mttf_proposed):
        assert fn(ReliabilityParams(lambda_fit=1000.0)) == pytest.approx(24.0, rel=1e-6)
    ok("C2", f"15 proposed-curve points within 2% (worst {worst:.2%}); "
             "both curves 24 h at 1000 FIT/bit")


def test_c03_improvement_factor():
    ratio = (mttf_proposed(ReliabilityParams(lambda_fit=1e-3))
             / mttf_baseline(ReliabilityParams(lambda_fit=1e-3)))
    assert ratio > 3e8
    ok("C3", f"MTTF improvement at 1e-3 FIT/bit = {ratio:.3g} > 3e8")


def test_c04_device_counts_exact():
    counts = device_counts(1020, 15, 3)
    expect = {
        "Data (MEM)": (1_040_400, 0),
        "Check-Bits": (138_720, 0),
        "Processing XBs": (67_320, 0),
        "Checking XB": (2_040, 0),
        "Shifters": (0, 61_200),
        "Connection Unit": (0, 14_280),
    }
    for row in counts.rows:
        assert (row.memristors, row.transistors) == expect[row.unit], row.unit
    assert counts.total_memristors == 1_248_480
    assert counts.total_transistors == 75_480
    ok("C4", "device counts (1020,15,3): all six rows and totals "
             "1,248,480 / 75,480 exact")


def _flip_check(parity, bank, idx):
    bits = list(parity.bits(bank))
    bits[idx] ^= 1
    if bank is Bank.LEADING:
        return BlockParity(tuple(bits), parity.counter)
    return BlockParity(parity.leading, tuple(bits))


def test_c05_codec_exhaustive_and_randomized():
    failures = 0
    for m in (3, 5):
        rng = np.random.default_rng(m)
        for _ in range(100):
            block = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
            stored = encode_block(block)
            for i in range(m):
                for j in range(m):
                    bad = block.copy()
                    bad[i, j] ^= 1
                    diag = decode_syndrome(compute_syndrome(encode_block(bad), stored))
                    fixed, stored2 = apply_correction(bad, stored, diag)
                    if not (np.array_equal(fixed, block) and stored2 == stored):
                        failures += 1
            for bank in Bank:
                for idx in range(m):
                    bad_parity = _flip_check(stored, bank, idx)
                    diag = decode_syndrome(compute_syndrome(encode_block(block), bad_parity))
                    fixed, stored2 = apply_correction(block, bad_parity, diag)
                    if not (np.array_equal(fixed, block) and stored2 == stored):
                        failures += 1
    assert failures == 0

    m, trials = 15, 100_000
    rng = np.random.default_rng(2718)
    blocks = rng.integers(0, 2, size=(trials, m, m), dtype=np.uint8)
    kinds = rng.integers(0, m * m + 2 * m, size=trials)
    for t in range(trials):
        block = blocks[t]
        stored = encode_block(block)
        k = int(kinds[t])
        if k < m * m:
            bad, bad_parity = block.copy(), stored
            bad[k // m, k % m] ^= 1
        else:
            k -= m * m
            bank = Bank.LEADING if k < m else Bank.COUNTER
            bad, bad_parity = block, _flip_check(stored, bank, k % m)
        diag = decode_syndrome(compute_syndrome(encode_block(bad), bad_parity))
        fixed, repaired = apply_correction(bad, bad_parity, diag)
        if not (np.array_equal(fixed, block) and repaired == stored):
            failures += 1
    assert failures == 0
    ok("C5", "single-flip correction: exhaustive m=3,5 over 100 random blocks "
             f"and {trials} randomized m=15 trials, zero failures")


def test_c06_double_error_detection():
    cells = list(itertools.product(range(3), range(3)))
    base = np.zeros((3, 3), dtype=np.uint8)
    stored = encode_block(base)
    pairs = 0
    for (i1, j1), (i2, j2) in itertools.combinations(cells, 2):
        block = base.copy()
        block[i1, j1] ^= 1
        block[i2, j2] ^= 1
        diag = decode_syndrome(compute_syndrome(encode_block(block), stored))
        assert diag.kind is not DiagnosisKind.CLEAN
        pairs += 1
    assert pairs == 36
    ok("C6", "all 36 data double-flips at m=3 detected (never decode Clean)")


def test_c07_one_touch_per_diagonal():
    geom = Geometry(9, 3)
    masks = [frozenset(s) for size in (1, 3, 9)
             for s in itertools.combinations(range(9), size)]
    checked = 0
    for orientation in Orientation:
        for out in range(9):
            for lanes in masks:
                op = init_op(orientation, out, lanes)
                touched = touched_check_cells(*written_cells(op), geom)  # raises on double touch
                assert len(touched) == 2 * len(lanes)
                checked += 1
    assert checked == 2 * 9 * (9 + 84 + 1)
    ok("C7", f"{checked} micro-ops touch each (block, bank, diagonal) at most once")


def test_c08_end_to_end_semantic_preservation():
    total_assignments = 0
    for name in BUNDLED:
        nl = load_bundled(name)
        rp = map_to_row(nl, G30)
        schedule = insert_ecc(rp, G30, TM, 4)
        for bits in itertools.product((0, 1), repeat=len(nl.inputs)):
            assign = dict(zip(nl.inputs, bits))
            run = execute_schedule(schedule, assign)
            assert run.outputs == nl.evaluate(assign), (name, assign)
            for bc in set(rp.input_block_cols) | set(rp.output_block_cols):
                assert run.machine.block_consistent(0, bc), (name, bc)
            total_assignments += 1
    ok("C8", f"6-circuit corpus: {total_assignments} assignments match direct "
             "evaluation; input/output block parity re-encodes exactly")


def test_c09_fault_tolerant_execution():
    nl = load_bundled("full_adder")
    rp = map_to_row(nl, G30)
    schedule = insert_ecc(rp, G30, TM, 4)
    runs = 0
    for row in range(3):
        for col in range(3):  # every cell of the input block
            for bits in itertools.product((0, 1), repeat=3):
                assign = dict(zip(nl.inputs, bits))
                run = execute_schedule(schedule, assign, flips=((row, col),))
                assert run.corrected == 1, (row, col, assign)
                assert run.outputs == nl.evaluate(assign), (row, col, assign)
                runs += 1
    ok("C9", f"pre-function check corrected a flip at each of 9 input-block "
             f"cells across {runs} runs; outputs always match the truth table")


def test_c10_monte_carlo_agrees_with_closed_form():
    for p in (1e-3, 1e-2):
        est = monte_carlo_block_failure(p, 15, 100_000, seed=424242)
        q = block_failure_probability(p, 15)
        assert est.contains(q), (p, est, q)
    ok("C10", "closed-form block-failure probability inside the 95% CI at "
              "p_bit = 1e-3 and 1e-2 (1e5 trials each)")


def test_c11_scheduler_properties():
    worst_min_k = 0
    for name in BUNDLED:
        nl = load_bundled(name)
        rp = map_to_row(nl, G30)
        stats = report(insert_ecc(rp, G30, TM, 4))
        assert np.isfinite(stats.overhead_percent)
        assert stats.overhead_percent >= 0.0
        assert insert_ecc(rp, G30, TM, 4).stall_cycles == 0
        assert insert_ecc(rp, G30, TM, 8).stall_cycles == 0
        totals = [insert_ecc(rp, G30, TM, k).total_cycles for k in range(1, 7)]
        assert all(a >= b for a, b in zip(totals, totals[1:])), name
        assert 1 <= stats.min_pc_pairs <= 8, name
        worst_min_k = max(worst_min_k, stats.min_pc_pairs)
    ok("C11", "corpus scheduling: overhead finite and >= 0, zero stalls at "
              f"k>=4, cycles non-increasing in k, min PC pairs <= 8 "
              f"(max seen {worst_min_k})")


def test_c12_determinism(tmp_path, capsys):
    import shutil

    from xbarecc.cli import EXIT_OK, main
    from xbarecc.netlist import bundled_dir

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in bundled_dir().iterdir():
        shutil.copy(path, corpus / path.name)
    runs = []
    for tag in ("x", "y"):
        out = tmp_path / f"sched_{tag}"
        assert main(["schedule", str(corpus), "--out-dir", str(out),
                     "-n", "30", "-m", "3", "-k", "4"]) == EXIT_OK
        sim = tmp_path / f"sim_{tag}.report"
        assert main(["simulate", str(out / "full_adder.events"),
                     "--inputs", "a=1,b=0,cin=1", "--flip", "1,1",
                     "--report", str(sim)]) == EXIT_OK
        csv = tmp_path / f"rel_{tag}.csv"
        assert main(["reliability", "--out", str(csv)]) == EXIT_OK
        inj = tmp_path / f"inj_{tag}.txt"
        assert main(["inject", "--scope", "block", "--pbit", "0.01",
                     "--trials", "10000", "-m", "15", "--seed", "77",
                     "--out", str(inj)]) == EXIT_OK
        capsys.readouterr()
        assert main(["area"]) == EXIT_OK
        area = capsys.readouterr().out
        runs.append((out, sim, csv, inj, area))
    (out1, sim1, csv1, inj1, area1), (out2, sim2, csv2, inj2, area2) = runs
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert sim1.read_bytes() == sim2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    assert inj1.read_bytes() == inj2.read_bytes()
    assert area1 == area2
    ok("C12", "schedule, simulate, reliability, inject, and area outputs are "
              "byte-identical across repeated seeded runs")
