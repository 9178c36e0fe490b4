"""Closed-form MTTF curves, Monte-Carlo cross-checks, and campaigns."""

import math
import tracemalloc

import numpy as np
import pytest

from xbarecc.checkmem import CheckMem, Machine
from xbarecc.engine import CrossbarState
from xbarecc.geometry import Geometry
from xbarecc.parity import DiagnosisKind
from xbarecc.reliability import (
    CampaignReport,
    FaultCampaign,
    ReliabilityParams,
    block_failure_probability,
    injection_campaign,
    monte_carlo_block_failure,
    mttf_baseline,
    mttf_proposed,
    p_bit,
    sweep,
    sweep_to_csv,
    wilson_interval,
)

# plotted sensitivity-analysis coordinates: (rate, baseline hours, proposed hours)
CURVE_POINTS = [
    (0.00001, 12512.0, 4.68684e14),
    (0.0000372759, 3365.38, 3.37305e13),
    (0.00013895, 911.66, 2.42754e12),
    (0.000517947, 253.536, 1.74706e11),
    (0.0019307, 77.4831, 1.25734e10),
    (0.00719686, 32.0482, 9.04888e8),
    (0.026827, 24.1399, 6.51235e7),
    (0.1, 24.0, 4.68686e6),
    (0.372759, 24.0, 337318.0),
    (1.3895, 24.0, 24287.5),
    (5.17947, 24.0, 1759.12),
    (19.307, 24.0, 138.124),
    (71.9686, 24.0, 25.8214),
    (268.27, 24.0, 24.0),
    (1000.0, 24.0, 24.0),
]


def params(lam):
    return ReliabilityParams(lambda_fit=lam)


class TestPBit:
    def test_zero_rate(self):
        assert p_bit(0.0, 24.0) == 0.0

    def test_small_rate_expansion(self):
        # 1 - exp(-x) = x - x^2/2 + ... with x = 2.4e-9
        x = 0.1 * 24 / 1e9
        expect = x - x * x / 2
        assert p_bit(0.1, 24.0) == pytest.approx(expect, rel=1e-8)
        assert p_bit(0.1, 24.0) == pytest.approx(2.4e-9, rel=1e-8)

    def test_huge_rate_saturates(self):
        assert p_bit(1e15, 24.0) == pytest.approx(1.0)


class TestClosedForms:
    def test_baseline_anchor(self):
        assert mttf_baseline(params(1e-5)) == pytest.approx(12512.0, rel=5e-3)

    @pytest.mark.parametrize("lam,base,_", CURVE_POINTS)
    def test_baseline_curve(self, lam, base, _):
        assert mttf_baseline(params(lam)) == pytest.approx(base, rel=5e-3)

    @pytest.mark.parametrize("lam,_,prop", CURVE_POINTS)
    def test_proposed_curve_within_2_percent(self, lam, _, prop):
        assert mttf_proposed(params(lam)) == pytest.approx(prop, rel=0.02)

    def test_saturation_at_check_period(self):
        assert mttf_baseline(params(1000.0)) == pytest.approx(24.0, rel=1e-6)
        assert mttf_proposed(params(1000.0)) == pytest.approx(24.0, rel=1e-6)

    def test_improvement_factor_at_flash_rate(self):
        ratio = mttf_proposed(params(1e-3)) / mttf_baseline(params(1e-3))
        assert ratio > 3e8

    def test_proposed_dominates_baseline(self):
        for lam in np.logspace(-8, 3, 45):
            assert mttf_proposed(params(lam)) >= mttf_baseline(params(lam))

    def test_no_underflow_down_to_1e12(self):
        for lam in (1e-12, 1e-10, 1e-7):
            base, prop = mttf_baseline(params(lam)), mttf_proposed(params(lam))
            assert math.isfinite(base) and base > 0
            assert math.isfinite(prop) and prop > 0

    @pytest.mark.parametrize("lam, t_hours", [(1e-5, 5e-324), (1e-320, 24.0)])
    def test_an_underflowing_flip_probability_never_fails(self, lam, t_hours):
        # lambda * T / 1e9 rounds to 0: neither memory ever fails
        p = ReliabilityParams(lambda_fit=lam, t_hours=t_hours)
        assert p_bit(lam, t_hours) == 0.0
        assert mttf_baseline(p) == mttf_proposed(p) == math.inf

    def test_baseline_small_lambda_asymptote(self):
        # P_fail -> N*p, so MTTF -> T / (N * lambda * T / 1e9) = 1e9/(N*lambda)
        lam = 1e-10
        expect = 1e9 / (8e9 * lam)
        assert mttf_baseline(params(lam)) == pytest.approx(expect, rel=1e-3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReliabilityParams(lambda_fit=-1.0)
        with pytest.raises(ValueError):
            ReliabilityParams(lambda_fit=1.0, t_hours=0)


class TestBlockFailureProbability:
    def test_edges(self):
        assert block_failure_probability(0.0, 15) == 0.0
        assert block_failure_probability(1.0, 15) == 1.0

    def test_matches_direct_formula_at_moderate_p(self):
        for p in (1e-3, 1e-2, 0.1, 0.5):
            cells = 225
            direct = 1 - (1 - p) ** cells - cells * p * (1 - p) ** (cells - 1)
            assert block_failure_probability(p, 15) == pytest.approx(direct, rel=1e-12)

    def test_series_and_direct_agree_at_crossover(self):
        # the implementation switches branches around cells*p = 1e-2
        for p in (4.0e-5, 4.44e-5, 5.0e-5):
            cells = 225
            direct = 1 - (1 - p) ** cells - cells * p * (1 - p) ** (cells - 1)
            assert block_failure_probability(p, 15) == pytest.approx(direct, rel=1e-6)

    def test_tiny_p_keeps_precision(self):
        # dominated by C(225,2) p^2; the naive complement would round to 0
        p = 2.4e-13
        expect = 225 * 224 / 2 * p * p
        got = block_failure_probability(p, 15)
        assert got == pytest.approx(expect, rel=1e-4)
        assert got > 0


class TestSweep:
    def test_default_grid_hits_reference_abscissae(self):
        rows = sweep(1e-5, 1e3)
        grid = [r.lambda_fit for r in rows]
        assert len(grid) == 29
        # the plotted coordinates carry six significant figures
        for lam, _, _ in CURVE_POINTS:
            assert any(abs(g - lam) / lam < 1e-5 for g in grid)

    def test_flash_rate_row_shows_improvement(self):
        rows = sweep(1e-5, 1e3)
        row = next(r for r in rows if abs(r.lambda_fit - 1e-3) / 1e-3 < 1e-9)
        assert row.improvement > 3e8

    def test_baseline_monotone_non_increasing(self):
        rows = sweep(1e-5, 1e3)
        base = [r.mttf_baseline_h for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(base, base[1:]))

    def test_csv_shape(self):
        text = sweep_to_csv(sweep(1e-5, 1e3))
        lines = text.strip().splitlines()
        assert lines[0] == "lambda_fit,mttf_baseline_h,mttf_proposed_h,improvement"
        assert len(lines) == 30
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sweep(1e3, 1e-5)
        with pytest.raises(ValueError):
            sweep(-1.0, 1.0)


class TestMonteCarlo:
    def test_wilson_edges(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and hi > 0
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0 and lo < 1

    def test_zero_and_one(self):
        est = monte_carlo_block_failure(0.0, 15, 10_000, seed=1)
        assert est.estimate == 0.0 and est.contains(0.0)
        est = monte_carlo_block_failure(1.0, 15, 10_000, seed=1)
        assert est.estimate == 1.0 and est.contains(1.0)

    def test_ci_contains_closed_form(self):
        for p in (1e-3, 1e-2):
            est = monte_carlo_block_failure(p, 15, 100_000, seed=2024)
            assert est.contains(block_failure_probability(p, 15))

    def test_trial_floor_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_block_failure(0.5, 3, 100, seed=0)


class TestInjectionCampaign:
    def test_no_faults_no_findings(self):
        geom = Geometry(9, 3)
        campaign = FaultCampaign(seed=5, trials=2, p_bit=0.0)
        rep = injection_campaign(lambda: Machine.blank(geom), campaign)
        assert rep.flips_injected == 0
        assert rep.corrected == rep.uncorrectable == rep.miscorrected == rep.silent == 0
        assert rep.blocks_observed == 2 * 9

    def test_determinism(self):
        geom = Geometry(30, 3)
        campaign = FaultCampaign(seed=9, trials=3, p_bit=0.05)
        rep1 = injection_campaign(lambda: Machine.blank(geom), campaign)
        rep2 = injection_campaign(lambda: Machine.blank(geom), campaign)
        assert rep1 == rep2

    @pytest.mark.parametrize("n, m, expected", [
        (30, 3, CampaignReport(trials=4, flips_injected=730, corrected=124,
                               uncorrectable=474, miscorrected=122, silent=10,
                               blocks_observed=400, blocks_failed=228)),
        (45, 5, CampaignReport(trials=4, flips_injected=1622, corrected=6,
                               uncorrectable=1501, miscorrected=101, silent=14,
                               blocks_observed=324, blocks_failed=317)),
    ])
    def test_every_outcome_class_pinned(self, n, m, expected):
        # at p=0.2 most blocks take several flips, so all four classes occur
        geom = Geometry(n, m)
        campaign = FaultCampaign(seed=3, trials=4, p_bit=0.2)
        assert injection_campaign(lambda: Machine.blank(geom), campaign) == expected

    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.2, 1.0])
    @pytest.mark.parametrize("content", ["blank", "random", "random Fortran"])
    def test_flips_match_the_whole_memory_mask_oracle(self, p, content):
        # the oracle draws trial t's flips as one n x n boolean mask,
        # default_rng((seed, t)).random((n, n)) < p, XORs it into the cells
        # and sums it per block; the campaign draws, XORs and counts them one
        # block row at a time. The whole expected report is built from the
        # mask, the check's diagnoses and the cells the check left.
        geom, seed, trials = Geometry(45, 5), 17, 3
        n, m, nb = geom.n, geom.m, geom.blocks_per_side
        values = np.random.default_rng(4505).integers(0, 2, (n, n), dtype=np.uint8)
        values *= content != "blank"
        layout = np.asfortranarray if content == "random Fortran" else np.copy
        runs = []  # per trial: the cells as flipped, the check's reports and
        # the cells as the check left them

        def factory():
            state = CrossbarState(geom, layout(values))
            machine = Machine(state, _checkmem=CheckMem.from_state(state))
            check = machine.full_memory_check

            def spied_check():
                flipped = machine.state.cells.copy()
                reports = check()
                runs.append((flipped, reports, machine.state.cells.copy()))
                return reports

            machine.full_memory_check = spied_check
            return machine

        report = injection_campaign(factory, FaultCampaign(seed, trials, p))

        assert len(runs) == trials
        expected = CampaignReport(trials=trials)
        for t, (flipped, reports, checked) in enumerate(runs):
            mask = np.random.default_rng((seed, t)).random((n, n)) < p
            assert np.array_equal(flipped, values ^ mask)
            per_block = mask.reshape(nb, m, nb, m).sum(axis=(1, 3))
            unlike = (checked != values).reshape(nb, m, nb, m).any(axis=(1, 3))
            expected.blocks_observed += len(reports)
            for br, bc in zip(*np.nonzero(per_block)):
                count = int(per_block[br, bc])
                kind = reports[br * nb + bc].diagnosis.kind
                expected.flips_injected += count
                if not unlike[br, bc]:
                    expected.corrected += count
                    continue
                expected.blocks_failed += 1
                if kind is DiagnosisKind.UNCORRECTABLE:
                    expected.uncorrectable += count
                elif kind is DiagnosisKind.CLEAN:
                    expected.silent += count
                else:
                    expected.miscorrected += count
        assert report == expected

    def test_one_fully_flipped_trial_keeps_no_copy_per_block(self):
        # p = 1 flips every cell of every block; the trial keeps one copy of
        # the cells and one count per block, not a copy of each block hit,
        # and shares one report among its 10,000 uncorrectable blocks
        geom = Geometry(300, 3)
        factory = lambda: Machine.blank(geom)
        injection_campaign(factory, FaultCampaign(seed=0, trials=1, p_bit=0.0))  # warm caches
        tracemalloc.start()
        try:
            report = injection_campaign(factory, FaultCampaign(seed=0, trials=1, p_bit=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.uncorrectable == report.flips_injected == 300 * 300
        assert peak < 4.5 * 2**20

    def test_machine_level_frequency_tracks_closed_form(self):
        geom = Geometry(150, 15)
        rng_state = np.random.default_rng(31)
        cells = rng_state.integers(0, 2, size=(150, 150), dtype=np.uint8)
        campaign = FaultCampaign(seed=11, trials=40, p_bit=1e-2)
        rep = injection_campaign(
            lambda: Machine(CrossbarState(geom, cells)), campaign)
        q = block_failure_probability(1e-2, 15)
        lo, hi = wilson_interval(rep.blocks_failed, rep.blocks_observed)
        assert lo <= q <= hi
        # a block fails iff it took >= 2 flips: frequencies must track closely
        assert rep.failed_block_frequency == pytest.approx(q, rel=0.05)

    def test_forced_flip_in_full_adder_input_block(self):
        from xbarecc.checkmem import TimingModel
        from xbarecc.netlist import load_bundled
        from xbarecc.scheduler import execute_schedule, insert_ecc, map_to_row

        geom = Geometry(30, 3)
        nl = load_bundled("full_adder")
        rp = map_to_row(nl, geom)
        schedule = insert_ecc(rp, geom, TimingModel(), 4)
        assign = {"a": 1, "b": 0, "cin": 1}
        run = execute_schedule(schedule, assign, flips=((2, 0),))
        assert run.corrected == 1
        assert run.outputs == nl.evaluate(assign)

    def test_campaign_validation(self):
        with pytest.raises(ValueError):
            FaultCampaign(seed=0, trials=0, p_bit=0.1)
        with pytest.raises(ValueError):
            FaultCampaign(seed=0, trials=1, p_bit=1.5)
