"""Closed-form MTTF analytics and Monte-Carlo fault-injection campaigns.

The baseline memory fails as soon as any bit flips between checks; the
protected memory tolerates one flip per block. Soft errors are uniform and
independent with rate lambda (FIT/bit = expected errors per 10^9 hours per
cell), checks run every T hours, and MTTF = 10^9 / failure-rate[FIT]
= T / P(failure within one period). Probability products over ~10^10 bits
are evaluated in log space throughout.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Geometry
from .parity import DiagnosisKind


@dataclass(frozen=True)
class ReliabilityParams:
    """Inputs of the closed-form model. Capacity defaults to 1 GB of data
    bits (10^9 bytes); block geometry defaults to the 1020/15 case study."""

    lambda_fit: float
    t_hours: float = 24.0
    geom: Geometry = Geometry(1020, 15)
    capacity_bits: int = 8_000_000_000

    def __post_init__(self):
        if self.lambda_fit <= 0 or self.t_hours <= 0 or self.capacity_bits <= 0:
            raise ValueError("lambda, T, and capacity must all be positive")


def p_bit(lambda_fit: float, t_hours: float) -> float:
    """Probability a given cell flips within one check period."""
    if lambda_fit < 0 or t_hours < 0:
        raise ValueError("lambda and T must be non-negative")
    return -math.expm1(-lambda_fit * t_hours / 1e9)


def mttf_baseline(params: ReliabilityParams) -> float:
    """MTTF with no ECC: one flip anywhere in a period is a failure."""
    # log(1 - p_bit) is exactly -lambda*T/1e9
    log_surv = params.capacity_bits * (-params.lambda_fit * params.t_hours / 1e9)
    p_fail = -math.expm1(log_surv)
    return params.t_hours / p_fail


def block_failure_probability(p: float, m: int) -> float:
    """P(>= 2 flips among the m*m cells of a block) under iid flips.

    The direct complement 1 - P(0) - P(1) loses everything to cancellation
    once the result drops below ~1e-16, so the small-p regime sums the
    binomial tail termwise instead.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0,1]")
    cells = m * m
    if p == 0:
        return 0.0
    if p == 1:
        return 1.0
    if cells * p > 1e-2:
        s0 = math.exp(cells * math.log1p(-p))
        s1 = cells * p * math.exp((cells - 1) * math.log1p(-p))
        return max(0.0, 1.0 - s0 - s1)
    ratio = p / (1.0 - p)
    term = cells * (cells - 1) / 2.0 * p * p * math.exp((cells - 2) * math.log1p(-p))
    total = 0.0
    j = 2
    while j <= cells:
        total += term
        if term < total * 1e-17:
            break
        term *= (cells - j) / (j + 1) * ratio
        j += 1
    return total


def mttf_proposed(params: ReliabilityParams) -> float:
    """MTTF with per-block single-error correction.

    A block succeeds with zero or one flips (binomial); blocks are
    independent, and the data capacity spans capacity/m^2 of them.
    """
    m = params.geom.m
    p = p_bit(params.lambda_fit, params.t_hours)
    q_block = block_failure_probability(p, m)
    if q_block == 0.0:
        return math.inf
    blocks = params.capacity_bits / (m * m)
    if q_block >= 1.0:
        p_fail = 1.0
    else:
        p_fail = -math.expm1(blocks * math.log1p(-q_block))
    return params.t_hours / p_fail


@dataclass(frozen=True)
class SweepRow:
    lambda_fit: float
    mttf_baseline_h: float
    mttf_proposed_h: float

    @property
    def improvement(self) -> float:
        return self.mttf_proposed_h / self.mttf_baseline_h


def sweep_points(lambda_min: float, lambda_max: float, points_per_decade: float) -> int:
    """Size of the grid :func:`sweep` evaluates over [lambda_min, lambda_max]."""
    decades = math.log10(lambda_max) - math.log10(lambda_min)
    return max(2, round(decades * points_per_decade) + 1)


def sweep(lambda_min: float, lambda_max: float, points_per_decade: float = 3.5,
          params: ReliabilityParams | None = None) -> list[SweepRow]:
    """Evaluate both curves on a log-spaced error-rate grid.

    The default grid (1e-5 .. 1e3 at 3.5 points/decade) lands exactly on
    the reference sensitivity-analysis abscissae and on 1e-3, the
    Flash-like rate used for the headline improvement factor.
    """
    if not 0 < lambda_min < lambda_max:
        raise ValueError(f"need 0 < lambda_min < lambda_max, "
                         f"got {lambda_min}, {lambda_max}")
    if points_per_decade <= 0:
        raise ValueError("points_per_decade must be positive")
    base = params or ReliabilityParams(lambda_fit=lambda_min)
    count = sweep_points(lambda_min, lambda_max, points_per_decade)
    grid = np.logspace(math.log10(lambda_min), math.log10(lambda_max), count)
    rows = []
    for lam in grid:
        p = replace(base, lambda_fit=float(lam))
        rows.append(SweepRow(float(lam), mttf_baseline(p), mttf_proposed(p)))
    return rows


SWEEP_CSV_HEADER = "lambda_fit,mttf_baseline_h,mttf_proposed_h,improvement"


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.lambda_fit:.10g},{r.mttf_baseline_h:.10g},"
                     f"{r.mttf_proposed_h:.10g},{r.improvement:.10g}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Monte Carlo

def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at 0 and trials successes."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the all-or-nothing endpoints are exact; don't let rounding shave them
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    failures: int

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


MIN_BLOCK_TRIALS = 10_000  # fewest trials that give a meaningful 95% interval


def monte_carlo_block_failure(p: float, m: int, trials: int,
                              seed: int) -> MonteCarloEstimate:
    """Sampled block-failure probability: >= 2 flips among m*m iid cells.

    Independent oracle for :func:`block_failure_probability`.
    """
    if trials < MIN_BLOCK_TRIALS:
        raise ValueError(f"need at least 1e4 trials for a meaningful CI, got {trials}")
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0,1]")
    rng = np.random.default_rng(seed)
    flips = rng.binomial(m * m, p, size=trials)
    failures = int((flips >= 2).sum())
    low, high = wilson_interval(failures, trials)
    return MonteCarloEstimate(failures / trials, low, high, trials, failures)


# ----------------------------------------------------------------------
# fault-injection campaigns against the machine model

class CampaignScope:
    """The two ``inject --scope`` choices: one sampled block or a whole machine."""

    BLOCK = "block"
    MACHINE = "machine"


@dataclass(frozen=True)
class FaultCampaign:
    seed: int
    trials: int
    p_bit: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.p_bit <= 1:
            raise ValueError(f"p_bit {self.p_bit} outside [0,1]")


@dataclass
class CampaignReport:
    """Per-flip outcome counts over a whole campaign.

    Every flip lands in a block that the trial's check diagnosed:
    corrected: the check restored the block's pre-injection contents.
    uncorrectable: the check flagged the block as beyond repair.
    miscorrected: the check "repaired" the block into a wrong state.
    silent: the flips cancelled in the syndrome, so the check saw a clean
    block and left it corrupted.
    """

    trials: int = 0
    flips_injected: int = 0
    corrected: int = 0
    uncorrectable: int = 0
    miscorrected: int = 0
    silent: int = 0
    blocks_observed: int = 0
    blocks_failed: int = 0

    @property
    def failed_block_frequency(self) -> float:
        return self.blocks_failed / self.blocks_observed if self.blocks_observed else 0.0


def _classify_block(flips: int, restored: bool, diagnosis_kind,
                    report: CampaignReport) -> None:
    report.flips_injected += flips
    if restored:
        report.corrected += flips
    elif diagnosis_kind is DiagnosisKind.UNCORRECTABLE:
        report.uncorrectable += flips
    elif diagnosis_kind is DiagnosisKind.CLEAN:
        report.silent += flips  # cancelled in the syndrome: silent corruption
    else:
        report.miscorrected += flips


def injection_campaign(machine_factory, campaign: FaultCampaign) -> CampaignReport:
    """Inject uniform iid flips, run one full-memory check, classify every flip.

    ``machine_factory`` builds a pristine machine per trial (campaigns must
    not share mutable state across trials). The check reports every block,
    and nothing rewrites a block after a pure check pass, so each block is
    classified by comparing it against its pre-injection contents.
    """
    report = CampaignReport(trials=campaign.trials)

    for trial in range(campaign.trials):
        # per-trial stream keyed by (seed, trial): results do not depend on
        # trial execution order, so campaigns can fan out across workers
        rng = np.random.default_rng((campaign.seed, trial))
        machine = machine_factory()
        geom = machine.geom
        golden = machine.state.cells.copy()
        m, nb = geom.m, geom.blocks_per_side
        # drawn one block row at a time: the same stream as one whole-memory
        # draw, without its n x n float64 temporary
        mask = np.empty(golden.shape, dtype=bool)
        for rows in mask.reshape(nb, m, geom.n):
            np.less(rng.random(rows.shape), campaign.p_bit, out=rows)
        machine.state.cells[mask] ^= 1

        flips_per_block = mask.reshape(nb, m, nb, m).sum(axis=(1, 3))

        summary = machine.full_memory_check()
        diag_by_block = {(r.block_row, r.block_col): r.diagnosis.kind
                         for r in summary.reports}
        report.blocks_observed += len(diag_by_block)
        for br, bc in zip(*np.nonzero(flips_per_block)):
            lo, hi = br * m, (br + 1) * m
            restored = np.array_equal(
                machine.state.cells[lo:hi, bc * m:(bc + 1) * m],
                golden[lo:hi, bc * m:(bc + 1) * m])
            if not restored:
                report.blocks_failed += 1
            _classify_block(int(flips_per_block[br, bc]), restored,
                            diag_by_block[(br, bc)], report)
    return report
