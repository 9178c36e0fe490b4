"""Crossbar processing-in-memory with diagonal-parity ECC.

Functional + cycle-accounted model of a MAGIC NOR/NOT crossbar extended
with per-block diagonal parity: codec, check-memory architecture and
protocols, netlist compiler with ECC-aware scheduling, fault injection,
and closed-form reliability analytics.
"""

__version__ = "0.1.0"

from .geometry import (
    Bank,
    BlockCoord,
    CellAddr,
    DiagIdx,
    Geometry,
    GeometryError,
    block_decompose,
    cell_from_diags,
    counter_diag,
    leading_diag,
)
from .engine import (
    CrossbarState,
    EngineConfig,
    MicroOp,
    MicroOpError,
    OpKind,
    Orientation,
    UninitializedOutputError,
    execute,
    init_op,
    nor_op,
)
from .parity import (
    BlockParity,
    CodecError,
    Diagnosis,
    DiagnosisKind,
    DiagonalConflictError,
    Syndrome,
    apply_correction,
    compute_syndrome,
    decode_syndrome,
    encode_block,
    update_parity,
)
from .checkmem import (
    CheckMem,
    CheckSummary,
    DeviceCounts,
    Event,
    Machine,
    TimingModel,
    UnitTimeline,
    check_chain_cycles,
    device_counts,
    touched_check_cells,
    xor3_tree_levels,
)
from .netlist import Gate, Netlist, NetlistError, load_netlist, parse_netlist
from .scheduler import (
    EccSchedule,
    RowCapacityError,
    RowProgram,
    ScheduleStats,
    execute_schedule,
    geometric_mean_ratio,
    insert_ecc,
    map_to_row,
    min_pc_pairs,
    report,
)
from .reliability import (
    CampaignReport,
    FaultCampaign,
    MonteCarloEstimate,
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
