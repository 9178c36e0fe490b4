"""Diagonal parity codec: encode, incremental update, syndrome, diagnosis.

Each m x m block carries 2m check-bits: one parity bit per leading and per
counter wrap-around diagonal. Because a row/column-parallel op writes at
most one cell per diagonal of any block, parity can be maintained
incrementally with the XOR of old and new data. A single flipped bit
(data or check) leaves a syndrome signature that identifies it uniquely.
"""

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Bank, cell_from_diags, check_block_size, diags_of_cell


class CodecError(ValueError):
    """Misuse of the codec API (size mismatch, bad diagnosis argument)."""


class DiagonalConflictError(RuntimeError):
    """Two updates hit one diagonal in a single parity update.

    The execution model guarantees at most one written cell per (bank,
    diagonal) per op, so this indicates a scheduler bug, not a data error.
    """


_set_field = object.__setattr__  # how the __init__ of a frozen dataclass writes a field


@dataclass(frozen=True, slots=True, init=False)
class BlockParity:
    """Diagonal parity of an m x m block: bit d is the XOR of the bits on
    diagonal d. A block's stored check-bits, or, as a syndrome, the parity
    of its error pattern."""

    leading: tuple[int, ...]
    counter: tuple[int, ...]

    def __init__(self, leading: tuple[int, ...], counter: tuple[int, ...]):
        # written here rather than by a generated __init__ and __post_init__,
        # which look the setter up once per field and validate in a second
        # call: a line check builds one per block
        if len(leading) != len(counter):
            raise CodecError("leading/counter check-bit vectors differ in length")
        _set_field(self, "leading", leading)
        _set_field(self, "counter", counter)

    @property
    def m(self) -> int:
        return len(self.leading)

    def bits(self, bank: Bank) -> tuple[int, ...]:
        return self.leading if bank is Bank.LEADING else self.counter


class DiagnosisKind(Enum):
    CLEAN = "clean"
    DATA_ERROR = "data_error"
    CHECK_BIT_ERROR = "check_bit_error"
    UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class Diagnosis:
    """Decoded syndrome: where the single error sits, if it can be located."""

    kind: DiagnosisKind
    i: int | None = None
    j: int | None = None
    bank: Bank | None = None
    idx: int | None = None


# the two outcomes without a location, shared: a diagnosis is immutable
CLEAN = Diagnosis(DiagnosisKind.CLEAN)
UNCORRECTABLE = Diagnosis(DiagnosisKind.UNCORRECTABLE)


# bound on the temporary of one gather of many blocks, 2 m^2 bytes per block,
# and on a gather index that is kept for reuse, 16 m^2 bytes: a whole-memory
# gather (2 MB at 1020/15) fragments the heap, so that 8 campaign trials whose
# machines are kept end ~6 MB higher with it, and a kept index at m=1023 would
# hold 16 MiB for the life of the process
SWEEP_GATHER_BYTES = 1 << 17


def _build_diag_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index ``(row, column)`` of the diagonals, ``[m, 2, m]`` once
    the row index ``[m, 1, 1]`` broadcasts.

    Entry ``[i, bank, d]`` names the cell of row i on diagonal d: column
    j = (d - i) mod m on leading diagonal d, (i - d) mod m on counter
    diagonal d.
    """
    i = np.arange(m)[:, None]
    d = np.arange(m)[None, :]
    return i[:, None], np.stack([(d - i) % m, (i - d) % m], axis=1)


_cached_diag_index = functools.cache(_build_diag_index)


def _diag_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_build_diag_index`, kept for reuse only while its column index
    fits in :data:`SWEEP_GATHER_BYTES` (m <= 90): at most ~2 MB for every
    such m together, where a larger one is built for each gather."""
    if 16 * m * m <= SWEEP_GATHER_BYTES:
        return _cached_diag_index(m)
    return _build_diag_index(m)


def diag_parity(blocks: np.ndarray) -> np.ndarray:
    """Check-bits ``[..., 2, m]`` of the m x m bit blocks ``[..., m, m]``.

    Entry ``[..., 0, d]`` is the parity of leading diagonal d, ``[..., 1, d]``
    that of counter diagonal d. The one gather of the codec.
    """
    rows, cols = _diag_index(blocks.shape[-1])
    cells = blocks[..., rows, cols]
    return np.bitwise_xor.reduce(cells, axis=-3, dtype=np.uint8)


def encode_block(block) -> BlockParity:
    """Compute the 2m check-bits of one m x m block."""
    block = np.asarray(block)
    m = block.shape[0]
    if block.shape != (m, m):
        raise CodecError(f"block must be square, got {block.shape}")
    check_block_size(m)
    lead, ctr = diag_parity(block).tolist()
    return BlockParity(tuple(lead), tuple(ctr))


def update_parity(parity: BlockParity,
                  cells_old_new: list[tuple[int, int, int, int]]) -> BlockParity:
    """Fold (i, j, old_bit, new_bit) deltas into the stored check-bits.

    The scalar oracle for the array fold of :meth:`Machine.critical_op`.

    Requires at most one updated cell per (bank, diagonal); a violation is a
    scheduler bug and raises :class:`DiagonalConflictError`.
    """
    m = parity.m
    lead = list(parity.leading)
    ctr = list(parity.counter)
    seen_lead: set[int] = set()
    seen_ctr: set[int] = set()
    for i, j, old, new in cells_old_new:
        dl, dc = diags_of_cell(i, j, m)
        if dl in seen_lead or dc in seen_ctr:
            raise DiagonalConflictError(
                f"two updates on one diagonal (cell ({i},{j}), lead {dl}, counter {dc})")
        seen_lead.add(dl)
        seen_ctr.add(dc)
        delta = (old ^ new) & 1
        lead[dl] ^= delta
        ctr[dc] ^= delta
    return BlockParity(tuple(lead), tuple(ctr))


@functools.cache
def zero_syndrome(m: int) -> BlockParity:
    """The all-zero syndrome of an m x m block, shared: it is immutable."""
    return BlockParity((0,) * m, (0,) * m)


def compute_syndrome(fresh: BlockParity, stored: BlockParity) -> BlockParity:
    """XOR of freshly computed and stored parity, the parity of the error;
    equal bits give the shared :func:`zero_syndrome`, which a line check
    tests by identity."""
    # almost every block a check reads is clean: equal bits skip the XOR,
    # and equal bits have equal lengths; a line check passes a clean block's
    # bits as one record, which the identity test passes without comparing
    if fresh is stored or (fresh.leading == stored.leading
                           and fresh.counter == stored.counter):
        return zero_syndrome(len(fresh.leading))
    if fresh.m != stored.m:
        raise CodecError(f"stored parity length {stored.m} != block size {fresh.m}")
    return BlockParity(
        tuple(map(operator.xor, fresh.leading, stored.leading)),
        tuple(map(operator.xor, fresh.counter, stored.counter)),
    )


def decode_syndrome(s: BlockParity) -> Diagnosis:
    """Classify a syndrome; total over all inputs.

    One set bit in each bank names a unique data cell; one set bit in a
    single bank names a flipped stored check-bit. Everything else is beyond
    the single-error guarantee. Note the one blind spot: a simultaneous
    leading-check and counter-check flip is indistinguishable from a single
    data error and will be miscorrected.
    """
    n_lead = sum(s.leading)
    n_ctr = sum(s.counter)
    if n_lead == 0 and n_ctr == 0:
        return CLEAN
    if n_lead == 1 and n_ctr == 1:
        d_lead = s.leading.index(1)
        d_ctr = s.counter.index(1)
        i, j = cell_from_diags(d_lead, d_ctr, s.m)
        return Diagnosis(DiagnosisKind.DATA_ERROR, i=i, j=j)
    if n_lead + n_ctr == 1:
        bank = Bank.LEADING if n_lead else Bank.COUNTER
        return Diagnosis(DiagnosisKind.CHECK_BIT_ERROR, bank=bank, idx=s.bits(bank).index(1))
    return UNCORRECTABLE


def apply_correction(block: np.ndarray, stored: BlockParity,
                     diag: Diagnosis) -> tuple[np.ndarray, BlockParity]:
    """Flip the diagnosed data bit or stored check-bit; returns new copies."""
    if diag.kind is DiagnosisKind.DATA_ERROR:
        fixed = np.array(block, copy=True)
        fixed[diag.i, diag.j] ^= 1
        return fixed, stored
    if diag.kind is DiagnosisKind.CHECK_BIT_ERROR:
        bits = list(stored.bits(diag.bank))
        bits[diag.idx] ^= 1
        if diag.bank is Bank.LEADING:
            return np.array(block, copy=True), BlockParity(tuple(bits), stored.counter)
        return np.array(block, copy=True), BlockParity(stored.leading, tuple(bits))
    raise CodecError(f"nothing to correct for diagnosis kind {diag.kind.value}")
