"""Crossbar/block coordinates and wrap-around diagonal index math.

The crossbar is an n x n cell grid tiled by an imaginary grid of m x m
blocks. Within a block, every cell lies on exactly one leading diagonal
(index (i + j) mod m) and one counter diagonal (index (i - j) mod m).
For odd m the pair of diagonal indices identifies a cell uniquely, which
is what the whole ECC scheme rests on.
"""

from dataclasses import dataclass
from enum import Enum


MAX_N = 4_096  # crossbar side; the model allocates n x n cells and their parity


class GeometryError(ValueError):
    """Invalid crossbar/block dimensions or out-of-range coordinates."""


class Bank(Enum):
    """The two diagonal orientations a check-bit can belong to."""

    LEADING = "leading"
    COUNTER = "counter"


@dataclass(frozen=True)
class Geometry:
    """Crossbar side length n and block side length m, with m | n and m odd."""

    n: int
    m: int

    def __post_init__(self):
        if self.m < 3 or not self.m <= self.n <= MAX_N:
            raise GeometryError(
                f"need {MAX_N} >= n >= m >= 3, got n={self.n}, m={self.m}")
        if self.n % self.m != 0:
            raise GeometryError(f"block size {self.m} must divide crossbar size {self.n}")
        if self.m % 2 == 0:
            # even m: wrap-around diagonals intersect in two cells, so the
            # (leading, counter) pair no longer identifies a cell
            raise GeometryError(f"block size must be odd, got {self.m}")

    @property
    def blocks_per_side(self) -> int:
        return self.n // self.m

    def check_cell(self, row: int, col: int) -> None:
        if not (0 <= row < self.n and 0 <= col < self.n):
            raise GeometryError(f"cell ({row},{col}) outside {self.n}x{self.n} crossbar")

    def check_block(self, block_row: int, block_col: int) -> None:
        nb = self.blocks_per_side
        if not (0 <= block_row < nb and 0 <= block_col < nb):
            raise GeometryError(f"block ({block_row},{block_col}) outside the {nb}x{nb} blocks")


@dataclass(frozen=True)
class CellAddr:
    """Absolute cell coordinates in the crossbar."""

    row: int
    col: int


@dataclass(frozen=True)
class BlockCoord:
    """Block indices plus local coordinates within the block."""

    block_row: int
    block_col: int
    local_i: int
    local_j: int


@dataclass(frozen=True)
class DiagIdx:
    """One diagonal of one block: which bank and which index in [0, m)."""

    bank: Bank
    idx: int


def _check_local(i: int, j: int, m: int) -> None:
    if not (0 <= i < m and 0 <= j < m):
        raise GeometryError(f"local coordinates ({i},{j}) outside {m}x{m} block")


def leading_diag(i: int, j: int, m: int) -> int:
    """Leading (bottom-left to top-right) wrap-around diagonal of local cell (i, j)."""
    _check_local(i, j, m)
    return (i + j) % m


def counter_diag(i: int, j: int, m: int) -> int:
    """Counter (bottom-right to top-left) wrap-around diagonal of local cell (i, j)."""
    _check_local(i, j, m)
    return (i - j) % m


def cell_from_diags(d_lead: int, d_counter: int, m: int) -> tuple[int, int]:
    """Invert the diagonal map: the unique local cell lying on both diagonals.

    Solves i + j = d_lead, i - j = d_counter (mod m) using the inverse of 2,
    which exists exactly because m is odd.
    """
    if m % 2 == 0:
        raise GeometryError(f"no unique cell for even block size {m}")
    if not (0 <= d_lead < m and 0 <= d_counter < m):
        raise GeometryError(f"diagonal indices ({d_lead},{d_counter}) outside [0,{m})")
    inv2 = (m + 1) // 2
    i = inv2 * (d_lead + d_counter) % m
    j = inv2 * (d_lead - d_counter) % m
    return i, j


def block_decompose(addr: CellAddr, geom: Geometry) -> BlockCoord:
    """Split an absolute cell address into block indices and local coordinates."""
    geom.check_cell(addr.row, addr.col)
    m = geom.m
    return BlockCoord(addr.row // m, addr.col // m, addr.row % m, addr.col % m)


def diags_of_cell(i: int, j: int, m: int) -> tuple[DiagIdx, DiagIdx]:
    """Both diagonals through local cell (i, j)."""
    return (DiagIdx(Bank.LEADING, leading_diag(i, j, m)),
            DiagIdx(Bank.COUNTER, counter_diag(i, j, m)))
