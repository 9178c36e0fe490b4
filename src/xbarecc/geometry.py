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


def check_block_size(m: int) -> None:
    """Reject a block side the code cannot use: m must be odd and in [3, MAX_N]."""
    if m % 2 == 0 or not 3 <= m <= MAX_N:
        # even m: wrap-around diagonals intersect in two cells, so the
        # (leading, counter) pair no longer identifies a cell
        raise GeometryError(f"block size must be odd and in [3, {MAX_N}], got {m}")


@dataclass(frozen=True)
class Geometry:
    """Crossbar side length n and block side length m, with m | n and m odd."""

    n: int
    m: int

    def __post_init__(self):
        check_block_size(self.m)
        if not self.m <= self.n <= MAX_N:
            raise GeometryError(f"crossbar size must be in [{self.m}, {MAX_N}], got {self.n}")
        if self.n % self.m != 0:
            raise GeometryError(f"block size {self.m} must divide crossbar size {self.n}")

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


def diags_of_cell(i: int, j: int, m: int) -> tuple[int, int]:
    """The (leading, counter) diagonals of local cell (i, j); inverts cell_from_diags."""
    if not (0 <= i < m and 0 <= j < m):
        raise GeometryError(f"local coordinates ({i},{j}) outside {m}x{m} block")
    return (i + j) % m, (i - j) % m


def cell_from_diags(d_lead: int, d_counter: int, m: int) -> tuple[int, int]:
    """Invert the diagonal map: the unique local cell lying on both diagonals.

    Solves i + j = d_lead, i - j = d_counter (mod m) using the inverse of 2,
    which exists exactly because m is odd.
    """
    check_block_size(m)
    if not (0 <= d_lead < m and 0 <= d_counter < m):
        raise GeometryError(f"diagonal indices ({d_lead},{d_counter}) outside [0,{m})")
    inv2 = (m + 1) // 2
    i = inv2 * (d_lead + d_counter) % m
    j = inv2 * (d_lead - d_counter) % m
    return i, j


def block_decompose(row: int, col: int, geom: Geometry) -> tuple[int, int, int, int]:
    """Split an absolute cell address into (block_row, block_col, i, j)."""
    geom.check_cell(row, col)
    m = geom.m
    return row // m, col // m, row % m, col % m
