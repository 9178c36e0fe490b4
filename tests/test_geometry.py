"""Diagonal index math: definitions, inversion, and the odd-m bijection."""

import itertools

import pytest

from xbarecc.geometry import (
    Bank,
    BlockCoord,
    CellAddr,
    Geometry,
    GeometryError,
    block_decompose,
    cell_from_diags,
    counter_diag,
    diags_of_cell,
    leading_diag,
)


def brute_force_cell(d_lead, d_counter, m):
    """Independent oracle: scan all m*m cells for the matching pair."""
    hits = [(i, j) for i in range(m) for j in range(m)
            if leading_diag(i, j, m) == d_lead and counter_diag(i, j, m) == d_counter]
    assert len(hits) == 1
    return hits[0]


class TestDiagIndices:
    def test_leading_examples(self):
        assert leading_diag(0, 0, 3) == 0
        assert leading_diag(2, 4, 5) == 1
        assert leading_diag(14, 14, 15) == 13

    def test_counter_examples(self):
        assert counter_diag(0, 0, 3) == 0
        assert counter_diag(0, 1, 3) == 2
        assert counter_diag(2, 4, 5) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            leading_diag(3, 0, 3)
        with pytest.raises(GeometryError):
            counter_diag(0, -1, 3)

    def test_diags_of_cell_pairs_both_banks(self):
        lead, ctr = diags_of_cell(2, 4, 5)
        assert (lead.bank, lead.idx) == (Bank.LEADING, 1)
        assert (ctr.bank, ctr.idx) == (Bank.COUNTER, 3)


class TestCellFromDiags:
    def test_zero_case(self):
        for m in (3, 5, 15):
            assert cell_from_diags(0, 0, m) == (0, 0)

    def test_small_case_matches_brute_force(self):
        assert brute_force_cell(1, 2, 3) == (0, 1)
        assert cell_from_diags(1, 2, 3) == (0, 1)

    def test_round_trip_m15(self):
        m = 15
        for i in range(m):
            for j in range(m):
                dl, dc = leading_diag(i, j, m), counter_diag(i, j, m)
                assert cell_from_diags(dl, dc, m) == (i, j)

    def test_even_m_rejected(self):
        with pytest.raises(GeometryError):
            cell_from_diags(0, 0, 4)

    def test_bad_indices_rejected(self):
        with pytest.raises(GeometryError):
            cell_from_diags(3, 0, 3)


class TestBijectionProperties:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15])
    def test_diag_pair_is_bijection_for_odd_m(self, m):
        pairs = {(leading_diag(i, j, m), counter_diag(i, j, m))
                 for i in range(m) for j in range(m)}
        assert len(pairs) == m * m

    @pytest.mark.parametrize("m", [4, 6])
    def test_even_m_has_colliding_cells(self, m):
        seen = {}
        collision = False
        for i in range(m):
            for j in range(m):
                key = ((i + j) % m, (i - j) % m)
                if key in seen:
                    collision = True
                seen[key] = (i, j)
        assert collision

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_two_cells_share_at_most_one_diagonal(self, m):
        cells = list(itertools.product(range(m), range(m)))
        for (i1, j1), (i2, j2) in itertools.combinations(cells, 2):
            shared = int(leading_diag(i1, j1, m) == leading_diag(i2, j2, m))
            shared += int(counter_diag(i1, j1, m) == counter_diag(i2, j2, m))
            assert shared <= 1


class TestGeometryAndDecompose:
    def test_geometry_validation(self):
        Geometry(1020, 15)
        with pytest.raises(GeometryError):
            Geometry(10, 3)  # 3 does not divide 10
        with pytest.raises(GeometryError):
            Geometry(16, 4)  # even m
        with pytest.raises(GeometryError):
            Geometry(3, 1020)  # n < m

    def test_decompose_examples(self):
        geom = Geometry(1020, 15)
        assert block_decompose(CellAddr(0, 0), geom) == BlockCoord(0, 0, 0, 0)
        assert block_decompose(CellAddr(17, 31), geom) == BlockCoord(1, 2, 2, 1)
        assert block_decompose(CellAddr(1019, 1019), geom) == BlockCoord(67, 67, 14, 14)

    def test_decompose_round_trip(self):
        geom = Geometry(45, 9)
        for row, col in [(0, 0), (14, 44), (44, 44), (22, 7)]:
            bc = block_decompose(CellAddr(row, col), geom)
            assert CellAddr(bc.block_row * geom.m + bc.local_i,
                            bc.block_col * geom.m + bc.local_j) == CellAddr(row, col)

    def test_decompose_out_of_range(self):
        geom = Geometry(9, 3)
        with pytest.raises(GeometryError):
            block_decompose(CellAddr(9, 0), geom)
