"""Diagonal index math: definitions, inversion, and the odd-m bijection."""

import itertools

import pytest

from xbarecc.geometry import (
    Geometry,
    GeometryError,
    block_decompose,
    cell_from_diags,
    diags_of_cell,
)


def brute_force_cell(d_lead, d_counter, m):
    """Independent oracle: scan all m*m cells for the matching pair."""
    hits = [(i, j) for i in range(m) for j in range(m)
            if diags_of_cell(i, j, m) == (d_lead, d_counter)]
    assert len(hits) == 1
    return hits[0]


class TestDiagIndices:
    def test_leading_examples(self):
        assert diags_of_cell(0, 0, 3)[0] == 0
        assert diags_of_cell(2, 4, 5)[0] == 1
        assert diags_of_cell(14, 14, 15)[0] == 13

    def test_counter_examples(self):
        assert diags_of_cell(0, 0, 3)[1] == 0
        assert diags_of_cell(0, 1, 3)[1] == 2
        assert diags_of_cell(2, 4, 5)[1] == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            diags_of_cell(3, 0, 3)
        with pytest.raises(GeometryError):
            diags_of_cell(0, -1, 3)

    def test_diags_of_cell_pairs_both_banks(self):
        # leading first, then counter
        assert diags_of_cell(2, 4, 5) == (1, 3)


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
                assert cell_from_diags(*diags_of_cell(i, j, m), m) == (i, j)

    @pytest.mark.parametrize("m", [3, 5, 15])
    def test_diags_of_cell_inverts_cell_from_diags(self, m):
        for d_lead in range(m):
            for d_counter in range(m):
                assert diags_of_cell(*cell_from_diags(d_lead, d_counter, m), m) == \
                    (d_lead, d_counter)

    @pytest.mark.parametrize("m", [1, 4, 4097])
    def test_impossible_m_rejected(self, m):
        with pytest.raises(GeometryError, match=f"block size must be odd .* got {m}"):
            cell_from_diags(0, 0, m)

    def test_bad_indices_rejected(self):
        with pytest.raises(GeometryError):
            cell_from_diags(3, 0, 3)


class TestBijectionProperties:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15])
    def test_diag_pair_is_bijection_for_odd_m(self, m):
        pairs = {diags_of_cell(i, j, m) for i in range(m) for j in range(m)}
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
            shared = sum(a == b for a, b in zip(diags_of_cell(i1, j1, m),
                                                diags_of_cell(i2, j2, m)))
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

    @pytest.mark.parametrize("n, m, message", [
        (30, 1, "block size must be odd and in [3, 4096], got 1"),
        (16, 4, "block size must be odd and in [3, 4096], got 4"),
        (4097, 4097, "block size must be odd and in [3, 4096], got 4097"),
        (5000, 15, "crossbar size must be in [15, 4096], got 5000"),
        (3, 5, "crossbar size must be in [5, 4096], got 3"),
        (10, 3, "block size 3 must divide crossbar size 10"),
    ])
    def test_each_message_names_the_value_at_fault(self, n, m, message):
        # the block size is checked first, alone, so a bad m never names n
        with pytest.raises(GeometryError) as exc:
            Geometry(n, m)
        assert str(exc.value) == message

    def test_decompose_examples(self):
        geom = Geometry(1020, 15)
        assert block_decompose(0, 0, geom) == (0, 0, 0, 0)
        assert block_decompose(17, 31, geom) == (1, 2, 2, 1)
        assert block_decompose(1019, 1019, geom) == (67, 67, 14, 14)

    def test_decompose_round_trip(self):
        geom = Geometry(45, 9)
        for row, col in [(0, 0), (14, 44), (44, 44), (22, 7)]:
            block_row, block_col, i, j = block_decompose(row, col, geom)
            assert (block_row * geom.m + i, block_col * geom.m + j) == (row, col)

    def test_decompose_out_of_range(self):
        geom = Geometry(9, 3)
        with pytest.raises(GeometryError):
            block_decompose(9, 0, geom)
