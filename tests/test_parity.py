"""Codec correctness: encode/update/syndrome/decode/correct.

The re-encode of a modified block is the oracle for incremental updates,
and exhaustive flip enumeration at small m backs the single-error and
double-detection guarantees.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarecc.geometry import Bank, GeometryError, diags_of_cell
from xbarecc.parity import (
    CLEAN,
    UNCORRECTABLE,
    BlockParity,
    CodecError,
    Diagnosis,
    DiagnosisKind,
    DiagonalConflictError,
    apply_correction,
    compute_syndrome,
    decode_syndrome,
    diag_parity,
    encode_block,
    update_parity,
    zero_syndrome,
)


def blocks_3x3():
    for bits in range(512):
        yield np.array([(bits >> k) & 1 for k in range(9)],
                       dtype=np.uint8).reshape(3, 3)


def random_block(rng, m):
    return rng.integers(0, 2, size=(m, m), dtype=np.uint8)


class TestEncode:
    def test_zero_block(self):
        parity = encode_block(np.zeros((3, 3), dtype=np.uint8))
        assert parity == BlockParity((0, 0, 0), (0, 0, 0))

    def test_single_one_at_origin(self):
        block = np.zeros((3, 3), dtype=np.uint8)
        block[0, 0] = 1
        assert encode_block(block) == BlockParity((1, 0, 0), (1, 0, 0))

    def test_all_ones(self):
        # every diagonal of an odd block XORs an odd number of ones
        assert encode_block(np.ones((3, 3), dtype=np.uint8)) == \
            BlockParity((1, 1, 1), (1, 1, 1))

    def test_matches_definition_for_random_blocks(self):
        rng = np.random.default_rng(7)
        for m in (3, 5, 15):
            block = random_block(rng, m)
            parity = encode_block(block)
            for d in range(m):
                lead = ctr = 0
                for i in range(m):
                    for j in range(m):
                        dl, dc = diags_of_cell(i, j, m)
                        if dl == d:
                            lead ^= int(block[i, j])
                        if dc == d:
                            ctr ^= int(block[i, j])
                assert parity.leading[d] == lead
                assert parity.counter[d] == ctr

    @pytest.mark.parametrize("m", [1, 4, 4097])
    def test_impossible_m_rejected(self, m):
        # a block no Geometry can hold; a broadcast view allocates no cells
        with pytest.raises(GeometryError, match=f"block size must be odd .* got {m}"):
            encode_block(np.broadcast_to(np.uint8(0), (m, m)))

    def test_non_square_rejected(self):
        with pytest.raises(CodecError):
            encode_block(np.zeros((3, 5), dtype=np.uint8))


def loop_parity(block) -> BlockParity:
    """Pure-Python oracle: XOR every cell into its two diagonals."""
    m = len(block)
    lead, ctr = [0] * m, [0] * m
    for i in range(m):
        for j in range(m):
            bit = int(block[i][j])
            dl, dc = diags_of_cell(i, j, m)
            lead[dl] ^= bit
            ctr[dc] ^= bit
    return BlockParity(tuple(lead), tuple(ctr))


class TestCodecAgainstLoop:
    """``diag_parity`` and ``encode_block`` against :func:`loop_parity`."""

    DTYPES = [np.uint8, np.bool_, np.int64]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", [3, 5, 15])
    def test_one_block(self, m, dtype):
        rng = np.random.default_rng(m)
        for _ in range(4):
            block = random_block(rng, m).astype(dtype)
            expect = loop_parity(block)
            assert encode_block(block) == expect
            lead, ctr = diag_parity(block).tolist()
            assert (tuple(lead), tuple(ctr)) == (expect.leading, expect.counter)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", [1, 3, 5, 15])
    def test_stack_of_blocks(self, m, dtype):
        blocks = np.random.default_rng(100 + m).integers(
            0, 2, size=(2, 3, m, m)).astype(dtype)
        sums = diag_parity(blocks)
        assert sums.shape == (2, 3, 2, m)
        for a, b in itertools.product(range(2), range(3)):
            expect = loop_parity(blocks[a, b])
            assert tuple(sums[a, b, 0].tolist()) == expect.leading
            assert tuple(sums[a, b, 1].tolist()) == expect.counter

    def test_a_large_block_leaves_no_gather_index_behind(self):
        # the gather index of m=1023 takes 16 MiB; one that size is built per
        # call, not kept for the life of the process
        block = np.random.default_rng(1023).integers(0, 2, (1023, 1023), dtype=np.uint8)
        tracemalloc.start()
        try:
            lead, ctr = diag_parity(block).tolist()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        i = np.arange(1023)
        for d in (0, 1, 511, 1022):  # the cells of row i on diagonal d, as diags_of_cell names them
            assert lead[d] == np.bitwise_xor.reduce(block[i, (d - i) % 1023])
            assert ctr[d] == np.bitwise_xor.reduce(block[i, (i - d) % 1023])

    def test_sums_past_255_keep_their_parity(self):
        # each diagonal of an all-ones 257 x 257 block sums to 257
        block = np.ones((257, 257), dtype=np.uint8)
        assert encode_block(block) == loop_parity(block) == \
            BlockParity((1,) * 257, (1,) * 257)


class TestSyndromeAgainstLoop:
    """``compute_syndrome`` against :func:`loop_parity` XOR the stored bits,
    on contiguous blocks and on strided views of a larger array."""

    DTYPES = [np.uint8, np.bool_, np.int64]

    @staticmethod
    def views(big, m):
        yield np.ascontiguousarray(big[:m, :m])
        yield big[1:m + 1, 2:m + 2]            # rows a whole big row apart
        yield big[::3, ::4][:m, :m]            # neither axis unit-stride
        yield big.T[:m, :m]                    # transposed
        yield big[m - 1::-1, :m]               # rows walked backwards

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", [3, 5, 15])
    def test_contiguous_and_strided_blocks(self, m, dtype):
        rng = np.random.default_rng(300 + m)
        big = rng.integers(0, 2, size=(3 * m + 1, 4 * m + 2)).astype(dtype)
        for block in self.views(big, m):
            assert block.shape == (m, m)
            lead, ctr = rng.integers(0, 2, size=(2, m)).tolist()
            stored = BlockParity(tuple(lead), tuple(ctr))
            fresh = loop_parity(block)
            assert compute_syndrome(encode_block(block), stored) == BlockParity(
                tuple(a ^ b for a, b in zip(fresh.leading, stored.leading)),
                tuple(a ^ b for a, b in zip(fresh.counter, stored.counter)))
            assert compute_syndrome(encode_block(block), fresh) == zero_syndrome(m)

    def test_error_paths_keep_their_types_and_order(self):
        three = BlockParity((0,) * 3, (0,) * 3)
        # a block is checked where it is encoded, before any syndrome: a
        # non-square block, then an even block size
        with pytest.raises(CodecError, match="must be square"):
            encode_block(np.zeros((3, 5), dtype=np.uint8))
        with pytest.raises(GeometryError, match="must be odd"):
            encode_block(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(CodecError, match="stored parity length 3 != block size 5"):
            compute_syndrome(encode_block(np.zeros((5, 5), dtype=np.uint8)), three)
        with pytest.raises(CodecError, match="stored parity length 5 != block size 3"):
            compute_syndrome(three, BlockParity((0,) * 5, (0,) * 5))


class TestUpdateParity:
    def test_no_change_is_identity(self):
        parity = BlockParity((1, 0, 1), (0, 1, 0))
        # (1,2) and (1,0) sit on distinct diagonals in both banks
        assert update_parity(parity, [(1, 2, 1, 1), (1, 0, 0, 0)]) == parity

    def test_flip_equals_reencode_exhaustive_3x3(self):
        for block in blocks_3x3():
            parity = encode_block(block)
            for i in range(3):
                for j in range(3):
                    corrupted = block.copy()
                    corrupted[i, j] ^= 1
                    updated = update_parity(
                        parity, [(i, j, int(block[i, j]), int(corrupted[i, j]))])
                    assert updated == encode_block(corrupted)

    def test_batch_row_update_matches_reencode(self):
        # one written cell per block: a row-parallel op touching three blocks
        rng = np.random.default_rng(13)
        m = 5
        blocks = [random_block(rng, m) for _ in range(3)]
        for local_j in range(m):
            for k, block in enumerate(blocks):
                old = encode_block(block)
                i = (k * 2) % m
                new_bit = int(block[i, local_j]) ^ 1
                updated = update_parity(old, [(i, local_j, int(block[i, local_j]), new_bit)])
                mutated = block.copy()
                mutated[i, local_j] = new_bit
                assert updated == encode_block(mutated)

    def test_same_diagonal_conflict_detected(self):
        parity = BlockParity((0, 0, 0), (0, 0, 0))
        # (0,0) and (1,2) share leading diagonal 0 for m=3
        with pytest.raises(DiagonalConflictError):
            update_parity(parity, [(0, 0, 0, 1), (1, 2, 0, 1)])


class TestSyndrome:
    def test_clean_block_zero_syndrome(self):
        rng = np.random.default_rng(3)
        for m in (3, 5, 15):
            block = random_block(rng, m)
            assert compute_syndrome(encode_block(block), encode_block(block)) == zero_syndrome(m)

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15])
    def test_single_flip_sets_exactly_its_diagonals(self, m):
        rng = np.random.default_rng(m)
        block = random_block(rng, m)
        stored = encode_block(block)
        for i in range(m):
            for j in range(m):
                corrupted = block.copy()
                corrupted[i, j] ^= 1
                syn = compute_syndrome(encode_block(corrupted), stored)
                assert sum(syn.leading) == 1 and sum(syn.counter) == 1
                dl, dc = diags_of_cell(i, j, m)
                assert syn.leading[dl] == 1
                assert syn.counter[dc] == 1

    @pytest.mark.parametrize("m", [3, 5, 15])
    def test_a_syndrome_is_the_parity_of_the_error(self, m):
        rng = np.random.default_rng(40 + m)
        for _ in range(20):
            block, error = random_block(rng, m), random_block(rng, m)
            syn = compute_syndrome(encode_block(block ^ error), encode_block(block))
            assert syn == encode_block(error)

    def test_stored_check_bit_flip(self):
        block = np.zeros((3, 3), dtype=np.uint8)
        stored = encode_block(block)
        bad = BlockParity((stored.leading[0] ^ 1,) + stored.leading[1:],
                          stored.counter)
        syn = compute_syndrome(encode_block(block), bad)
        assert syn.leading == (1, 0, 0) and syn.counter == (0, 0, 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(CodecError):
            compute_syndrome(encode_block(np.zeros((3, 3), dtype=np.uint8)),
                             BlockParity((0,) * 5, (0,) * 5))


class TestDecode:
    def test_zero_is_clean(self):
        assert decode_syndrome(BlockParity((0, 0, 0), (0, 0, 0))) is CLEAN
        assert CLEAN.kind is DiagnosisKind.CLEAN

    def test_data_error_example(self):
        diag = decode_syndrome(BlockParity((0, 1, 0), (0, 0, 1)))
        assert diag == Diagnosis(DiagnosisKind.DATA_ERROR, i=0, j=1)

    def test_check_bit_errors(self):
        assert decode_syndrome(BlockParity((0, 0, 1), (0, 0, 0))) == \
            Diagnosis(DiagnosisKind.CHECK_BIT_ERROR, bank=Bank.LEADING, idx=2)
        assert decode_syndrome(BlockParity((0, 0, 0), (1, 0, 0))) == \
            Diagnosis(DiagnosisKind.CHECK_BIT_ERROR, bank=Bank.COUNTER, idx=0)

    @pytest.mark.parametrize("syndrome", [
        ((1, 1, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 1)), ((1, 0, 0), (1, 1, 0)),
        ((1, 1, 1), (1, 1, 1))])
    def test_every_unlocated_error_is_the_shared_uncorrectable_diagnosis(self, syndrome):
        assert decode_syndrome(BlockParity(*syndrome)) is UNCORRECTABLE
        assert UNCORRECTABLE.kind is DiagnosisKind.UNCORRECTABLE

    def test_double_flip_on_shared_leading_diagonal(self):
        # (0,0) and (1,2) lie on leading diagonal 0: it cancels, counter keeps both
        block = np.zeros((3, 3), dtype=np.uint8)
        stored = encode_block(block)
        block[0, 0] ^= 1
        block[1, 2] ^= 1
        syn = compute_syndrome(encode_block(block), stored)
        assert sum(syn.leading) == 0 and sum(syn.counter) == 2
        assert decode_syndrome(syn) is UNCORRECTABLE

    def test_double_flips_never_clean_m3(self):
        # criterion: exhaustive data double-flip enumeration, never silent
        cells = list(itertools.product(range(3), range(3)))
        base = np.zeros((3, 3), dtype=np.uint8)
        stored = encode_block(base)
        for (i1, j1), (i2, j2) in itertools.combinations(cells, 2):
            block = base.copy()
            block[i1, j1] ^= 1
            block[i2, j2] ^= 1
            diag = decode_syndrome(compute_syndrome(encode_block(block), stored))
            assert diag.kind is not DiagnosisKind.CLEAN


class TestApplyCorrection:
    @pytest.mark.parametrize("m", [3, 5])
    def test_every_data_flip_corrected(self, m):
        rng = np.random.default_rng(11)
        for _ in range(25):
            block = random_block(rng, m)
            stored = encode_block(block)
            for i in range(m):
                for j in range(m):
                    bad = block.copy()
                    bad[i, j] ^= 1
                    diag = decode_syndrome(compute_syndrome(encode_block(bad), stored))
                    assert diag == Diagnosis(DiagnosisKind.DATA_ERROR, i=i, j=j)
                    fixed, stored2 = apply_correction(bad, stored, diag)
                    assert np.array_equal(fixed, block)
                    assert compute_syndrome(encode_block(fixed), stored2) == zero_syndrome(m)

    def test_every_check_bit_flip_corrected_m3(self):
        rng = np.random.default_rng(17)
        block = random_block(rng, 3)
        stored = encode_block(block)
        for bank in Bank:
            for idx in range(3):
                bits = list(stored.bits(bank))
                bits[idx] ^= 1
                bad = (BlockParity(tuple(bits), stored.counter) if bank is Bank.LEADING
                       else BlockParity(stored.leading, tuple(bits)))
                diag = decode_syndrome(compute_syndrome(encode_block(block), bad))
                assert diag == Diagnosis(DiagnosisKind.CHECK_BIT_ERROR, bank=bank, idx=idx)
                fixed, repaired = apply_correction(block, bad, diag)
                assert repaired == stored
                assert compute_syndrome(encode_block(fixed), repaired) == zero_syndrome(3)

    def test_randomized_single_flip_m15(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            block = random_block(rng, 15)
            stored = encode_block(block)
            i, j = rng.integers(0, 15, size=2)
            bad = block.copy()
            bad[i, j] ^= 1
            diag = decode_syndrome(compute_syndrome(encode_block(bad), stored))
            fixed, stored2 = apply_correction(bad, stored, diag)
            assert np.array_equal(fixed, block)

    def test_clean_input_rejected(self):
        block = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(CodecError):
            apply_correction(block, encode_block(block), CLEAN)
        with pytest.raises(CodecError):
            apply_correction(block, encode_block(block), UNCORRECTABLE)

    def test_known_blind_spot_miscorrects(self):
        # a leading-check flip plus a counter-check flip masquerades as a
        # single data error; the "correction" zeroes the syndrome but damages
        # the data. This is the documented limit of the code.
        block = np.zeros((3, 3), dtype=np.uint8)
        stored = encode_block(block)
        bad = BlockParity((1, 0, 0), (0, 1, 0))
        diag = decode_syndrome(compute_syndrome(encode_block(block), bad))
        assert diag.kind is DiagnosisKind.DATA_ERROR
        fixed, stored2 = apply_correction(block, bad, diag)
        assert compute_syndrome(encode_block(fixed), stored2) == zero_syndrome(3)
        assert not np.array_equal(fixed, block)


@given(st.integers(0, 2**225 - 1), st.sampled_from([3, 5, 15]))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(bits, m):
    block = np.array([(bits >> k) & 1 for k in range(m * m)],
                     dtype=np.uint8).reshape(m, m)
    assert compute_syndrome(encode_block(block), encode_block(block)) == zero_syndrome(m)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_incremental_update_equivalence_property(data):
    m = data.draw(st.sampled_from([3, 5, 7]))
    bits = data.draw(st.integers(0, 2**(m * m) - 1))
    block = np.array([(bits >> k) & 1 for k in range(m * m)],
                     dtype=np.uint8).reshape(m, m)
    # one delta per local row in one column: distinct diagonals by construction
    col = data.draw(st.integers(0, m - 1))
    rows = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
    deltas = []
    mutated = block.copy()
    for i in sorted(rows):
        new_bit = data.draw(st.integers(0, 1))
        deltas.append((i, col, int(block[i, col]), new_bit))
        mutated[i, col] = new_bit
    assert update_parity(encode_block(block), deltas) == encode_block(mutated)


@st.composite
def stored_bits(draw):
    """A block and stored check-bits: its own, or with one or two stored bits
    flipped in either bank, or its own before one data-bit flipped."""
    m = draw(st.sampled_from([3, 5, 7, 15]))
    bits = draw(st.integers(0, 2**(m * m) - 1))
    block = np.array([(bits >> k) & 1 for k in range(m * m)],
                     dtype=np.uint8).reshape(m, m)
    fresh = loop_parity(block)
    banks = [list(fresh.leading), list(fresh.counter)]
    fault = draw(st.sampled_from(["none", "check", "data"]))
    if fault == "check":
        for bank, d in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, m - 1)),
                                     min_size=1, max_size=2, unique=True)):
            banks[bank][d] ^= 1
    elif fault == "data":
        block[draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))] ^= 1
    return block, BlockParity(tuple(banks[0]), tuple(banks[1]))


@given(stored_bits())
@settings(max_examples=200, deadline=None)
def test_syndrome_is_the_per_bit_xor_of_fresh_and_stored_bits(case):
    block, stored = case
    fresh = loop_parity(block)
    syn = compute_syndrome(encode_block(block), stored)
    assert syn == BlockParity(tuple(a ^ b for a, b in zip(fresh.leading, stored.leading)),
                              tuple(a ^ b for a, b in zip(fresh.counter, stored.counter)))
    assert (syn == zero_syndrome(syn.m)) == (fresh == stored)
