"""The records of a run: the schedule's ops, actions and events, as built,
replaced and read back, and the codec's check-bits, syndromes and reports."""

import dataclasses
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarecc import events
from xbarecc.checkmem import BlockReport
from xbarecc.events import Event
from xbarecc.engine import MicroOp, MicroOpError, OpKind, Orientation, init_op, nor_op
from xbarecc.geometry import Bank
from xbarecc.parity import BlockParity, CodecError, Diagnosis, DiagnosisKind
from xbarecc.scheduler import Action, ActionKind


class TestMicroOp:
    @pytest.mark.parametrize("mask, lanes, index", [
        ({4}, (4,), 4),
        ({5, 3, 4}, (3, 4, 5), slice(3, 6)),
        ({9, 2, 5}, (2, 5, 9), [2, 5, 9]),
    ])
    def test_replacing_the_lane_mask_recomputes_its_lane_set(self, mask, lanes, index):
        op = replace(nor_op(Orientation.ROW, (0, 1), 7, {8}), lane_mask=frozenset(mask))
        assert op == nor_op(Orientation.ROW, (0, 1), 7, mask)
        assert op.lane_set.lanes == lanes
        assert op.lane_set.text == ",".join(map(str, lanes))
        if isinstance(index, list):
            assert op.lane_set.index.tolist() == index
            assert not op.lane_set.index.flags.writeable  # shared by every op on the set
        else:
            assert op.lane_set.index == index

    def test_replace_validates_like_the_constructor(self):
        op = nor_op(Orientation.COLUMN, (0, 1), 7, {8})
        with pytest.raises(MicroOpError, match="also listed as input"):
            replace(op, output_line=1)
        with pytest.raises(MicroOpError, match="empty lane mask"):
            replace(op, lane_mask=frozenset())
        with pytest.raises(MicroOpError, match="NOR needs 1 to 2 input lines"):
            replace(op, input_lines=())
        assert replace(op, input_lines=(2,)) == nor_op(Orientation.COLUMN, (2,), 7, {8})

    def test_frozen_and_compared_by_its_fields(self):
        op = init_op(Orientation.ROW, 3, {1, 2})
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.output_line = 4
        assert op == MicroOp(OpKind.INIT, Orientation.ROW, (), 3, frozenset({2, 1}))
        assert hash(op) == hash(init_op(Orientation.ROW, 3, [2, 1]))
        assert op != init_op(Orientation.ROW, 3, {1})
        assert [f.name for f in dataclasses.fields(op) if f.init] == [
            "kind", "orientation", "input_lines", "output_line", "lane_mask"]


class TestAction:
    def test_replace_keeps_the_other_fields(self):
        op = nor_op(Orientation.ROW, (0, 1), 7, {0})
        action = Action(ActionKind.OP, op=op, critical=True)
        wide = replace(action, op=replace(op, lane_mask=frozenset(range(9))))
        assert (wide.kind, wide.critical, wide.op.lane_set.lanes) == (
            ActionKind.OP, True, tuple(range(9)))
        check = Action(ActionKind.CHECK_ROW, index=0, orientation=Orientation.COLUMN)
        assert replace(check, index=4) == Action(ActionKind.CHECK_ROW, index=4,
                                                 orientation=Orientation.COLUMN)
        reset = Action(ActionKind.BLOCK_RESET, block=(0, 2))
        assert replace(reset, block=(3, 2)).block == (3, 2)
        assert (reset.op, reset.critical, reset.index, reset.orientation) == (
            None, False, 0, Orientation.ROW)

    def test_frozen(self):
        action = Action(ActionKind.CHECK_ROW)
        with pytest.raises(dataclasses.FrozenInstanceError):
            action.index = 1
        assert action == Action(ActionKind.CHECK_ROW) != Action(ActionKind.CHECK_ROW, index=1)


# records of actions the machine does not log, which keep their text:
# tab-free unit and action names, and operands of space-separated tokens,
# none of them a "cycles=" count
_NAME = st.text("ABCKMPSX:abcdegiklmnoprstuvwxyz_0123456789", min_size=1, max_size=12)
_LOGGED = set(events._TEXT)  # the actions the machine logs
_TOKEN = _NAME.filter(lambda tok: not tok.startswith("cycles=")) | st.sampled_from(
    ["line=3", "pc=0", "cells=C0@1,0;L0@1,0", "kind=nor", "lanes=0,1,2", "in=-"])


class TestEvent:
    @settings(max_examples=200, deadline=None)
    @given(cycle=st.integers(0, 10**9), unit=_NAME,
           action=_NAME.filter(lambda name: name not in _LOGGED),
           operands=st.lists(_TOKEN, max_size=5).map(" ".join),
           span=st.integers(1, 1_000))
    def test_a_line_reads_back_into_an_equal_event(self, cycle, unit, action, operands, span):
        event = Event(cycle, unit, action, operands, span)
        back = Event.from_line(event.to_line())
        assert back == event
        assert (back.end, back.to_line()) == (cycle + span, event.to_line())

    def test_defaults_and_fields(self):
        event = Event(3, "MEM", "op")
        assert (event.operands, event.span, event.end) == ("", 1, 4)
        assert event.to_line() == "3\tMEM\top\t"
        assert Event(3, "MEM", "op", "", 2).to_line() == "3\tMEM\top\tcycles=2"
        assert event != Event(3, "MEM", "op", "", 2)
        with pytest.raises(AttributeError):
            event.cycle = 4

    @pytest.mark.parametrize("line", ["", "3\tMEM", "x\tMEM\top", "3\tMEM\tmark",
                                      "03\tMEM\tmark\t", "3\tMEM\tmark\tx cycles=1",
                                      "3\tMEM\txor3\tline=03", "3\tMEM\txor3\tline=3 pc=0",
                                      "3\tMEM\tcheck_row\tindex=0 orient=diagonal",
                                      "3\tPC0\tload_check\tcells=C0@0,0;L0@0,0",
                                      "3\tMEM\top\tkind=init orient=row out=1 in=- "
                                      "lanes=1,0 critical=0"])
    def test_a_bad_line_is_rejected(self, line):
        # a line that reads into no record, or into one whose text differs
        with pytest.raises(ValueError):
            Event.from_line(line)


def test_records_of_one_lane_set_share_its_entry():
    ops = [nor_op(Orientation.ROW, (0, 1), out, frozenset(range(0, 40, 3))) for out in (2, 5)]
    assert ops[0].lane_set is ops[1].lane_set


class TestCodecRecords:
    RECORDS = [
        BlockParity((1, 0, 1), (0, 1, 1)),
        BlockReport(Diagnosis(DiagnosisKind.CHECK_BIT_ERROR, bank=Bank.COUNTER, idx=1)),
    ]

    def test_equality_is_class_aware(self):
        assert BlockParity((0, 1, 0), (1, 0, 0)) != ((0, 1, 0), (1, 0, 0))
        assert BlockParity((0, 1, 0), (1, 0, 0)) == BlockParity((0, 1, 0), (1, 0, 0))

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_frozen_slotted_and_hashed_by_value(self, record):
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        assert not hasattr(record, "__dict__")
        twin = replace(record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        assert pickle.loads(pickle.dumps(record)) == record

    def test_block_parity_rejects_unequal_lengths_on_replace(self):
        parity = BlockParity((1, 0, 1), (0, 1, 1))
        with pytest.raises(CodecError, match="differ in length"):
            replace(parity, counter=(0, 1))
        with pytest.raises(CodecError, match="differ in length"):
            BlockParity((1,), ())
        assert replace(parity, counter=(1, 1, 1)).counter == (1, 1, 1)
