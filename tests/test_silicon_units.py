"""Functional-unit mapping and shared logic blocks."""

import pytest

from repro.silicon.units import (
    ALL_OPS,
    FunctionalUnit,
    LogicBlock,
    Op,
    OP_LOGIC_BLOCKS,
    OP_UNIT,
    UNIT_OPS,
    ops_touching,
    unit_of,
)


class TestOpUnitMapping:
    def test_every_op_has_a_unit(self):
        assert set(OP_UNIT) == set(ALL_OPS)

    def test_every_op_has_logic_blocks_entry(self):
        assert set(OP_LOGIC_BLOCKS) == set(ALL_OPS)

    def test_every_unit_has_at_least_one_op(self):
        for unit in FunctionalUnit:
            assert UNIT_OPS[unit], f"{unit} has no operations"

    def test_unit_of_known_ops(self):
        assert unit_of(Op.ADD) is FunctionalUnit.ALU
        assert unit_of(Op.MUL) is FunctionalUnit.MUL_DIV
        assert unit_of(Op.VADD) is FunctionalUnit.VECTOR
        assert unit_of(Op.COPY) is FunctionalUnit.LOAD_STORE
        assert unit_of(Op.SBOX) is FunctionalUnit.CRYPTO
        assert unit_of(Op.CAS) is FunctionalUnit.ATOMICS

    def test_unit_of_unknown_op_raises(self):
        with pytest.raises(KeyError):
            unit_of("nope")


class TestSharedLogic:
    def test_copy_and_vector_share_shuffle_network(self):
        """The §5 observation: copy and vector ops share hardware."""
        shuffle_ops = set(ops_touching(LogicBlock.SHUFFLE_NETWORK))
        assert Op.COPY in shuffle_ops
        assert Op.VXOR in shuffle_ops
        assert Op.VADD in shuffle_ops
        # Scalar ALU ops do not cross the shuffle network.
        assert Op.ADD not in shuffle_ops

    def test_adder_tree_spans_scalar_and_vector(self):
        adder_ops = set(ops_touching(LogicBlock.ADDER_TREE))
        assert Op.ADD in adder_ops
        assert Op.VADD in adder_ops
        assert Op.VSUM in adder_ops

    def test_ops_touching_unused_block_can_be_empty(self):
        for block in LogicBlock:
            # every block is reachable from at least one op
            assert ops_touching(block), f"{block} orphaned"
