"""Unit + property tests for the reduction strategies' cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.reduction import reduction_cost, resolve_strategy


class TestCostModels:
    def test_serial_cost_linear_in_threads(self):
        # serial_element_ops = x·p: the model's grow_linear(nc) = nc
        c4 = reduction_cost("serial", 10, 4)
        c8 = reduction_cost("serial", 10, 8)
        assert c4.serial_element_ops == 40
        assert c8.serial_element_ops == 80
        assert c8.serial_element_ops == 2 * c4.serial_element_ops

    def test_serial_cost_at_one_thread_is_x(self):
        c = reduction_cost("serial", 10, 1)
        assert c.serial_element_ops == 10  # one full pass, grow(1) = 1

    def test_tree_cost_logarithmic(self):
        c16 = reduction_cost("tree", 10, 16)
        assert c16.serial_element_ops == 40  # x · log2(16)
        c1 = reduction_cost("tree", 10, 1)
        assert c1.serial_element_ops == 10  # x · grow_log(1) = x

    def test_parallel_cost_constant_per_thread(self):
        c4 = reduction_cost("parallel", 12, 4)
        c12 = reduction_cost("parallel", 12, 12)
        assert c4.parallel_element_ops == 12   # (x/p)·p = x
        assert c12.parallel_element_ops == 12
        assert c4.serial_element_ops == 0

    def test_messages_grow_with_threads(self):
        c2 = reduction_cost("serial", 10, 2)
        c8 = reduction_cost("serial", 10, 8)
        assert c2.messages == 10
        assert c8.messages == 70

    def test_parallel_broadcast_doubles_messages(self):
        with_bcast = reduction_cost("parallel", 10, 4, broadcast_back=True)
        without = reduction_cost("parallel", 10, 4, broadcast_back=False)
        assert with_bcast.messages == 2 * without.messages


class TestResolve:
    def test_known_names(self):
        for name in ("serial", "tree", "parallel"):
            assert resolve_strategy(name) == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_strategy("quantum")
        with pytest.raises(ValueError):
            reduction_cost("quantum", 10, 4)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(min_value=2, max_value=32), x=st.integers(min_value=1, max_value=64))
    def test_cost_ordering_serial_vs_tree(self, p, x):
        cs = reduction_cost("serial", x, p)
        ct = reduction_cost("tree", x, p)
        assert ct.serial_element_ops <= cs.serial_element_ops
