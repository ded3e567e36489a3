"""Unit tests for the Table III application classes."""

import pytest

from repro.core.classes import (
    TABLE3_CLASSES,
    AppClass,
    get_class,
)


class TestTable3:
    def test_exactly_eight_classes(self):
        assert len(TABLE3_CLASSES) == 8
        assert len({c.key for c in TABLE3_CLASSES}) == 8

    def test_parameter_values_match_table(self):
        c = get_class("emb", "high", "low")
        p = c.params()
        assert p.f == 0.999
        assert p.fcon_share == 0.90
        assert p.fored_share == 0.10

        c = get_class("non-emb", "moderate", "high")
        p = c.params()
        assert p.f == 0.99
        assert p.fcon_share == 0.60
        assert p.fored_share == 0.80

    def test_key_format(self):
        assert get_class("emb", "high", "low").key == "emb/high/low"

    def test_params_carry_name(self):
        for c in TABLE3_CLASSES:
            assert c.params().name == c.key

    def test_rejects_unknown_dimension_values(self):
        with pytest.raises(ValueError):
            AppClass("emb", "high", "medium")
        with pytest.raises(ValueError):
            AppClass("embarrassing", "high", "low")
        with pytest.raises(ValueError):
            AppClass("emb", "huge", "low")

    def test_panel_order_high_constant_first(self):
        # Fig 4 panels: (a) high/low, (b) high/high, (c) moderate/low,
        # (d) moderate/high — each with both parallelism cases.
        keys = [c.key for c in TABLE3_CLASSES]
        assert keys[0:2] == ["emb/high/low", "non-emb/high/low"]
        assert keys[2:4] == ["emb/high/high", "non-emb/high/high"]
        assert keys[4:6] == ["emb/moderate/low", "non-emb/moderate/low"]
        assert keys[6:8] == ["emb/moderate/high", "non-emb/moderate/high"]
