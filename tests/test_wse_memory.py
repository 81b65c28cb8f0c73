"""Tests for the PE memory arena, color allocator and machine specs."""

import numpy as np
import pytest

from repro.util.errors import ConfigurationError, PeOutOfMemory
from repro.wse.color import ColorAllocator
from repro.wse.memory import MemoryArena
from repro.wse.specs import WSE2, WseSpecs


class TestMemoryArena:
    def test_alloc_and_get(self):
        arena = MemoryArena(1024)
        buf = arena.alloc("a", 16, dtype=np.float32)
        assert buf.shape == (16,)
        assert buf.dtype == np.float32
        assert np.all(buf == 0)
        assert arena.used_bytes == 64
        assert arena.get("a") is buf

    def test_capacity_enforced(self):
        arena = MemoryArena(100)
        with pytest.raises(PeOutOfMemory) as exc:
            arena.alloc("big", 100, dtype=np.float32)  # 400 B > 100 B
        assert exc.value.requested == 400
        assert exc.value.capacity == 100

    def test_exact_fit_allowed(self):
        arena = MemoryArena(64)
        arena.alloc("fit", 16, dtype=np.float32)
        assert arena.free_bytes == 0

    def test_wse2_budget_is_48k(self):
        arena = MemoryArena(WSE2.pe_memory_bytes)
        # A 922-deep fp32 column is 3688 B; 13 of them fit, 14 do not —
        # the §III-E.1 pressure our buffer-reuse ablation quantifies.
        for i in range(13):
            arena.alloc(f"col{i}", 922, dtype=np.float32)
        with pytest.raises(PeOutOfMemory):
            arena.alloc("col13", 922, dtype=np.float32)

    def test_duplicate_name_rejected(self):
        arena = MemoryArena(1024)
        arena.alloc("a", 4)
        with pytest.raises(ConfigurationError, match="already allocated"):
            arena.alloc("a", 4)

    def test_free_returns_bytes(self):
        arena = MemoryArena(1024)
        arena.alloc("a", 32)
        used = arena.used_bytes
        arena.free("a")
        assert arena.used_bytes == used - 128
        with pytest.raises(ConfigurationError):
            arena.get("a")

    def test_free_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryArena(64).free("ghost")

    def test_alias_shares_storage_and_costs_nothing(self):
        arena = MemoryArena(256)
        base = arena.alloc("base", 8)
        used = arena.used_bytes
        alias = arena.alias("view", "base")
        assert alias is base
        assert arena.used_bytes == used
        assert arena.report()["view"] == 0

    def test_alias_of_missing_buffer(self):
        arena = MemoryArena(256)
        with pytest.raises(ConfigurationError):
            arena.alias("view", "ghost")

    def test_high_water_tracks_peak(self):
        arena = MemoryArena(1024)
        arena.alloc("a", 64)  # 256 B
        arena.free("a")
        arena.alloc("b", 16)  # 64 B
        assert arena.high_water_bytes == 256
        assert arena.used_bytes == 64

    def test_reserved_bytes(self):
        arena = MemoryArena(100, reserved_bytes=90)
        with pytest.raises(PeOutOfMemory):
            arena.alloc("a", 4)  # 16 B > 10 B available

    def test_reserved_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryArena(100, reserved_bytes=200)
        with pytest.raises(ConfigurationError):
            MemoryArena(0)

    def test_contains(self):
        arena = MemoryArena(256)
        arena.alloc("a", 4)
        assert "a" in arena
        assert "b" not in arena


class TestColorAllocator:
    def test_distinct_colors(self):
        colors = ColorAllocator(8)
        a = colors.allocate("a")
        b = colors.allocate("b")
        assert a != b
        assert colors.num_allocated == 2
        assert colors.remaining == 6

    def test_idempotent_per_name(self):
        colors = ColorAllocator(8)
        assert colors.allocate("x") == colors.allocate("x")
        assert colors.num_allocated == 1

    def test_exhaustion(self):
        colors = ColorAllocator(2)
        colors.allocate("a")
        colors.allocate("b")
        with pytest.raises(ConfigurationError, match="out of routable colors"):
            colors.allocate("c")

    def test_block_allocation(self):
        colors = ColorAllocator(8)
        block = colors.allocate_block("cc", 3)
        assert len(block) == len(set(block)) == 3
        assert colors.name_of(block[1]) == "cc-1"

    def test_lookup(self):
        colors = ColorAllocator(4)
        c = colors.allocate("x")
        assert colors.lookup("x") == c
        with pytest.raises(ConfigurationError):
            colors.lookup("missing")

    def test_paper_color_budget(self):
        """Table I (12) + all-reduce (6) fit the WSE-2 routable budget."""
        from repro.core.allreduce import AllReduceColors
        from repro.core.exchange import ExchangeColors

        colors = ColorAllocator(24)
        ExchangeColors.allocate(colors)
        AllReduceColors.allocate(colors)
        assert colors.num_allocated == 18
        assert colors.remaining >= 6


class TestSpecs:
    def test_wse2_headline_numbers(self):
        assert WSE2.fabric_width == 750
        assert WSE2.fabric_height == 994
        assert WSE2.pe_memory_bytes == 48 * 1024
        assert WSE2.peak_flops == pytest.approx(1.785e15)
        assert WSE2.memory_bandwidth_bytes == pytest.approx(20e15)
        assert WSE2.fabric_bandwidth_bytes == pytest.approx(3.3e15)
        assert WSE2.simd_width_f32 == 2

    def test_peak_consistency(self):
        """Per-PE peak × PE count reproduces the Fig. 6 ceiling."""
        total = WSE2.per_pe_peak_flops * WSE2.num_fabric_pes
        assert total == pytest.approx(WSE2.peak_flops, rel=1e-12)

    def test_with_fabric(self):
        small = WSE2.with_fabric(8, 4)
        assert small.fabric_width == 8
        assert small.num_fabric_pes == 32
        assert small.pe_memory_bytes == WSE2.pe_memory_bytes

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WseSpecs(
                name="bad", fabric_width=0, fabric_height=1,
                pe_memory_bytes=1, clock_hz=1.0, simd_width_f32=1,
                peak_flops=1.0, memory_bandwidth_bytes=1.0,
                fabric_bandwidth_bytes=1.0,
            )
