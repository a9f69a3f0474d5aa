"""Table 1 walks each benchmark once and replays it at every corner.

Per-cycle coupling classes depend only on the trace and the bus topology, so
:func:`~repro.analysis.dynamic_dvs.run_table1` generates and classifies each
workload once and feeds the same statistics to every corner's closed loop and
fixed-VS reduction.  Two properties pin that down:

* **Corner split.** A two-corner table equals the two single-corner tables
  exactly -- every row field, the totals and the serialised view -- under
  the scalar, vectorized and parallel engines at an odd chunk size.
* **One pass.** A two-corner table enters each source's ``chunks()`` once,
  and under the parallel engine makes one ``segment_summaries`` call per
  benchmark.
"""

from collections.abc import Iterator

import numpy as np
import pytest

from repro.analysis.dynamic_dvs import run_table1
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.runtime import ParallelChunkScheduler
from repro.trace import suite_sources
from repro.trace.stream import TraceChunk, TraceSource

NAMES = ("crafty", "mgrid", "vortex")
N_CYCLES = 12_000
#: Odd, and co-prime with the control window and ramp.
CHUNK_CYCLES = 3_331
LOOP = dict(window_cycles=1_000, ramp_delay_cycles=300)

#: (engine, jobs) combinations covering every statistics path.
ENGINE_CASES = (("scalar", None), ("vectorized", None), ("parallel", 2))


class CountingSource(TraceSource):
    """A pass-through source that counts how often ``chunks()`` is entered."""

    def __init__(self, inner: TraceSource) -> None:
        self.inner = inner
        self.chunk_calls = 0

    @property
    def n_cycles(self) -> int:
        return self.inner.n_cycles

    @property
    def n_bits(self) -> int:
        return self.inner.n_bits

    @property
    def name(self) -> str:
        return self.inner.name

    def _word_blocks(self) -> Iterator[np.ndarray]:
        return self.inner._word_blocks()

    def chunks(self, chunk_cycles: int | None = None, packed: bool = False) -> Iterator[TraceChunk]:
        self.chunk_calls += 1
        return self.inner.chunks(chunk_cycles, packed=packed)


def _table1(corners, engine, jobs, workloads=None):
    if workloads is None:
        workloads = suite_sources(names=NAMES, n_cycles=N_CYCLES, seed=23)
    return run_table1(
        workloads=workloads,
        corners=corners,
        n_cycles=N_CYCLES,
        chunk_cycles=CHUNK_CYCLES,
        engine=engine,
        jobs=jobs,
        order=NAMES,
        **LOOP,
    )


@pytest.mark.parametrize(("engine", "jobs"), ENGINE_CASES)
def test_two_corners_equal_single_corner_runs(engine, jobs):
    both = _table1((WORST_CASE_CORNER, TYPICAL_CORNER), engine, jobs)
    singles = [
        _table1((corner,), engine, jobs).corners[0]
        for corner in (WORST_CASE_CORNER, TYPICAL_CORNER)
    ]
    assert both.as_dict() == {
        "n_cycles_per_benchmark": N_CYCLES,
        "corners": [single.as_dict() for single in singles],
    }
    for joint, single in zip(both.corners, singles):
        assert joint.corner == single.corner
        # Frozen dataclasses compare field by field, exactly: gains, error
        # rates, fixed_vs_voltage and dvs_minimum_voltage included.
        assert joint.rows == single.rows
        assert [row.benchmark for row in joint.rows] == list(NAMES)
        assert joint.total_fixed_vs_gain_percent == single.total_fixed_vs_gain_percent
        assert joint.total_dvs_gain_percent == single.total_dvs_gain_percent
        assert joint.total_dvs_error_rate == single.total_dvs_error_rate


@pytest.mark.parametrize(("engine", "jobs"), ENGINE_CASES)
def test_each_source_is_walked_once(engine, jobs, monkeypatch):
    summary_calls = []
    original = ParallelChunkScheduler.segment_summaries

    def counting_segment_summaries(self, source, *args, **kwargs):
        summary_calls.append(source.name)
        return original(self, source, *args, **kwargs)

    monkeypatch.setattr(
        ParallelChunkScheduler, "segment_summaries", counting_segment_summaries
    )
    sources = {
        name: CountingSource(source)
        for name, source in suite_sources(names=NAMES, n_cycles=N_CYCLES, seed=23).items()
    }
    result = _table1((WORST_CASE_CORNER, TYPICAL_CORNER), engine, jobs, workloads=sources)

    assert len(result.corners) == 2
    assert {name: source.chunk_calls for name, source in sources.items()} == {
        name: 1 for name in NAMES
    }
    assert summary_calls == (list(NAMES) if engine == "parallel" else [])
