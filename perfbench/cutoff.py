"""Cut-off cross-check of the Table 1 pipeline's span attribution.

The same synthetic sources are driven through pipelines truncated after
each layer, the way a circuit is simulated stage by stage with the stages
beyond N cut off:

1. ``trace``     -- stream every source once per corner, nothing else;
2. ``classify``  -- characterize each corner's bus and classify the stream;
3. ``replay``    -- the whole Table 1 computation (closed-loop replay and
   the fixed-VS baseline on top of stage 2);
4. ``render``    -- stage 3 plus formatting the table (timed as a
   checkpoint of stage 3's pass, since rendering strictly follows it).

The differences between consecutive stages estimate each layer's cost
without any wrapper in the way; the benchmark sets them next to the span
self times of the traced CLI run.
"""

from __future__ import annotations

import time

STAGES = ("trace", "classify", "replay", "render")
WARMUP_CYCLES = 4_000
REPEATS = 2


def _stages(cycles: int, seed: int) -> dict[str, float]:
    from repro.analysis import reporting
    from repro.analysis.dynamic_dvs import run_table1
    from repro.bus import BusDesign, CharacterizedBus
    from repro.bus.engine import default_chunk_cycles
    from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
    from repro.trace.generator import suite_sources

    corners = (WORST_CASE_CORNER, TYPICAL_CORNER)
    design = BusDesign.paper_bus()
    chunk_cycles = default_chunk_cycles(None)
    seconds: dict[str, float] = {}

    started = time.perf_counter()
    sources = suite_sources(n_cycles=cycles, seed=seed)
    for _ in corners:
        for source in sources.values():
            for _chunk in source.chunks(chunk_cycles, packed=True):
                pass
    seconds["trace"] = time.perf_counter() - started

    started = time.perf_counter()
    sources = suite_sources(n_cycles=cycles, seed=seed)
    for corner in corners:
        bus = CharacterizedBus(design, corner)
        for source in sources.values():
            for _stats in bus.iter_statistics(source):
                pass
    seconds["classify"] = time.perf_counter() - started

    # Rendering strictly follows the computation, so the full pipeline is
    # timed as a checkpoint of the same pass: a second run_table1 would add
    # its own noise to the (tiny) rendering cost.
    started = time.perf_counter()
    result = run_table1(
        workloads=suite_sources(n_cycles=cycles, seed=seed), n_cycles=cycles, seed=seed
    )
    seconds["replay"] = time.perf_counter() - started
    reporting.format_table1(result)
    seconds["render"] = time.perf_counter() - started
    return seconds


def run(cycles: int, seed: int) -> dict[str, object]:
    """Time every truncated pipeline, after one small warm-up pass.

    Each stage is timed :data:`REPEATS` times and the fastest time is kept,
    so that host noise in one pass does not show up as a layer's cost.

    Returns ``{"stages_s": {...}}``, or ``{"error": ...}`` when the program no
    longer offers one of the entry points the stages drive (the check is
    then reported as unavailable instead of failing the benchmark run).
    """
    try:
        _stages(WARMUP_CYCLES, seed)
        passes = [_stages(cycles, seed) for _ in range(REPEATS)]
    except (ImportError, AttributeError, TypeError) as error:
        return {"error": f"{type(error).__name__}: {error}"}
    fastest = {stage: min(p[stage] for p in passes) for stage in STAGES}
    # The render checkpoint is only comparable within its own pass.
    fastest["render"] = fastest["replay"] + min(p["render"] - p["replay"] for p in passes)
    return {"stages_s": fastest}
