"""Simulation-engine selection: vectorized block kernels vs the scalar reference.

Every layer that turns bus words into per-cycle statistics accepts an
``engine`` argument:

``"vectorized"`` (the default)
    Whole-chunk integer-lane kernels (:mod:`repro.interconnect.block_kernels`)
    over the packed bit representation, with the voltage-scaling controller
    advanced per measurement *window* rather than per cycle.  This is the
    paper-scale fast path (roughly an order of magnitude faster than the
    reference); configurations the lane kernels cannot represent (buses wider
    than 64 wires, big-endian hosts) transparently use the scalar kernels for
    the affected chunks, so results never depend on the host.

``"scalar"``
    The original per-wire reference implementation
    (:mod:`repro.interconnect.crosstalk` over unpacked 0/1 arrays).  It is
    kept both as executable documentation of the model and as the oracle the
    equivalence tests hold the vectorized engine to: **both engines are
    bit-identical** on every statistic, energy total and control decision,
    for any chunk size.

``"parallel"``
    The two-pass multicore engine: a fan-out statistics pass where worker
    processes run the *vectorized* kernels over disjoint chunk ranges, then a
    cheap sequential controller-replay pass over the per-segment summaries
    (:mod:`repro.runtime.parallel`).  Results are **bit-identical** to both
    serial engines for any chunk size and worker count -- the per-segment
    reductions are exact, so merge grouping cannot change a single bit.  The
    worker count is a separate ``jobs`` argument; with one worker (or in
    environments without process pools) the two-pass pipeline runs inline,
    still bit-identical.  Layers that only compute per-chunk statistics
    (e.g. :meth:`~repro.bus.bus_model.CharacterizedBus.analyze`) treat
    ``"parallel"`` as the vectorized kernels via :func:`kernel_engine`.

``None`` always means "the default engine", so callers can thread an optional
engine argument without repeating the default.
"""

from __future__ import annotations


#: The fast integer-lane block engine (the default).
ENGINE_VECTORIZED = "vectorized"
#: The scalar reference implementation the vectorized engine is tested against.
ENGINE_SCALAR = "scalar"
#: The two-pass multicore engine (vectorized kernels in worker processes).
ENGINE_PARALLEL = "parallel"
#: All selectable engines.
ENGINES = (ENGINE_VECTORIZED, ENGINE_SCALAR, ENGINE_PARALLEL)
#: Engine used when none is requested.
DEFAULT_ENGINE = ENGINE_VECTORIZED

#: Default streaming granularity per engine.  The scalar kernels allocate
#: ~1.5 kB of float temporaries per cycle, so small chunks keep them cache
#: resident; the lane kernels touch ~50 bytes per cycle and instead want
#: chunks big enough to amortise per-call numpy overhead.  Results are
#: bit-identical for any chunk size either way.
SCALAR_CHUNK_CYCLES = 25_000
VECTORIZED_CHUNK_CYCLES = 262_144


def resolve_engine(engine: str | None) -> str:
    """Validate an engine name, mapping ``None`` to the default."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def kernel_engine(engine: str | None) -> str:
    """The kernel implementation an engine computes per-cycle statistics with.

    The parallel engine changes *scheduling*, not arithmetic: its workers run
    the vectorized block kernels, so statistics layers that only need a kernel
    choice map ``"parallel"`` to ``"vectorized"`` here.
    """
    resolved = resolve_engine(engine)
    if resolved == ENGINE_PARALLEL:
        return ENGINE_VECTORIZED
    return resolved


def default_chunk_cycles(engine: str | None) -> int:
    """The default streaming chunk size of an engine."""
    if kernel_engine(engine) == ENGINE_VECTORIZED:
        return VECTORIZED_CHUNK_CYCLES
    return SCALAR_CHUNK_CYCLES
