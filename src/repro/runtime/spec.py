"""Declarative job and sweep specifications.

A :class:`JobSpec` names one unit of work: a registered task (see
:mod:`repro.runtime.tasks`) plus a JSON-able parameter mapping.  Its identity
-- the content-addressed cache key -- is a stable hash of exactly those two
things, so two jobs with the same task and parameters are the same job no
matter which sweep, process or session produced them.

A :class:`SweepSpec` is a declarative parameter grid: fixed ``base``
parameters plus named ``axes``, expanded by :meth:`SweepSpec.expand` into the
cross product of all axis values.  Expansion order is deterministic (axes in
declaration order, values in listed order), and per-point seeds are derived
from the point's own parameters so results are reproducible and shareable
across overlapping sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any
from collections.abc import Mapping, Sequence

from repro.runtime.hashing import canonical_json, derive_seed, stable_hash

__all__ = ["JobSpec", "SweepSpec"]


@dataclass(frozen=True)
class JobSpec:
    """One schedulable, cacheable unit of work.

    Attributes
    ----------
    task:
        Name of a task in the :mod:`repro.runtime.tasks` registry.
    params:
        Keyword arguments passed to the task.  Must be JSON-able (the
        constructor canonicalises and validates them eagerly so an unhashable
        parameter fails at spec-construction time, not mid-sweep).
    """

    task: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.task or not isinstance(self.task, str):
            raise ValueError(f"task must be a non-empty string, got {self.task!r}")
        # Freeze a plain-dict copy and validate hashability up front.
        frozen = dict(self.params)
        canonical_json(frozen)
        object.__setattr__(self, "params", frozen)

    @property
    def key(self) -> str:
        """Content-addressed identity of this job (hex SHA-256).

        ``repro.__version__`` is part of the identity: a release that
        changes the simulation physics must miss the persistent cache, not
        silently replay results computed by older code.

        A ``workload`` parameter referencing trace *files* contributes the
        files' content digest (:func:`repro.trace.workloads.
        workload_fingerprint`), not just the path string -- regenerating a
        ``file:`` trace invalidates every cached job that consumed it, no
        matter which entry point (CLI run, sweep grid, direct ``JobSpec``)
        created the job.  Generative workload specs are pure functions of
        spec and seed, so for them the spec string alone is the identity.
        """
        from repro import __version__

        identity: dict[str, Any] = {
            "task": self.task,
            "params": dict(self.params),
            "code_version": __version__,
        }
        workload = self.params.get("workload")
        if isinstance(workload, str):
            from repro.trace.workloads import workload_fingerprint

            fingerprint = workload_fingerprint(workload)
            if fingerprint is not None:
                identity["workload_fingerprint"] = fingerprint
        return stable_hash(identity)

    @property
    def label(self) -> str:
        """Short human-readable label for progress reports."""
        interesting = {
            name: value
            for name, value in self.params.items()
            if isinstance(value, (str, int)) and name not in ("n_cycles",)
        }
        inner = ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
        return f"{self.task}({inner})" if inner else self.task

    def with_params(self, **overrides: Any) -> JobSpec:
        """A copy of this spec with some parameters replaced/added."""
        merged = dict(self.params)
        merged.update(overrides)
        return JobSpec(self.task, merged)

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict rendering used for worker transport and JSONL records."""
        return {"task": self.task, "params": dict(self.params)}

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> JobSpec:
        """Rebuild a spec from :meth:`to_payload` output."""
        return JobSpec(payload["task"], dict(payload.get("params", {})))


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid over one task.

    Attributes
    ----------
    name:
        Identifier used by ``python -m repro sweep <name>``.
    task:
        Task every grid point runs.
    base:
        Parameters shared by every point (axis values override them).
    axes:
        Mapping of parameter name to the sequence of values it sweeps.  The
        grid is the cross product of all axes, expanded with the *first* axis
        varying slowest (row-major, like nested for-loops in declaration
        order).
    seed:
        Optional base seed.  When set and no axis/base parameter already
        fixes ``seed``, every point receives a deterministic per-point
        ``seed`` derived via :func:`~repro.runtime.hashing.derive_seed`.
    seed_by:
        Which point parameters the per-point seed is salted with.  Salt
        with exactly the parameters that define the *workload* (for
        ``dvs_run``: benchmark and trace length) so points differing only
        along analysis axes -- corner, window, encoder -- share the same
        trace and stay directly comparable.  ``None`` (the default) salts
        with every parameter, giving every grid point an independent seed.
    description:
        One line shown by ``python -m repro sweep --list``.

    Examples
    --------
    A 2x2 grid expands in declaration order (first axis slowest), and points
    sharing a workload share a derived seed:

    >>> spec = SweepSpec(
    ...     name="demo", task="dvs_run",
    ...     base={"n_cycles": 2_000},
    ...     axes={"benchmark": ("crafty", "mgrid"), "corner": ("typical", "worst")},
    ...     seed=2005, seed_by=("benchmark", "n_cycles"),
    ... )
    >>> spec.n_points
    4
    >>> [(job.params["benchmark"], job.params["corner"]) for job in spec.expand()]
    [('crafty', 'typical'), ('crafty', 'worst'), ('mgrid', 'typical'), ('mgrid', 'worst')]
    >>> jobs = spec.expand()
    >>> jobs[0].params["seed"] == jobs[1].params["seed"]   # same workload either corner
    True
    >>> jobs[0].params["seed"] == jobs[2].params["seed"]   # different benchmark
    False
    """

    name: str
    task: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seed: int | None = None
    seed_by: tuple[str, ...] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", dict(self.base))
        axes: dict[str, tuple[Any, ...]] = {}
        for axis, values in self.axes.items():
            if isinstance(values, (str, bytes)):
                raise TypeError(
                    f"axis {axis!r} of sweep {self.name!r} is a bare string; wrap the "
                    f"single value in a tuple: ({values!r},)"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {axis!r} of sweep {self.name!r} is empty")
            axes[axis] = values
        object.__setattr__(self, "axes", axes)
        if self.seed_by is not None:
            object.__setattr__(self, "seed_by", tuple(self.seed_by))

    @property
    def n_points(self) -> int:
        """Number of grid points the sweep expands to."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def expand(self, limit: int | None = None) -> tuple[JobSpec, ...]:
        """The grid as a deterministic tuple of :class:`JobSpec`.

        Parameters
        ----------
        limit:
            Optional cap on the number of points (a deterministic prefix of
            the full grid), for smoke-testing large sweeps.
        """
        axis_names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in axis_names))
        if limit is not None:
            combos = itertools.islice(combos, max(0, limit))
        jobs = []
        for combo in combos:
            params = dict(self.base)
            params.update(zip(axis_names, combo))
            if self.seed is not None and "seed" not in params:
                salt = (
                    params
                    if self.seed_by is None
                    else {name: params.get(name) for name in self.seed_by}
                )
                params["seed"] = derive_seed(self.seed, salt)
            jobs.append(JobSpec(self.task, params))
        return tuple(jobs)

    def describe(self) -> str:
        """One-paragraph summary of the grid (axes and sizes)."""
        axes = ", ".join(f"{name}[{len(values)}]" for name, values in self.axes.items())
        return f"{self.name}: {self.n_points} x {self.task} over {axes or 'no axes'}"
