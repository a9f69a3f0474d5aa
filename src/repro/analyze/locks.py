"""Lock-discipline race detector (LCK001-LCK004).

Purely syntactic lock inference over one class at a time:

1. **Lock discovery** -- attributes assigned ``threading.Lock()`` /
   ``RLock()`` anywhere in the class, plus ``threading.Condition(self._lock)``
   aliases (entering the condition acquires the same lock).
2. **Region inference** -- code is *locked* inside ``with self._lock:`` (or a
   condition alias), in methods named ``*_locked`` (the repo's caller-holds-
   the-lock convention), and -- by fixpoint -- in private methods whose every
   call site within the class is itself locked.
3. **Guard classification** -- an attribute becomes *guarded* on its first
   locked write outside ``__init__``.  Writes include rebinding
   (``self._x = ...``), item stores (``self._jobs[k] = ...``) and mutating
   container calls (``self._pending.append(...)``).
4. **Findings** -- unguarded writes (LCK001) and reads (LCK002) of guarded
   attributes outside ``__init__``, and calls made *while holding the lock*
   to caller-supplied code: method parameters invoked directly, injected
   callables (``__init__`` parameters stored on ``self``), and callback-ish
   channel methods (``.push``/``._push``/``.emit``/...) on non-lock receivers
   (LCK003).
5. **Check-then-act** -- a local bound *before* ``with self._lock:`` from
   shared state (a guarded attribute, or a query on a collaborator held in
   ``self.X`` such as ``self._cache.get(key)``) that gates a branch inside
   the lock without being re-read there (LCK004).  Another thread can change
   that state between the read and the lock, so the branch acts on a stale
   check.

Nested function bodies are skipped entirely: a closure defined under the
lock may run anywhere, so neither "locked" nor "unlocked" is a safe
classification for its accesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from collections.abc import Iterator

from repro.analyze.engine import AnalysisConfig, Finding
from repro.analyze.source import ModuleSource, Project, resolve_dotted

__all__ = ["check"]

_LOCK_CONSTRUCTORS = frozenset({"threading.Lock", "threading.RLock"})
_CONDITION_CONSTRUCTOR = "threading.Condition"

#: Method names that denote pushing work/events to another component; calling
#: one while holding the lock extends the critical section into foreign code.
_CALLBACK_METHODS = frozenset(
    {"_push", "push", "send", "emit", "publish", "dispatch", "fire", "callback"}
)

#: Container mutations that write *through* an attribute reference.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "remove",
        "discard",
        "setdefault",
        "sort",
    }
)


def _self_attr(node: ast.expr) -> str | None:
    """``X`` for an expression that is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass(frozen=True)
class _Access:
    """One attribute access or lock-held call inside a method."""

    kind: str  # "read" | "write" | "call-param" | "call-injected" | "call-channel"
    name: str
    line: int
    col: int
    locked: bool
    method: str


class _ClassModel:
    """All lock-relevant facts about one class definition."""

    def __init__(self, source: ModuleSource, node: ast.ClassDef) -> None:
        self.source = source
        self.node = node
        self.locks = self._discover_locks()
        self.injected = self._discover_injected_callables()
        self.methods = {
            item.name: item for item in node.body if isinstance(item, ast.FunctionDef)
        }

    # -------------------------------------------------------------- #
    # Discovery
    # -------------------------------------------------------------- #
    def _assignments(self) -> Iterator[tuple[str, ast.expr]]:
        for node in ast.walk(self.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
                if attr is not None:
                    yield attr, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = _self_attr(node.target)
                if attr is not None:
                    yield attr, node.value

    def _discover_locks(self) -> frozenset[str]:
        locks: set[str] = set()
        conditions: list[tuple[str, ast.Call]] = []
        for attr, value in self._assignments():
            if not isinstance(value, ast.Call):
                continue
            dotted = resolve_dotted(value.func, self.source.aliases)
            if dotted in _LOCK_CONSTRUCTORS:
                locks.add(attr)
            elif dotted == _CONDITION_CONSTRUCTOR:
                conditions.append((attr, value))
        for attr, call in conditions:
            if not call.args:
                locks.add(attr)  # Condition() owns a private lock
            else:
                aliased = _self_attr(call.args[0])
                if aliased is not None and aliased in locks:
                    locks.add(attr)
        return frozenset(locks)

    def _discover_injected_callables(self) -> frozenset[str]:
        """Attributes assigned directly from an ``__init__`` parameter."""
        init = next(
            (
                item
                for item in self.node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return frozenset()
        params = {
            arg.arg
            for arg in list(init.args.posonlyargs) + list(init.args.args) + list(init.args.kwonlyargs)
            if arg.arg != "self"
        }
        injected: set[str] = set()
        for node in ast.walk(init):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
                if attr is None:
                    continue
                value = node.value
                # ``self._clock = clock`` or ``self._clock = clock or default``.
                if isinstance(value, ast.Name) and value.id in params:
                    injected.add(attr)
                elif isinstance(value, ast.BoolOp) and any(
                    isinstance(operand, ast.Name) and operand.id in params
                    for operand in value.values
                ):
                    injected.add(attr)
        return injected

    # -------------------------------------------------------------- #
    # Region + access extraction
    # -------------------------------------------------------------- #
    def _is_lock_context(self, item: ast.withitem) -> bool:
        attr = _self_attr(item.context_expr)
        return attr is not None and attr in self.locks

    def _method_accesses(
        self, method: ast.FunctionDef, starts_locked: bool
    ) -> tuple[list[_Access], list[tuple[str, bool]]]:
        """Accesses and ``(callee, locked)`` self-method call sites of one method."""
        accesses: list[_Access] = []
        calls: list[tuple[str, bool]] = []
        params = {
            arg.arg
            for arg in list(method.args.posonlyargs)
            + list(method.args.args)
            + list(method.args.kwonlyargs)
            if arg.arg != "self"
        }

        def record(kind: str, name: str, node: ast.AST, locked: bool) -> None:
            accesses.append(
                _Access(
                    kind=kind,
                    name=name,
                    line=getattr(node, "lineno", method.lineno),
                    col=getattr(node, "col_offset", 0) + 1,
                    locked=locked,
                    method=method.name,
                )
            )

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # closure: execution context unknown
            if isinstance(node, ast.With):
                body_locked = locked or any(self._is_lock_context(item) for item in node.items)
                for item in node.items:
                    visit(item.context_expr, locked)
                for statement in node.body:
                    visit(statement, body_locked)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        record("write", attr, target, locked)
                    elif isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        if attr is not None:
                            record("write", attr, target, locked)
                        else:
                            visit(target, locked)
                    else:
                        visit(target, locked)
                if isinstance(node, ast.AugAssign):
                    attr = _self_attr(node.target)
                    if attr is not None:
                        record("read", attr, node.target, locked)
                value = getattr(node, "value", None)
                if value is not None:
                    visit(value, locked)
                return
            if isinstance(node, ast.Call):
                func = node.func
                handled_receiver = False
                if isinstance(func, ast.Name) and func.id in params:
                    record("call-param", func.id, node, locked)
                elif isinstance(func, ast.Attribute):
                    receiver_attr = _self_attr(func)
                    if receiver_attr is not None:
                        if receiver_attr in self.injected:
                            record("call-injected", receiver_attr, node, locked)
                        elif receiver_attr in self.methods:
                            calls.append((receiver_attr, locked))
                        else:
                            record("read", receiver_attr, func, locked)
                        handled_receiver = True
                    else:
                        inner = _self_attr(func.value)
                        if inner is not None:
                            if func.attr in _MUTATING_METHODS:
                                record("write", inner, func, locked)
                            else:
                                record("read", inner, func, locked)
                            handled_receiver = True
                        if (
                            func.attr in _CALLBACK_METHODS
                            and (inner is None or inner not in self.locks)
                        ):
                            record("call-channel", func.attr, node, locked)
                    if not handled_receiver and isinstance(func, ast.Attribute):
                        visit(func.value, locked)
                for argument in node.args:
                    visit(argument, locked)
                for keyword in node.keywords:
                    visit(keyword.value, locked)
                return
            if isinstance(node, ast.Attribute):
                attr = _self_attr(node)
                if attr is not None:
                    kind = "read" if isinstance(node.ctx, ast.Load) else "write"
                    record(kind, attr, node, locked)
                    return
                visit(node.value, locked)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        for statement in method.body:
            visit(statement, starts_locked)
        return accesses, calls

    def analyze(self) -> tuple[list[_Access], frozenset[str]]:
        """All accesses (with final locked flags) and the guarded-attr set."""
        locked_start = {
            name: name.endswith("_locked") for name in self.methods
        }
        # Fixpoint: a private helper whose every in-class call site is locked
        # effectively runs under the lock (e.g. WorkQueue._new_job).
        while True:
            per_method = {
                name: self._method_accesses(method, locked_start[name])
                for name, method in self.methods.items()
            }
            call_sites: dict[str, list[bool]] = {}
            for _, (_, calls) in per_method.items():
                for callee, locked in calls:
                    call_sites.setdefault(callee, []).append(locked)
            changed = False
            for name in self.methods:
                if locked_start[name] or name.startswith("__"):
                    continue
                if not name.startswith("_"):
                    continue
                sites = call_sites.get(name, [])
                if sites and all(sites):
                    locked_start[name] = True
                    changed = True
            if not changed:
                break

        accesses = [
            access
            for name, (method_accesses, _) in sorted(per_method.items())
            for access in method_accesses
        ]
        guarded = frozenset(
            access.name
            for access in accesses
            if access.kind == "write"
            and access.locked
            and access.method != "__init__"
            and access.name not in self.locks
        )
        return accesses, guarded

    # -------------------------------------------------------------- #
    # Check-then-act (LCK004)
    # -------------------------------------------------------------- #
    def _shared_read(self, expr: ast.expr, guarded: frozenset[str]) -> str | None:
        """The shared attribute ``expr`` reads: guarded state or a collaborator query."""
        for node in ast.walk(expr):
            attr = _self_attr(node)
            if attr is not None and attr in guarded:
                return attr
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = _self_attr(node.func.value)
                if receiver is not None and receiver not in self.locks:
                    return receiver
        return None

    def stale_checks(
        self,
        body: list[ast.stmt],
        guarded: frozenset[str],
        snapshots: dict[str, tuple[str, ast.stmt]] | None = None,
    ) -> Iterator[tuple[str, str, ast.stmt]]:
        """``(local, attr, binding)`` for each check-then-act in ``body``.

        Walks the unlocked statements in order; ``snapshots`` maps each local
        read from shared state to that attribute and its binding statement.
        """
        if snapshots is None:
            snapshots = {}
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(statement, ast.With) and any(
                self._is_lock_context(item) for item in statement.items
            ):
                inside = [node for child in statement.body for node in ast.walk(child)]
                rebound = {
                    node.id
                    for node in inside
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                }
                gating = {
                    name.id
                    for node in inside
                    if isinstance(node, (ast.If, ast.While, ast.IfExp))
                    for name in ast.walk(node.test)
                    if isinstance(name, ast.Name)
                }
                for local, (attr, binding) in snapshots.items():
                    if local in gating and local not in rebound:
                        yield local, attr, binding
                continue
            if isinstance(statement, (ast.Assign, ast.AnnAssign)) and statement.value:
                source = self._shared_read(statement.value, guarded)
                targets = (
                    statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                )
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                            if source is None:
                                snapshots.pop(node.id, None)
                            else:
                                snapshots[node.id] = (source, statement)
                continue
            for field in ("body", "orelse", "finalbody"):
                yield from self.stale_checks(getattr(statement, field, []), guarded, snapshots)
            for handler in getattr(statement, "handlers", []):
                yield from self.stale_checks(handler.body, guarded, snapshots)


def check(project: Project, config: AnalysisConfig) -> Iterator[Finding]:
    """Run the race detector over every lock-owning class in the project."""
    for module in sorted(project.modules):
        source = project.modules[module]
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            model = _ClassModel(source, node)
            if not model.locks:
                continue
            accesses, guarded = model.analyze()
            for name, method in model.methods.items():
                if name == "__init__":
                    continue
                for local, attr, binding in model.stale_checks(method.body, guarded):
                    yield Finding(
                        rule="LCK004",
                        path=source.rel_path,
                        line=binding.lineno,
                        col=binding.col_offset + 1,
                        message=f"check-then-act in {node.name}.{name}: '{local}' is read "
                        f"from 'self.{attr}' before the lock is taken and gates a branch "
                        "under the lock; another thread can change it in between, so "
                        "re-read it while holding the lock",
                    )
            for access in accesses:
                if access.method == "__init__":
                    continue
                if access.kind == "write" and access.name in guarded and not access.locked:
                    yield Finding(
                        rule="LCK001",
                        path=source.rel_path,
                        line=access.line,
                        col=access.col,
                        message=f"write to '{access.name}' of {node.name} without "
                        f"holding the lock ('{access.name}' has locked writes "
                        "elsewhere, so it is shared state)",
                    )
                elif access.kind == "read" and access.name in guarded and not access.locked:
                    yield Finding(
                        rule="LCK002",
                        path=source.rel_path,
                        line=access.line,
                        col=access.col,
                        message=f"read of lock-guarded '{access.name}' of {node.name} "
                        "without holding the lock",
                    )
                elif access.kind == "call-param" and access.locked:
                    yield Finding(
                        rule="LCK003",
                        path=source.rel_path,
                        line=access.line,
                        col=access.col,
                        message=f"caller-supplied callable '{access.name}' invoked while "
                        f"{node.name} holds its lock; move the call outside the "
                        "critical section",
                    )
                elif access.kind == "call-injected" and access.locked:
                    yield Finding(
                        rule="LCK003",
                        path=source.rel_path,
                        line=access.line,
                        col=access.col,
                        message=f"injected callable 'self.{access.name}' invoked while "
                        f"{node.name} holds its lock; hoist the call out of the "
                        "critical section",
                    )
                elif access.kind == "call-channel" and access.locked:
                    yield Finding(
                        rule="LCK003",
                        path=source.rel_path,
                        line=access.line,
                        col=access.col,
                        message=f"channel method '.{access.name}(...)' called while "
                        f"{node.name} holds its lock; subscriber code now runs "
                        "inside the critical section",
                    )
