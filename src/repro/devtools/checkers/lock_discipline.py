"""RPR002: attributes guarded by a lock somewhere are guarded everywhere.

The threaded service keeps its queue/in-flight/stats state consistent by
mutating it only under ``with self._state:`` (a Condition) — one stray
unlocked ``self._inflight -= 1`` is a data race that no single test run
reliably catches.  This rule infers the guarded set per class (every
``self.X`` path assigned inside a ``with self.<lock>:`` block, where
``<lock>`` is an attribute bound to ``threading.Lock/RLock/Condition``
in ``__init__``) and then flags any mutation of a guarded path outside
such a block.

Two sanctioned conventions keep the rule precise:

- ``__init__`` is exempt: construction happens before any other thread
  can hold a reference.
- A method whose docstring declares the contract — "caller holds the
  lock" / "lock held" — is treated as executing under the lock.  The
  service's private helpers already follow this convention; the
  docstring IS the machine-checked annotation.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from repro.devtools.framework import CheckConfig, Checker, FileContext, Finding, self_path

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
_HELD_DOC = re.compile(r"caller holds|lock held|holding the lock|held by the caller",
                       re.IGNORECASE)

# (path, line, under_lock) triples for one method.
_Mutation = Tuple[str, int, bool]


class LockDisciplineChecker(Checker):
    rule = "RPR002"
    title = "attributes assigned under 'with self._lock' never mutated outside it"
    default_paths = (
        "src/repro/megis/service.py",
        "src/repro/megis/session.py",
        "src/repro/megis/procpool.py",
        "src/repro/megis/cluster/router.py",
    )

    def check(self, ctx: FileContext, config: CheckConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        locks = self._lock_attributes(cls)
        if not locks:
            return
        methods = [
            node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name != "__init__"
        ]
        per_method: Dict[str, List[_Mutation]] = {}
        guarded: Set[str] = set()
        for method in methods:
            held = bool(_HELD_DOC.search(ast.get_docstring(method) or ""))
            mutations: List[_Mutation] = []
            self._collect(method, locks, held, mutations)
            per_method[method.name] = mutations
            guarded.update(path for path, _, locked in mutations if locked)
        for method in methods:
            for path, line, locked in per_method[method.name]:
                if locked or path not in guarded:
                    continue
                lock_names = ", ".join(sorted(f"self.{name}" for name in locks))
                yield ctx.finding(
                    self.rule, line,
                    f"{path} is mutated under 'with {lock_names}' elsewhere in "
                    f"{cls.name} but written here without the lock (take the "
                    "lock, or document the contract with a 'caller holds the "
                    "lock' docstring)",
                )

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
        """``self.X`` attrs bound to Lock()/RLock()/Condition() in this class."""
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            factory = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if factory not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                path = self_path(target)
                if path is not None and path.count(".") == 1:
                    locks.add(path.split(".", 1)[1])
        return locks

    def _collect(self, node: ast.AST, locks: Set[str], under_lock: bool,
                 mutations: List[_Mutation]) -> None:
        for child in ast.iter_child_nodes(node):
            locked = under_lock
            if isinstance(child, ast.With):
                for item in child.items:
                    ctx_expr = item.context_expr
                    path = self_path(ctx_expr)
                    if path is not None and path.split(".", 1)[-1] in locks:
                        locked = True
            for path, line in _mutation_targets(child):
                mutations.append((path, line, locked))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A nested callable runs on its own schedule; do not carry
                # the enclosing lock context into it.
                self._collect(child, locks, False, mutations)
            else:
                self._collect(child, locks, locked, mutations)


def _mutation_targets(node: ast.AST) -> List[Tuple[str, int]]:
    """``self.*`` paths this statement writes (plain and subscript stores)."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    flat: List[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    out: List[Tuple[str, int]] = []
    for target in flat:
        base = target.value if isinstance(target, ast.Subscript) else target
        path = self_path(base)
        if path is not None and path != "self":
            out.append((path, target.lineno))
    return out
