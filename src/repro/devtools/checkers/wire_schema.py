"""RPR004: every wire frame comes from a ``wire.py`` constructor.

The serving tiers speak exactly one protocol: schema-1 JSONL, with every
frame shape defined by a ``*_record`` constructor in
:mod:`repro.megis.wire`.  A hand-rolled ``{"schema": 1, ...}`` dict in
the gateway or an op string compared against nothing any constructor
emits is how wire drift starts — two processes on different commits
disagree about a field and the failure surfaces as a 2 a.m. protocol
stall, not a test failure.

Two sub-checks, both against the constructor registry parsed (as AST,
never imported) from the configured wire module:

- **producers**: a dict literal containing a ``"schema"`` key outside
  ``wire.py``, or any dict literal passed straight to
  ``wire.encode(...)``, is an ad-hoc frame;
- **consumers**: an ``op`` value (``frame["op"]`` / ``frame.get("op")``,
  directly or via a local variable) compared against a string no
  constructor produces is an unknown op.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.framework import (
    CheckConfig,
    Checker,
    FileContext,
    Finding,
    const_str,
    dotted_name,
)

_DEFAULT_WIRE_MODULE = "src/repro/megis/wire.py"


class WireSchemaChecker(Checker):
    rule = "RPR004"
    title = "wire frames built via wire.py constructors; parsed ops in the registry"
    default_paths = (
        "src/repro/megis/wire.py",
        "src/repro/megis/gateway.py",
        "src/repro/megis/cluster",
        "src/repro/cli.py",
    )

    def __init__(self) -> None:
        self._registry_cache: Dict[str, Tuple[Set[str], Set[str]]] = {}

    def check(self, ctx: FileContext, config: CheckConfig) -> Iterator[Finding]:
        wire_rel = str(self.option(config, "wire_module", _DEFAULT_WIRE_MODULE))
        if ctx.rel == wire_rel:
            return  # the constructor module IS the registry
        constructors, ops = self._registry(config, wire_rel)
        yield from self._check_producers(ctx, constructors)
        yield from self._check_consumers(ctx, ops)

    # -- registry ----------------------------------------------------------

    def _registry(self, config: CheckConfig, wire_rel: str) -> Tuple[Set[str], Set[str]]:
        wire_path = config.root / wire_rel
        key = str(wire_path)
        if key in self._registry_cache:
            return self._registry_cache[key]
        constructors: Set[str] = set()
        ops: Set[str] = set()
        try:
            tree = ast.parse(wire_path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            tree = ast.Module(body=[], type_ignores=[])
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.endswith("_record")):
                continue
            constructors.add(node.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    for dict_key, value in zip(sub.keys, sub.values):
                        if dict_key is not None and const_str(dict_key) == "op":
                            op = const_str(value)
                            if op is not None:
                                ops.add(op)
        self._registry_cache[key] = (constructors, ops)
        return constructors, ops

    # -- producers ---------------------------------------------------------

    def _check_producers(self, ctx: FileContext,
                         constructors: Set[str]) -> Iterator[Finding]:
        hint = ", ".join(sorted(constructors)) or "<none found>"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Dict) and _has_schema_key(node):
                yield ctx.finding(
                    self.rule, node.lineno,
                    "hand-rolled wire frame (literal dict with a 'schema' key); "
                    f"build it with a wire.py constructor ({hint})",
                )
            elif isinstance(node, ast.Call) and _is_encode_call(node):
                for arg in node.args:
                    if isinstance(arg, ast.Dict) and not _has_schema_key(arg):
                        yield ctx.finding(
                            self.rule, arg.lineno,
                            "literal dict passed to wire.encode(); frames must "
                            f"come from a wire.py constructor ({hint})",
                        )

    # -- consumers ---------------------------------------------------------

    def _check_consumers(self, ctx: FileContext, ops: Set[str]) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            op_vars: Set[str] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and _is_op_lookup(sub.value):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            op_vars.add(target.id)
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Compare):
                    continue
                sides = [sub.left, *sub.comparators]
                is_op_compare = any(
                    _is_op_lookup(side)
                    or (isinstance(side, ast.Name) and side.id in op_vars)
                    for side in sides
                )
                if not is_op_compare:
                    continue
                for side in sides:
                    literal = const_str(side)
                    if literal is not None and literal not in ops:
                        known = ", ".join(sorted(ops)) or "<none>"
                        yield ctx.finding(
                            self.rule, side.lineno,
                            f"op {literal!r} is not produced by any wire.py "
                            f"constructor (known ops: {known})",
                        )


def _has_schema_key(node: ast.Dict) -> bool:
    return any(key is not None and const_str(key) == "schema" for key in node.keys)


def _is_encode_call(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    return name is not None and (name == "encode" or name.endswith(".encode")) and (
        name in ("encode", "wire.encode") or "wire" in name)


def _is_op_lookup(node: ast.expr) -> bool:
    """``X["op"]`` or ``X.get("op", ...)``."""
    if isinstance(node, ast.Subscript):
        return const_str(node.slice) == "op"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (node.func.attr == "get" and node.args
                and const_str(node.args[0]) == "op")
    return False
