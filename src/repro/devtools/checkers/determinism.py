"""RPR003: engine code must be bit-identical run to run.

The reproduction's core claim — MegIS returns the same classification
as the software baseline, across every backend, shard count and cluster
configuration — is only testable because the engine is deterministic.
This rule statically bans the ambient-nondeterminism APIs in engine code
(``backends/``, ``megis/``, and the modules outside them on the result
path: ``tools/mapping.py`` — Step 3's indexes and vote —,
``tools/metalign.py`` — hit accumulation and candidate selection —,
``tools/statistical.py`` — the EM, whose float sequence follows its
hit-group order —, ``sequences/kmers.py`` — the k-mer extractors — and
the offline builders
``databases/sorted_db.py`` / ``sketch.py`` / ``kss.py``, whose output is
the bytes of an index file):

- global RNG draws (``random.*``, ``np.random.*``) — randomness must be
  injected as a seeded generator (``random.Random(seed)``,
  ``np.random.default_rng(seed)``), which this rule permits;
- wall clocks (``time.time``, ``datetime.now``, ...) — monotonic and
  perf counters stay legal because timing METRICS may vary; result
  payloads may not depend on the calendar;
- iterating a set literal/constructor directly — set order is not
  stable across interpreters, so result-affecting iteration must go
  through ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.framework import CheckConfig, Checker, FileContext, Finding, dotted_name

_WALL_CLOCKS = {"time.time", "time.time_ns", "os.urandom", "uuid.uuid1", "uuid.uuid4"}
_DATETIME_METHODS = {"now", "utcnow", "today", "utcfromtimestamp"}
#: Seedable generator constructors: the sanctioned injection points.
_SEEDED_FACTORIES = {"Random", "default_rng", "RandomState", "Generator", "SeedSequence"}


class DeterminismChecker(Checker):
    rule = "RPR003"
    title = "no ambient randomness/wall-clock/set-order dependence in engine code"
    default_paths = (
        "src/repro/backends",
        "src/repro/megis",
        "src/repro/tools/mapping.py",
        "src/repro/tools/metalign.py",
        "src/repro/tools/statistical.py",
        "src/repro/sequences/keys.py",
        "src/repro/sequences/kmers.py",
        "src/repro/databases/sorted_db.py",
        "src/repro/databases/sketch.py",
        "src/repro/databases/kss.py",
    )

    def check(self, ctx: FileContext, config: CheckConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                message = self._nondeterministic_call(node)
                if message is not None:
                    yield ctx.finding(self.rule, node.lineno, message)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter):
                    yield ctx.finding(
                        self.rule, node.iter.lineno,
                        "iteration order over a set is interpreter-dependent; "
                        "wrap it in sorted(...) to keep results bit-identical",
                    )
            elif isinstance(node, ast.comprehension):
                if _is_set_expression(node.iter):
                    yield ctx.finding(
                        self.rule, node.iter.lineno,
                        "comprehension over a set has unstable order; wrap the "
                        "iterable in sorted(...) to keep results bit-identical",
                    )

    @staticmethod
    def _nondeterministic_call(call: ast.Call) -> Optional[str]:
        name = dotted_name(call.func)
        if name is None:
            return None
        head, _, tail = name.rpartition(".")
        if name in _WALL_CLOCKS:
            return (f"{name}() is ambient nondeterminism; inject a clock/seed "
                    "(monotonic/perf_counter stay legal for timing metrics)")
        if tail in _DATETIME_METHODS and ("datetime" in head or head.endswith("date")):
            return (f"{name}() reads the wall clock; results must not depend "
                    "on the calendar — inject a clock if timing is needed")
        if name.startswith("random.") or ".random." in name or head in ("random", "np.random", "numpy.random"):
            if tail in _SEEDED_FACTORIES:
                return None
            return (f"{name}() draws from a global RNG; inject a seeded "
                    "generator (random.Random(seed) / np.random.default_rng(seed))")
        return None


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False
