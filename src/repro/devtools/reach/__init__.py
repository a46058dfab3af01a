"""Reach audit: ``python -m repro.devtools.reach``, run from the repository
root (``tests/test_cli.py`` needs pytest).

Each :func:`entry_points` command runs as a child interpreter whose
``PYTHONPATH`` starts with a generated ``sitecustomize.py``.  It profiles
every thread, and through the inherited ``PYTHONPATH`` every grandchild,
and logs the file and first line of each code object under the package
when first called, so a killed process keeps what it reached.  A def
matches by ``co_firstlineno``, its first decorator's line.  Exit 1 lists
every def no entry point reached that ``[tool.repro.reach]`` does not
name (keys ``"module:qualname"``, or a bare §4.6/§5 model module; values
one-line reasons), and every key naming no def.  This package, the
auditor, is not audited.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.framework import _read_pyproject, find_root

Site = Tuple[str, int]  # (absolute file path, first line of the def)
Command = Tuple[List[str], Optional[Path]]  # (argv, file fed to stdin)

_RECORDER = """\
import os, sys, threading
_root, _seen = {root!r}, set()
_log = os.open(os.path.join({logs!r}, "reach-%d.log" % os.getpid()),
               os.O_WRONLY | os.O_CREAT | os.O_APPEND)
def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        path = os.path.abspath(code.co_filename)
        if path.startswith(_root):
            os.write(_log, ("%s\\t%d\\n" % (path, code.co_firstlineno)).encode())
sys.setprofile(_profile)
threading.setprofile(_profile)
"""

# CI's serve smoke writes its requests with the wire module.
_REQUESTS = """\
import json, sys
from repro.megis import wire
from repro.sequences.io import reads_from_fastq
reads = reads_from_fastq(open(sys.argv[1] + "/ds/reads.fastq").read())
with open(sys.argv[1] + "/requests.jsonl", "w") as out:
    for i in range(6):
        chunk = [r.sequence for r in reads[i * 20:(i + 1) * 20]]
        out.write(json.dumps(wire.request_record(f"s{i}", chunk)) + "\\n")
"""


def entry_points(root: Path, work: Path) -> List[Command]:
    """The user entry points; CI's serve smoke works in ``work``."""
    py, cli = sys.executable, [sys.executable, "-m", "repro.cli"]
    world = str(work / "world.megis")
    return [
        ([py, "-m", "repro.experiments", "all"], None),
        *(([py, str(script)], None) for script in sorted((root / "examples").glob("*.py"))),
        ([py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py"], None),
        (cli + ["check"], None),
        (cli + ["simulate", str(work / "ds"), "--reads", "120", "--seed", "5"], None),
        (cli + ["index", "build", str(work / "ds" / "references.fasta"), world], None),
        ([py, "-c", _REQUESTS, str(work)], None),
        (cli + ["serve", "--index", world, "--workers", "2", "--strict-order"],
         work / "requests.jsonl"),
    ]


def defs(package: Path) -> Dict[Site, str]:
    """Every def under ``package`` by site, named ``module:qualname``."""
    found: Dict[Site, str] = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(str(path), line)] = f"{module}:{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return found


def record(commands: Sequence[Command], package: Path, cwd: Path) -> Set[Site]:
    """The sites under ``package`` that ``commands`` reach, each run in
    turn as a recorded child; a failing command exits the audit."""
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as logs:
        recorder = _RECORDER.format(root=str(package.resolve()) + os.sep, logs=logs)
        (Path(logs) / "sitecustomize.py").write_text(recorder, encoding="utf-8")
        path = [logs, str(package.resolve().parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for argv, stdin in commands:
            with open(stdin if stdin else os.devnull, "rb") as feed:
                run = subprocess.run(argv, cwd=cwd, env=env, stdin=feed,
                                     capture_output=True, text=True)
            if run.returncode:
                raise SystemExit(f"repro reach: {' '.join(argv)} exited {run.returncode}:"
                                 f"\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
        lines = [line.rsplit("\t", 1) for log in Path(logs).glob("reach-*.log")
                 for line in log.read_text(encoding="utf-8").splitlines()]
    return {(site, int(lineno)) for site, lineno in lines}


def unreached(found: Mapping[Site, str], reached: Set[Site],
              table: Mapping[str, str]) -> Tuple[List[Site], List[str]]:
    """Unlisted sites nothing reached, and table keys naming no def."""
    names = set(found.values())
    modules = {name.split(":")[0] for name in names}
    missing = [site for site, name in sorted(found.items())
               if site not in reached and name not in table
               and name.split(":")[0] not in table]
    stale = sorted(key for key in table if key not in names and key not in modules)
    return missing, stale


def main() -> int:
    root = find_root()
    package = root / "src" / "repro"
    tool = _read_pyproject(root / "pyproject.toml").get("tool", {})
    table = tool.get("repro", {}).get("reach", {})
    auditor = str(Path(__file__).resolve().parent) + os.sep
    found = {site: name for site, name in defs(package).items()
             if not site[0].startswith(auditor)}
    with tempfile.TemporaryDirectory(prefix="repro-reach-work-") as work:
        reached = record(entry_points(root, Path(work)), package, root)
    missing, stale = unreached(found, reached, table)
    for path, line in missing:
        print(f"{Path(path).relative_to(root)}:{line}: {found[(path, line)]} "
              "is reached by no entry point and not listed in [tool.repro.reach]")
    for key in stale:
        print(f"pyproject.toml: [tool.repro.reach] {key!r} names no function")
    hit = sum(site in reached for site in found)
    print(f"{len(found)} functions: {hit} reached, {len(found) - hit - len(missing)} "
          f"listed, {len(missing)} unaccounted for, {len(stale)} stale entries")
    return 1 if missing or stale else 0
