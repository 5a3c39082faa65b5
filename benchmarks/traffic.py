"""Which ``src/repro`` defs do the non-test entry points ever execute?

``python benchmarks/traffic.py`` runs the examples, every ``repro``
command in ``.github/workflows/ci.yml`` (plus ``inspect`` and
``figures``), the benches and the four perf workloads, plain and traced,
under ``sys.settrace`` and ``threading.settrace`` (a generated
``sitecustomize`` hooks child processes too), then prints every def that
never executed, per module, with its code lines. ``--gate`` runs the CI
coverage-gate commands the same way, tracing lines, and prints each
package's share of executable lines that ran (pytest-cov's figure,
approximately). A full pass takes about 7 minutes on a 2-vCPU host.

Trap: pytest-benchmark's fixture calls ``sys.settrace(None)`` while it
times, so bench bodies are invisible without ``--benchmark-disable``.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from count_code_lines import code_lines

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
HOOK = """import atexit, json, os, sys, threading
src, lines, seen = os.environ["TRAFFIC_SRC"], "TRAFFIC_LINES" in os.environ, set()
# Defaults bind the globals: shutdown clears them while traced code still runs.
def local(frame, event, arg, seen=seen):  # every event's line ran
    return seen.add((frame.f_code.co_filename, frame.f_lineno)) or local
def hook(frame, event, arg, src=src, seen=seen, lines=lines, local=local):
    if frame.f_code.co_filename.startswith(src):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return local if lines else None
sys.settrace(hook), threading.settrace(hook)
@atexit.register
def dump():
    with open(os.path.join(os.environ["TRAFFIC_OUT"], f"{os.getpid()}.json"), "w") as out:
        json.dump(sorted(seen), out)
"""
#: The byte flip CI applies to a stored chunk before its ``scan`` step.
ROT = ("import glob; p = sorted(glob.glob('{t}/scan-store/job0/*/shard00000/chunk000000.bin'))"
       "[-1]; b = bytearray(open(p, 'rb').read()); b[7] ^= 1; open(p, 'wb').write(bytes(b))")
EXTRA = ["-m repro.tools inspect --store-dir {t}/scan-store", "-m repro.tools figures",
         "-m pytest -q -p no:cacheprovider --benchmark-disable benchmarks"] + [
    f"benchmarks/perf/run.py --workload {w} --seconds 1 --trace {t} --out-dir {{t}}/perf"
    for w in ("fleet_dispatch_1k", "fleet_storm_s3like", "single_write_restore", "serve_flips")
    for t in "01"]


def ci() -> str:
    """The CI workflow, each folded ``run: >`` command joined onto one line."""
    return re.sub(r"\n\s+(?=--|tests/)", " ", (ROOT / ".github/workflows/ci.yml").read_text())


def entry_points() -> list[list[str]]:
    """Interpreter arguments of every entry point (``{t}``: a scratch directory)."""
    commands = [[str(p.relative_to(ROOT))] for p in sorted(ROOT.glob("examples/*.py"))]
    for match in re.finditer(r"python (-m repro\.tools[^\n;]*)", ci()):
        command = shlex.split(match.group(1).replace("/tmp", "{t}"))
        commands += [["-c", ROT]] * (command[2:3] == ["scan"]) + [command]
    return commands + [shlex.split(extra) for extra in EXTRA]


def trace(commands: list[list[str]], lines: bool = False) -> set[tuple[str, int]]:
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(f"{tmp}/hook"), os.mkdir(f"{tmp}/seen")
        Path(tmp, "hook", "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, PYTHONHASHSEED="0", TRAFFIC_SRC=str(SRC), TRAFFIC_OUT=f"{tmp}/seen",
                   PYTHONPATH=os.pathsep.join([f"{tmp}/hook", str(SRC.parent)]))
        if lines:
            env["TRAFFIC_LINES"] = "1"
        for cmd in commands:
            cmd = [arg.replace("{t}", tmp) for arg in cmd]
            print("$ python", shlex.join(cmd), file=sys.stderr, flush=True)
            subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        return {tuple(k) for f in Path(tmp, "seen").iterdir() for k in json.loads(f.read_text())}


def first(node) -> int:
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def dead_defs(body, path: str, seen, prefix: str = ""):
    """(name, lines) of each def that never ran, or class none of whose methods ran."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
            ran = (path, first(node)) in seen or isinstance(node, ast.ClassDef) and (
                not methods or any((path, first(n)) in seen for n in methods))
            if ran:
                yield from dead_defs(node.body, path, seen, f"{prefix}{node.name}.")
            else:
                yield prefix + node.name, range(first(node), node.end_lineno + 1)


def executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    return lines.union(*(executable(c) for c in code.co_consts if hasattr(c, "co_lines")))


def main(argv: list[str]) -> int:
    if "--gate" in argv:
        gates = r"python -m pytest ([^\n]*?) --cov=repro\.(\w+)[^\n]*--cov-fail-under=(\d+)"
        for tests, package, gate in re.findall(gates, ci()):
            files = sorted({f for t in tests.split() for f in glob.glob(str(ROOT / t))})
            seen, want = trace([["-m", "pytest", "-q", "-p", "no:cacheprovider", *files]], True), set()
            for path in (SRC / package).rglob("*.py"):
                code = compile(path.read_text(), str(path), "exec")
                want |= {(str(path), line) for line in executable(code)}
            print(f"repro.{package:12s} {100 * len(want & seen) / len(want):5.1f}%  (gate {gate}%)")
        return 0
    seen, total = trace(entry_points()), 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        counted = code_lines(source)
        for name, span in dead_defs(ast.parse(source).body, str(path), seen):
            total += len(counted.intersection(span))
            print(f"{path.relative_to(SRC.parent)}::{name} {len(counted.intersection(span))}")
    print(f"never executed: {total} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
