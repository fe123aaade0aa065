"""Fresh-process measurements: CLI start-up time and the import breakdown.

Each measurement starts one discarded warm-up process first, so the file
cache is equally warm for whichever commit is measured.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from carbongame import GameMode, ModelParams, solve


class ColdStartError(RuntimeError):
    """A fresh process failed or printed something other than expected."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(cmd: list, root: Path) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise ColdStartError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
    return elapsed, proc


def _check_solve_output(stdout: str) -> None:
    """The CLI's printed steady states must equal an in-process solve."""
    blocks = {}
    for block in stdout.strip().split("\n\n"):
        lines = block.splitlines()
        fields = dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)
        blocks[lines[0].strip("[]")] = fields
    for mode in GameMode:
        expected = repr(float(solve(mode, ModelParams()).H_d))
        got = blocks.get(mode.value, {}).get("H_d")
        if got != expected:
            raise ColdStartError(f"carbongame solve printed H_d = {got} for "
                                 f"{mode.value}, expected {expected}")


def setup_seconds(root: Path, repeats: int, between=None) -> list:
    """(start, end) perf_counter times of ``carbongame solve --mode all`` in
    fresh processes. ``between`` is called before each process and after the
    last, where a caller can sample the machine's speed."""
    cmd = [sys.executable, "-m", "carbongame.cli", "solve", "--mode", "all"]
    spans = []
    for k in range(repeats + 1):
        if between:
            between()
        start = time.perf_counter()
        elapsed, proc = _run(cmd, root)
        _check_solve_output(proc.stdout)
        if k:
            spans.append((start, start + elapsed))
    if between:
        between()
    return spans


def _import_tree(stderr: str) -> list:
    """Parse ``-X importtime`` lines into (name, cumulative_us, children).

    Lines come children first; a child's name is indented two spaces deeper
    than its parent's.
    """
    pending: dict = {}
    roots = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the column header line
        raw = parts[2].rstrip()
        stripped = raw.lstrip()
        depth = (len(raw) - len(stripped) - 1) // 2
        node = (stripped, cumulative, pending.pop(depth + 1, []))
        if depth == 0:
            roots.append(node)
        else:
            pending.setdefault(depth, []).append(node)
    return roots


def _scipy_us(nodes: list) -> int:
    """Time in scipy subtrees entered from outside scipy."""
    total = 0
    for name, cumulative, children in nodes:
        if name == "scipy" or name.startswith("scipy."):
            total += cumulative
        else:
            total += _scipy_us(children)
    return total


def import_breakdown(root: Path, repeats: int) -> dict:
    """Median import.carbongame_ms and import.scipy_ms over fresh processes."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import carbongame"]
    own, scipy = [], []
    for k in range(repeats + 1):
        _, proc = _run(cmd, root)
        roots = _import_tree(proc.stderr)
        top = [c for name, c, _ in roots if name == "carbongame"]
        if not top:
            raise ColdStartError("-X importtime shows no carbongame import")
        if k:
            own.append(top[0] / 1e3)
            scipy.append(_scipy_us(roots) / 1e3)
    return {"import.carbongame_ms": statistics.median(own),
            "import.scipy_ms": statistics.median(scipy)}
