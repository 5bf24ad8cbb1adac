"""The CI workflow's check steps run here, as the runner runs them.

Every `run:` step of `.github/workflows/tests.yml` but "Install", "Tier-1
tests" and "Benchmark smoke" runs under `bash --noprofile --norc -eo
pipefail`, as a GitHub runner runs a step, with the checkout's `src` on
PYTHONPATH, RUNNER_TEMP a fresh directory and `lattice-succ` a shim for
`python -m lattice_succ.cli`. A nonzero exit fails the test, and so does a
step it cannot run: an option or expression this runner does not know.

The workflow's steps are plain `run: |` blocks, so a small reader parses
them; PyYAML is not a dependency.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# Install needs the network, the tier-1 step is this suite and the benchmark has its own gate.
NOT_RUN = ("Install", "Tier-1 tests", "Benchmark smoke")
RUNNER_TEMP_EXPR = "${{ runner.temp }}"

ITEM = re.compile(r"( *)- ([\w-]+):(?: (.*))?$")
KEY = re.compile(r"( *)([\w-]+):(?: (.*))?$")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def read_steps(text: str) -> list[dict[str, str]]:
    """The steps of the workflow's job, in order, as {key: value}.

    A `|` block's value is its text, stripped of the indent of its first line
    and ending in one newline, as YAML reads it; a key's nested mapping (such
    as `with:`) is kept as its raw lines. Comment lines at key level are skipped,
    and a line the reader cannot place raises ValueError.
    """
    lines = text.splitlines()
    n = next(i for i, line in enumerate(lines) if line.strip() == "steps:") + 1
    steps: list[dict[str, str]] = []
    item_indent = None
    while n < len(lines):
        line = lines[n]
        n += 1
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        item = ITEM.match(line)
        if item and item_indent in (None, len(item[1])):
            item_indent = len(item[1])
            steps.append({})
            key, value = item[2], item[3] or ""
        else:
            if item_indent is None or _indent(line) < item_indent:
                break  # past the steps
            pair = KEY.match(line)
            if not pair or len(pair[1]) != item_indent + 2:
                raise ValueError(f"line {n} of the workflow is not a step key: {line!r}")
            key, value = pair[2], pair[3] or ""
        block = []
        while n < len(lines) and (not lines[n].strip() or _indent(lines[n]) > item_indent + 2):
            block.append(lines[n])
            n += 1
        while block and not block[-1].strip():
            block.pop()
        if value == "|":
            pad = min(_indent(b) for b in block if b.strip())
            if _indent(next(b for b in block if b.strip())) != pad:
                raise ValueError(f"the block of {key!r} before line {n} starts deeper than it goes on")
            value = "\n".join(b[pad:] for b in block) + "\n"
        elif block:
            if value:
                raise ValueError(f"{key!r} before line {n} has a value and a nested block")
            value = "\n".join(block) + "\n"
        steps[-1][key] = value
    return steps


def _shim(path: Path, argv: str) -> None:
    path.write_text(f'#!/bin/sh\nexec {argv} "$@"\n')
    path.chmod(0o755)


def test_workflow_check_steps_pass(tmp_path):
    steps = [s for s in read_steps(WORKFLOW.read_text()) if "run" in s]
    names = [s.get("name") for s in steps]
    # A renamed Install step would otherwise be run, and it needs the network.
    assert all(name in names for name in NOT_RUN), names
    checks = [s for s in steps if s.get("name") not in NOT_RUN]
    assert checks
    for step in checks:
        unknown = set(step) - {"name", "run", "working-directory"}
        assert not unknown, f"step {step.get('name')!r} has keys this runner does not run: {sorted(unknown)}"
        assert "${{" not in step["run"], f"step {step['name']!r} uses an expression this runner does not expand"
        assert step.get("working-directory", RUNNER_TEMP_EXPR) == RUNNER_TEMP_EXPR, step["name"]

    bin_dir, runner_temp = tmp_path / "bin", tmp_path / "runner_temp"
    bin_dir.mkdir()
    runner_temp.mkdir()
    # The steps call python and python3 as setup-python leaves them: the interpreter of this run.
    _shim(bin_dir / "lattice-succ", f'"{sys.executable}" -m lattice_succ.cli')
    for name in ("python", "python3"):
        _shim(bin_dir / name, f'"{sys.executable}"')
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["RUNNER_TEMP"] = str(runner_temp)
    for step in checks:
        script = tmp_path / "step.sh"
        script.write_text(step["run"])
        cwd = runner_temp if "working-directory" in step else ROOT
        done = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
        )
        if done.returncode:
            pytest.fail(
                f"step {step['name']!r} exited {done.returncode}\n"
                f"stdout:\n{done.stdout[-3000:]}\nstderr:\n{done.stderr[-3000:]}"
            )
