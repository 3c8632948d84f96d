"""Building and caching the compiled kernel's C level sweep.

The sweep is compiled with the host's ``cc`` on the first
:class:`~repro.hdl.compiled.CompiledSimulator` of a process and cached
under ``${XDG_CACHE_HOME:-~/.cache}/repro``.  Each case runs in a fresh
interpreter with its own empty cache directory and ``PATH``, because a
process loads the library once.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent

#: prints the failing code, or the first output bit after one cycle
FIRST_SIMULATOR = """
from pathlib import Path
log = Path("{log}")
calls = log.read_text() if log.exists() else ""
import repro, repro.cli
assert calls == (log.read_text() if log.exists() else ""), "import ran cc"
from repro.hdl import CompiledSimulator
from repro.hdl.compiled import CompileError
from repro.service.core import make_subsystem
circuit = make_subsystem("small-improved").circuit
try:
    sim = CompiledSimulator(circuit, machines=70)
except CompileError as err:
    print(err.code)
    print(err)
else:
    sim.step({{}})
    print("ok", sim.peek(circuit.net_names[-1]))
"""


def _run(tmp_path: Path, path_dirs: list[Path], log: Path | None = None,
         count: int = 1) -> list[str]:
    env = {**os.environ,
           "PYTHONPATH": str(REPO / "src"),
           "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PATH": os.pathsep.join(str(d) for d in path_dirs)}
    code = FIRST_SIMULATOR.format(log=log or tmp_path / "no-log")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
             for _ in range(count)]
    outs = [p.communicate(timeout=240)[0] for p in procs]
    assert all(p.returncode == 0 for p in procs), outs
    return outs


def _fake_cc(tmp_path: Path, body: str) -> tuple[Path, Path]:
    """A ``cc`` that logs every call and otherwise runs ``body``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "cc.log"
    script = bin_dir / "cc"
    script.write_text(f'#!/bin/sh\necho "$@" >> {log}\n'
                      f'if [ "$1" = --version ]; then echo fake 1.0; '
                      f'exit 0; fi\n{body}\n')
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return bin_dir, log


def _cache_files(tmp_path: Path) -> list[str]:
    return sorted(p.name for p in (tmp_path / "cache" / "repro").iterdir())


def test_no_compiler_raises_e121_at_the_first_simulator(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    [out] = _run(tmp_path, [empty])
    assert out.splitlines()[0] == "E121", out
    assert "no C compiler" in out and "hint:" in out


def test_failing_build_raises_e121_and_leaves_no_files(tmp_path):
    bin_dir, log = _fake_cc(tmp_path,
                            'echo "sweep.c: fake error" >&2\nexit 1')
    [out] = _run(tmp_path, [bin_dir], log=log)
    assert out.splitlines()[0] == "E121", out
    assert "fake error" in out
    calls = log.read_text().splitlines()
    assert calls[0] == "--version"
    assert calls[1].startswith("-O2 -shared -fPIC -o ")
    assert "-march=native" not in log.read_text()
    assert _cache_files(tmp_path) == []


def test_import_runs_no_compiler_and_the_cache_is_private(tmp_path):
    real_cc = Path(subprocess.run(["sh", "-c", "command -v cc"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip())
    bin_dir, log = _fake_cc(tmp_path, f'exec {real_cc} "$@"')
    [out] = _run(tmp_path, [bin_dir, real_cc.parent], log=log)
    assert out.startswith("ok "), out
    assert len(log.read_text().splitlines()) == 2   # --version, build
    cache = tmp_path / "cache" / "repro"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    # a second process loads the cached library without building
    [again] = _run(tmp_path, [bin_dir, real_cc.parent], log=log)
    assert again == out
    assert log.read_text().splitlines()[2:] == ["--version"]


def test_concurrent_builders_share_one_library(tmp_path):
    real_cc = Path(subprocess.run(["sh", "-c", "command -v cc"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip())
    outs = _run(tmp_path, [real_cc.parent], count=2)
    assert outs[0].startswith("ok ") and outs[0] == outs[1], outs
    [name] = _cache_files(tmp_path)
    assert name.startswith("sweep-") and name.endswith(".so")
