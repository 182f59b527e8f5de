"""tools/digest.py runs against the current library and prints well-formed lines."""

import os
import pathlib
import re
import subprocess
import sys

import admira

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def test_digest_sections_run(tmp_path):
    # a subprocess, so the script's BLAS thread pins stay out of this session;
    # the solver section is left out for time (the benchmark's problems)
    src = os.path.dirname(os.path.dirname(os.path.abspath(admira.__file__)))
    path = [src, str(TOOLS), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = ("import digest; digest.truncations(); digest.floored(); digest.scaled_svt(); "
            "digest.scaled_greedy(); digest.cli_csvs()")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines and all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
