"""tools/digest.py runs against the current library and prints well-formed lines."""

import os
import pathlib
import re
import subprocess
import sys

import admira
from admira import harness

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def test_digest_sections_run(tmp_path):
    # a subprocess, so the script's BLAS thread pins stay out of this session;
    # the solver section is left out for time (the benchmark's problems)
    src = os.path.dirname(os.path.dirname(os.path.abspath(admira.__file__)))
    path = [src, str(TOOLS), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = "import digest; digest.solves = lambda: None; digest.main()"
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    core, *lines = run.stdout.splitlines()
    blas = harness._openblas()
    assert core == f"openblas-core {'unknown' if blas is None else blas[2]().decode()}"
    for name in ("cli/rip/estimate", "cli/rip/pairs", "cli/complete/trace/admira",
                 "cli/complete/trace/svt", "svt/wide/100x140",
                 "svd_truncated/proxy/200x200/start/k3", "svd_truncated/proxy/150x200/start/k3",
                 "least_squares_minnorm/30001x6", "entry/apply_atoms/p11000",
                 "entry/gen_problem/complete-1000/seed1",
                 "cli/sweep/threads3", "cli/phase/threads3", "cli/compare/threads3"):
        assert name in run.stdout
    assert lines and all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
