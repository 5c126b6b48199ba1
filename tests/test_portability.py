"""Outputs do not depend on the BLAS build.

No product goes through BLAS, so a process on any OpenBLAS kernel, or with
numpy's newer SIMD dispatch turned off, writes the bytes this one writes.
Each environment runs this file as a script in a subprocess, which prints
the digests of a desk solve, a short preset window and a small certify.

    python tests/test_portability.py WORKDIR
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vaxmpc
from vaxmpc import cli
from vaxmpc.mpc import solve_ocp

from test_mpc import bits_digest, random_instance

#: The variables an environment sets: one OpenBLAS kernel each, and numpy's
#: dispatch held to its x86-64-v2 baseline (numpy 2.4's feature names).
ENVIRONMENTS = {
    **{kernel: {"OPENBLAS_CORETYPE": kernel}
       for kernel in ("Haswell", "SkylakeX", "Sandybridge", "Prescott")},
    "no-dispatch": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def digests(work: Path) -> dict[str, str]:
    """sha256 of an eight-group desk solve's bits, of each file a preset
    ``simulate`` of days 1-62 writes (the cold day-61 and warm day-62
    solves) and of a 2,000-sample ``certify`` report."""
    problem, warm = random_instance(7)
    assert problem.n_a == 8
    out = {"desk solve": bits_digest([solve_ocp(problem, warm)])}
    config = work / "preset.json"
    config.write_text(json.dumps(
        {"preset": "wallonia-2020", "policy": "mpc", "mpc": {"strategy_horizon": 62}}
    ))
    run, report = work / "preset-mpc", work / "certify.json"
    assert cli.main(["--quiet", "simulate", "--config", str(config), "--out", str(run)]) == 0
    assert cli.main(["--quiet", "certify", "--config", str(config), "--samples", "2000",
                     "--seed", "3", "--out", str(report)]) == 0
    for path in [*sorted(run.iterdir()), report]:
        out[path.relative_to(work).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def here(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("in-process"))


@pytest.mark.parametrize("name", list(ENVIRONMENTS))
def test_same_bytes_in_every_environment(name, here, tmp_path):
    env = dict(os.environ, **ENVIRONMENTS[name])
    src = str(Path(vaxmpc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    there = json.loads(done.stdout.splitlines()[-1])
    assert len(here) == 5
    assert there == here


if __name__ == "__main__":
    print(json.dumps(digests(Path(sys.argv[1]))))
