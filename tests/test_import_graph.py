"""The package loads only the scipy submodules its stages use, and its
public names all resolve.

Importing one heavy scipy subpackage (stats pulls in optimize, integrate,
interpolate, spatial and more) costs more start-up time and memory than a
whole small pipeline run, so the import graph is checked in a fresh
interpreter.  The linear-algebra subpackages are kept off the pipeline's
path too: only solve mode loads scipy.linalg, and only the LMI bisection
scipy.sparse.linalg.  Tests themselves may still import scipy.stats or
scipy.linalg as an oracle.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochsym

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
         "scipy.interpolate", "scipy.spatial", "scipy.signal")
LINALG = ("scipy.linalg", "scipy.sparse.linalg")


def _fresh(code: str):
    """JSON printed by `code` run in a new interpreter that imports this package."""
    src = str(Path(stochsym.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_loads_no_heavy_scipy_subpackage():
    code = ("import json, sys, stochsym, stochsym.cli; "
            f"print(json.dumps([m for m in {list(HEAVY)!r} if m in sys.modules]))")
    assert _fresh(code) == []


def test_import_loads_no_scipy_linalg():
    code = ("import json, sys, stochsym, stochsym.cli; "
            f"print(json.dumps([m for m in {list(LINALG)!r} if m in sys.modules]))")
    assert _fresh(code) == []


@pytest.mark.parametrize("r_tilde", [0.0, 0.01], ids=["noise-free", "noisy"])
def test_pipeline_run_loads_no_scipy_linalg(tmp_path, r_tilde):
    # every stage runs: the exact substep's matrix exponential is numpy's
    code = f"""
import json, sys
from stochsym import cli
cfg = cli.generate_rooms(n=4, n_trials=40, state_width=0.01, input_step=2e-4,
                         out_dir={str(tmp_path / "out")!r})
if {r_tilde!r}:
    cfg["discretization"]["R_tilde"] = [[{r_tilde!r}]]
    cfg["safety"]["horizon"] = cfg["bound"]["horizon"]
assert cli.run_pipeline(cfg, seed=1) == 0
print(json.dumps([m for m in {list(LINALG)!r} if m in sys.modules]))
"""
    assert _fresh(code) == []


def test_every_public_name_resolves():
    # a name removed from the package but left in __all__ breaks
    # `from stochsym import *` only, which no other test exercises
    code = ("import json, stochsym; "
            "print(json.dumps([n for n in stochsym.__all__ if not hasattr(stochsym, n)]))")
    assert _fresh(code) == []
