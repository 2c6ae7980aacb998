"""A pipeline run loads no scipy subpackage, and the package's public
names all resolve.

Importing one heavy scipy subpackage (stats pulls in optimize, integrate,
interpolate, spatial and more) costs more start-up time and memory than a
whole small pipeline run, so the import graph is checked in a fresh
interpreter.  scipy.sparse and scipy.special alone cost about 23 MB and
0.3 s: both import scipy._lib._util, whose array-API layer imports numpy's
testing, f2py and masked-array packages.  The package has its own CSR
matrix, normal CDF and Clopper-Pearson bounds instead, and solve mode's
certificates are a closed form in numpy.  Only one path loads scipy,
lazily: the network LMI's bisection loads scipy.sparse.linalg when it
factors.  Tests themselves may still import scipy as an oracle.
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
SPARSE_SPECIAL = ("scipy.sparse", "scipy.special", "scipy._lib._util")


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


def test_import_loads_no_scipy_sparse_or_special():
    code = ("import json, sys, stochsym, stochsym.cli; "
            f"print(json.dumps([m for m in {list(SPARSE_SPECIAL)!r} if m in sys.modules]))")
    assert _fresh(code) == []


@pytest.mark.parametrize("r_tilde", [0.0, 0.01], ids=["noise-free", "noisy"])
def test_pipeline_run_loads_no_scipy_linalg(tmp_path, r_tilde):
    # every stage runs: the exact substep's matrix exponential is numpy's,
    # and the coupling, network form, kernel, normal CDF and Clopper-Pearson
    # bounds are the package's own, so neither is scipy.sparse nor
    # scipy.special loaded
    code = f"""
import json, sys
from stochsym import cli
cfg = cli.generate_rooms(n=4, n_trials=40, state_width=0.01, input_step=2e-4,
                         out_dir={str(tmp_path / "out")!r})
if {r_tilde!r}:
    cfg["discretization"]["R_tilde"] = [[{r_tilde!r}]]
    cfg["safety"]["horizon"] = cfg["bound"]["horizon"]
assert cli.run_pipeline(cfg, seed=1) == 0
print(json.dumps([m for m in {list(LINALG + SPARSE_SPECIAL)!r} if m in sys.modules]))
"""
    assert _fresh(code) == []


def test_solve_mode_of_two_state_rooms_loads_no_scipy_linalg(tmp_path):
    # two coupled states per room (air and wall): A and B are not
    # multiples of the identity, and the closed-form solve needs no scipy
    code = f"""
import json, sys
from stochsym import cli
cfg = cli.generate_rooms(n=4, out_dir={str(tmp_path / "out")!r})
cfg["systems"]["template"] = {{
    "A": [[-0.105, 0.02], [0.02, -0.03]], "B": [[0.5, 0.0], [0.0, 0.2]],
    "C1": [[1.0, 0.0]], "C2": [[1.0, 0.0]], "D": [[0.05], [0.0]],
    "G": [[0.5, 0.0], [0.0, 0.1]], "b": [-0.005, 0.0],
    "state_box": {{"lower": [20.0, 20.0], "upper": [21.0, 21.0]}},
    "input_box": {{"lower": [-0.01, -0.01], "upper": [0.01, 0.01]}},
    "internal_box": {{"lower": [40.0], "upper": [42.0]}}}}
cfg["discretization"].update(D_tilde=[[0.0], [0.0]], R_tilde=[[0.0], [0.0]])
del cfg["grid"], cfg["simulation"]["x0"]
cfg["stages"] = ["verify", "compose"]
kappa_tilde = cfg["certificates"]["values"][0]["kappa_tilde"]
cfg["certificates"] = {{"mode": "solve", "kappa_tilde": kappa_tilde, "kappa_bar": 0.499,
                       "Xbar11": [[1e-3]], "Xbar12": [[0.0]], "Xbar21": [[0.0]],
                       "Xbar22": [[-5e-3]]}}
assert cli.run_pipeline(cfg, seed=1) == 0
print(json.dumps([m for m in {list(LINALG + SPARSE_SPECIAL)!r} if m in sys.modules]))
"""
    assert _fresh(code) == []
    cert = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert cert["groups"][0]["certificate"]["M_bar"] == [[1.0, 0.0], [0.0, 1.0]]
    assert (tmp_path / "out" / "composition.json").exists()


def test_every_public_name_resolves():
    # a name removed from the package but left in __all__ breaks
    # `from stochsym import *` only, which no other test exercises
    code = ("import json, stochsym; "
            "print(json.dumps([n for n in stochsym.__all__ if not hasattr(stochsym, n)]))")
    assert _fresh(code) == []
