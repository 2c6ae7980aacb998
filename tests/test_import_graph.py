"""The package loads only the scipy submodules its stages use, and its
public names all resolve.

Importing one heavy scipy subpackage (stats pulls in optimize, integrate,
interpolate, spatial and more) costs more start-up time and memory than a
whole small pipeline run, so the import graph is checked in a fresh
interpreter.  Tests themselves may still import scipy.stats as an oracle.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import stochsym

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
         "scipy.interpolate", "scipy.spatial", "scipy.signal")


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


def test_every_public_name_resolves():
    # a name removed from the package but left in __all__ breaks
    # `from stochsym import *` only, which no other test exercises
    code = ("import json, stochsym; "
            "print(json.dumps([n for n in stochsym.__all__ if not hasattr(stochsym, n)]))")
    assert _fresh(code) == []
