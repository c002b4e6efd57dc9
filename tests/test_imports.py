"""Each module imports alone in a fresh interpreter, and the package root imports none."""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import scop

SRC = str(Path(scop.__file__).resolve().parent.parent)
ROOT_ONLY = "import scop, sys; sys.exit([m for m in sys.modules if m.startswith('scop.')] or 0)"


def _run(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                       capture_output=True, text=True, timeout=60)
    return r.returncode, r.stderr


def test_each_module_imports_in_a_fresh_interpreter():
    # an import that works only after the root imported a sibling would pass in-process
    codes = {m.name: f"import scop.{m.name}" for m in pkgutil.iter_modules(scop.__path__)}
    codes["scop"] = ROOT_ONLY
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = dict(zip(codes, pool.map(_run, codes.values())))
    assert {name: err for name, (code, err) in results.items() if code} == {}
    assert "engine" in results  # the modules were found
