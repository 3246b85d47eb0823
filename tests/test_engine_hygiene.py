"""Structural guards on the CSR engine: no dead shard methods, and no Ray
Data in shard processes."""

import ast
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CSR = os.path.join(ROOT, "graphx_ray", "state", "csr.py")


def _sources() -> dict:
    paths = [os.path.join(ROOT, "__ray_entry__.py")]
    for d, _, files in os.walk(os.path.join(ROOT, "graphx_ray")):
        paths += [os.path.join(d, f) for f in files if f.endswith(".py")]
    out = {}
    for p in paths:
        with open(p) as f:
            out[p] = f.read()
    return out


def test_every_public_csrshard_method_is_referenced():
    """A public CsrShard method whose name appears nowhere in graphx_ray/
    or __ray_entry__.py but its own ``def`` line has no caller: the driver
    reaches shard methods by name (``a.method.remote`` or a method-name
    string), so every live method's name shows up somewhere."""
    srcs = _sources()
    tree = ast.parse(srcs[CSR])
    shard = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CsrShard")
    dead = []
    for fn in shard.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        word = re.compile(rf"\b{fn.name}\b")
        define = re.compile(rf"^\s*def {fn.name}\(")
        uses = sum(
            1
            for src in srcs.values()
            for line in src.splitlines()
            if word.search(line) and not define.match(line)
        )
        if uses == 0:
            dead.append(fn.name)
    assert dead == [], f"CsrShard methods nothing references: {dead}"


def test_importing_csr_leaves_ray_data_unimported():
    """Shard actors import ``graphx_ray.state.csr``; Ray Data must stay out
    of their processes (it costs every idle actor memory)."""
    code = (
        "import sys, ray, graphx_ray.state.csr; "
        "print('ray.data' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=ROOT)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
