"""Structural guards on the CSR engine: no dead shard methods, no Ray
Data in shard processes, and sources that compile warning-free."""

import ast
import os
import re
import subprocess
import sys
import warnings

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
    """Shard hosts import ``graphx_ray.state.csr``, and the modules of the
    shard classes they load (SVD++, truss); Ray Data must stay out of
    their processes (it costs every idle host memory)."""
    code = (
        "import sys, ray, graphx_ray.state.csr, graphx_ray.pipelines.svdpp, "
        "graphx_ray.state.truss; print('ray.data' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=ROOT)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_sources_compile_with_warnings_as_errors():
    """An invalid escape such as ``\\s`` in a non-raw string is a warning
    today and a syntax error in later Pythons: every module must compile
    with warnings turned into errors."""
    failed = []
    for path, src in _sources().items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(src, path, "exec")
            except SyntaxError as e:
                failed.append(f"{os.path.relpath(path, ROOT)}: {e}")
    assert failed == []
