"""Structural guards on the engine: no dead shard methods, every
exchange dispatched by the one superstep path, one storage spill layout,
no Ray Data in shard processes, and sources that compile warning-free."""

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


def _exchange_methods(trees: dict) -> set:
    """CsrShard's exchange methods: its gathers, which take the senders'
    refs and the receiving part (``(..._refs, j, ...)``), and every
    scatter named beside one in a (scatter, gather) pair anywhere. A name
    another class also defines (the SVD++ and truss shards have their own
    loops) is left to that class."""
    shard = next(n for n in trees[CSR].body
                 if isinstance(n, ast.ClassDef) and n.name == "CsrShard")
    gathers = {
        fn.name for fn in shard.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and len(fn.args.args) > 2
        and fn.args.args[1].arg.endswith("_refs") and fn.args.args[2].arg == "j"
    }

    def head(node):
        if isinstance(node, ast.Tuple) and node.elts and isinstance(node.elts[0], ast.Constant):
            return node.elts[0].value
        return None

    names = set(gathers)
    others = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name != "CsrShard":
                others |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            pairs = []
            if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                pairs.append(node.elts)
            if isinstance(node, ast.Call) and len(node.args) >= 5:
                pairs.append(node.args[3:5])
            for scatter, gather in pairs:
                if head(gather) in gathers and head(scatter):
                    names.add(head(scatter))
    return names - others


def test_exchanges_run_only_in_the_superstep():
    """No exchange is dispatched outside ``Graph._superstep``: ``_wave``
    and ``_scatter`` are called only from ``_superstep``/``_wave``, the
    driver-side hub merge ``_broadcast_hubs`` is gone, and no module
    calls a CsrShard scatter or gather by name (``a.gather_x.remote``)."""
    trees = {p: ast.parse(src) for p, src in _sources().items()}
    exchange = _exchange_methods(trees)
    assert {"scatter_sum", "gather_sum", "scatter_hits_pull", "match_resolve"} <= exchange
    bad = []
    for path, tree in trees.items():
        rel = os.path.relpath(path, ROOT)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "_broadcast_hubs":
                bad.append(f"{rel}: defines _broadcast_hubs")
            for node in ast.walk(fn):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr in ("_wave", "_scatter", "_broadcast_hubs") and fn.name not in (
                    "_superstep", "_wave"
                ):
                    bad.append(f"{rel}:{node.lineno} {fn.name} uses {node.attr}")
                if node.attr == "remote":
                    target = node.value
                    if isinstance(target, ast.Call) and isinstance(target.func, ast.Attribute):
                        target = target.func.value  # x.m.options(...).remote
                    if isinstance(target, ast.Attribute) and target.attr in exchange:
                        bad.append(f"{rel}:{node.lineno} {fn.name} calls {target.attr}")
    assert bad == []


def test_only_the_spill_module_writes_partitioned_parquet():
    """Storage spills have one layout: no module under graphx_ray/ but
    ``state/spill.py`` calls ``write_parquet`` with ``partition_cols``."""
    pkg = os.path.join(ROOT, "graphx_ray")
    bad = []
    for path, src in _sources().items():
        if not path.startswith(pkg + os.sep) or path == os.path.join(pkg, "state", "spill.py"):
            continue
        for node in ast.walk(ast.parse(src)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write_parquet"
                    and any(kw.arg == "partition_cols" for kw in node.keywords)):
                bad.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    assert bad == []


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
