"""Static checks over the package, the tests and the demos."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _scanned_files():
    for top in ("src/graphdp", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            # the package's __init__ imports names only to re-export them
            if path.name != "__init__.py":
                yield path


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    hits = []
    for path in _scanned_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in _unused_imports(tree):
            hits.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not hits, "imported but never used:\n" + "\n".join(hits)


def _unused_parameters(tree: ast.Module) -> list:
    """(line, function, parameter) for each parameter its body never reads;
    ``self``, ``cls`` and ``_``-prefixed names are exempt."""
    hits = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        hits += [
            (fn.lineno, name, p.arg)
            for p in params
            if p.arg not in ("self", "cls")
            and not p.arg.startswith("_")
            and p.arg not in read
        ]
    return hits


def test_no_unused_parameters():
    # a parameter no body reads is a knob that changes nothing
    hits = []
    for path in sorted((ROOT / "src" / "graphdp").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, fn, arg in _unused_parameters(tree):
            hits.append(f"{path.relative_to(ROOT)}:{line}: {fn}({arg})")
    assert not hits, "parameters never read:\n" + "\n".join(hits)


def test_read_rules_have_one_home():
    # the length rule and the mapping requests live in graphs.py, so the
    # planner, the CLI and the cost model cannot batch reads by two rules;
    # a workload that checks its reads at construction needs no catch-all
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "graphdp").glob("*.py"))
    }
    naming = [name for name, text in sources.items() if "SHORT_READ_THRESHOLD" in text]
    assert naming == ["graphs.py"], naming
    requests = re.compile(r"""["']auto["'],\s*["']short["'],\s*["']long["']""")
    spelled = [name for name, text in sources.items() for _ in requests.finditer(text)]
    assert spelled == ["graphs.py"], spelled
    catch_all = re.compile(r"except\s*(\(\s*)?(Base)?Exception\b")
    assert [name for name, text in sources.items() if catch_all.search(text)] == []


def _names_read(tree: ast.Module) -> list:
    """(name, line) for each name the tree reads: a name, an attribute, an
    imported name, or a string that spells one, as the tracer's wraps do."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def test_every_definition_is_referenced():
    # a module-level function or class that nothing in the package, its
    # exports or the benchmark names outside its own body is dead code;
    # tests and demos do not count as references
    sources = sorted((ROOT / "src" / "graphdp").glob("*.py"))
    trees = {
        p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sources + sorted((ROOT / "perfbench").rglob("*.py"))
    }
    refs: dict = {}
    for path, tree in trees.items():
        for name, line in _names_read(tree):
            refs.setdefault(name, []).append((path, line))
    hits = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in sources
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(
            where != path or not node.lineno <= line <= node.end_lineno
            for where, line in refs.get(node.name, [])
        )
    ]
    assert not hits, "defined but never referenced:\n" + "\n".join(hits)


# defaults no production call sets, each kept for the reason given
_UNSET_DEFAULTS = {
    ("make_tile_workload", "n"): "tests build clique chains smaller than 131,072",
    ("sweep_tile_size", "g"): "tests sweep graphs smaller than the clique chain",
}


def _defaulted(tree: ast.Module) -> list:
    """(line, function, positional names, defaulted names) per function;
    a method's ``self`` or ``cls`` is not positional to its callers."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        defaulted = set(pos[len(pos) - len(a.defaults):])
        defaulted |= {
            p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        }
        if pos[:1] in (["self"], ["cls"]):
            pos = pos[1:]
        out.append((fn.lineno, fn.name, pos, defaulted))
    return out


def _callee(expr):
    return getattr(expr, "id", None) or getattr(expr, "attr", None)


def _set_by_calls(trees: list, positional: dict) -> set:
    """(function, parameter) pairs some call passes, by position or by
    keyword; a function handed to a call takes that call's later arguments."""
    passed = set()

    def record(name, args, keywords):
        for pos in positional.get(name, []):
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    passed.update((name, p) for p in pos[i:])
                    break
                if i < len(pos):
                    passed.add((name, pos[i]))
        for kw in keywords:
            if kw.arg is not None:
                passed.add((name, kw.arg))
            else:  # **kwargs may set any parameter
                for pos in positional.get(name, []):
                    passed.update((name, p) for p in pos)

    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            record(_callee(call.func), call.args, call.keywords)
            for i, arg in enumerate(call.args):
                if _callee(arg) in positional:
                    record(_callee(arg), call.args[i + 1:], call.keywords)
    return passed


def test_every_option_is_set_by_a_caller():
    # a default no production call overrides is a constant in disguise;
    # tests and demos do not count as callers
    sources = sorted((ROOT / "src" / "graphdp").rglob("*.py"))
    callers = sources + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {
        p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in callers
    }
    defs = [(p, *d) for p in sources for d in _defaulted(trees[p])]
    positional: dict = {}
    for _, _, fn, pos, _ in defs:
        positional.setdefault(fn, []).append(pos)
    passed = _set_by_calls(list(trees.values()), positional)
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {fn}({arg})"
        for path, line, fn, _, defaulted in defs
        for arg in sorted(defaulted)
        if (fn, arg) not in passed and (fn, arg) not in _UNSET_DEFAULTS
    ]
    assert not hits, "defaults no caller overrides:\n" + "\n".join(hits)


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _fw_callers(path: Path) -> set:
    """Module-level functions of ``path`` that call ``floyd_warshall_dense``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "floyd_warshall_dense"
            for n in ast.walk(fn)
        )
    }


def test_tracer_hooks_resolve():
    # the benchmark's tracer times a layer by replacing the names it wraps;
    # a name that moved or vanished drops that layer's time from the trace
    tracer = _load_tracer()
    # removed from graphdp.apsp together with the edge-list boundary graph,
    # and with the per-component inject, re-close and pairwise merge that
    # one factored correction per level replaced; their wraps and the
    # re-close site go when the benchmark re-points the tracer
    stale = {
        ("graphdp.apsp", "build_boundary_graph"),
        ("graphdp.apsp", "min_plus_merge"),
        ("graphdp.apsp", "inject"),
    }
    stale_sites = {"reinject"}
    missing = {
        (modname, attr)
        for modname, attr, _, _ in tracer.WRAPS
        if not hasattr(importlib.import_module(modname), attr)
    }
    assert missing <= stale, f"tracer wraps missing names: {sorted(missing - stale)}"

    # Floyd-Warshall time is filed by the calling function's name
    apsp = importlib.import_module("graphdp.apsp")
    sites = set(tracer.FW_SITES) - stale_sites
    for site in sites:
        assert inspect.isfunction(getattr(apsp, site, None)), site
    assert _fw_callers(Path(apsp.__file__)) == sites


def test_tracer_describes_a_run(tmp_path):
    # the traced benchmark reads counts out of the engines' results; a
    # renamed field or a vanished hook shows here as a zero count
    from graphdp.graphs import (
        dump_edge_list,
        dump_fasta,
        gen_clustered,
        gen_genome,
        gen_reads,
        parse_gfa,
    )

    from graphdp.partition import build_hierarchy

    g = gen_clustered(10, 40, seed=2)
    dump_edge_list(g, str(tmp_path / "g.edges"))
    gfa, _ = gen_genome(600, 0.05, seed=2)
    (tmp_path / "g.gfa").write_text(gfa)
    dump_fasta(gen_reads(parse_gfa(gfa), 6, 80, 0.02, seed=2), str(tmp_path / "r.fa"))

    tracer = _load_tracer()
    tr = tracer.Tracer()
    cli = importlib.import_module("graphdp.cli")
    tr.install()
    try:
        rc_apsp = cli.main(["apsp", "--graph", str(tmp_path / "g.edges"),
                            "--max-tile", "32", "--model", "--out", str(tmp_path / "apsp")])
        apsp_spans = tr.take()
        rc_s2g = cli.main(["s2g", "--graph", str(tmp_path / "g.gfa"), "--reads",
                           str(tmp_path / "r.fa"), "--model", "--out", str(tmp_path / "s2g")])
        s2g_spans = tr.take()
    finally:
        tr.uninstall()
    assert [rc_apsp, rc_s2g] == [0, 0]
    m = tracer.rep_metrics(apsp_spans, 32)
    # the engine closes each component and the top, as the schedule lists;
    # a level's components of one size close as one stack, one kernel call
    assert m["apsp.fw_events.close"] > 0
    hier = build_hierarchy(g, 32)
    stacks = sum(len(set(lv.partition.sizes().tolist()) - {0}) for lv in hier.levels)
    assert m["minplus.fw_calls"] == stacks + m["apsp.fw_events.top"]
    m = tracer.rep_metrics(s2g_spans, None)
    assert m["s2g.node_windows"] > 0
    assert m["s2g.self_updates"] + m["s2g.hop_updates"] > 0
    # an s2g run loads the GFA (cli.load_genome_graph) and the reads
    # (cli.load_fasta); each is a graphs.load span
    assert m["graphs.load_s"] > 0
    assert sum(span[0] == "graphs.load" for span in s2g_spans) == 2
