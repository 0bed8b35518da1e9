"""Exit code, output and artefact digests of every command on every standard input.

Usage, from anywhere:

    python3 tools/artefact_digests.py CHECKOUT --workers N

Imports ``kirchhofflab`` from ``CHECKOUT/src`` and runs ``cli.main`` in this
process on each shipped scenario of ``CHECKOUT/scenarios`` and on each
benchmark cell that ``CHECKOUT/perfbench/workloads.py`` generates for seeds
1 and 7919, under every command, with ``--workers N``.  Then it runs each
shipped scenario with the largest double at its top mode's velocity, and
separately at its top mode's position, to show how out-of-range data ends
(family data is written out as explicit lists first).  Then come the parse
errors: each shipped scenario with each key dropped, with an unknown key in
each object, and with each number replaced by ``"x"``, each run once under
``norms``, since every command parses its scenario first.  Last come two
sections that pin rules across fields: each shipped scenario with each key
set to ``null``, under ``norms``; and each shipped scenario with each pair of
the range-changing fields (``options.sigma``, ``gevrey.eta``, ``gevrey.s``,
``horizon`` and the first mode's position) at each pair of the values 1e300
and the largest double, under every command.  Prints one JSON
line per run: the input, the command, the exit code, stdout, stderr, the text
of each warning and of an exception that escaped ``main``, and the sha256 of
each artefact.  Runs go in a temporary directory with relative paths, so two
checkouts print the same lines when they behave the same:

    diff <(python3 tools/artefact_digests.py OLD --workers 2) \\
         <(python3 tools/artefact_digests.py NEW --workers 2)

A checkout whose artefacts depend on the BLAS thread count prints different
hashes at different thread counts: before its per-sample series were summed
over modes in blocks of 256 samples, OpenBLAS split a matrix-vector product
over all samples across its threads, and the columns at the split took another
kernel path.  So take a reference from such a checkout at one thread, which
does not depend on how many CPUs the host has, and compare a newer checkout
with it at any thread count:

    OPENBLAS_NUM_THREADS=1 python3 tools/artefact_digests.py OLD --workers N

Nothing in CHECKOUT is written, bytecode included.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib.util
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

SEEDS = (1, 7919)
COMMANDS = ("simulate", "fixedpoint", "linear-audit", "certify", "norms")
# Fields that move a run toward the edge of the double range, and their extreme values.
RANGE_FIELDS = (("options", "sigma"), ("gevrey", "eta"), ("gevrey", "s"), ("horizon",),
                ("initial", "position", 0))
EXTREMES = (1e300, sys.float_info.max)


def _explicit_initial(name: str, doc: dict, scenario) -> dict:
    """The initial data of ``doc`` as explicit position and velocity lists, one per mode."""
    scn = scenario.parse_scenario(doc, name)
    return {"position": scn.position.tolist(), "velocity": scn.velocity.tolist()}


def _out_of_range(name: str, doc: dict, scenario) -> list[tuple[Path, dict]]:
    """``doc`` with the largest double at its top mode's velocity, then at its position."""
    variants = []
    for key in ("velocity", "position"):
        initial = _explicit_initial(name, doc, scenario)
        initial[key][-1] = sys.float_info.max
        variants.append((Path(f"top-{key}") / name, dict(doc, initial=initial)))
    return variants


def _extreme_pairs(name: str, doc: dict, scenario) -> list[tuple[Path, dict]]:
    """``doc`` with each pair of RANGE_FIELDS at each pair of EXTREMES."""
    base = dict(doc, initial=_explicit_initial(name, doc, scenario))
    variants = []
    for fields in itertools.combinations(RANGE_FIELDS, 2):
        for values in itertools.product(EXTREMES, repeat=2):
            out = copy.deepcopy(base)
            for path, value in zip(fields, values):
                out.setdefault(path[0], {})  # a scenario may have no options
                _at(out, path[:-1])[path[-1]] = value
            label = ",".join(f"{'.'.join(map(str, path))}={value!r}"
                             for path, value in zip(fields, values))
            variants.append((Path("extreme") / Path(name).stem / f"{label}.json", out))
    return variants


def _paths(node, path=()):
    """The path of every object value and list entry under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _at(node, path):
    """The value at ``path`` under ``node``."""
    for part in path:
        node = node[part]
    return node


def _malformed(name: str, doc: dict, kinds=("drop", "unknown", "text")) -> list[tuple[Path, dict]]:
    """``doc`` with each edit of ``kinds``: each key dropped ("drop"), an unknown key in each
    object ("unknown"), each number "x" ("text"), or each key null ("null")."""
    paths = list(_paths(doc))
    keys = [p for p in paths if isinstance(p[-1], str)]
    edits = {
        "drop": keys,
        "unknown": [p for p in [(), *paths] if isinstance(_at(doc, p), dict)],
        "text": [p for p in paths
                 if isinstance(_at(doc, p), (int, float)) and not isinstance(_at(doc, p), bool)],
        "null": keys,
    }
    variants = []
    for kind in kinds:
        for path in edits[kind]:
            out = copy.deepcopy(doc)
            if kind == "unknown":
                _at(out, path)["unexpected"] = 1
            elif kind == "drop":
                del _at(out, path[:-1])[path[-1]]
            else:
                _at(out, path[:-1])[path[-1]] = "x" if kind == "text" else None
            dotted = ".".join(map(str, path)) or "root"
            variants.append((Path(kind) / Path(name).stem / f"{dotted}.json", out))
    return variants


def _inputs(checkout: Path, into: Path, scenario) -> list[tuple[Path, tuple[str, ...]]]:
    """Write every input scenario under ``into``; returns their paths relative to it, each
    with the commands to run on it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", checkout / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    shipped = sorted((checkout / "scenarios").glob("*.json"))
    docs = [(Path("shipped") / p.name, json.loads(p.read_text(encoding="utf-8"))) for p in shipped]
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for doc in workloads.scenarios(workload, seed):
                docs.append((Path(f"seed{seed}") / workload / f"{doc['name']}.json", doc))
    for rel, doc in docs[:len(shipped)]:
        docs += _out_of_range(rel.name, doc, scenario)
    runs = [(rel, COMMANDS) for rel, _ in docs]
    for rel, doc in docs[:len(shipped)]:
        malformed = _malformed(rel.name, doc)
        docs += malformed
        runs += [(path, ("norms",)) for path, _ in malformed]
    for rel, doc in docs[:len(shipped)]:
        nulls = _malformed(rel.name, doc, ("null",))
        docs += nulls
        runs += [(path, ("norms",)) for path, _ in nulls]
    for rel, doc in docs[:len(shipped)]:
        extremes = _extreme_pairs(rel.name, doc, scenario)
        docs += extremes
        runs += [(path, COMMANDS) for path, _ in extremes]
    for rel, doc in docs:
        (into / rel).parent.mkdir(parents=True, exist_ok=True)
        (into / rel).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return runs


def _run(cli, command: str, config: Path, out: Path, workers: int) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    code, raised = None, None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main([command, "--config", str(config), "--out-dir", str(out),
                             "--workers", str(workers)])
        except Exception as exc:  # an escape is a result to compare, not the end of the sweep
            raised = f"{type(exc).__name__}: {exc}"
    artefacts = {}
    if out.is_dir():
        artefacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())}
        shutil.rmtree(out)
    return {
        "config": str(config),
        "command": command,
        "exit": code,
        "raised": raised,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "artefacts": artefacts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="repository checkout to run")
    parser.add_argument("--workers", type=int, required=True, help="the CLI's --workers value")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    import kirchhofflab.cli as cli
    import kirchhofflab.scenario as scenario

    if Path(cli.__file__).resolve().parent != checkout / "src" / "kirchhofflab":
        sys.exit(f"imported kirchhofflab from {cli.__file__}, not from {checkout}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for config, commands in _inputs(checkout, Path(tmp), scenario):
                for command in commands:
                    result = _run(cli, command, config, Path("out"), args.workers)
                    print(json.dumps(result, sort_keys=True), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
