"""Largest difference of each CSV column between two checkouts' artefacts.

Usage, from anywhere:

    python3 tools/artefact_columns.py OLD NEW

Runs ``fixedpoint`` and ``linear-audit`` with ``--workers 1`` on every input
of ``tools/artefact_digests.py`` that runs those commands: the shipped
scenarios, the benchmark cells of seeds 1 and 7919, and the shipped
scenarios' out-of-range and extreme variants.  Each checkout runs in its own
child process, which imports ``kirchhofflab`` from that checkout's ``src`` and
keeps every artefact in a temporary directory.  Then, for each CSV column,
named by command, artefact kind and header (``fixedpoint trajectory.csv
state_gevrey_norm``; every ``modeK.csv`` of a run counts as ``mode.csv``), it
prints the number of files compared and of files that differ, and the largest
absolute difference |new - old| and relative difference, each with the input
where it occurs.  A difference is relative to the largest |old| of its column
in its file: v and vdot cross zero, where a pointwise ratio means nothing.  A
run whose exit code or artefact names differ between the checkouts is listed
first, and its files are not compared.  The last line is the table as JSON.

Nothing in OLD or NEW is written, bytecode included.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

COMMANDS = ("fixedpoint", "linear-audit")


def _collect(checkout: Path, out: Path) -> None:
    """Run COMMANDS on every digest input with ``checkout``; keep artefacts under ``out``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import artefact_digests
    import kirchhofflab.cli as cli
    import kirchhofflab.scenario as scenario

    if Path(cli.__file__).resolve().parent != checkout / "src" / "kirchhofflab":
        sys.exit(f"imported kirchhofflab from {cli.__file__}, not from {checkout}")
    exits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config, commands in artefact_digests._inputs(checkout, Path(tmp), scenario):
            for command in set(COMMANDS) & set(commands):
                run = f"{config.with_suffix('')}/{command}"
                with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("ignore")
                    exits[run] = cli.main([command, "--config", str(Path(tmp) / config),
                                           "--out-dir", str(out / run), "--workers", "1"])
    (out / "exits.json").write_text(json.dumps(exits, sort_keys=True), encoding="utf-8")


def _columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def _kind(run: str, path: Path) -> str:
    """``command artefact`` for a CSV of ``run``: the file name after the scenario name."""
    command = run.rsplit("/", 1)[1]
    return f"{command} {re.sub(r'mode[0-9]+', 'mode', path.name.rsplit('-', 1)[1])}"


def _compare(old: Path, new: Path) -> tuple[list[str], dict[str, dict]]:
    """Runs whose outcome differs, and the per-column table."""
    exits_old = json.loads((old / "exits.json").read_text(encoding="utf-8"))
    exits_new = json.loads((new / "exits.json").read_text(encoding="utf-8"))
    mismatched, table = [], defaultdict(lambda: {
        "files": 0, "differing": 0, "max_abs": 0.0, "max_abs_at": None,
        "max_rel": 0.0, "max_rel_at": None})
    for run in sorted(set(exits_old) | set(exits_new)):
        names_old = sorted(p.name for p in (old / run).glob("*")) if (old / run).is_dir() else []
        names_new = sorted(p.name for p in (new / run).glob("*")) if (new / run).is_dir() else []
        if exits_old.get(run) != exits_new.get(run) or names_old != names_new:
            mismatched.append(f"{run}: exit {exits_old.get(run)} -> {exits_new.get(run)}, "
                              f"artefacts {names_old} -> {names_new}")
            continue
        for name in names_old:
            if not name.endswith(".csv"):
                continue
            a, b = _columns(old / run / name), _columns(new / run / name)
            for column, values in a.items():
                entry = table[f"{_kind(run, Path(name))} {column}"]
                entry["files"] += 1
                other = b.get(column)
                if other is None or len(other) != len(values):
                    mismatched.append(f"{run}/{name}: column {column} is missing or resized")
                    continue
                diffs = [abs(y - x) for x, y in zip(values, other)
                         if not (x == y or (math.isnan(x) and math.isnan(y)))]
                if not diffs:
                    continue
                entry["differing"] += 1
                worst_abs = max(diffs)
                scale = max(abs(x) for x in values)
                worst_rel = worst_abs / scale if scale > 0.0 else math.inf
                if worst_abs > entry["max_abs"]:
                    entry["max_abs"], entry["max_abs_at"] = worst_abs, f"{run}/{name}"
                if worst_rel > entry["max_rel"]:
                    entry["max_rel"], entry["max_rel_at"] = worst_rel, f"{run}/{name}"
    return mismatched, dict(sorted(table.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout whose artefacts are the reference")
    parser.add_argument("new", type=Path, help="checkout compared with it")
    parser.add_argument("--collect", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:  # the child process: OLD is the checkout to run
        _collect(args.old.resolve(), args.collect)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for side, checkout in (("old", args.old), ("new", args.new)):
            out = Path(tmp) / side
            here = str(checkout.resolve())
            subprocess.run([sys.executable, "-B", str(Path(__file__).resolve()), here, here,
                            "--collect", str(out)], check=True, cwd=tmp)
            outs.append(out)
        mismatched, table = _compare(*outs)
    for line in mismatched:
        print(f"MISMATCH {line}")
    for column, e in table.items():
        print(f"{column}: {e['differing']}/{e['files']} files differ; "
              f"max abs {e['max_abs']:.3g} ({e['max_abs_at']}); "
              f"max rel {e['max_rel']:.3g} ({e['max_rel_at']})")
    print(json.dumps({"mismatched": mismatched, "columns": table}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
