"""Digest of ``vsep solve`` JSON over every perfbench graph.

Usage, from the repository root:

    python3 scripts/report_digests.py [--src DIR]

Builds the 130 graphs of the three perfbench workloads (mesh-large,
nd-batch, tight-dense), writes each one in its case's format to a
temporary directory and runs ``vsep solve FILE --lb LB --output json``
through ``vsep.cli.main`` in this process, capturing standard output and
standard error.  ``wall_time_sec`` and ``input_path`` are dropped from the
report: they are the only fields that depend on the run or on where the
file lives.  Prints ``name exit sha256(stdout) sha256(stderr)`` per graph
and a combined digest of those lines last.

Two source trees that print the same combined digest give the same
separators, traces and error messages on the whole benchmark suite.
``--src`` picks the tree whose ``vsep`` package is imported (default: this
repository's ``src``); the graphs always come from this repository's
``perfbench/workloads.py``, imported read-only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DEPENDENT = ("wall_time_sec", "input_path")


def _import(name: str, directory: Path):
    """Import module ``name`` from ``directory`` without writing bytecode there."""
    sys.path.insert(0, str(directory))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return __import__(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(directory))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the vsep package")
    args = ap.parse_args(argv)

    src = args.src.resolve()
    vsep = _import("vsep", src)
    if Path(vsep.__file__).resolve().parent != src / "vsep":
        raise SystemExit(f"error: imported vsep from {vsep.__file__}, not from {src}")
    from vsep import cli

    workloads = _import("workloads", ROOT / "perfbench")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for suite, build in workloads.SUITES.items():
            for i, case in enumerate(build()):
                name = f"{suite}/{i:03d}-{case.name}"
                path = Path(tmp) / f"{suite}-{i:03d}"
                if case.fmt == "metis":
                    path = path.with_suffix(".graph")
                    workloads.write_metis(case, path)
                else:
                    path = path.with_suffix(".mtx")
                    workloads.write_mtx(case, path)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["solve", str(path), "--lb", str(case.lb), "--output", "json"])
                stdout = out.getvalue()
                if code == 0:
                    report = json.loads(stdout)
                    for key in RUN_DEPENDENT:
                        report.pop(key)
                    stdout = json.dumps(report, indent=2)
                line = f"{name} {code} {_sha(stdout)} {_sha(err.getvalue())}"
                lines.append(line)
                print(line, flush=True)
    print(f"combined {_sha(chr(10).join(lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
