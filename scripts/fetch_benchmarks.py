#!/usr/bin/env python3
"""Fetch the benchmark matrices from the SuiteSparse Matrix Collection.

Downloads are explicit and out-of-band: nothing in the library or the test
suite ever touches the network.  Run this once from the repository root,
then either

    vsep bench benchmarks/manifest.txt

or

    pytest tests/test_acceptance.py -k benchmark -v -s
"""

from __future__ import annotations

import io
import sys
import tarfile
import urllib.request
from pathlib import Path

BASE = "https://suitesparse-collection-website.herokuapp.com/MM"

# name -> SuiteSparse group
MATRICES = {
    "bcspwr09": "HB",
    "jagmesh7": "HB",
    "sherman1": "HB",
    "minnesota": "Gleich",
    "lshp3466": "HB",
}

def fetch(name: str, group: str, dest: Path) -> None:
    url = f"{BASE}/{group}/{name}.tar.gz"
    print(f"fetching {url}")
    with urllib.request.urlopen(url, timeout=120) as resp:
        blob = resp.read()
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:gz") as tar:
        member = tar.getmember(f"{name}/{name}.mtx")
        data = tar.extractfile(member).read()
    dest.write_bytes(data)
    print(f"  wrote {dest} ({len(data)} bytes)")


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    out_dir.mkdir(exist_ok=True)
    failures = []
    for name, group in MATRICES.items():
        dest = out_dir / f"{name}.mtx"
        if dest.exists():
            print(f"already present: {dest}")
            continue
        try:
            fetch(name, group, dest)
        except Exception as exc:  # keep going; report at the end
            failures.append(f"{name}: {exc}")
    if failures:
        print("failed to fetch:", file=sys.stderr)
        for item in failures:
            print(f"  {item}", file=sys.stderr)
        return 1
    print("all benchmark graphs present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
