"""Rewrite ``verify_golden.json`` from the command line's own output.

    PYTHONPATH=src python tests/data/make_verify_golden.py

Runs ``pciclone verify`` in this process for each golden argv, once for
its JSON document and once with ``--format csv`` for its per-mode z
table, and writes one entry per argv: the argv, the exit code, the JSON
document without ``timings`` (wall-clock times) and the CSV lines.
``tests/test_cli.py::test_verify_golden`` reads the file.  The z-scores
are stream version 8's on numpy's AVX2 or AVX-512 dispatch; see that
test for what else they depend on.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from pciclone.cli import main

ARGVS = (
    ("verify", "2", "2", "6", "4096", "3", "--psi=0.3-1.2j"),
    ("verify", "1", "3", "300", "4096", "5"),
    ("verify", "3", "0", "64", "3000", "6"),
)
GOLDEN = Path(__file__).with_name("verify_golden.json")


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def entry(argv) -> dict:
    code, text = run(argv)
    doc = json.loads(text)
    del doc["timings"]
    csv_code, csv_text = run((*argv, "--format", "csv"))
    if csv_code != code:
        raise SystemExit(f"{argv}: JSON exits {code}, CSV exits {csv_code}")
    return {"argv": list(argv), "exit_code": code, "doc": doc,
            "csv": csv_text.splitlines()}


if __name__ == "__main__":
    lines = [json.dumps(entry(argv), separators=(",", ":"), allow_nan=False)
             for argv in ARGVS]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {GOLDEN} ({len(ARGVS)} runs)")
