"""Rewrite ``verify_golden.json`` from the command line's own output.

    PYTHONPATH=src python tests/data/make_verify_golden.py

Runs ``pciclone verify`` in this process for each golden argv, once for
its JSON document and once with ``--format csv`` for its per-mode z
table, and writes one entry per argv: the argv, the exit code, the JSON
document without ``timings`` (wall-clock times) and the CSV lines.
``tests/test_cli.py::test_verify_golden`` reads the file.  The z-scores
are those of the package's ``STREAM_VERSION`` on numpy's AVX2 or AVX-512
dispatch; see that test for what else they depend on.  Where numpy's
runtime dispatch lacks X86_V3 (its X86_V2 baseline, or a non-x86
platform), the stream's float32 cosine and sine round otherwise, so the
script exits non-zero and writes nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_features__

from pciclone.cli import main
from pciclone.montecarlo import STREAM_VERSION

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
    if not __cpu_features__.get("X86_V3"):
        raise SystemExit(f"numpy's dispatch lacks X86_V3, so stream version "
                         f"{STREAM_VERSION}'s bits do not repeat here; nothing written")
    lines = [json.dumps(entry(argv), separators=(",", ":"), allow_nan=False)
             for argv in ARGVS]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {GOLDEN} ({len(ARGVS)} runs, stream version {STREAM_VERSION})")
