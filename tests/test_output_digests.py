"""One SHA-256 per deterministic output of the command line.

The test regenerates each output in process and compares its digest with
``tests/data/output_digests.json``.  The outputs are the ``estimate`` JSON
(with ``params_hash``), markdown and CSV on each document of
``molecule_files.fixture_documents`` x {SSCT, LCT} x seeds {0, 7}, the
``verify --out`` JSON and the ``lct-bench`` CSV for seeds 0 and 3.

To rewrite the file after a declared output change, run from the repository
root::

    PYTHONPATH=src python tests/test_output_digests.py [REV]

For each output whose digest moved, it prints the changed key paths of a JSON
output (the changed lines of any other) with their values under the source and
fixtures at git revision ``REV`` (default ``HEAD``) and under the working tree.
An output with no committed digest, such as one of a new fixture, is printed
as added.  A summary follows: each changed JSON key path with the number of
outputs it changed in, and the number of non-JSON outputs that moved.
"""

import collections
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from molecule_files import MOLECULES, fixture_documents
from qdyncost.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"
SUFFIXES = {"json": "json", "markdown": "md", "csv": "csv"}
# verify's measured values end in rounding residuals whose last bits follow
# the BLAS build, so they are digested rounded to 1e-12: the absolute
# tolerance at which tests/test_verify.py compares each oracle
VERIFY_DECIMALS = 12


def outputs(molecules: Path = MOLECULES) -> dict:
    """Each deterministic output's name -> its bytes, for the fixture
    documents of the files in ``molecules``."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp) / "out"

        def run(name, *argv):
            if main([*argv, "--out", str(out)]) != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")
            found[name] = out.read_bytes()

        for fixture, doc in fixture_documents(molecules).items():
            for pad_mode in ("SSCT", "LCT"):
                mol = Path(tmp) / f"{fixture}.json"
                mol.write_text(json.dumps({**doc, "budget": {**doc["budget"], "pad_mode": pad_mode}}))
                for seed in ("0", "7"):
                    for out_format, suffix in SUFFIXES.items():
                        run(f"estimate/{fixture}/{pad_mode}/seed{seed}.{suffix}", "estimate",
                            "--input", str(mol), "--format", out_format, "--seed", seed)
        for seed in ("0", "3"):
            run(f"lct-bench/seed{seed}.csv", "lct-bench", "--seed", seed)
        run("verify.json", "verify")
    suite = json.loads(found["verify.json"])
    for check in suite["checks"]:
        check["measured"] = round(check["measured"], VERIFY_DECIMALS)
    found["verify.json"] = (json.dumps(suite, indent=2, sort_keys=True) + "\n").encode()
    return found


def _digests(found: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(found.items())}


def test_outputs_match_committed_digests():
    want = json.loads(DIGESTS.read_text())
    got = _digests(outputs())
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert moved == [], (f"outputs moved: {moved}; if the change is declared, rerun "
                         "tests/test_output_digests.py and list the moved fields in CHANGES.md")


# ---------------------------------------------------------------------------
# regeneration

def _outputs_at(rev: str) -> dict:
    """``outputs()`` under the source tree and fixtures of git revision ``rev``."""
    archive = subprocess.run(["git", "archive", rev, "src", "molecules"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        code = ("import json, runpy, sys\nfrom pathlib import Path\n"
                f"found = runpy.run_path({str(Path(__file__))!r})['outputs']"
                f"(Path({str(Path(tmp) / 'molecules')!r}))\n"
                "json.dump({k: v.decode() for k, v in found.items()}, sys.stdout)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(Path(tmp) / "src"),
                                                             str(Path(__file__).parent)))}
        text = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, check=True, text=True).stdout
    return {name: data.encode() for name, data in json.loads(text).items()}


def _changed_paths(old, new, path=""):
    """(key path, old value, new value) wherever two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _changed_paths(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                      f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changed_paths(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def regenerate(rev: str = "HEAD") -> None:
    """Rewrite the digest file and print what moved against ``rev``."""
    found = outputs()
    digests = _digests(found)
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    added = [name for name in digests if name not in committed]
    moved = [name for name in digests if committed.get(name, digests[name]) != digests[name]]
    for name in added:
        print(f"{name}: added")
    old = _outputs_at(rev) if moved else {}
    paths, other = collections.Counter(), 0
    for name in moved:
        print(f"{name}: digest moved")
        before, after = old.get(name, b""), found[name]
        if name.endswith(".json"):
            for path, a, b in _changed_paths(json.loads(before or b"{}"), json.loads(after)):
                paths[path] += 1
                print(f"  {path}: {a!r} -> {b!r}")
        else:
            other += 1
            for line in difflib.unified_diff(before.decode().splitlines(),
                                             after.decode().splitlines(), lineterm="", n=0):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"  {line}")
    for path, count in sorted(paths.items()):
        print(f"{path}: moved in {count} JSON outputs")
    print(f"{other} moved non-JSON outputs")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}: {len(moved)} moved and {len(added)} added "
          f"of {len(digests)} digests")


if __name__ == "__main__":
    regenerate(*sys.argv[1:])
