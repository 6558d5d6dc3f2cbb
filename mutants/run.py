"""Run the mutant catalogue: each mutant is applied alone to a copy of this
checkout, and a pytest selection must fail on it.

    python3 mutants/run.py                        # every mutant of every catalogue
    python3 mutants/run.py fold-unchanged-balances  # the named mutants only
    python3 mutants/run.py --select tests         # a wider selection than each entry's test

A catalogue, mutants/<module>.json, is a list of entries:

- `name`: the mutant's name, unique across catalogues;
- `file`: the file it changes, relative to the checkout;
- `old`: text that occurs exactly once in that file (tier-1 checks this);
- `new`: the text that replaces it;
- `test`: the pytest node id that kills it;
- `breaks`: the behaviour it breaks.

For each mutant the runner copies the checkout (without .git and caches) to
a temporary directory, replaces `old` with `new`, and runs pytest there on
the entry's `test`, or on the --select node ids, with the pinned-report
tests deselected, so that only a check that judges behaviour can kill it.
In the copy Hypothesis reports the first failing example it finds without
shrinking it: the verdict is the same, and shrinking a stateful example can
take minutes.  It prints `killed by <test>` or `SURVIVED` for each mutant,
and exits 1 if any survived.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUES = sorted((ROOT / "mutants").glob("*.json"))
# tests that compare a run's report or layer counts with pinned values: any
# change to a digest fails them, whether or not a behaviour broke
PINNED = (
    "tests/test_acceptance.py::test_acceptance_report_bytes_pinned",
    "tests/test_engine.py::test_report_bytes_pinned",
    "tests/test_tracing_entry_points.py::test_every_traced_span_is_entered",
)
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"
)
# appended to the copy's tests/conftest.py, after it loads its profile
NO_SHRINK = """
from hypothesis import Phase

settings.register_profile(
    "mutant", settings.get_profile("derandomized"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("mutant")
"""


def load() -> list[dict]:
    """Every entry of every catalogue, in order."""
    return [entry for path in CATALOGUES for entry in json.loads(path.read_text("utf-8"))]


def apply(entry: dict, checkout: Path) -> None:
    """Replace the entry's old text with its new text in `checkout`."""
    path = checkout / entry["file"]
    text = path.read_text("utf-8")
    count = text.count(entry["old"])
    if count != 1:
        raise ValueError(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
    path.write_text(text.replace(entry["old"], entry["new"]), "utf-8")


def run(entry: dict, select: list[str] | None) -> str | None:
    """The first test that fails with the mutant applied (None: it survived)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=IGNORED)
        apply(entry, checkout)
        with open(checkout / "tests" / "conftest.py", "a", encoding="utf-8") as conftest:
            conftest.write(NO_SHRINK)
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        command += select or [entry["test"]]
        command += [f"--deselect={node}" for node in PINNED]
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else f"pytest exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--select", nargs="+", help="pytest node ids to run on each mutant")
    args = parser.parse_args(argv)
    entries = load()
    unknown = set(args.names) - {entry["name"] for entry in entries}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    survived = 0
    start = time.perf_counter()
    for entry in entries:
        if args.names and entry["name"] not in args.names:
            continue
        began = time.perf_counter()
        killer = run(entry, args.select)
        survived += killer is None
        verdict = "SURVIVED" if killer is None else f"killed by {killer}"
        print(f"{entry['name']}: {verdict} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{survived} survived; {time.perf_counter() - start:.0f} s in all")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
