"""Run tier-1 under other Python interpreters, with this one's test stack.

    python3 tools/tier1_interpreters.py PYTHON [PYTHON ...] [-- pytest arguments]

e.g. `python3 tools/tier1_interpreters.py ~/.pyenv/versions/3.12.1/bin/python3`.

The test stack is pure Python: pytest, pluggy, iniconfig, packaging, pygments,
hypothesis, attrs, sortedcontainers and mpmath.  This script finds the files
of each distribution installed for the interpreter that runs it, through
importlib.metadata, and links their top-level names (15 modules and
packages, and the nine .dist-info folders, which carry pytest's plugin entry
points) into a temporary directory.  Each interpreter named then runs the
tier-1 command with src first on PYTHONPATH and that directory after it, and
then `tools/answers_digest.py --check tests/answers_digest.txt`.  Bytecode goes
under the temporary directory (PYTHONPYCACHEPREFIX), so nothing is written
beside the linked files.

Prints, per interpreter, its version, pytest's failures and summary line, the
wall time, and the digest check's last line.  Exits 0 if every run passed and
every check matched, else 1.

Below 3.11 pytest also needs exceptiongroup and tomli, which the stack does
not hold, so such an interpreter stops at pytest's import.  On an interpreter
other than the one that wrote tests/answers_digest.txt, the tier-1 test
test_every_group_prints_as_committed fails by design: it refuses a foreign
platform line before it compares.  The --check line then says whether the
answers match there.
"""

from __future__ import annotations

import importlib.metadata
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STACK = ("pytest", "pluggy", "iniconfig", "packaging", "pygments", "hypothesis", "attrs",
         "sortedcontainers", "mpmath")
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")
CHECK = ("tools/answers_digest.py", "--check", "tests/answers_digest.txt")


def stack_files() -> dict:
    """{top-level name: its path} for every file of the STACK distributions
    but those outside their install folder (their scripts) and bytecode."""
    tops = {}
    for name in STACK:
        dist = importlib.metadata.distribution(name)
        for file in dist.files or ():
            top = file.parts[0]
            if top not in ("..", "__pycache__"):
                tops[top] = str(dist.locate_file(top))
    return tops


def run(python: str, stack: str, pytest_args: list) -> bool:
    """Tier-1 and the digest check under python; prints their lines and
    returns whether both passed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((os.path.join(ROOT, "src"), stack)),
           "PYTHONPYCACHEPREFIX": os.path.join(stack, "__pycache__")}

    def child(*args) -> subprocess.CompletedProcess:
        return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True, text=True)

    try:
        version = child("-c", "import platform; print(platform.python_version())")
    except OSError as exc:  # no such file, or not executable
        print(f"{python}: does not start: {exc.strerror}")
        return False
    if version.returncode:  # a pyenv shim that names no installed version, say
        print(f"{python}: does not start: {(version.stderr.splitlines() or ['no output'])[0]}")
        return False
    print(f"{python}: Python {version.stdout.strip()}")
    start = time.perf_counter()
    tier1 = child(*TIER1, *pytest_args)
    took = time.perf_counter() - start
    out = tier1.stdout.splitlines() or tier1.stderr.splitlines() or ["no output"]
    for line in out[:-1]:
        if line.startswith(("FAILED ", "ERROR ")):
            print("  " + line)
    print(f"  tier-1: {out[-1].strip('= ')} (exit {tier1.returncode}, {took:.1f} s wall)")
    check = child(*CHECK)
    print(f"  digest --check: {(check.stdout.splitlines() or ['no output'])[-1]}"
          f" (exit {check.returncode})")
    return tier1.returncode == check.returncode == 0


def main(argv: list) -> int:
    pythons, pytest_args = argv, []
    if "--" in argv:
        cut = argv.index("--")
        pythons, pytest_args = argv[:cut], argv[cut + 1 :]
    if not pythons:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="qaspace-stack-") as stack:
        for top, path in stack_files().items():
            os.symlink(path, os.path.join(stack, top))
        passed = [run(python, stack, pytest_args) for python in pythons]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
