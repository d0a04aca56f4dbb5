"""Every answer group against its committed hash (tools/answers_digest.py).

tests/answers_digest.txt is the digest's output: a platform fingerprint line,
then one sha256 per group of answers.  A change that moves answers
regenerates it with `python3 tools/answers_digest.py >
tests/answers_digest.txt` and declares the moved groups in CHANGES.md.  The
hashes rest on the host's libm, so on a platform whose fingerprint differs
the test fails with a request to regenerate the file there: it never passes
without comparing.
"""

import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent
EXPECTED = TESTS / "answers_digest.txt"


def _digest_tool():
    path = TESTS.parent / "tools" / "answers_digest.py"
    spec = importlib.util.spec_from_file_location("answers_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_group(lines) -> dict:
    return {line.split()[0]: line for line in lines}


def test_every_group_prints_as_committed():
    tool = _digest_tool()
    committed, *expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    here = tool.fingerprint()
    assert committed == here, (
        f"tests/answers_digest.txt was made on {committed!r}, not here ({here!r}); "
        "regenerate it on this platform: python3 tools/answers_digest.py > tests/answers_digest.txt"
    )
    want, got = _by_group(expected), _by_group(tool.lines())
    moved = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    assert not moved, f"answers moved in {len(moved)} group(s): {', '.join(moved)}"
