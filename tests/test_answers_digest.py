"""Every answer group against its committed hash (tools/answers_digest.py).

tests/answers_digest.txt is the digest's output: a platform fingerprint line,
then one sha256 per group of answers.  A change that moves answers
regenerates it with `python3 tools/answers_digest.py >
tests/answers_digest.txt` and declares the moved groups in CHANGES.md.  The
hashes rest on the host's libm, so on a platform whose fingerprint differs
the test fails with a request to regenerate the file there: it never passes
without comparing.  `python3 tools/answers_digest.py --check
tests/answers_digest.txt` compares on any platform and names the moved groups,
and `--records GROUP` prints one group's records, to diff between checkouts.
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


def test_every_group_prints_as_committed():
    tool = _digest_tool()
    committed, *expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    here = tool.fingerprint()
    assert committed == here, (
        f"tests/answers_digest.txt was made on {committed!r}, not here ({here!r}); "
        "regenerate it on this platform: python3 tools/answers_digest.py > tests/answers_digest.txt"
    )
    moved = tool.moved_groups(expected)
    assert not moved, f"answers moved in {len(moved)} group(s): {', '.join(moved)}"


def test_check_names_each_moved_group_whatever_the_platform(tmp_path, monkeypatch, capsys):
    tool = _digest_tool()
    monkeypatch.setattr(tool, "lines", lambda: iter(["a 1 x", "b 1 y", "c 1 z"]))
    saved = tmp_path / "digest.txt"
    saved.write_text("# platform: elsewhere\na 1 x\nb 1 moved\nd 1 gone\n", encoding="utf-8")
    assert tool.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "saved: # platform: elsewhere", f"here:  {tool.fingerprint()}",
        "moved: b", "moved: d", "moved: c", "3 group(s) moved"]
    saved.write_text("# platform: elsewhere\na 1 x\nb 1 y\nc 1 z\n", encoding="utf-8")
    assert tool.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["all 3 groups match"]


def test_records_prints_one_group_a_repr_a_line(monkeypatch, capsys):
    tool = _digest_tool()
    monkeypatch.setattr(tool, "groups", lambda: iter([
        ("a", [1.5]), ("b", [("ok", 0.1), ("error", "DomainError", "x")]), ("c", [2])]))
    assert tool.main(["--records", "b"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "('ok', 0.1)", "('error', 'DomainError', 'x')"]
    assert tool.main(["--records", "d"]) == 2
    assert capsys.readouterr().err == "no group named 'd'\n"
