import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_session_runs(capsys):
    # The documented session must run as printed against the current API.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    r_plus, labels, verdict = capsys.readouterr().out.splitlines()
    assert 0.0 < float(r_plus) < 1.0
    assert labels.startswith("{-1: ") and ", 1: " in labels
    assert verdict.startswith("NoBoundStateFound ")
