"""The command-line scripts under scripts/, run as a user runs them: in a
fresh interpreter, importing the package from the checkout's src/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_run_corpus(tmp_path):
    target = tmp_path / "corpus"
    out = run_script("run_corpus.py", "--dir", str(target))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == f"corpus written to {target}/"
    rows = [line for line in lines[2:] if line.strip()]
    assert len(rows) == len(list(target.glob("*.json"))) > 0
    assert all(row.endswith("[ok]") for row in rows), out.stdout
    assert "FAIL" not in out.stdout

