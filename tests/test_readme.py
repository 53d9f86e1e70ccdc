"""The README's library example runs against src/, on the names the package exports."""

import re
import subprocess
import sys
from pathlib import Path

import torushall

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_prints_the_slope():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + blocks[0]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "-2/5"


def test_every_exported_name_resolves():
    missing = [name for name in torushall.__all__ if not hasattr(torushall, name)]
    assert missing == []
