"""The README's library example and command-line comments hold against src/."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import torushall
from torushall.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_library_example_prints_the_slope():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + blocks[0]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "-2/5"
    # the example's gram_center comment says p = 7 per axis on its g = 2 matrix
    assert re.search(r"p = 7 per axis", blocks[0])
    assert lines[1].split()[-1] == str(7**4)


def test_command_line_points_comments(tmp_path, capsys):
    # every "p = N per axis" comment on a Gram command line is that command's
    # rule on the README datum, N on each of its 2 g (center) or 2 n axes
    doc = json.loads(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    axes = {"gram-center": 2 * len(doc["K"]), "gram-manybody": 2 * sum(doc["n"])}
    lines = re.findall(r"^torushall (gram-\S+)(.*?)# .*?p = (\d+) per axis", README, re.M)
    assert sorted(line[0] for line in lines) == ["gram-center", "gram-manybody"]
    for command, flags, p in lines:
        args = [command] + shlex.split(flags.replace("k.json", str(path)))
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_points"] == int(p) ** axes[command]


def test_every_exported_name_resolves():
    missing = [name for name in torushall.__all__ if not hasattr(torushall, name)]
    assert missing == []
