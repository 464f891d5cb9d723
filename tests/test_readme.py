"""The README's quick-start example runs and its command lines parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from subplanck.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks, "README has no python block"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    for code in blocks:
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr


def test_shell_commands_parse():
    # every `subplanck ...` line of the command-line block, continuations joined
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    lines = "\n".join(body for lang, body in fences if not lang).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("subplanck ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.func.__name__ == "cmd_" + argv[0].replace("-", "_")
