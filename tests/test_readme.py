"""The README's library and command-line quickstarts run as written."""

import re
import shlex
from pathlib import Path

from mcca.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_verbatim():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})


def test_cli_blocks_print_the_text_blocks(tmp_path, monkeypatch, capsys):
    """Each ``sh`` block's ``mcca`` lines print the ``text`` block after it.

    Lines that do not start with ``mcca`` (the install and test commands)
    are not run; a block whose commands print nothing needs no text block.
    """
    monkeypatch.chdir(tmp_path)
    printed, compared = "", 0
    for kind, body in re.findall(r"^```(sh|text)\n(.*?)^```", README.read_text(), re.M | re.S):
        if kind == "text":
            assert printed == body
            printed, compared = "", compared + 1
            continue
        assert printed == "", "output with no text block after it"
        for line in body.splitlines():
            if line.startswith("mcca "):
                assert main(shlex.split(line)[1:]) == 0, line
        printed = capsys.readouterr().out
    assert printed == "" and compared
