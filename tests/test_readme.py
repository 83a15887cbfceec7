"""The README's examples run as written, and the counts it gives hold."""

import re
from pathlib import Path

from make_reference_reports import REFERENCE_CONFIGS

from mediated_rl import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_profile_example_is_accepted(tmp_path, capsys):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "expected one JSON profile example in the README"
    path = tmp_path / "profile.json"
    path.write_text(blocks[0])
    assert cli.main(["oracle", "--env", "pd", "--profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "expected payoffs: agent0=2 agent1=2" in out


def test_readme_counts_the_reference_configs():
    counts = re.findall(r"retrains (\d+) reference configs", README.read_text())
    assert counts == [str(len(REFERENCE_CONFIGS))]
