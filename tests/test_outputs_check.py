"""CI compares outputs with the base commit through the one committed script.

`.github/outputs.sh TREE DIR` writes every output of the seeded commands for
one tree; CI and a local check both run it on two trees and `diff -r` them.
Running it takes seconds, so tier-1 only checks its syntax and that the
workflow step calls it instead of running commands of its own.
"""

import subprocess
from pathlib import Path

GITHUB = Path(__file__).resolve().parents[1] / ".github"


def test_the_base_commit_step_runs_the_committed_script():
    subprocess.run(["bash", "-n", str(GITHUB / "outputs.sh")], check=True)
    workflow = (GITHUB / "workflows" / "tier1.yml").read_text()
    _, step = workflow.split("- name: Outputs against the base commit\n")
    step = step.split("- name:")[0]
    assert 'bash .github/outputs.sh . "$out/head"' in step
    assert 'bash .github/outputs.sh "$RUNNER_TEMP/base" "$out/base"' in step
    assert 'diff -r "$out/base" "$out/head"' in step
    assert "lagdeconv.cli" not in step
