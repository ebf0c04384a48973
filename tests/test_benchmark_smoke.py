"""Each perfbench workload runs traced and checks its own outputs.

The traced benchmark patches talnet functions by name (`trainer.pk_sample`,
`losses.ce_label_smooth`, ...), so a renamed or deleted function breaks it
while every unit test still passes. One short traced run per workload
guards those names. The runs write only to the git-ignored `perfbench/out/`.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["train_joint", "train_app", "embed", "rank"])
def test_traced_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
