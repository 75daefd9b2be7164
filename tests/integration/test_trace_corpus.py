"""The pinned trace export of a Fig-8 slice.

``corpus/trace/fig8-ops20.sha256`` holds, per dispatch mode, the
SHA-256 of ``json.dumps(doc["traceEvents"], sort_keys=True)`` for the
export of ``python -m repro trace --ops 20 --op 3``. Tracing must not
move a simulated result, and the trace itself is a pure function of
the run, so any change to the kernel's dispatch order, its traced
dispatch wrapper or the exporter shows here. The two modes differ by
design: chained NIC WQE execution under fast dispatch renames some
kernel instants. Each mode runs in a fresh interpreter, as the CI
``trace`` job does.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = ROOT / "corpus" / "trace" / "fig8-ops20.sha256"


def pinned():
    digests = {}
    for line in DIGESTS.read_text().splitlines():
        digest, setting = line.split()
        digests[setting] = digest
    return digests


def test_digest_file_has_one_line_per_mode():
    assert sorted(pinned()) == ["REPRO_FAST_DISPATCH=0", "REPRO_FAST_DISPATCH=1"]


@pytest.mark.parametrize("mode", ["1", "0"])
def test_trace_export_matches_pinned_digest(mode, tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["REPRO_FAST_DISPATCH"] = mode
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The CLI exits non-zero if the export fails schema validation.
    subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--ops", "20", "--op", "3",
         "--out", str(out)],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    events = json.loads(out.read_text())["traceEvents"]
    digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
    assert digest == pinned()[f"REPRO_FAST_DISPATCH={mode}"]
