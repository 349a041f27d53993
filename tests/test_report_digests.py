"""Byte identity of the five bundled report bundles.

The digests are read from the benchmark's golden record, so there is one
record to keep; ``python3 perfbench/run.py --record-golden`` rewrites it
when the bytes change on purpose.
"""

import hashlib
import json
from pathlib import Path

from beamblock.report import write_report
from beamblock.scenario import list_bundled, load_bundled

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def test_bundled_reports_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())["workloads"]["bundled"]
    produced = {}
    for name in list_bundled():
        out = tmp_path / name
        write_report(load_bundled(name), out)
        for path in out.iterdir():
            produced[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert sorted(produced) == sorted(golden)
    assert [k for k in sorted(golden) if produced[k] != golden[k]] == []
