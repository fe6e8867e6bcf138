"""The default-seed report is the project's behavioural invariant.

tests/data/report_default_seed.json is the stdout of `quintic report`.  A
change that alters it on purpose regenerates the file and says so.
"""

import hashlib
import json
from pathlib import Path

from quintic.cli import main

GOLDEN = Path(__file__).parent / "data" / "report_default_seed.json"
GOLDEN_BYTES = 3808
GOLDEN_SHA256 = "5f979bfa9435ca32da6d8178b2983ef454a26277d0201703ab73818375b359eb"


def test_default_seed_report_matches_golden(capsys):
    code = main(["report"])
    out = capsys.readouterr().out.encode()
    golden = GOLDEN.read_bytes()
    assert code == 0
    # parsed first, so that a drift shows as a readable dict diff
    assert json.loads(out) == json.loads(golden)
    assert out == golden
    assert len(out) == GOLDEN_BYTES
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256
