#!/usr/bin/env python3
"""Re-capture ``reference.json``: the outputs every pass is checked
against (fingerprint matrices and event digests, crash violation
digests, the fleet campaign at the default seed).

Run from the repository root only when the program's behaviour changes
on purpose::

    python3 perfbench/capture_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE,
    CrashWorkload,
    FingerprintWorkload,
    FleetWorkload,
)


def main() -> int:
    reference = {}
    for workload in (FingerprintWorkload(), CrashWorkload(), FleetWorkload(jobs=1)):
        workload.prepare(DEFAULT_SEED)
        reference[workload.name] = workload.run_pass(0).observed
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
