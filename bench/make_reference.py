"""Regenerate the stored reference outputs in ``reference/``.

    python3 bench/make_reference.py

Runs one pass of each workload at ``DEFAULT_SEED`` with the package in this
checkout and stores what the checks compare against.  Regenerate only when
a change to the package is meant to change these outputs, and say so.
"""

import json
import tempfile
from pathlib import Path

from run import WORK_DIR, use_checkout_package


def main():
    use_checkout_package()
    import workloads
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    for cls in workloads.WORKLOADS.values():
        w = cls(workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            ref = w.reference_of(w.run(Path(tmp)))
        path = workloads.REFERENCE_DIR / f"{w.name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(path)


if __name__ == "__main__":
    main()
