"""Record the loss trajectory that the train-mini check compares against.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter the training numerics, and say
so in the change.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads as wl

    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        losses = wl.reference_losses(Path(tmp))
    wl.REFERENCE_PATH.write_text(json.dumps({
        "seed": wl.REFERENCE_SEED,
        "steps": wl.REFERENCE_STEPS,
        "columns": ["l_tri", "l_ce", "l"],
        "losses": losses,
    }, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
