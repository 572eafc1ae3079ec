#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the unperturbed workload data.

The stored values are the seed-commit results the cn3d and conv2d checks
compare against: for cn3d the Crank-Nicolson step result on every
CN_STRIDE-th node per axis, for conv2d the max error against the 1F1 oracle
at unit amplitude.  Run it from the root of a checkout only when a change
is meant to alter these results, and say so in the change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from workloads import CN_STRIDE, CN3D, REFERENCE_PATH, Conv2D

    cn, ref = CN3D(), {}
    ops = cn.setup()
    out = cn.solve(ops, cn.make_data(ops, None))
    for (name, n), (u1, _) in out.outputs.items():
        sub = u1.values_nd[(slice(0, None, CN_STRIDE),) * 3].ravel()
        ref[f"{name}_N{n}"] = [float(v) for v in sub]

    conv = Conv2D()
    ops = conv.setup()
    data = conv.make_data(ops, None)
    out = conv.solve(ops, data)
    errors = {f"N{n}": float(np.abs(v.values - exact).max())
              for n, (v, exact) in out.outputs.items()}

    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"cn3d": ref, "conv2d": errors}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: conv2d errors {errors}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
