"""Seeded end-to-end benchmark for melita.

    python3 perfbench/run.py --workload vp_protocol --seed 101000 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``, never from an installed copy, and the benchmark
exits with status 2 when that source tree is missing. See README.md.
"""
from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "melita" / "__init__.py").is_file():
        print(f"error: no melita source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # One process, one thread: keep numpy's BLAS from starting workers, and
    # stay on one core, so that the speed probe times the core the
    # measured work runs on.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import bench

    # A terminated run still removes its scratch files and waits for its
    # set-up probe on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(bench.main())
