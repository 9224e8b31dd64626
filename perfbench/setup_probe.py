"""Set-up time of one workload in a fresh process.

Run as ``python3 perfbench/setup_probe.py <workload>`` from the root of a
checkout.  Times ``import nilwalk`` and then the construction of the
workload's graphs and their Albanese data, and prints one JSON line:
``{"import_s": ..., "graphs_s": ..., "setup_s": ...}``.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import nilwalk  # noqa: F401

    t_import = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, build_graph

    for label in WORKLOADS[sys.argv[1]][1]:
        nilwalk.albanese_pipeline(build_graph(label))
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_import - _t0, "graphs_s": t_end - t_import, "setup_s": t_end - _t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
