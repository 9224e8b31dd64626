"""nilwalk benchmark: one workload as a single-process closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clt --seed 1 --seconds 20 --trace 0

One caller runs a repetition of the workload's batch job (``workloads.py``)
to completion, checks its outputs, and starts the next one, until
``--seconds`` of measurement are used up.  Repetition ``r`` draws its inputs
from a seed derived from ``(--seed, r)``.  A warm-up repetition with the
inputs of repetition 0 runs first; it fills lazy imports and caches and is
the rerun whose artifact digests repetition 0 must reproduce.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` pairs each untraced repetition with a traced one on the same
inputs, alternating which runs first, and reports the per-layer metrics from
the traced ones (``spans.py``), plus the tracing overhead.  Set-up time is measured in fresh processes
(``setup_probe.py``).

Every metric is printed as ``<workload> <name> <value> <unit>``; the last
line of standard output is the JSON result.  The full record (provenance,
artifact digests, checks) and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 5


def rep_seed(workload: str, seed: int, rep: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest() -> str:
    """sha256 over the library and benchmark sources, to match earlier runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nilwalk").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def strict(obj):
    """A copy that ``json.dumps(..., allow_nan=False)`` accepts: non-finite floats become tokens."""
    from workloads import token

    if isinstance(obj, float):
        return token(obj)
    if isinstance(obj, dict):
        return {k: strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg() -> str:
    text = _read("/proc/loadavg")
    return text.strip() if text else "unknown"


def steal_s() -> float | None:
    """CPU time stolen by the hypervisor so far, all CPUs (from /proc/stat)."""
    for line in (_read("/proc/stat") or "").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return None


def provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_describe": describe,
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload: str, probes: int) -> dict:
    runs = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    out["probes_setup_s"] = [r["setup_s"] for r in runs]
    return out


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class Rep:
    """One repetition: run every op, time the whole, then check outputs."""

    def __init__(self, workload: str, seed: int, rep: int, tiny: bool, work: Path):
        from workloads import WORKLOADS

        self.seed = rep_seed(workload, seed, rep)
        self.ops = WORKLOADS[workload][0](self.seed, tiny)
        self.work = work

    def run(self, tracer=None):
        """Returns (wall seconds, per-op results); exceptions become failed ops."""
        results = {}
        self.op_walls = {}
        t0 = time.perf_counter()
        for op in self.ops:
            if tracer is not None:
                tracer.label = op.graph
            t_op = time.perf_counter()
            try:
                results[op.name] = ("ok", op.run(self.work / op.name))
            except Exception:  # a failing entry point is a failed operation, not a crash
                results[op.name] = ("error", traceback.format_exc(limit=3))
            self.op_walls[op.name] = time.perf_counter() - t_op
        wall = time.perf_counter() - t0
        return wall, results

    def check(self, results):
        from workloads import Outcome

        total = Outcome()
        digests = {}
        for op in self.ops:
            status, value = results[op.name]
            if status == "error":
                oc = Outcome(attempted=op.planned, failed=op.planned,
                             failures=[f"{op.name}: {value.strip().splitlines()[-1]}"])
            else:
                try:
                    oc = op.check(self.work / op.name, value)
                except Exception:
                    oc = Outcome(attempted=op.planned, failed=op.planned,
                                 errors=[f"{op.name}: check raised {traceback.format_exc(limit=2)}"])
                if oc.attempted != op.planned:
                    oc.errors.append(f"{op.name}: {oc.attempted} operations, expected {op.planned}")
            total.attempted += oc.attempted
            total.failed += oc.failed
            total.errors += oc.errors
            total.failures += oc.failures
            total.values.update({f"{op.name}.{k}": v for k, v in oc.values.items()})
            for f in sorted((self.work / op.name).glob("*")):
                if f.suffix in (".csv",):
                    digests[f"{op.name}/{f.name}"] = sha256(f)
        return total, digests

    @property
    def steps(self) -> int:
        return sum(op.steps for op in self.ops)


def untraced_run(rep: Rep):
    """Run and check a repetition: (wall, per-op walls, outcome, artifact digests)."""
    wall, results = rep.run()
    op_walls = rep.op_walls
    return (wall, op_walls, *rep.check(results))


def traced_run(rep: Rep):
    """Run a repetition under the tracer and check it: (wall, outcome, digests, spans, root)."""
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.rep", "bench") as root:
            wall, results = rep.run(tracer)
    return (wall, *rep.check(results), tracer.spans, root)


def earlier_run_mismatches(workload: str, seed: int, code: str, tiny: bool, digest_log: dict) -> list[str]:
    """Runs of the same seed on the same sources, earlier in this checkout, must give the same bytes."""
    out = []
    for prior in (OUT / workload).glob(f"seed{seed}-trace*/result.json"):
        try:
            doc = json.loads(prior.read_text())
        except (OSError, ValueError):
            continue
        if doc.get("code_sha256") != code or doc.get("tiny") != tiny:
            continue
        old = doc.get("artifact_sha256", {})
        for key, dig in digest_log.items():
            if key in old and old[key] != dig:
                out.append(f"seed {key}: artifacts differ from {prior.parent.name}")
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def emit(workload: str, name: str, value, unit: str) -> None:
    print(f"{workload} {name} {value} {unit}", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nilwalk" / "__init__.py").is_file():
        print(f"error: no nilwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # git, run here and by nilwalk's summaries, must not search above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import nilwalk

    if Path(nilwalk.__file__).resolve().parent != ROOT / "src" / "nilwalk":
        print(f"error: imported nilwalk from {nilwalk.__file__}", file=sys.stderr)
        return 2
    import spans
    from workloads import GRAPH_LABELS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    wl = args.workload
    run_dir = OUT / wl / f"seed{args.seed}-trace{args.trace}"
    work = run_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "code_sha256": code_digest(), "provenance": provenance(),
              "loadavg_start": loadavg()}
    steal_start = steal_s()

    setup = measure_setup(wl, 2 if args.tiny else PROBES)

    # warm-up with the inputs of repetition 0
    _, _, warm_outcome, warm_digests = untraced_run(Rep(wl, args.seed, 0, args.tiny, work))

    walls, op_walls, traced_walls, layer_runs, span_dump, self_sums = [], [], [], [], [], []
    attempted = failed = 0
    errors, failures = [], []
    values = {}
    digest_log = {}
    mismatches = []
    start = time.perf_counter()
    rep_index = 0
    while True:
        rep = Rep(wl, args.seed, rep_index, args.tiny, work)
        # in a traced run, odd repetitions run the traced copy first, so that
        # drift in machine speed does not bias the overhead estimate
        if args.trace and rep_index % 2:
            traced = traced_run(rep)
        wall, rep_op_walls, outcome, digests = untraced_run(rep)
        if args.trace and rep_index % 2 == 0:
            traced = traced_run(rep)
        walls.append(wall)
        op_walls.append(rep_op_walls)
        attempted += outcome.attempted
        failed += outcome.failed
        errors += outcome.errors
        failures += outcome.failures
        values.update(outcome.values)
        digest_log[str(rep.seed)] = digests
        if rep_index == 0 and digests != warm_digests:
            mismatches.append(f"rep 0 (seed {rep.seed}): artifacts differ from the warm-up rerun")
        cost = wall
        if args.trace:
            t_wall, t_outcome, t_digests, t_spans, root = traced
            errors += t_outcome.errors
            if t_digests != digests:
                mismatches.append(f"rep {rep_index} (seed {rep.seed}): traced artifacts differ")
            traced_walls.append(t_wall)
            layer_runs.append(spans.layer_metrics(t_spans, GRAPH_LABELS))
            selfs = spans.self_times(t_spans)
            on_root = sum(selfs[s.sid] for s in t_spans if s.thread == root.thread)
            self_sums.append({"rep": rep_index, "root_s": root.duration, "self_sum_root_thread_s": on_root})
            span_dump += [dict(s.to_json(), rep=rep_index) for s in t_spans]
            cost += t_wall
        rep_index += 1
        elapsed = time.perf_counter() - start
        if elapsed + cost > args.seconds:
            break

    mismatches += earlier_run_mismatches(wl, args.seed, record["code_sha256"], args.tiny, digest_log)

    wall_med = statistics.median(walls)
    steps = Rep(wl, args.seed, 0, args.tiny, work).steps
    e2e = {
        "wall_s": wall_med,
        "setup_s": setup["setup_s"],
        "steps_per_s": statistics.median(steps / w for w in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": (attempted - failed) / attempted if attempted else 0.0,
    }
    failed_fraction = failed / attempted if attempted else 1.0
    correct = not errors and not warm_outcome.errors

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        emit(wl, name, value, units[name])
    emit(wl, "failed_fraction", failed_fraction, "ratio")
    emit(wl, "repetitions", len(walls), "count")
    for msg in failures[:5]:
        print(f"{wl} failed-operation {msg}", flush=True)
    for msg in errors[:5]:
        print(f"{wl} INCORRECT {msg}", flush=True)
    for msg in mismatches:
        print(f"{wl} ARTIFACT-MISMATCH {msg}", flush=True)

    per_layer = {}
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
        per_layer["nilwalk.import_s"] = setup["import_s"]
        per_layer["trace.overhead_frac"] = statistics.median(traced_walls) / wall_med - 1.0
        for name, value in per_layer.items():
            emit(wl, name, value, units[name])

    record.update({
        "loadavg_end": loadavg(),
        "steal_s": None if steal_start is None else steal_s() - steal_start,
        "setup": setup,
        "repetitions": len(walls),
        "walls_s": walls,
        "op_walls_s": op_walls,
        "traced_walls_s": traced_walls,
        "steps_per_rep": steps,
        "end_to_end": e2e,
        "failed_fraction": failed_fraction,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": failures,
        "errors": errors,
        "check_values": values,
        "artifact_sha256": digest_log,
        "artifact_mismatches": mismatches,
        "per_layer": per_layer,
        "span_self_sums": self_sums,
    })
    (run_dir / "result.json").write_text(json.dumps(strict(record), indent=1, allow_nan=False) + "\n")
    if args.trace:
        with open(run_dir / "spans.jsonl", "w") as fh:
            for s in span_dump:
                fh.write(json.dumps(strict(s), allow_nan=False) + "\n")

    values = per_layer if args.trace else e2e
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared},
    }, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
