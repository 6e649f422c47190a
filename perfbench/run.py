"""Layered benchmark of the mapregister pipeline: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-refs
    python3 perfbench/selftest.py

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json
(`run_s`, `setup_s`, `peak_rss_mb`); with `--trace 1` it reports the
per-layer metrics from a run that alternates traced and untraced calls.
Failures are the result line's own `failed` out of `attempted`.  The last
line of stdout is the JSON result; the lines before it print every metric
with its unit and a run record (machine, versions, thread settings, seed,
sample counts, input digests, `src/` line count).

Load discipline: one workload at a time, each timed loop in one fresh
child process, which starts set-up samples in fresh interpreters one at a
time.  Nothing here starts a thread pool or sets BLAS thread variables;
they are recorded as found.  Everything the run writes stays under `.perfbench_work/` at the
root of the checkout.  `--record-refs` rewrites `perfbench/refs/` from the
code in this checkout; the committed references were recorded from the
code of the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"
REFS = HERE / "refs"
#: Every run must be over well within three minutes.
RUN_LIMIT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def preflight():
    needed = [ROOT / "src" / "mapregister" / "__init__.py", workloads.SAMPLE_CONFIG]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a mapregister checkout, missing: {', '.join(missing)}")


def run_child(spec: dict, deadline: float) -> dict:
    # Own process group, so that a timeout also stops a set-up sample the
    # child may be waiting for.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            json.dumps(spec), timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload child exceeded the time limit") from None
    except BaseException:  # interrupted or terminated: stop the child first
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"workload child failed:\n{stderr}")
    return json.loads(stdout.splitlines()[-1])


def load_ref(workload: str, variant: int):
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["variants"].get(str(variant))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu": None, "mem_total_kb": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["mem_total_kb"] = int(line.split()[1])
                break
    except OSError:
        pass
    return info


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object (and the record)."""
    preflight()
    WORK.mkdir(exist_ok=True)
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        inputs = tmp / "inputs"
        inputs.mkdir()
        shape = workloads.TINY_SHAPES.get(workload) if tiny else None
        config, digests = workloads.generate(workload, seed, inputs, shape)
        variant = 0 if workload == "sample" else workloads.variant_of(seed)
        ref = None if shape else load_ref(workload, variant)
        problems = []
        if ref is None and not shape:
            problems.append(f"no reference recorded for {workload} variant {variant}")
        elif ref is not None and ref["inputs"] != digests:
            problems.append("generated inputs differ from the recorded reference inputs")
        spec = {
            "config": str(config),
            "work": str(tmp),
            "seconds": seconds - (time.monotonic() - start),
            "trace": trace,
            "ref": ref["outputs"] if ref else None,
            "exact_tables": workload == "sample",
            "spans": str(WORK / f"trace-{workload}.json"),
        }
        child = run_child(spec, hard_deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        if "layers" not in child:
            raise BenchError(f"no traced run succeeded: {child['errors']}")
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = {
            "run_s": statistics.median(child["run_s_samples"]),
            "setup_s": statistics.median(child["setup_s_samples"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted = child["attempted"]
    failed = attempted if problems else child["failed"]
    record = {
        "workload": workload, "seed": seed, "variant": variant, "seconds": seconds,
        "trace": trace, "tiny": tiny,
        "machine": machine(),
        "versions": child["versions"],
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines(),
        "inputs": digests,
        "sample_counts": {"run_s": len(child["run_s_samples"]),
                          "setup_s": len(child["setup_s_samples"]),
                          "traced_run_s": len(child.get("traced_run_s_samples", []))},
        "warmup_s": child["warmup_s"],
        "run_s_samples": child["run_s_samples"],
        "traced_run_s_samples": child.get("traced_run_s_samples"),
        "setup_s_samples": child["setup_s_samples"],
        "import_s": child["import_s"],
        "output_bytes": child["summary"]["bytes"] if child["summary"] else None,
        "problems": problems + child["errors"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def record_refs(names) -> None:
    """Write refs/<workload>.json: input digests and output summary per variant."""
    WORK.mkdir(exist_ok=True)
    REFS.mkdir(exist_ok=True)
    for workload in names:
        variants = [0] if workload == "sample" else range(workloads.VARIANTS)
        doc = {"variants": {}}
        for v in variants:
            tmp = Path(tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=WORK))
            try:
                inputs = tmp / "inputs"
                inputs.mkdir()
                config, digests = workloads.generate(workload, v, inputs)
                child = run_child({"config": str(config), "work": str(tmp), "seconds": 0,
                                   "trace": False, "record": True},
                                  time.monotonic() + RUN_LIMIT_S)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if child["failed"]:
                raise BenchError(f"{workload} variant {v} failed: {child['errors']}")
            doc["variants"][str(v)] = {"inputs": digests, "outputs": child["summary"]}
            print(f"recorded {workload} variant {v}", flush=True)
        (REFS / f"{workload}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes, no reference check")
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.record_refs:
            preflight()
            record_refs([args.workload] if args.workload else workloads.WORKLOADS)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in out["result"]["metrics"].items():
        print(f"{args.workload:16s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    print("record " + json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
