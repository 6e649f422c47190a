"""One benchmark run inside a fresh interpreter.

Usage: python3 perfbench/child.py < spec.json

The spec, read from stdin, names the experiment config, the work
directory, the time budget, whether to trace, and the reference summary to
check against.  The child runs `run_experiment` once untimed (warm-up,
checked against the reference), then repeats it until the budget is spent.
Untraced, each call is followed by set-up samples, each in a fresh
interpreter started and awaited here, so that set-up and run samples are
spread over the same window.  Traced, untraced and traced calls alternate.
Every call writes into a fresh directory under the work directory and is
checked.  The last line of stdout is one JSON object with the samples,
per-layer values and checks.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import tracing  # noqa: E402

#: Fewest timed calls, whatever the budget.
MIN_RUNS = 3
#: Set-up samples after each untimed call, and the fewest per run.
SETUP_PER_ROUND = 1
MIN_SETUP = 9

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import mapregister
from mapregister.pipeline import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def setup_sample(config: str) -> float:
    """Seconds for `import mapregister` plus `load_config` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(HERE.parent / "src"), config],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.split()[-1])


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import mapregister  # noqa: F401
    from mapregister.pipeline import load_config, run_experiment
    import numpy
    import scipy

    import_s = time.perf_counter() - t0
    deadline = time.monotonic() + spec["seconds"] - import_s
    config = load_config(spec["config"])
    work = Path(spec["work"])
    ref = spec.get("ref")
    tracer = tracing.Tracer()
    state = {"attempted": 0, "failed": 0, "errors": [], "digest": None, "summary": None}
    verdicts: dict[str, str | None] = {}  # output digest -> reference check result

    def one(traced: bool):
        outdir = Path(tempfile.mkdtemp(prefix="out-", dir=work))
        config.output_dir = outdir
        gc.collect()
        layers = error = None
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                result, layers = tracer.run(run_experiment, config)
            else:
                result = run_experiment(config)
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        state["attempted"] += 1
        if error is None:
            try:
                error = check(outdir)
            except Exception as exc:  # unreadable output counts as a failed call
                error = f"output check raised {exc!r}"
            if layers is not None:
                layers["formats.bytes_written"] = sum(p.stat().st_size for p in result.outputs)
        shutil.rmtree(outdir)
        if error is not None:
            state["failed"] += 1
            if len(state["errors"]) < 3:
                state["errors"].append(error)
        return elapsed, layers

    def check(outdir: Path):
        summary = outputs.summarize(outdir)
        digest = summary["digest"]
        if state["digest"] is None:
            state["digest"], state["summary"] = digest, summary
        elif digest != state["digest"]:
            return "output differs from the first run of this invocation"
        if ref is None:
            return None
        if digest not in verdicts:
            bad = outputs.compare(summary, ref, exact_tables=spec["exact_tables"])
            verdicts[digest] = ("output differs from reference: " + "; ".join(bad[:5])) if bad else None
        return verdicts[digest]

    warmup_s, _ = one(False)
    if spec.get("record"):
        return {"attempted": 1, "failed": state["failed"], "errors": state["errors"],
                "summary": state["summary"]}
    untraced: list[float] = []
    traced: list[float] = []
    setup: list[float] = []
    layer_runs: list[dict] = []
    while True:
        if spec["trace"]:
            t, _ = one(False)
            untraced.append(t)
            t, layers = one(True)
            traced.append(t)
            if layers is not None:
                layer_runs.append(layers)
            per_round = statistics.median(untraced) + statistics.median(traced)
        else:
            untraced.append(one(False)[0])
            setup.extend(setup_sample(spec["config"]) for _ in range(SETUP_PER_ROUND))
            per_round = statistics.median(untraced) + SETUP_PER_ROUND * statistics.median(setup)
        if len(untraced) >= MIN_RUNS and time.monotonic() + per_round > deadline:
            break
    if not spec["trace"]:
        setup.extend(setup_sample(spec["config"]) for _ in range(MIN_SETUP - len(setup)))

    result = {
        "attempted": state["attempted"],
        "failed": state["failed"],
        "errors": state["errors"],
        "warmup_s": warmup_s,
        "run_s_samples": untraced,
        "setup_s_samples": setup,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "import_s": import_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "summary": state["summary"],
    }
    if spec["trace"]:
        result["traced_run_s_samples"] = traced
        if layer_runs:
            layers = tracing.median_layers(layer_runs)
            # Each traced call is paired with the untraced call just before
            # it, so both see about the same load on the machine.
            layers["trace.overhead_frac"] = (
                statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
            )
            result["layers"] = layers
        tracer.write(Path(spec["spans"]))
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.load(sys.stdin))))
