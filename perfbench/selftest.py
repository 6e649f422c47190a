"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
- `--trace 0` and `--trace 1` runs of every workload emit exactly the
  metrics BENCHMARK.json names, each with its unit and a finite value, and
  pass their own output checks;
- in a traced run the per-layer self times add up to the traced run time
  and every wrapped boundary saw its calls;
- the output check flags a deliberately altered table, coordinate and
  report number, and a repeat run that differs.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run
import outputs
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def check_metrics(fail):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in names:
        for trace in (False, True):
            res = run.measure(w, seed=1, seconds=1.0, trace=trace, tiny=True)["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                fail(f"{w} trace={trace}: metrics {sorted(got.items())} != {sorted(want[trace].items())}")
            bad = [k for k, v in res["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                fail(f"{w} trace={trace}: non-finite values {bad}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{w} trace={trace}: output check failed: {res}")
            print(f"ok  {w} trace={int(trace)}: {len(got)} metrics, {res['attempted']} runs")


def check_tracer(fail, work: Path):
    from mapregister.pipeline import load_config, run_experiment

    inputs = work / "inputs"
    inputs.mkdir()
    config_path, _ = workloads.generate("long_curves", 1, inputs, workloads.TINY_SHAPES["long_curves"])
    config = load_config(config_path)
    config.output_dir = work / "traced"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, layers = tracer.run(run_experiment, config)
    finally:
        tracer.uninstall()
    total = sum(layers[m] for m in tracing.SELF_TIME)
    if abs(total - layers["trace.run_s"]) > 1e-9 * layers["trace.run_s"] + 1e-12:
        fail(f"self times sum to {total}, traced run took {layers['trace.run_s']}")
    for key in ("geodesic.inverse_calls", "geodesic.direct_calls", "curves.anchor_pairs",
                "curves.build_segments_points", "field.sample_field_calls", "field.nodes",
                "curves.split_at_nearest_vertex_s", "field.rasterize_envelope_s",
                "field.assemble_from_masks_s", "report.render_s", "formats.read_s"):
        if not layers[key] > 0:
            fail(f"traced run saw no {key}")
    counted = sum(1 for s in tracer.spans if tracer.names[s[0]] == "geodesic.inverse")
    if counted != layers["geodesic.inverse_calls"]:
        fail(f"{counted} inverse spans but {layers['geodesic.inverse_calls']} counted calls")
    import mapregister._geodesic as g
    import mapregister.pipeline as p

    if hasattr(g.Geodesic.inverse, "__wrapped__") or hasattr(p.build_segments, "__wrapped__"):
        fail("uninstall left wrappers in place")
    print(f"ok  tracer: {len(tracer.spans)} spans, self times add up")


def check_output_check(fail, work: Path):
    from mapregister.pipeline import load_config, run_experiment

    ref = run.load_ref("sample", 0)["outputs"]
    config = load_config(workloads.SAMPLE_CONFIG)
    good = work / "good"
    config.output_dir = good
    run_experiment(config)
    base = outputs.summarize(good)
    if outputs.compare(base, ref, exact_tables=True):
        fail(f"unaltered sample output flagged: {outputs.compare(base, ref, exact_tables=True)}")

    def altered(name, rel, edit):
        copy = work / name
        shutil.copytree(good, copy)
        target = copy / rel
        target.write_text(edit(target.read_text()))
        summary = outputs.summarize(copy)
        if not outputs.compare(summary, ref, exact_tables=True):
            fail(f"altered {rel} not flagged against the reference")
        if summary["digest"] == base["digest"]:
            fail(f"altered {rel} not flagged as a differing repeat run")
        print(f"ok  output check flags altered {rel}")

    def bump_table(text):
        i = next(k for k, c in enumerate(text) if c in "123456789" and k > text.index("\n"))
        return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]

    def bump_coordinate(text):
        doc = json.loads(text)
        coords = doc["features"][0]["geometry"]["coordinates"]
        coords[len(coords) // 2][1] += 1e-6
        return json.dumps(doc, indent=2) + "\n"

    def bump_report(text):
        doc = json.loads(text)
        doc["hausdorff"][0]["dir_mean_ab_km"] *= 1 + 1e-6
        return json.dumps(doc, indent=2) + "\n"

    altered("table", "hausdorff.csv", bump_table)
    altered("coordinate", "curves/river.geojson", bump_coordinate)
    altered("report", "report.json", bump_report)


def main() -> int:
    failures = []

    def fail(msg):
        failures.append(msg)
        print(f"FAIL {msg}")

    try:
        run.preflight()
    except run.BenchError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        check_output_check(fail, work)
        check_tracer(fail, work)
        check_metrics(fail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
