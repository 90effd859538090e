"""wmkit benchmark: run one workload in this process and print its metrics.

Run from the repository root, one fresh process per workload:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Workloads are ``desk``, ``vocab32k`` and ``power`` (see workloads.py).  The
benchmark drives ``wmkit.cli.main`` in-process from the source tree under
``src/``; the program sees only CLI flags and the JSONL files the workload
generated.  The seed fixes every input.

``--trace 0`` sets up ``SETUP_SAMPLES`` times in fresh processes, then repeats
rounds of the workload for ``--seconds`` seconds and reports the end-to-end
metrics as medians over rounds; ``setup_s`` and, on desk and vocab32k,
``round_s`` are corrected for the shared host's drifting speed with a
reference kernel (workloads.py).
``--trace 1`` runs one untraced round, one traced round (see spans.py) and
the layer sweep (see sweep.py), and reports the per-layer metrics.  Metric
names and units are declared in BENCHMARK.json at the repository root.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run works in its own directory under ``.perfbench_work/``, which is
also the calibration cache, and removes it at exit; the traced run leaves
its spans in ``.perfbench_work/spans-<workload>-<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("desk", "vocab32k", "power")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="wmkit benchmark (one workload per process)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per group, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def prepare() -> None:
    """Cap the thread pools at ``nproc``, keep the calibration cache inside
    the checkout (each round then points it at its own directory) and
    import wmkit from this checkout's source tree."""
    if not (SRC / "wmkit" / "cli.py").is_file():
        raise BenchmarkError(f"no wmkit source tree at {SRC}")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ["WMKIT_CALIB_DIR"] = str(WORK / "unused-calib")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import wmkit

    if Path(wmkit.__file__).resolve().parent != (SRC / "wmkit").resolve():
        raise BenchmarkError(f"imported wmkit from {wmkit.__file__}, not from {SRC}")


def setup_samples(args, failures: list[str]) -> list[float]:
    """Wall seconds of ``SETUP_SAMPLES`` fresh processes that each start,
    import wmkit and prepare the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return samples


def check_rounds(rounds, failures: list[str]) -> None:
    """Every round of a run repeats the same inputs, so it must reproduce the
    first round's output files byte for byte."""
    for i, r in enumerate(rounds[1:], start=1):
        changed = sorted(n for n in set(r.digests) | set(rounds[0].digests)
                         if r.digests.get(n) != rounds[0].digests.get(n))
        if changed:
            failures.append(f"round {i} outputs differ from round 0: {changed}")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rounds, setup: list[float], rss_mb: float,
               host_corrected: bool = True) -> dict[str, float]:
    """The gated metrics (bounds in BENCHMARK.json); each applies to every workload.

    ``round_s`` is one closed-loop round (the corpus loop on desk and
    vocab32k, one simulate cell on power), each round corrected by its own
    reference samples if ``host_corrected``, else its wall time.
    ``setup_s`` is corrected by the median reference sample of the whole
    run: a set-up probe is one short process, too short to sample around, so
    this cancels only the drift over minutes."""
    from workloads import REF_NOMINAL_S

    ref_s = _median([t for r in rounds for t in r.ref_s])
    return {
        "setup_s": _median(setup) * REF_NOMINAL_S / ref_s,
        "round_s": _median([r.host_corrected_s if host_corrected else r.wall_s
                            for r in rounds]),
        "peak_rss_mb": rss_mb,
    }


def stage_metrics(rounds) -> dict[str, float | None]:
    """Throughput per CLI stage, medians over rounds; None where the
    workload has no such stage."""
    def med(stage, fn):
        if not any(r.stage_s[stage] for r in rounds):
            return None
        return _median([fn(r) for r in rounds])

    def tokens_per_s(stage):
        return med(stage, lambda r: _rate(r.stage_tokens[stage], r.stage_s[stage]))

    return {
        "stage.texts_per_s": med("generate", lambda r: _rate(r.texts, r.wall_s)),
        "stage.gen_tokens_per_s": tokens_per_s("generate"),
        "stage.detect_tokens_per_s": tokens_per_s("detect"),
        "stage.specdec_tokens_per_s": tokens_per_s("specdec"),
        "stage.cell_s": med("simulate", lambda r: r.stage_s["simulate"]),
    }


def run_untraced(workload, args, run_dir: Path, failures: list[str]):
    from workloads import REF_NOMINAL_S

    setup = setup_samples(args, failures)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.run_round(run_dir / f"round{len(rounds)}"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = end_to_end(rounds, setup, rss_mb, workload.host_corrected)
    print("# set-up walls (s): " + " ".join(f"{t:.4g}" for t in setup))
    print("# round walls (s): " + " ".join(f"{r.wall_s:.4g}" for r in rounds))
    print("# round cpu (s): " + " ".join(f"{r.cpu_s:.4g}" for r in rounds))
    print("# round mean host reference (ms): " + " ".join(
        f"{1e3 * statistics.mean(r.ref_s):.4g}" for r in rounds))
    print(f"# medians: set-up wall {_median(setup):.6g} s, round wall "
          f"{_median([r.wall_s for r in rounds]):.6g} s; corrected by "
          f"{REF_NOMINAL_S} s / host reference")
    notes = {"setup_s": f"median n={len(setup)}, host-corrected",
             "round_s": f"median n={len(rounds)}, "
                        + ("host-corrected" if workload.host_corrected else "wall"),
             "peak_rss_mb": "ru_maxrss of this process"}
    stages = stage_metrics(rounds)
    notes.update({name: f"median n={len(rounds)}, not gated" if value is not None
                  else "no such stage" for name, value in stages.items()})
    return rounds, gated, {**gated, **stages}, notes


def run_traced(workload, args, run_dir: Path):
    import spans
    import sweep

    untraced = workload.run_round(run_dir / "untraced")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workload.run_round(run_dir / "traced")
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{workload.name}-{args.seed}.csv")
    calib_csv = run_dir / "traced" / "calib" / "calibrations.csv"
    misses = len(calib_csv.read_text().splitlines()) - 1 if calib_csv.exists() else 0
    metrics = spans.per_layer_metrics(
        tracer.spans, tracer.counts, traced.wall_s, untraced.wall_s, misses, traced.records,
        traced.diagnostics, traced.specdec)
    attributed = sum(metrics[m] for m in spans.SELF_TIME_METRICS)
    if abs(attributed - traced.wall_s) > 1e-6 * max(1.0, traced.wall_s):
        raise BenchmarkError("per-layer self times do not add up to the traced round")
    self_s = spans.self_times(tracer.spans)[0]
    print(f"# traced round {traced.wall_s:.6g} s = per-layer self times + unattributed "
          f"{attributed:.6g} s; {len(tracer.spans)} spans over {tracer.run_id} commands; "
          f"untraced round {untraced.wall_s:.6g} s")
    print("# self seconds per layer: " + ", ".join(
        f"{layer} {sec:.4g}" for layer, sec in spans.layer_self(self_s).most_common()))
    notes = dict.fromkeys(metrics, "traced round, n=1")
    stages = stage_metrics([untraced])
    notes.update({name: "untraced round" if value is not None else "no such stage: 0"
                  for name, value in stages.items()})
    metrics.update({name: value or 0.0 for name, value in stages.items()})
    sweep_metrics = sweep.run(args.seed, run_dir)
    notes.update(dict.fromkeys(sweep_metrics, "layer sweep"))
    metrics.update(sweep_metrics)
    return [untraced, traced], metrics, metrics, notes


def _line(name: str, value, unit: str, note: str) -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"metric {name:34s} {shown:>14s} {unit:9s} {note}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare()
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed)
        if args.probe:
            workload.steps(WORK / "probe")
            return 0
        declared = declared_metrics()
        group = "per_layer" if args.trace else "end_to_end"
        units = {**declared["end_to_end"], **declared["per_layer"]}
        run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        run_dir.mkdir(parents=True)
        failures: list[str] = []
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: closed loop, one client")
        try:
            if args.trace:
                rounds, result_metrics, shown, notes = run_traced(workload, args, run_dir)
            else:
                rounds, result_metrics, shown, notes = run_untraced(workload, args, run_dir,
                                                                    failures)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if set(result_metrics) != set(declared[group]) or not set(shown) <= set(units):
            raise BenchmarkError(f"metrics differ from BENCHMARK.json {group}")
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for r in rounds:
        failures.extend(r.failures)
    check_rounds(rounds, failures)
    attempted = sum(r.attempted for r in rounds)
    for name, value in shown.items():
        print(_line(name, value, units[name], notes[name]))
    print(f"ops {attempted} attempted (commands + output records), {len(failures)} failed "
          f"(incl. failed correctness checks)")
    for name, sha in sorted(rounds[0].digests.items()):
        print(f"sha256 {sha} {name}")
    for failure in failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": max(attempted, len(failures)),
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in result_metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
