"""Tests for the benchmark's own logic.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from wmkit import cli  # noqa: E402


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """A real 2-text generate output and its sum-test reports."""
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    key = workloads.key_string(3, "hash")
    texts, reports = tmp_path / "wm.jsonl", tmp_path / "det.jsonl"
    assert cli.main(["generate", "--model", workloads.DESK_MODEL, "--key", key, "--n", "20",
                     "--texts", "2", "--seed", "3", "--out", str(texts)]) == 0
    assert cli.main(["detect", "--in", str(texts), "--key", key, "--out", str(reports)]) == 0
    return texts, reports


def _rewrite(path: Path, edit) -> None:
    records = workloads.read_jsonl(path)
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _texts_failures(path: Path) -> list[str]:
    failures: list[str] = []
    workloads.check_texts(path, 2, 20, workloads.DESK_VOCAB, failures, diagnostics=True)
    return failures


def test_valid_outputs_pass_the_checks(corpus):
    texts, reports = corpus
    failures: list[str] = []
    assert _texts_failures(texts) == []
    workloads.check_reports(reports, 2, failures)
    assert failures == []


@pytest.mark.parametrize("edit", [
    lambda recs: recs[0]["tokens"].__setitem__(5, workloads.DESK_VOCAB),
    lambda recs: recs[1]["tokens"].pop(),
    lambda recs: recs.pop(),
    lambda recs: recs[0].__setitem__("prompt_len", 0),
    lambda recs: recs[1]["diagnostics"].pop(),
])
def test_corrupted_texts_fail_the_checks(corpus, edit):
    texts, _ = corpus
    _rewrite(texts, edit)
    assert _texts_failures(texts)


def test_truncated_file_and_error_reports_fail_the_checks(corpus):
    texts, reports = corpus
    texts.write_bytes(texts.read_bytes()[:-40])
    assert _texts_failures(texts)
    _rewrite(reports, lambda recs: recs[0].update(error="too short"))
    failures: list[str] = []
    workloads.check_reports(reports, 2, failures)
    assert failures


def _power_csv(path: Path, sum_shift: float = 0.0, power: float = 0.5) -> Path:
    lines = [workloads.POWER_HEADER]
    for m in workloads.POWER_M:
        crit = m / 2 - 2.3263 * (m / 12) ** 0.5 + sum_shift * (m / 12) ** 0.5
        lines.append(f"weak,0.2,0.5,{m},sum,1000,0.01,{crit!r},{power!r},1")
        lines.append(f"weak,0.2,0.5,{m},hc+,1000,0.01,4.5,{power!r},1")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("shift, power, ok", [(0.0, 0.5, True), (1.0, 0.5, False),
                                              (0.0, 1.5, False)])
def test_power_csv_checks(tmp_path, shift, power, ok):
    failures: list[str] = []
    rows = workloads.check_power(_power_csv(tmp_path / "power.csv", shift, power), failures)
    assert len(rows) == 4
    assert (failures == []) == ok


def test_rounds_must_reproduce_round_zero():
    def result(digests):
        return workloads.RoundResult(1.0, 1.0, Counter(), Counter(), 0, 1, 0, [], digests)

    failures: list[str] = []
    run.check_rounds([result({"a": "1"}), result({"a": "1"})], failures)
    assert failures == []
    run.check_rounds([result({"a": "1"}), result({"a": "2"})], failures)
    assert len(failures) == 1


def test_round_and_setup_times_are_host_corrected():
    def result(wall, ref_s):
        return workloads.RoundResult(wall, wall, Counter(), Counter(), 0, 1, 0, [], {},
                                     ref_s=ref_s)

    nominal = workloads.REF_NOMINAL_S
    # A host running at half speed doubles both the round and its reference samples.
    slow = result(4.0, [2 * nominal, 2 * nominal])
    assert slow.host_corrected_s == pytest.approx(2.0)
    rounds = [result(3.0, [nominal]), slow, result(9.0, [3 * nominal, 3 * nominal])]
    gated = run.end_to_end(rounds, [1.0, 4.0, 3.0], 100.0)
    assert gated["round_s"] == pytest.approx(3.0)
    # Set-up is scaled by the median of all five reference samples, 2 * nominal.
    assert gated["setup_s"] == pytest.approx(1.5)
    wall = run.end_to_end(rounds, [1.0, 4.0, 3.0], 100.0, host_corrected=False)
    assert wall == {**gated, "round_s": 4.0}
    assert workloads.Desk.host_corrected and not workloads.Power.host_corrected


def test_reference_is_sampled_around_every_step(tmp_path):
    missing = tmp_path / "missing.jsonl"
    step = workloads.Step("detect", ["detect", "--in", str(missing), "--key",
                                     workloads.key_string(1, "hash")], tmp_path / "det.jsonl")
    for steps, samples in (([step], 8), ([step] * 3, 8), ([step] * 11, 12)):
        ref_s: list[float] = []
        wall, _, step_s, failures = workloads.run_steps(steps, ref_s)
        assert len(ref_s) == samples and all(t > 0 for t in ref_s)
        assert wall == sum(step_s) and len(failures) == len(steps)


def _tree():
    # cli.main [0, 10] -> lm.next [1, 4], detection.detect [5, 9] -> keying.zeta [6, 8];
    # a second command cli.main [10.5, 11].
    S = spans.Span
    return [
        S("cli.main", 0.0, 10.0, None, 1),
        S("lm.next", 1.0, 4.0, 0, 1),
        S("detection.detect", 5.0, 9.0, 0, 1),
        S("keying.zeta", 6.0, 8.0, 2, 1),
        S("cli.main", 10.5, 11.0, None, 2),
    ]


def test_self_time_arithmetic_on_a_hand_built_tree():
    self_s, incl, calls, roots = spans.self_times(_tree())
    assert self_s == {"cli.main": 3.5, "lm.next": 3.0, "detection.detect": 2.0, "keying.zeta": 2.0}
    assert incl["cli.main"] == 10.5 and calls["cli.main"] == 2
    assert roots == 10.5 == sum(self_s.values())
    assert spans.layer_self(self_s) == {"cli": 3.5, "lm": 3.0, "detection": 2.0, "keying": 2.0}
    assert spans.child_time(_tree(), "detection.detect", "keying.zeta") == 2.0

    metrics = spans.per_layer_metrics(_tree(), Counter(), 12.0, 11.0, 0, 0, Counter(), Counter())
    assert metrics["trace.unattributed_s"] == 1.5
    assert metrics["trace.overhead_s"] == 1.0
    assert sum(metrics[m] for m in spans.SELF_TIME_METRICS) == 12.0


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    import wmkit.detection as detection
    from wmkit.core import GeneratedText
    from wmkit.keying import parse_key

    original = detection.extract_scores
    tracer = spans.Tracer()
    tracer.install()
    try:
        text = GeneratedText(tuple(range(12)), 2)
        detection.detect(text, parse_key(workloads.key_string(1, "hash")))
    finally:
        tracer.uninstall()
    assert detection.extract_scores is original
    names = Counter(s.name for s in tracer.spans)
    assert names == {"detection.extract": 1, "keying.zeta": 10, "keying.is_green": 10,
                     "detection.test": 1}
    root = tracer.spans[0]
    assert root.name == "detection.extract" and root.parent is None
    assert all(s.parent == 0 for s in tracer.spans[1:11])
    assert tracer.counts["detection.positions_seen"] == 10


def test_every_printed_metric_is_declared(tmp_path):
    declared = run.declared_metrics()
    rounds = [workloads.RoundResult(2.0, 2.0, Counter(generate=1.0), Counter(generate=10), 1, 1, 1,
                                    [], {}, ref_s=[0.01])]
    assert set(run.end_to_end(rounds, [0.5], 100.0)) == set(declared["end_to_end"])
    per_layer = spans.per_layer_metrics(_tree(), Counter(), 12.0, 11.0, 0, 0, Counter(),
                                        Counter())
    per_layer.update(run.stage_metrics(rounds))
    per_layer.update(sweep.run(1, tmp_path))
    assert set(per_layer) == set(declared["per_layer"])


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
