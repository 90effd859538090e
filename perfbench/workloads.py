"""The benchmark's three workloads, each a closed loop over ``wmkit.cli.main``.

A round runs the workload's commands back to back, each starting only after
the previous one returns, as a researcher's script would.  Every round reads
and writes inside one fresh directory that is also the calibration cache
(``WMKIT_CALIB_DIR``), so each round starts cold and repeats the same work
for the same seed; after the round every output file is checked.

Workloads:

- ``desk``: the everyday corpus loop at V=64, order 2.  Every command builds
  a fresh MarkovSource, so row synthesis in ``lm`` dominates generation.
- ``vocab32k``: a realistic vocabulary at V=32000, order 0.  One row per
  command, then only cache hits, so the V-sized vector work in ``keying`` and
  ``decoders`` dominates; the perm and dipmark steps run the scalar
  Fisher-Yates permutation once per token.
- ``power``: one ``simulate`` cell at the criterion-6 point; no generation,
  only simulation draws and the HC kernel ``detection.hc_batch``.

The host these rounds run on is shared, and its speed drifts by 20-30% over
minutes, CPU time included.  Every round therefore also times a fixed
reference kernel that does not use wmkit (``host_reference``) before every
command and after the last one, at least ``REF_MIN_SAMPLES`` times in all;
the round's wall time divided by the mean reference time measures the
program against the host's current speed (see
``RoundResult.host_corrected_s``).  ``power`` reports wall time instead (see
``Power``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wmkit import cli

ALPHA = 0.01
MIN_TPR = 0.9
# At alpha = 0.01 a plain corpus of DESK_TEXTS texts has this many or more
# false positives with probability below 1e-4.
MAX_PLAIN_FALSE_POSITIVES = 3

DESK_MODEL = "markov:seed=11,vocab=64,order=2"
DESK_TARGET = "markov:seed=12,vocab=64,order=2"
DESK_VOCAB = 64
DESK_TEXTS = 6
DESK_TOKENS = 300
DESK_SPECDEC_TEXTS = 2

V32K_MODEL = "markov:seed=11,vocab=32000,order=0"
V32K_VOCAB = 32000
V32K_HASH_TEXTS = 2
V32K_HASH_TOKENS = 100
# Perm-key and dipmark steps cost one scalar V=32000 permutation per token
# (and perm-key detection one per scored position), so their texts are
# short.  A sum test on 8 positions has little power, so the TPR check runs
# on the hash-key mc texts only.
V32K_PERM_TOKENS = 8
V32K_DIPMARK_TOKENS = 6

POWER_M = (10000, 100000)
POWER_REPS = 1000
POWER_ARGS = ["--regime", "weak", "--p", "0.2", "--q", "0.5",
              "--m", ",".join(map(str, POWER_M)), "--reps", str(POWER_REPS)]
POWER_HEADER = "regime,p,q_or_r,m,statistic,reps,alpha,critical_value,power,seed"
# Sum critical value: allowed distance from its normal approximation, in
# null standard deviations.  The empirical 1% quantile of 1000 draws has a
# standard error of about 0.12 sd, so 0.6 sd is five standard errors.
POWER_SUM_CRIT_TOL = 0.6

KEY_K = 2

# Host reference kernel: a Python loop of small numpy calls, the mix of
# interpreter and per-call numpy overhead that dominates desk and vocab32k.
# Over 6-minute runs of each, its time tracked the rounds' wall time with a
# correlation of 0.83 (desk) and 0.92 (vocab32k) in log scale.
REF_ITERATIONS = 1500
REF_VECTOR = np.linspace(1.0, 2.0, 64)
REF_MIN_SAMPLES = 8
# Median time of host_reference() on the machine in perfbench/BASELINE.md;
# host-corrected round times are in seconds at that speed.
REF_NOMINAL_S = 0.0123


def master_key(seed: int) -> str:
    """64-bit watermark master secret (hex) derived from the workload seed."""
    return hashlib.sha256(f"wmkit-perfbench:{seed}".encode()).hexdigest()[:16]


def key_string(seed: int, mode: str) -> str:
    return f"{master_key(seed)}:k={KEY_K}:g=0.5:mode={mode}"


@dataclass
class Step:
    """One CLI command of a round."""

    stage: str  # generate | detect | attack | specdec | simulate
    argv: list[str]
    out: Path
    source: Path | None = None  # input file of a detect step


@dataclass
class RoundResult:
    """Timings, counts and check results of one round."""

    wall_s: float
    cpu_s: float
    stage_s: Counter
    stage_tokens: Counter
    texts: int
    commands: int
    records: int
    failures: list[str]
    digests: dict[str, str]
    diagnostics: Counter = field(default_factory=Counter)
    specdec: Counter = field(default_factory=Counter)
    ref_s: list[float] = field(default_factory=list)  # host_reference() samples

    @property
    def attempted(self) -> int:
        return self.commands + self.records

    @property
    def host_corrected_s(self) -> float:
        """Wall seconds of the round at the reference host speed: ``wall_s``
        scaled by ``REF_NOMINAL_S`` over the mean reference sample."""
        return self.wall_s * REF_NOMINAL_S * len(self.ref_s) / sum(self.ref_s)


def _generate(out: Path, model: str, key: str, n: int, texts: int, seed: int, *extra: str) -> Step:
    argv = ["generate", "--model", model, "--key", key, "--n", str(n), "--texts", str(texts),
            "--seed", str(seed), *extra, "--out", str(out)]
    return Step("generate", argv, out)


def _detect(src: Path, out: Path, key: str, stat: str) -> Step:
    argv = ["detect", "--in", str(src), "--key", key, "--stat", stat, "--alpha", str(ALPHA),
            "--out", str(out)]
    return Step("detect", argv, out, source=src)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]


def check_texts(path: Path, texts: int, n: int, vocab: int, failures: list[str],
                diagnostics: bool = False) -> list[dict]:
    """Check a generated JSONL corpus: record count, token count, prompt
    length, token range and vocabulary; optionally one diagnostic per step."""
    try:
        records = read_jsonl(path)
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: unreadable ({exc})")
        return []
    if len(records) != texts:
        failures.append(f"{path.name}: {len(records)} records, expected {texts}")
    for i, rec in enumerate(records):
        tokens = rec.get("tokens")
        where = f"{path.name}[{i}]"
        if not isinstance(tokens, list) or len(tokens) != KEY_K + n:
            failures.append(f"{where}: expected {KEY_K + n} tokens")
        elif rec.get("prompt_len") != KEY_K:
            failures.append(f"{where}: prompt_len {rec.get('prompt_len')} != {KEY_K}")
        elif not all(isinstance(t, int) and 0 <= t < vocab for t in tokens):
            failures.append(f"{where}: token outside [0, {vocab})")
        elif rec.get("vocab_size") != vocab:
            failures.append(f"{where}: vocab_size {rec.get('vocab_size')} != {vocab}")
        elif diagnostics and len(rec.get("diagnostics", ())) != n:
            failures.append(f"{where}: expected {n} step diagnostics")
    return records


def check_reports(path: Path, texts: int, failures: list[str]) -> list[dict]:
    """Check a detect output: one report per input text and no ``error``."""
    try:
        records = read_jsonl(path)
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: unreadable ({exc})")
        return []
    if len(records) != texts:
        failures.append(f"{path.name}: {len(records)} reports, expected {texts}")
    for i, rec in enumerate(records):
        if "error" in rec or not isinstance(rec.get("reject"), bool):
            failures.append(f"{path.name}[{i}]: report has an error or no decision")
    return records


def reject_rate(reports: list[dict]) -> float:
    return sum(r.get("reject") is True for r in reports) / max(1, len(reports))


def check_power(path: Path, failures: list[str]) -> list[dict]:
    """Check the power CSV: one row per (m, statistic), powers in [0, 1], and
    sum critical values near m/2 + z_alpha * sqrt(m/12)."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        failures.append(f"{path.name}: unreadable ({exc})")
        return []
    if not lines or lines[0] != POWER_HEADER:
        failures.append(f"{path.name}: bad header")
        return []
    cols = POWER_HEADER.split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    expected = [(m, s) for m in POWER_M for s in ("sum", "hc+")]
    try:
        got = [(int(r["m"]), r["statistic"]) for r in rows]
    except (KeyError, ValueError):
        got = None
    if got != expected:
        failures.append(f"{path.name}: rows {got}, expected {expected}")
        return rows
    z = -2.3263478740408408  # standard normal quantile at ALPHA = 0.01
    for r in rows:
        m, power, crit = int(r["m"]), float(r["power"]), float(r["critical_value"])
        if not 0.0 <= power <= 1.0 or int(r["reps"]) != POWER_REPS:
            failures.append(f"{path.name}: m={m} {r['statistic']} power {power} reps {r['reps']}")
        if r["statistic"] == "sum":
            sd = math.sqrt(m / 12.0)
            if abs(crit - (m / 2.0 + z * sd)) > POWER_SUM_CRIT_TOL * sd:
                failures.append(f"{path.name}: m={m} sum critical value {crit} far from normal")
    return rows


def count_diagnostics(records: list[dict], counts: Counter) -> None:
    """Add the masked, zero-green and excess-branch steps of generate records."""
    for rec in records:
        for diag in rec.get("diagnostics", ()):
            counts["masked"] += bool(diag.get("masked"))
            counts["zero_green"] += bool(diag.get("zero_green"))
            counts["excess"] += diag.get("branch") == "EXCESS"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def host_reference() -> float:
    """Seconds for a fixed kernel that does not use wmkit."""
    x = REF_VECTOR
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        x = np.cumsum(x / x.sum())
    return time.perf_counter() - t0


def run_steps(steps: list[Step], ref_s: list[float]
              ) -> tuple[float, float, list[float], list[str]]:
    """Run the steps back to back through ``wmkit.cli.main``.

    Returns the round's wall and CPU time (the sums over its commands), the
    wall time of each step, and failures for commands that exited non-zero
    or raised.  Appends to ``ref_s`` an equal number of ``host_reference()``
    samples before every step and after the last one, at least
    ``REF_MIN_SAMPLES`` in all.
    """
    per_gap = math.ceil(REF_MIN_SAMPLES / (len(steps) + 1))
    step_s: list[float] = []
    step_cpu = 0.0
    failures: list[str] = []
    for step in steps:
        ref_s.extend(host_reference() for _ in range(per_gap))
        err = io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(step.argv)
            except Exception:  # a crashing command is a failed op; keep the round going
                traceback.print_exc()
                code = -1
        step_s.append(time.perf_counter() - t0)
        step_cpu += time.process_time() - cpu0
        if code != 0:
            failures.append(f"{step.stage} -> {step.out.name}: exit code {code}")
            sys.stderr.write(err.getvalue())
    ref_s.extend(host_reference() for _ in range(per_gap))
    return sum(step_s), step_cpu, step_s, failures


def _tokens_in(path: Path) -> int:
    try:
        return sum(len(r.get("tokens", ())) for r in read_jsonl(path))
    except (OSError, ValueError):
        return 0


class Workload:
    """A named closed-loop round of CLI commands plus its output checks."""

    name = ""
    # Whether round_s divides out host speed (see module doc).
    host_corrected = True

    def __init__(self, seed: int):
        self.seed = seed

    def steps(self, d: Path) -> list[Step]:
        raise NotImplementedError

    def check(self, d: Path, result: RoundResult) -> None:
        raise NotImplementedError

    def run_round(self, d: Path) -> RoundResult:
        d.mkdir(parents=True, exist_ok=False)
        os.environ["WMKIT_CALIB_DIR"] = str(d / "calib")
        steps = self.steps(d)
        ref_s: list[float] = []
        wall, cpu, step_s, failures = run_steps(steps, ref_s)
        stage_s = Counter()
        for step, sec in zip(steps, step_s):
            stage_s[step.stage] += sec
        result = RoundResult(wall_s=wall, cpu_s=cpu, stage_s=stage_s, stage_tokens=Counter(),
                             texts=0, commands=len(steps), records=0, failures=failures,
                             digests={}, ref_s=ref_s)
        for step in steps:
            if step.stage == "detect":
                result.stage_tokens["detect"] += _tokens_in(step.source)
        self.check(d, result)
        for path in sorted(d.iterdir()):
            if path.is_file():
                result.digests[path.name] = digest(path)
        return result


class Desk(Workload):
    """generate (watermarked and plain) -> detect sum/hc+/max -> attack ->
    re-detect sum/hc+ -> specdec -> re-detect, at V=64, order 2, mc."""

    name = "desk"

    def steps(self, d: Path) -> list[Step]:
        key = key_string(self.seed, "hash")
        s = str(self.seed)
        gen = _generate(d / "wm.jsonl", DESK_MODEL, key, DESK_TOKENS, DESK_TEXTS, self.seed,
                        "--scheme", "mc")
        plain = _generate(d / "plain.jsonl", DESK_MODEL, key, DESK_TOKENS, DESK_TEXTS,
                          self.seed, "--plain")
        attack = Step("attack", ["attack", "--kind", "substitute", "--in", str(gen.out),
                                 "--rate", "0.1", "--seed", s, "--out", str(d / "att.jsonl")],
                      d / "att.jsonl")
        specdec = Step("specdec", ["specdec", "--draft", DESK_MODEL, "--target", DESK_TARGET,
                                   "--key", key, "--scheme", "mc", "--n", str(DESK_TOKENS),
                                   "--texts", str(DESK_SPECDEC_TEXTS), "--seed", s,
                                   "--out", str(d / "sd.jsonl"),
                                   "--stats-out", str(d / "sd_stats.json")],
                       d / "sd.jsonl")
        return [
            gen,
            plain,
            *(_detect(gen.out, d / f"det_wm_{st}.jsonl", key, st) for st in ("sum", "hc+", "max")),
            _detect(plain.out, d / "det_plain_sum.jsonl", key, "sum"),
            attack,
            *(_detect(attack.out, d / f"det_att_{st}.jsonl", key, st) for st in ("sum", "hc+")),
            specdec,
            _detect(specdec.out, d / "det_sd_sum.jsonl", key, "sum"),
        ]

    def check(self, d: Path, result: RoundResult) -> None:
        f = result.failures
        wm = check_texts(d / "wm.jsonl", DESK_TEXTS, DESK_TOKENS, DESK_VOCAB, f, diagnostics=True)
        plain = check_texts(d / "plain.jsonl", DESK_TEXTS, DESK_TOKENS, DESK_VOCAB, f)
        att = check_texts(d / "att.jsonl", DESK_TEXTS, DESK_TOKENS, DESK_VOCAB, f)
        sd = check_texts(d / "sd.jsonl", DESK_SPECDEC_TEXTS, DESK_TOKENS, DESK_VOCAB, f)
        reports = {}
        for name, texts in (("wm_sum", DESK_TEXTS), ("wm_hc+", DESK_TEXTS), ("wm_max", DESK_TEXTS),
                            ("plain_sum", DESK_TEXTS), ("att_sum", DESK_TEXTS),
                            ("att_hc+", DESK_TEXTS), ("sd_sum", DESK_SPECDEC_TEXTS)):
            reports[name] = check_reports(d / f"det_{name}.jsonl", texts, f)
        if reject_rate(reports["wm_sum"]) < MIN_TPR:
            f.append(f"desk: sum TPR {reject_rate(reports['wm_sum'])} < {MIN_TPR}")
        false_pos = sum(r.get("reject") is True for r in reports["plain_sum"])
        if false_pos >= MAX_PLAIN_FALSE_POSITIVES:
            f.append(f"desk: {false_pos} false positives on the plain corpus")
        count_diagnostics(wm, result.diagnostics)
        for rec in sd:
            stats = rec.get("specdec_stats", {})
            result.specdec["evaluated"] += stats.get("n_evaluated", 0)
            result.specdec["rejected"] += stats.get("n_rejected", 0)
        if result.specdec["evaluated"] < 1:
            f.append("desk: specdec evaluated no draft proposals")
        result.stage_tokens["generate"] = 2 * DESK_TEXTS * DESK_TOKENS
        result.stage_tokens["specdec"] = DESK_SPECDEC_TEXTS * DESK_TOKENS
        result.texts = 2 * DESK_TEXTS + DESK_SPECDEC_TEXTS
        result.records = len(wm) + len(plain) + len(att) + len(sd) + sum(
            len(r) for r in reports.values())


class Vocab32k(Workload):
    """mc and gumbel (hash key) with detect, dipmark, and mc with a perm key
    plus detect, at V=32000, order 0."""

    name = "vocab32k"

    def _plan(self, d: Path):
        hash_key = key_string(self.seed, "hash")
        perm_key = key_string(self.seed, "perm")
        n, t, pn, dn = V32K_HASH_TOKENS, V32K_HASH_TEXTS, V32K_PERM_TOKENS, V32K_DIPMARK_TOKENS
        return [
            # (generate step, texts, tokens, detect stats, key, TPR checked)
            (_generate(d / "mc.jsonl", V32K_MODEL, hash_key, n, t, self.seed, "--scheme", "mc"),
             t, n, ("sum", "hc+"), hash_key, True),
            (_generate(d / "gumbel.jsonl", V32K_MODEL, hash_key, n, t, self.seed,
                       "--scheme", "gumbel"), t, n, ("sum", "hc+"), hash_key, False),
            (_generate(d / "dipmark.jsonl", V32K_MODEL, hash_key, dn, 1, self.seed,
                       "--scheme", "dipmark", "--alpha-dip", "0.45"), 1, dn, (), hash_key, False),
            (_generate(d / "perm.jsonl", V32K_MODEL, perm_key, pn, 1, self.seed, "--scheme", "mc"),
             1, pn, ("sum",), perm_key, False),
        ]

    def steps(self, d: Path) -> list[Step]:
        out = []
        for gen, _, _, stats, key, _ in self._plan(d):
            out.append(gen)
            out.extend(_detect(gen.out, d / f"det_{gen.out.stem}_{st}.jsonl", key, st)
                       for st in stats)
        return out

    def check(self, d: Path, result: RoundResult) -> None:
        f = result.failures
        for gen, texts, n, stats, _, tpr_checked in self._plan(d):
            recs = check_texts(gen.out, texts, n, V32K_VOCAB, f, diagnostics=True)
            result.records += len(recs)
            result.texts += texts
            result.stage_tokens["generate"] += texts * n
            count_diagnostics(recs, result.diagnostics)
            for st in stats:
                reports = check_reports(d / f"det_{gen.out.stem}_{st}.jsonl", texts, f)
                result.records += len(reports)
                if tpr_checked and st == "sum" and reject_rate(reports) < MIN_TPR:
                    f.append(f"vocab32k: {gen.out.stem} sum TPR {reject_rate(reports)} < {MIN_TPR}")


class Power(Workload):
    """One simulate cell: weak regime, p=0.2, q=0.5, m in {1e4, 1e5}, 1000 reps.

    Not host-corrected: the cell is one 9-12 s numpy-bound command whose
    time moves only a fraction as much as the reference kernel's (log
    correlation 0.57, slope about 0.25), so dividing by it widened the
    spread of 10 runs' round_s from 0.13 to 0.22.  Its rounds still sample
    the kernel, for ``setup_s``.
    """

    name = "power"
    host_corrected = False

    def steps(self, d: Path) -> list[Step]:
        out = d / "power.csv"
        return [Step("simulate", ["simulate", *POWER_ARGS, "--seed", str(self.seed),
                                  "--out", str(out)], out)]

    def check(self, d: Path, result: RoundResult) -> None:
        result.records = len(check_power(d / "power.csv", result.failures))


WORKLOADS = {w.name: w for w in (Desk, Vocab32k, Power)}
