"""Command-line workflows: generate, detect, attack, specdec, simulate,
calibrate."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wmkit import cli, detection, lm, simulation
from wmkit.attacks import _check_specdec_models
from wmkit.cli import main
from wmkit.core import make_ntp
from wmkit.lm import TraceSource, save_trace
from wmkit.simulation import POWER_CSV_HEADER

KEY_ARG = "9e3779b97f4a7c15:k=2:g=0.5:mode=hash"
MODEL_ARG = "markov:seed=11,vocab=64,order=2"


def _generate(tmp_path, name="texts.jsonl", extra=(), n=60, texts=3, seed=0):
    out = tmp_path / name
    rc = main(
        [
            "generate",
            "--model", MODEL_ARG,
            "--key", KEY_ARG,
            "--n", str(n),
            "--texts", str(texts),
            "--seed", str(seed),
            "--out", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _records(path):
    # Strict JSON: NaN, Infinity and -Infinity are refused.
    return [json.loads(ln, parse_constant=_refuse_constant)
            for ln in path.read_text().splitlines() if ln.strip()]


# Records that are not text records; each once raised a traceback or was
# scored as something else.
MALFORMED_RECORDS = {
    "tokens-not-a-list": {"tokens": 5, "vocab_size": 32},
    "not-an-object": [1, 2, 3],
    "vocab-size-string": {"tokens": list(range(20)), "vocab_size": "32"},
    "fractional-tokens": {"tokens": [t + 0.9 for t in range(20)], "vocab_size": 32},
    "boolean-tokens": {"tokens": [True, False] * 10, "vocab_size": 32},
    "prompt-len-string": {"tokens": list(range(20)), "prompt_len": "2", "vocab_size": 32},
}


class TestGenerate:
    def test_record_shape(self, tmp_path):
        out = _generate(tmp_path, texts=1)
        recs = _records(out)
        assert len(recs) == 1
        rec = recs[0]
        assert rec["text_id"] == 0
        assert len(rec["tokens"]) == rec["prompt_len"] + 60
        assert rec["scheme"] == "mc"
        assert rec["vocab_size"] == 64
        assert rec["watermarked"] is True

    def test_rerun_byte_identical(self, tmp_path):
        a = _generate(tmp_path, "a.jsonl")
        b = _generate(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_tokens(self, tmp_path):
        a = _generate(tmp_path, "a.jsonl", seed=0)
        b = _generate(tmp_path, "b.jsonl", seed=1)
        assert a.read_bytes() != b.read_bytes()

    def test_plain_flag(self, tmp_path):
        out = _generate(tmp_path, extra=("--plain",), texts=2)
        for rec in _records(out):
            assert rec["scheme"] == "plain"
            assert rec["watermarked"] is False

    def test_soft_requires_delta(self, tmp_path):
        rc = main(
            [
                "generate",
                "--model", MODEL_ARG,
                "--key", KEY_ARG,
                "--scheme", "soft",
                "--n", "10",
                "--out", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("scheme", ["soft", "mc-soft"])
    @pytest.mark.parametrize("delta", ["nan", "inf", "710"])
    def test_delta_without_finite_factor_is_usage_error(self, tmp_path, scheme, delta):
        out = tmp_path / "x.jsonl"
        rc = main(["generate", "--model", MODEL_ARG, "--key", KEY_ARG, "--scheme", scheme,
                   "--delta", delta, "--n", "10", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_soft_with_delta(self, tmp_path):
        out = _generate(tmp_path, extra=("--scheme", "soft", "--delta", "2.0"), texts=1)
        assert _records(out)[0]["scheme"] == "soft"

    def test_bad_key_string(self, tmp_path):
        rc = main(
            [
                "generate",
                "--model", MODEL_ARG,
                "--key", "zz:k=2",
                "--n", "10",
                "--out", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("conc", ["1e-8", "1e-308", "1e308"])
    def test_extreme_concentration_generates(self, tmp_path, conc):
        out = tmp_path / "x.jsonl"
        rc = main(["generate", "--model", f"markov:seed=1,vocab=8,order=1,conc={conc}",
                   "--key", KEY_ARG, "--n", "3", "--out", str(out)])
        assert rc == 0
        for rec in _records(out):
            assert len(rec["tokens"]) == rec["prompt_len"] + 3

    def test_one_token_vocabulary_at_overflowing_concentration(self, tmp_path):
        # Every log of the row overflows; the one-token law is [1.0].
        out = tmp_path / "x.jsonl"
        rc = main(["generate", "--model", "markov:seed=11,vocab=1,order=1,conc=1e-308",
                   "--key", KEY_ARG, "--plain", "--n", "4", "--out", str(out)])
        assert rc == 0
        assert [set(rec["tokens"]) for rec in _records(out)] == [{0}]

    def test_gumbel_never_emits_a_negative_zero_token(self, tmp_path):
        # Token 0 has probability -0.0 at every step of the trace.
        trace = tmp_path / "trace.jsonl"
        lines = [json.dumps({"vocab_size": 9, "n_steps": 60})]
        lines += [json.dumps({"t": t, "probs": [-0.0] + [0.125] * 8}) for t in range(60)]
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.jsonl"
        rc = main(["generate", "--model", f"trace:path={trace}", "--key", KEY_ARG,
                   "--scheme", "gumbel", "--no-masking", "--n", "60", "--texts", "4",
                   "--out", str(out)])
        assert rc == 0
        for rec in _records(out):
            assert 0 not in rec["tokens"][rec["prompt_len"]:]

    def test_trace_replays_from_first_step_for_every_text(self, tmp_path):
        # Step t of the trace puts all mass on token t.
        trace = tmp_path / "trace.jsonl"
        save_trace(TraceSource(16, [make_ntp(np.eye(16)[t]) for t in range(12)]), trace)
        out = tmp_path / "texts.jsonl"
        rc = main(["generate", "--model", f"trace:path={trace}", "--key", KEY_ARG, "--plain",
                   "--n", "5", "--texts", "2", "--out", str(out)])
        assert rc == 0
        conts = [rec["tokens"][rec["prompt_len"]:] for rec in _records(out)]
        assert conts == [[0, 1, 2, 3, 4]] * 2

    def test_trace_with_nan_probability_is_runtime_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        steps = [np.full(4, 0.25), np.array([np.nan, 0.25, 0.25, 0.25]), np.full(4, 0.25)]
        save_trace(TraceSource(4, steps), trace)
        out = tmp_path / "texts.jsonl"
        rc = main(["generate", "--model", f"trace:path={trace}", "--key", KEY_ARG, "--plain",
                   "--n", "3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_stdout_when_no_out(self, capsys):
        rc = main(
            ["generate", "--model", MODEL_ARG, "--key", KEY_ARG, "--n", "5", "--texts", "1"]
        )
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert json.loads(line)["text_id"] == 0


# sha256 of `wmkit generate` output (V=32, order 2, 3 texts of 40 tokens,
# seed 5), captured when Markov rows became one vectorized log-Gamma draw;
# the perm-key and DiPmark digests were captured again when the keyed
# permutation became a sort of keyed words.  Gumbel and DiPmark ignore the
# green mode, so their hash and perm digests agree.
GOLDEN_GENERATE = {
    ("hash", "plain"): "a8cf9c54f20d521090fdaf0212c34264e3ad17653b19d3d86571025d7b6301bb",
    ("hash", "mc"): "d4a28849574267f00466e2c3cecf022c9a76fdfbdae9c2b341e3f2b1d7f944b4",
    ("hash", "mc-soft"): "cdfe8dc2e8dd0efc1145aa9d3015ca356861783525409c053f7caf7ebdb7ec27",
    ("hash", "gumbel"): "4defbdb20d4fc375df50ab43e24814984944586370fa4a6dfa1ace751a4723fe",
    ("hash", "soft"): "7fcedb05c2a292cb763ddf567c5e361339ac3498a6d46c71eb50124f6b8a924a",
    ("hash", "dipmark"): "4f69e9efb8a87a78862a0f99e6db82b730388fda31adc16388c8bfe693fb06d7",
    ("perm", "mc"): "9bb9fa8708a2d54765cdf49d9423b65dcb868f0a7ec5ca4d6441c10a8eda5a16",
    ("perm", "mc-soft"): "a28922fdc270bf0598e32d155ac7e2686bcc8b715f60a10a9448b66326d374c0",
    ("perm", "gumbel"): "4defbdb20d4fc375df50ab43e24814984944586370fa4a6dfa1ace751a4723fe",
    ("perm", "soft"): "8d620dde5104355d604d467c9984bb95f885affc39a9469bb3255e8680d4ce02",
    ("perm", "dipmark"): "4f69e9efb8a87a78862a0f99e6db82b730388fda31adc16388c8bfe693fb06d7",
}
SCHEME_FLAGS = {
    "mc": (),
    "mc-soft": ("--delta", "1.0"),
    "gumbel": (),
    "soft": ("--delta", "1.5"),
    "dipmark": ("--alpha-dip", "0.45"),
}


def _scheme_args(scheme):
    if scheme == "plain":
        return ("--plain",)
    return ("--scheme", scheme, *SCHEME_FLAGS[scheme])


@pytest.mark.parametrize("mode,scheme", sorted(GOLDEN_GENERATE))
def test_generate_golden(tmp_path, mode, scheme):
    out = tmp_path / "golden.jsonl"
    rc = main(
        [
            "generate",
            "--model", "markov:seed=11,vocab=32,order=2",
            "--key", f"9e3779b97f4a7c15:k=2:g=0.5:mode={mode}",
            "--n", "40",
            "--texts", "3",
            "--seed", "5",
            "--out", str(out),
            *_scheme_args(scheme),
        ]
    )
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_GENERATE[(mode, scheme)]


# sha256 of `wmkit specdec` output followed by its stats JSON (draft V=32
# order 2 seed 11, target seed 12, 3 texts of 40 tokens, seed 5), captured
# when Markov rows became one vectorized log-Gamma draw; the perm-key mc
# digest was captured again when the keyed permutation became a sort.
GOLDEN_SPECDEC = {
    ("hash", "mc"): "e9285e951c40f9077aba22b55c30c92d2c8f6df2e5c8abc3ac4e96aae8f41d55",
    ("hash", "gumbel"): "041a78abe54b4b74768bad0d0c71973fa2983f5a0bfe465f9c26efa9f9bfda6f",
    ("perm", "mc"): "9c095baa1ca72540c31a09bc18b403ceb013a38460f5ebf9383f8e5bacdc7db5",
    ("perm", "gumbel"): "041a78abe54b4b74768bad0d0c71973fa2983f5a0bfe465f9c26efa9f9bfda6f",
}


@pytest.mark.parametrize("mode,scheme", sorted(GOLDEN_SPECDEC))
def test_specdec_golden(tmp_path, mode, scheme):
    out, stats = tmp_path / "sd.jsonl", tmp_path / "stats.json"
    rc = main(
        [
            "specdec",
            "--draft", "markov:seed=11,vocab=32,order=2",
            "--target", "markov:seed=12,vocab=32,order=2",
            "--key", f"9e3779b97f4a7c15:k=2:g=0.5:mode={mode}",
            "--scheme", scheme,
            "--n", "40",
            "--texts", "3",
            "--seed", "5",
            "--out", str(out),
            "--stats-out", str(stats),
        ]
    )
    assert rc == 0
    digest = hashlib.sha256(out.read_bytes() + stats.read_bytes()).hexdigest()
    assert digest == GOLDEN_SPECDEC[(mode, scheme)]


def _golden_key(mode):
    return f"9e3779b97f4a7c15:k=2:g=0.5:mode={mode}"


@pytest.fixture(scope="module")
def golden_corpora(tmp_path_factory):
    """mc texts (V=32, order 2, 3 texts of 40 tokens, seed 5) under a hash
    and a perm key, and the hash-key texts after `attack --rate 0.2 --seed 3`."""
    root = tmp_path_factory.mktemp("corpora")
    paths = {mode: root / f"{mode}.jsonl" for mode in ("hash", "perm")}
    for mode, path in paths.items():
        rc = main(["generate", "--model", "markov:seed=11,vocab=32,order=2",
                   "--key", _golden_key(mode), "--n", "40", "--texts", "3", "--seed", "5",
                   "--out", str(path)])
        assert rc == 0
    paths["attacked"] = root / "attacked.jsonl"
    rc = main(["attack", "--in", str(paths["hash"]), "--rate", "0.2", "--seed", "3",
               "--out", str(paths["attacked"])])
    assert rc == 0
    return paths


# sha256 of `wmkit attack` output on the hash-key golden corpus, captured
# when Markov rows became one vectorized log-Gamma draw.
GOLDEN_ATTACK = "1d96ac2a73a85f2a3d64676a0b84ba85f7ef9ee43b8dcb315921f6f663fe42d5"


def test_attack_golden(golden_corpora):
    digest = hashlib.sha256(golden_corpora["attacked"].read_bytes()).hexdigest()
    assert digest == GOLDEN_ATTACK


# sha256 of `wmkit detect` reports (1000 calibration reps) on each golden
# corpus, per statistic: the outputs for sides combined and green, each with
# HC denominators sqrt and linear, concatenated in that order.  The attacked
# corpus is scored under the hash key.  Captured when Markov rows became one
# vectorized log-Gamma draw; the perm digests were captured again when the
# keyed permutation became a sort of keyed words, and the sum digests when
# the sum p-value became the exact Irwin-Hall law at every n.
GOLDEN_DETECT = {
    ("attacked", "hc*"): "bcead094fef66948a421112d79203e9b214312fd2bff55706e18fded516e566b",
    ("attacked", "hc+"): "fcdfd4c7de34c76ff1fdf679026a1f9df80b9e119f15f799a2e72ee32e6584bc",
    ("attacked", "max"): "f3af66822381be8a27c69e7f66d5a2098af0e1cb6600f67dded18e57751df485",
    ("attacked", "sum"): "c0d003d504c7817e05dc0e10a4b4c1577014bfba6f02d715acc07ec612ddca59",
    ("hash", "hc*"): "10342620ee98f778860bc168850fc7fb17518d9e20229e0ed97e7675c86ffdb4",
    ("hash", "hc+"): "5e5a5538df787e3fa2cf09bb10a69f5acee701314d65b5c12cadae118267360d",
    ("hash", "max"): "b665e1d06cd03bff6b20ba4412972a3c886594475eb54551223411424c6d8f34",
    ("hash", "sum"): "ec2f88031a598d64274995c3b0ec0ed6b561afc11d0d6a262267160f662baa74",
    ("perm", "hc*"): "d6b4719758befa7efcdcf7df90a6a90fc0138596ea42c1323cd41a034a71bc13",
    ("perm", "hc+"): "a70cccdebe7e218c968e96fdda610873a722be48dcf4a1210e83941a040a92c2",
    ("perm", "max"): "42270e472437616b064b948a28b5564566c8b7204849aa64ef861759d85fd639",
    ("perm", "sum"): "258b0ad43b0403ec63bd0289e2df223352b2858572d52fe1dccc4805dc9090bf",
}


def _golden_detect_payload(workdir, corpora, corpus, stat) -> bytes:
    """The concatenated reports that GOLDEN_DETECT[(corpus, stat)] digests,
    written under ``workdir``."""
    key = _golden_key("perm" if corpus == "perm" else "hash")
    out, payload = workdir / "r.jsonl", b""
    for side in ("combined", "green"):
        for denom in ("sqrt", "linear"):
            # Each flag only where the statistic reads it.
            flags = [] if stat == "max" else ["--side", side]
            if stat in ("hc+", "hc*"):
                flags += ["--hc-denom", denom, "--calib-reps", "1000"]
            rc = main(["detect", "--in", str(corpora[corpus]), "--key", key,
                       "--stat", stat, *flags, "--out", str(out)])
            assert rc == 0
            payload += out.read_bytes()
    return payload


@pytest.mark.parametrize("corpus,stat", sorted(GOLDEN_DETECT))
def test_detect_golden(tmp_path, monkeypatch, golden_corpora, corpus, stat):
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    payload = _golden_detect_payload(tmp_path, golden_corpora, corpus, stat)
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_DETECT[(corpus, stat)]


def test_reused_parser_carries_no_state(tmp_path, monkeypatch, capsys, golden_corpora):
    # main parses every command with one parser per process: a usage error
    # and an argparse error in between leave the golden output unchanged.
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib-1"))
    first = _golden_detect_payload(tmp_path, golden_corpora, "attacked", "hc+")
    assert hashlib.sha256(first).hexdigest() == GOLDEN_DETECT[("attacked", "hc+")]
    capsys.readouterr()
    src = str(golden_corpora["hash"])
    assert main(["detect", "--in", src, "--key", KEY_ARG, "--stat", "max", "--side", "green"]) == 2
    assert capsys.readouterr().err == "error: --side does not apply to the max statistic\n"
    assert main(["detect", "--in", src, "--key", KEY_ARG, "--stat", "hc+", "--calib-reps"]) == 2
    assert "--calib-reps: expected one argument" in capsys.readouterr().err
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib-2"))
    assert _golden_detect_payload(tmp_path, golden_corpora, "attacked", "hc+") == first


def test_built_parser_is_not_the_one_main_reads(tmp_path, capsys, golden_corpora):
    # Each build_parser() call builds a new parser: changing one changes
    # neither what main accepts nor what it runs.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub.choices["attack"].add_argument("--extra")
    sub.choices["attack"].set_defaults(func=lambda args: 7)
    argv = ["attack", "--in", str(golden_corpora["hash"]), "--rate", "0.2", "--seed", "3"]
    assert parser.parse_args([*argv, "--extra", "1"]).func(None) == 7
    assert main([*argv, "--extra", "1"]) == 2
    assert "unrecognized arguments: --extra 1" in capsys.readouterr().err
    out = tmp_path / "attacked.jsonl"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == golden_corpora["attacked"].read_bytes()


class TestDetect:
    def test_watermarked_corpus_flagged(self, tmp_path, capsys):
        src = _generate(tmp_path, texts=4, n=120)
        out = tmp_path / "reports.jsonl"
        rc = main(
            ["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "sum", "--out", str(out)]
        )
        assert rc == 0
        reports = _records(out)
        assert len(reports) == 4
        assert all(r["reject"] for r in reports)
        assert "TPR=1.0000" in capsys.readouterr().err

    def test_plain_corpus_mostly_passes(self, tmp_path, capsys):
        src = _generate(tmp_path, texts=4, n=120, extra=("--plain",))
        rc = main(["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "sum"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "FPR=" in err and "plain=4" in err

    def test_short_text_reports_error_record(self, tmp_path, capsys):
        src = tmp_path / "short.jsonl"
        src.write_text(json.dumps({"tokens": [1, 2], "prompt_len": 0}) + "\n")
        out = tmp_path / "r.jsonl"
        rc = main(["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "sum", "--out", str(out)])
        assert rc == 0
        assert "error" in _records(out)[0]

    def test_malformed_calibration_rows_keep_stdout(self, tmp_path, capsys, monkeypatch):
        # A corrupt row in the calibration cache, even one carrying the
        # requested key, is ignored: the printed reports stay byte-identical.
        src = _generate(tmp_path, texts=1, n=120)
        args = ["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "hc+",
                "--calib-reps", "1000"]
        clean, corrupt = tmp_path / "clean", tmp_path / "corrupt"
        monkeypatch.setenv("WMKIT_CALIB_DIR", str(clean))
        capsys.readouterr()
        assert main(args) == 0
        want = capsys.readouterr().out
        header, row = (clean / "calibrations.csv").read_text().splitlines()
        corrupt.mkdir()
        (corrupt / "calibrations.csv").write_text(
            f"{header}\nhc+:sqrt,abc,0.01,1000,0,1.0\n{row.rsplit(',', 1)[0]},banana\n"
        )
        monkeypatch.setenv("WMKIT_CALIB_DIR", str(corrupt))
        with pytest.warns(UserWarning, match="malformed rows"):
            assert main(args) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "flags",
        [("--alpha", "1.5"), ("--alpha", "nan"), ("--alpha", "-1"), ("--alpha", "0"),
         ("--stat", "hc+", "--calib-reps", "10"), ("--stat", "hc*", "--alpha", "1e-6")],
    )
    def test_bad_level_or_reps_is_usage_error_before_reading(self, tmp_path, flags):
        # The input does not exist: reading it would exit 1.
        out = tmp_path / "r.jsonl"
        rc = main(["detect", "--in", str(tmp_path / "missing.jsonl"), "--key", KEY_ARG, *flags,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["hash", "perm"])
    def test_out_of_vocabulary_token_reports_error_record(self, tmp_path, mode):
        good = list(range(20))
        src = tmp_path / "texts.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in (
            {"tokens": [*good, 32], "vocab_size": 32},
            {"tokens": [*good, -1]},
            {"tokens": [*good, 2**64 + 3]},
            {"tokens": good, "vocab_size": 32},
        )))
        out = tmp_path / "r.jsonl"
        rc = main(["detect", "--in", str(src), "--key", f"9e3779b97f4a7c15:k=2:g=0.5:mode={mode}",
                   "--out", str(out)])
        assert rc == 0
        bad_high, bad_low, beyond_int64, ok = _records(out)
        assert bad_high["error"] == "token 32 outside [0, 32)"
        assert bad_low["error"] == "token -1 outside [0, vocab_size)"
        assert beyond_int64["error"] == f"token {2**64 + 3} outside [0, vocab_size)"
        assert ok["n_scored"] == 18

    @pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
    def test_malformed_record_reports_error_record(self, tmp_path, record):
        src = tmp_path / "texts.jsonl"
        good = {"text_id": 7, "tokens": list(range(20)), "vocab_size": 32}
        src.write_text(json.dumps(record) + "\n" + json.dumps(good) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["detect", "--in", str(src), "--key", KEY_ARG, "--out", str(out)]) == 0
        bad, ok = _records(out)
        assert bad["text_id"] == 0 and set(bad) == {"text_id", "error"}
        assert ok["text_id"] == 7 and ok["n_scored"] == 18

    def test_undecodable_line_reports_error_record(self, tmp_path, capsys):
        good = {"tokens": list(range(20)), "vocab_size": 32}
        src = tmp_path / "texts.jsonl"
        src.write_text(json.dumps(good) + "\n{not json\n" + json.dumps(good) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["detect", "--in", str(src), "--key", KEY_ARG, "--out", str(out)]) == 0
        first, bad, last = _records(out)
        assert bad["text_id"] == 1 and set(bad) == {"text_id", "error"}
        assert first["n_scored"] == last["n_scored"] == 18
        assert "texts=3" in capsys.readouterr().err

    def test_hc_statistic_runs(self, tmp_path):
        src = _generate(tmp_path, texts=1, n=120)
        out = tmp_path / "r.jsonl"
        rc = main(
            [
                "detect",
                "--in", str(src),
                "--key", KEY_ARG,
                "--stat", "hc+",
                "--calib-reps", "1000",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rec = _records(out)[0]
        assert rec["statistic"] == "hc+"
        assert rec["threshold"] is not None

    def test_hc_plus_without_eligible_score_writes_json_null(self, tmp_path, capsys):
        # Both scored tuples of this text score below 1/2, so HC+ has no
        # eligible score and is -inf, which JSON has no literal for.
        src = tmp_path / "t.jsonl"
        src.write_text('{"tokens":[0,0,0,1],"vocab_size":64}\n')
        assert main(["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "hc+"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        rec = json.loads(line, parse_constant=_refuse_constant)
        assert rec["value"] is None and rec["reject"] is False
        assert rec["n_scored"] == 2 and rec["threshold"] == 1.3815055492905763

    def test_non_finite_record_is_refused_and_nothing_written(self, tmp_path):
        out = tmp_path / "r.jsonl"
        with pytest.raises(ValueError):
            cli._emit([{"value": 1.0}, {"value": float("nan")}], str(out))
        assert not out.exists()

    def test_missing_input_file(self, tmp_path):
        rc = main(["detect", "--in", str(tmp_path / "nope.jsonl"), "--key", KEY_ARG])
        assert rc == 1

    def test_unknown_stat_rejected(self, tmp_path):
        src = _generate(tmp_path, texts=1)
        rc = main(["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "median"])
        assert rc == 2


class TestAttack:
    def test_substitution_preserves_records(self, tmp_path):
        src = _generate(tmp_path, texts=3)
        out = tmp_path / "attacked.jsonl"
        rc = main(
            ["attack", "--kind", "substitute", "--in", str(src), "--rate", "0.2", "--out", str(out)]
        )
        assert rc == 0
        originals, attacked = _records(src), _records(out)
        assert len(attacked) == len(originals)
        for orig, att in zip(originals, attacked):
            assert att["text_id"] == orig["text_id"]
            assert len(att["tokens"]) == len(orig["tokens"])
            assert att["tokens"][: att["prompt_len"]] == orig["tokens"][: orig["prompt_len"]]
            assert att["attack"]["kind"] == "substitute"
            assert att["attack"]["rate"] == pytest.approx(0.2)

    def test_attacked_corpus_still_detectable_at_low_rate(self, tmp_path, capsys):
        src = _generate(tmp_path, texts=3, n=150)
        out = tmp_path / "attacked.jsonl"
        main(["attack", "--kind", "substitute", "--in", str(src), "--rate", "0.1", "--out", str(out)])
        rc = main(["detect", "--in", str(out), "--key", KEY_ARG, "--stat", "sum"])
        assert rc == 0
        assert "TPR=1.0000" in capsys.readouterr().err

    @pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
    def test_malformed_record_is_runtime_error(self, tmp_path, capsys, record):
        src = tmp_path / "texts.jsonl"
        src.write_text(json.dumps(record) + "\n")
        out = tmp_path / "a.jsonl"
        assert main(["attack", "--in", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        src = _generate(tmp_path, texts=2)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(["attack", "--kind", "substitute", "--in", str(src), "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("rate", ["0", "0.5"])
    def test_out_of_vocabulary_token_is_runtime_error(self, tmp_path, capsys, rate):
        src = tmp_path / "texts.jsonl"
        src.write_text(json.dumps({"tokens": [1, 2, 500, -3], "vocab_size": 64}) + "\n")
        out = tmp_path / "a.jsonl"
        assert main(["attack", "--in", str(src), "--rate", rate, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: token -3 outside [0, 64)\n"
        assert not out.exists()

    def test_undecodable_line_is_runtime_error(self, tmp_path, capsys):
        src = _generate(tmp_path, texts=2)
        src.write_text(src.read_text() + "{not json\n")
        out = tmp_path / "a.jsonl"
        assert main(["attack", "--in", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_record_without_vocab_size_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "texts.jsonl"
        src.write_text(json.dumps({"tokens": [1, 2, 3]}) + "\n")
        out = tmp_path / "a.jsonl"
        assert main(["attack", "--in", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: records must carry vocab_size for substitution\n"
        assert not out.exists()


class TestSpecDec:
    def test_stats_emitted(self, tmp_path):
        out = tmp_path / "sd.jsonl"
        stats_out = tmp_path / "stats.json"
        rc = main(
            [
                "specdec",
                "--draft", MODEL_ARG,
                "--target", MODEL_ARG,
                "--key", KEY_ARG,
                "--scheme", "mc",
                "--n", "80",
                "--texts", "2",
                "--out", str(out),
                "--stats-out", str(stats_out),
            ]
        )
        assert rc == 0
        assert len(_records(out)) == 2
        stats = json.loads(stats_out.read_text())
        assert 0.0 <= stats["rejection_rate"] <= 1.0
        assert stats["n_evaluated"] > 0

    @pytest.mark.parametrize("traced", ["--draft", "--target"])
    def test_trace_source_is_usage_error_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                        traced):
        trace = tmp_path / "trace.jsonl"
        save_trace(TraceSource(64, [make_ntp(np.full(64, 1 / 64))] * 50), trace)
        monkeypatch.setattr(cli, "_random_prompt", lambda *args: pytest.fail("a text was drawn"))
        models = {"--draft": MODEL_ARG, "--target": MODEL_ARG, traced: f"trace:path={trace}"}
        out = tmp_path / "sd.jsonl"
        rc = main(["specdec", *(x for kv in models.items() for x in kv), "--key", KEY_ARG,
                   "--n", "10", "--out", str(out)])
        assert rc == 2
        assert "trace sources" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("traced", ["--draft", "--target"])
    @pytest.mark.parametrize("other", ["markov:seed=1,vocab=64,order=1",
                                       "markov:seed=1,vocab=64,order=1,seed=2"],
                             ids=["good-spec", "repeated-key"])
    def test_trace_spec_is_refused_before_its_file_is_read(self, tmp_path, capsys, monkeypatch,
                                                           traced, other):
        # Refused by its kind with the API's message: the missing file is never opened.
        monkeypatch.setattr(lm, "load_trace", lambda *args: pytest.fail("a trace was read"))
        with pytest.raises(ValueError) as api:
            _check_specdec_models(TraceSource(64, [make_ntp(np.full(64, 1 / 64))]), None)
        models = {"--draft": other, "--target": other,
                  traced: f"trace:path={tmp_path / 'missing.jsonl'}"}
        rc = main(["specdec", *(x for kv in models.items() for x in kv), "--key", KEY_ARG,
                   "--n", "5", "--out", str(tmp_path / "sd.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {api.value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_vocabulary_mismatch_is_usage_error_before_drawing(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(cli, "_random_prompt", lambda *args: pytest.fail("a text was drawn"))
        out = tmp_path / "sd.jsonl"
        rc = main(["specdec", "--draft", "markov:seed=1,vocab=64,order=1",
                   "--target", "markov:seed=1,vocab=32,order=1", "--key", KEY_ARG,
                   "--n", "10", "--out", str(out)])
        assert rc == 2
        assert "must share a vocabulary, got 64 and 32" in capsys.readouterr().err
        assert not out.exists()

    def test_stats_on_stderr_without_stats_out(self, tmp_path, capsys):
        argv = ["specdec", "--draft", MODEL_ARG, "--target", MODEL_ARG, "--key", KEY_ARG,
                "--n", "40", "--texts", "2", "--out", str(tmp_path / "sd.jsonl")]
        assert main(argv) == 0
        printed = capsys.readouterr().err
        stats_out = tmp_path / "stats.json"
        assert main([*argv, "--stats-out", str(stats_out)]) == 0
        assert capsys.readouterr().err == ""
        assert printed == stats_out.read_text()
        assert json.loads(printed)["n_evaluated"] > 0

    def test_scheme_restricted(self, tmp_path):
        rc = main(
            [
                "specdec",
                "--draft", MODEL_ARG,
                "--target", MODEL_ARG,
                "--key", KEY_ARG,
                "--scheme", "soft",
                "--n", "10",
                "--out", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2


class TestSimulate:
    def test_power_csv(self, tmp_path):
        out = tmp_path / "power.csv"
        rc = main(
            [
                "simulate",
                "--regime", "weak",
                "--p", "0.2",
                "--q", "0.4",
                "--m", "100,1000",
                "--reps", "1000",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == POWER_CSV_HEADER
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "flags", [("--m", "1,3"), ("--m", "100", "--alpha", "0.005")], ids=["m=1", "alpha*reps=5"]
    )
    def test_unresolvable_cell_is_usage_error(self, tmp_path, capsys, flags):
        # hc+ needs two scores per row; 1000 reps resolve no level below 0.01.
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--regime", "weak", "--p", "0.5", "--q", "0.5", *flags,
                   "--reps", "1000", "--out", str(out)])
        assert rc == 2
        assert "must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_reps_floor_is_usage_error(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--regime", "weak",
                "--p", "0.2",
                "--q", "0.4",
                "--m", "100",
                "--reps", "500",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2

    def test_strong_requires_r(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--regime", "strong",
                "--p", "0.3",
                "--m", "100",
                "--reps", "1000",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "regime_args",
        [("weak", "--q", "-0.5"), ("weak", "--q", "0"), ("strong", "--r", "-1")],
        ids=["weak-q-negative", "weak-q-zero", "strong-r-negative"],
    )
    def test_nonpositive_signal_exponent_is_usage_error(self, tmp_path, regime_args):
        regime, flag, value = regime_args
        out = tmp_path / "x.csv"
        rc = main(
            [
                "simulate",
                "--regime", regime,
                "--p", "0.3",
                flag, value,
                "--m", "100",
                "--reps", "1000",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()

    def test_hist_bins_checked_before_drawing(self, tmp_path, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            simulation, "_stats_over_draws", lambda config, m, role: drawn.append(role)
        )
        rc = main(
            [
                "simulate",
                "--regime", "weak",
                "--p", "0.2",
                "--q", "0.4",
                "--m", "100",
                "--reps", "1000",
                "--out", str(tmp_path / "p.csv"),
                "--histogram", str(tmp_path / "hist.csv"),
                "--hist-bins", "0",
            ]
        )
        assert rc == 2
        assert drawn == []
        assert list(tmp_path.iterdir()) == []

    def test_histogram_defaults_to_fifty_bins(self, tmp_path):
        hists = []
        for bins in ((), ("--hist-bins", "50")):
            hists.append(tmp_path / f"hist{len(hists)}.csv")
            assert main(["simulate", "--regime", "weak", "--p", "0.2", "--q", "0.4", "--m", "100",
                         "--reps", "1000", "--out", str(tmp_path / "p.csv"),
                         "--histogram", str(hists[-1]), *bins]) == 0
        assert hists[0].read_bytes() == hists[1].read_bytes()

    def test_non_integral_m_is_usage_error_before_drawing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulation, "_stats_over_draws", lambda *args: pytest.fail("drawn"))
        out = tmp_path / "p.csv"
        rc = main(["simulate", "--regime", "weak", "--p", "0.2", "--q", "0.4", "--m", "1500.7",
                   "--reps", "1000", "--out", str(out)])
        assert rc == 2
        assert "m_grid entries must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_m_spellings_accepted(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["simulate", "--regime", "weak", "--p", "0.2", "--q", "0.4", "--m", "1e2,2.0e2",
                   "--reps", "1000", "--out", str(out)])
        assert rc == 0
        m_column = [ln.split(",")[3] for ln in out.read_text().splitlines()[1:]]
        assert m_column == ["100", "100", "200", "200"]

    def test_deterministic_csv(self, tmp_path):
        args = [
            "simulate",
            "--regime", "strong",
            "--p", "0.3",
            "--r", "0.5",
            "--m", "100",
            "--reps", "1000",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_output(self, tmp_path, monkeypatch):
        # The histogram bins the draws run_power made at the largest m, so
        # each (m, role) cell is drawn once.
        drawn = []
        draw = simulation._stats_over_draws
        monkeypatch.setattr(
            simulation, "_stats_over_draws",
            lambda config, m, role: drawn.append((m, role)) or draw(config, m, role),
        )
        hist = tmp_path / "hist.csv"
        rc = main(
            [
                "simulate",
                "--regime", "weak",
                "--p", "0.2",
                "--q", "0.4",
                "--m", "50,100",
                "--reps", "1000",
                "--out", str(tmp_path / "p.csv"),
                "--histogram", str(hist),
                "--hist-bins", "20",
            ]
        )
        assert rc == 0
        lines = hist.read_text().splitlines()
        assert lines[0].startswith("statistic,bin_lo,bin_hi,null_count")
        assert len(lines) > 20
        assert sorted(drawn) == [(50, 0), (50, 1), (100, 0), (100, 1)]

    def test_grid_is_its_cells_in_p_major_order(self, tmp_path):
        # One header, then each (p, q) cell's rows as a run of that cell
        # alone writes them, p-major.
        def run(name, p, q):
            out = tmp_path / name
            assert main(["simulate", "--regime", "weak", "--p", p, "--q", q, "--m", "50,100",
                         "--reps", "1000", "--out", str(out)]) == 0
            return out.read_text().splitlines()

        grid = run("grid.csv", "0.2,0.1", "0.5,0.3")
        want = [POWER_CSV_HEADER]
        for p in ("0.2", "0.1"):
            for q in ("0.5", "0.3"):
                cell = run(f"{p}-{q}.csv", p, q)
                assert cell[0] == POWER_CSV_HEADER and len(cell) == 5
                want.extend(cell[1:])
        assert grid == want
        assert all(0.0 <= float(line.split(",")[8]) <= 1.0 for line in grid[1:])

    def test_grid_cells_draw_their_own_nulls(self, tmp_path, monkeypatch):
        # Every cell draws its null and its alternative at each m: a null
        # depends only on (seed, m, reps), so each cell draws the same one.
        drawn = []
        draw = simulation._stats_over_draws
        monkeypatch.setattr(
            simulation, "_stats_over_draws",
            lambda config, m, role: drawn.append((config.p, config.q, m, role))
            or draw(config, m, role),
        )
        assert main(["simulate", "--regime", "strong", "--p", "0.1,0.3", "--r", "0.5", "--m",
                     "50", "--reps", "1000", "--out", str(tmp_path / "p.csv")]) == 0
        assert drawn == [(0.1, None, 50, 0), (0.1, None, 50, 1), (0.3, None, 50, 0),
                         (0.3, None, 50, 1)]

    def test_histogram_with_a_grid_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulation, "_stats_over_draws", lambda *args: pytest.fail("drawn"))
        rc = main(["simulate", "--regime", "weak", "--p", "0.1,0.2", "--q", "0.3", "--m", "100",
                   "--reps", "1000", "--out", str(tmp_path / "p.csv"),
                   "--histogram", str(tmp_path / "hist.csv")])
        assert rc == 2
        assert "--histogram takes one (p, q or r) cell, got 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "regime,flags,message",
        [
            ("weak", ("--p", "0.1,x", "--q", "0.3"), "--p: could not convert string to float: 'x'"),
            ("weak", ("--p", "0.1", "--q", "0.3,"), "--q: could not convert string to float: ''"),
            ("weak", ("--p", "0.1", "--q", "0.3", "--m", "100,x"),
             "--m: could not convert string to float: 'x'"),
            ("weak", ("--p", "0.1,1.0", "--q", "0.3"), "p must lie in (0, 1)"),
            ("strong", ("--p", "0.1", "--r", "0.5,-1"), "STRONG regime requires r > 0"),
            ("weak", ("--p", "0.1,0.2,0.10", "--q", "0.3"), "--p repeats a value: 0.1,0.2,0.10"),
            ("weak", ("--p", "0.1", "--q", "0.3,0.3"), "--q repeats a value: 0.3,0.3"),
            ("strong", ("--p", "0.1", "--r", "0.5,5e-1"), "--r repeats a value: 0.5,5e-1"),
            ("weak", ("--p", "0.1", "--q", "0.3", "--m", "100,1e2"),
             "m_grid must be strictly ascending, got (100, 100)"),
        ],
        ids=["p-not-a-number", "q-empty", "m-not-a-number", "second-p-out-of-range",
             "second-r-negative", "p-repeated", "q-repeated", "r-repeated", "m-repeated"],
    )
    def test_bad_grid_entry_is_usage_error_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                          regime, flags, message):
        # Every cell is checked before the first one is drawn.
        monkeypatch.setattr(simulation, "_stats_over_draws", lambda *args: pytest.fail("drawn"))
        m = () if "--m" in flags else ("--m", "100")
        rc = main(["simulate", "--regime", regime, *flags, *m, "--reps", "1000",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# sha256 of `wmkit simulate` output: the power CSV, and for the --histogram
# run the power CSV then the histogram CSV.  The WEAK digests were captured
# before HC moved onto the row block kernel and before the histogram reused
# run_power's draws; the STRONG ones when each cell's P_G draws moved to a
# stream of their own.
GOLDEN_SIMULATE = {
    ("weak", "--p", "0.2", "--q", "0.5", "--m", "1000,10000"):
        ("71dca491cf7d562fed15dcd2e729dbdf28cd9c49bb162610ff43e4e3aa55cc1a",),
    ("strong", "--p", "0.3", "--r", "0.5", "--m", "3000"):
        ("bda287909781ef1ac5f67740e5e576eb71f2dc22c3688bfeba956971aa297ad5",),
    ("weak", "--p", "0.2", "--q", "0.4", "--m", "300,3000", "--hist-bins", "30"): (
        "f87dcde21678433be5e5afa77dc435db58079a541960cb09bc7142ac55b7fc80",
        "db48eab8afc8a74d6c099931970f550d88d8d75e610a50c94a23a04d844634f5",
    ),
    # Each spans several HC blocks of about 2**18 scores.  The WEAK digest
    # was captured before the cells were drawn inside the HC kernel from
    # offsets in their streams, when it spanned four draw chunks of about
    # 1e7 scores.
    ("strong", "--p", "0.3", "--r", "0.5", "--m", "20000"):
        ("aaa725fbc8c72a4424f52670a53e85c611e84085960206ca884a81241c8b684d",),
    ("weak", "--p", "0.2", "--q", "0.5", "--m", "30000"):
        ("6f41901e8e4f8437c2930bd61f75a8e7dbb1ff531c412cff4f4ae6c7545a3ded",),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN_SIMULATE))
def test_simulate_golden(tmp_path, cell):
    power, hist = tmp_path / "power.csv", tmp_path / "hist.csv"
    extra = ("--histogram", str(hist)) if "--hist-bins" in cell else ()
    regime, *flags = cell
    rc = main(
        ["simulate", "--regime", regime, *flags, "--reps", "1000", "--out", str(power), *extra]
    )
    assert rc == 0
    outputs = (power, hist) if extra else (power,)
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in outputs)
    assert digests == GOLDEN_SIMULATE[cell]


# sha256 of the `wmkit simulate` power CSV of a 2 x 2 weak (p, q) grid at m =
# 1000 and 1000 reps, the README's experiment.  Its powers are, cell for
# cell, those that the boundary scan it replaced wrote for the same flags.
GOLDEN_SIMULATE_GRID = "8f3ae6107b28cc064ba83baf126dd6bb445b00c2c3e849b15b399cf5e106f238"


def test_simulate_grid_golden(tmp_path):
    out = tmp_path / "power.csv"
    assert main(["simulate", "--regime", "weak", "--p", "0.1,0.2", "--q", "0.3,0.5",
                 "--m", "1000", "--reps", "1000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SIMULATE_GRID


# sha256 of `wmkit calibrate` JSON without its cache_dir (alpha 0.01, 2000
# reps, seed 0), captured before HC moved onto the row block kernel.  n = 300
# is one HC block; n = 5000 is ten, shared over the allowed CPUs.
GOLDEN_CALIBRATE = {
    ("hc+", "sqrt", 300): "e28d347fdf0088b7065ef250cd66dcfa1873795830c6ebc79a9d17e28a5cdc44",
    ("hc+", "linear", 300): "dc06d9b090d5b08c4ea64dfb758c8fa186bcfd20a7facbd2e3b8c8f8f3b97145",
    ("hc*", "sqrt", 300): "24c12e54953c05a0b39602f80a5c47b01631d67ab136ca2dd27c693c04ea8482",
    ("hc*", "linear", 300): "77f3a0320008c6ede4ea527c471e60fddaf0f3e54626fee608240f13cb4a9236",
    ("hc+", "sqrt", 5000): "06bb8dad4b0339d5f4b630524dbaba1c6995a312df51272144414fe89ec41f69",
    ("hc+", "linear", 5000): "b8d6104f7aa5d5c30ac6dccc68374575f293e713b1645c9df6d082628641cb94",
    ("hc*", "sqrt", 5000): "0ec202daec478e363f37910303355503b9c22474d84573bc248905ee00b04f2f",
    ("hc*", "linear", 5000): "7ffeac81adfb669fafa12e42dd20ba729220f138fb0147b70d4ae8d35635191f",
    # Captured before the nulls were drawn from offsets in their streams:
    # n = 20000 spans two of the old draw chunks of 1000 rows.
    ("hc+", "sqrt", 20000): "66f19100a9d17ec99e9da9a85ddea355a43f832f74b3dac9b30e792031752f0c",
}


@pytest.mark.parametrize("stat,denom,n", sorted(GOLDEN_CALIBRATE))
def test_calibrate_golden(tmp_path, capsys, stat, denom, n):
    rc = main(["calibrate", "--stat", stat, "--n", str(n), "--hc-denom", denom,
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("cache_dir")
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == GOLDEN_CALIBRATE[(stat, denom, n)]


class TestCalibrate:
    def test_prints_json(self, tmp_path, capsys):
        rc = main(
            [
                "calibrate",
                "--stat", "hc+",
                "--n", "50",
                "--alpha", "0.01",
                "--reps", "1000",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == "hc+"
        assert payload["n"] == 50
        assert "critical_value" in payload
        assert payload["cache_dir"] == str(tmp_path)
        assert (tmp_path / "calibrations.csv").exists()

    def test_empty_cache_dir_is_printed_where_the_row_went(self, tmp_path, capsys,
                                                           monkeypatch):
        # --cache-dir "" is the working directory; the default directory was
        # once printed in its place.
        monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "default"))
        monkeypatch.chdir(tmp_path)
        rc = main(["calibrate", "--stat", "hc+", "--n", "30", "--reps", "1000",
                   "--cache-dir", ""])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rows = (Path(payload["cache_dir"]) / "calibrations.csv").read_text().splitlines()
        assert rows[1:] == [f"hc+:sqrt,30,0.01,1000,0,{payload['critical_value']!r}"]
        assert not (tmp_path / "default").exists()

    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "-1"])
    def test_bad_alpha_is_usage_error_before_drawing(self, tmp_path, capsys, monkeypatch, alpha):
        def no_draws(*args):
            raise AssertionError("the null was drawn")

        monkeypatch.setattr(detection, "_null_statistics", no_draws)
        cache = tmp_path / "cache"
        rc = main(["calibrate", "--stat", "hc+", "--n", "30", "--alpha", alpha, "--reps", "1000",
                   "--cache-dir", str(cache)])
        assert rc == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_usage_error(self, tmp_path, capsys, n):
        cache = tmp_path / "cache"
        rc = main(
            ["calibrate", "--stat", "hc+", "--n", n, "--reps", "1000", "--cache-dir", str(cache)]
        )
        assert rc == 2
        assert "n >= 2" in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [(("--stat", "hc+", "--n", "1"), "n >= 2"),
         (("--stat", "hc*", "--n", "1"), "n >= 2"),
         (("--stat", "hc+", "--n", "100", "--alpha", "1e-6"), "alpha * reps must be >= 10")],
    )
    def test_unresolvable_hc_null_is_usage_error(self, tmp_path, capsys, flags, message):
        # n = 1 has no finite HC null quantile (and NaN is not JSON); 1000
        # reps put no draw in a tail of 1e-6.
        cache = tmp_path / "cache"
        rc = main(["calibrate", *flags, "--reps", "1000", "--cache-dir", str(cache)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize("stat", ["sum", "max"])
    def test_exact_statistics_have_no_calibration(self, tmp_path, capsys, monkeypatch, stat):
        # Their nulls are exact laws, so calibrate offers no simulated one.
        monkeypatch.setattr(detection, "_null_statistics", lambda *args: pytest.fail("drawn"))
        cache = tmp_path / "cache"
        rc = main(["calibrate", "--stat", stat, "--n", "30", "--cache-dir", str(cache)])
        assert rc == 2
        assert f"invalid choice: '{stat}'" in capsys.readouterr().err
        assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--in", "{missing}", "--key", KEY_ARG, "--stat", "hc+", "--calib-seed", "-1"],
        ["attack", "--in", "{missing}", "--seed", "-1"],
        ["specdec", "--draft", "trace:path={missing}", "--target", "trace:path={missing}",
         "--key", KEY_ARG, "--n", "5", "--seed", "-1"],
        ["simulate", "--regime", "weak", "--p", "0.2", "--q", "0.5", "--m", "100",
         "--reps", "1000", "--seed", "-1"],
        ["calibrate", "--stat", "hc+", "--n", "30", "--reps", "1000", "--seed", "-1",
         "--cache-dir", "{cache}"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_usage_error_before_reading_or_drawing(tmp_path, capsys, monkeypatch,
                                                                argv):
    def no_draws(*args):
        raise AssertionError("scores were drawn")

    monkeypatch.setattr(detection, "_null_statistics", no_draws)
    monkeypatch.setattr(simulation, "_stats_over_draws", no_draws)
    # A cached row for seed -1 must not be looked up either.
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "calibrations.csv").write_text(
        "statistic,n,alpha,reps,seed,critical_value\nhc+:sqrt,30,0.01,1000,-1,12.5\n"
    )
    paths = {"missing": tmp_path / "missing.jsonl", "cache": cache}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--model", "trace:path={missing}", "--n", "0"],
        ["generate", "--model", "trace:path={missing}", "--n", "5", "--texts", "0"],
        ["specdec", "--draft", "trace:path={missing}", "--target", MODEL_ARG, "--n", "0"],
        ["specdec", "--draft", MODEL_ARG, "--target", "trace:path={missing}", "--n", "5",
         "--texts", "0"],
    ],
    ids=["generate-n", "generate-texts", "specdec-n", "specdec-texts"],
)
def test_bad_length_is_usage_error_before_reading_a_model(tmp_path, capsys, argv):
    missing = tmp_path / "missing.jsonl"
    assert main([arg.format(missing=missing) for arg in argv] + ["--key", KEY_ARG]) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["generate", "--scheme", "mc", "--delta", "5"],
         "delta applies to the soft and mc-soft schemes, not mc"),
        (["generate", "--scheme", "gumbel", "--alpha-dip", "0.3"],
         "alpha_dip applies to the dipmark scheme, not gumbel"),
        (["generate", "--scheme", "soft", "--delta", "1", "--alpha-dip", "0.3"],
         "alpha_dip applies to the dipmark scheme, not soft"),
        (["simulate", "--regime", "weak", "--p", "0.2", "--q", "0.5", "--r", "0.9"],
         "r does not apply to the weak regime"),
        (["simulate", "--regime", "strong", "--p", "0.2", "--r", "0.5", "--q", "0.5"],
         "q does not apply to the strong regime"),
        (["generate", "--plain", "--scheme", "mc"], "--scheme does not apply to --plain"),
        (["generate", "--plain", "--delta", "5"], "--delta does not apply to --plain"),
        (["generate", "--plain", "--alpha-dip", "0.3"], "--alpha-dip does not apply to --plain"),
        (["generate", "--plain", "--no-masking"], "--no-masking does not apply to --plain"),
        (["generate", "--plain", "--masking"], "--masking does not apply to --plain"),
        (["simulate", "--regime", "weak", "--p", "0.2", "--q", "0.5", "--hist-bins", "7"],
         "--hist-bins does not apply without --histogram"),
    ],
    ids=["mc-delta", "gumbel-alpha-dip", "soft-alpha-dip", "weak-r", "strong-q", "plain-scheme",
         "plain-delta", "plain-alpha-dip", "plain-no-masking", "plain-masking",
         "hist-bins-without-histogram"],
)
def test_flag_the_scheme_or_regime_ignores_is_usage_error(tmp_path, capsys, monkeypatch, argv,
                                                          message):
    # generate's model is a missing trace file, which exit 1 would show was read.
    monkeypatch.setattr(simulation, "_stats_over_draws", lambda *args: pytest.fail("drawn"))
    out = tmp_path / "out"
    extra = {"generate": ["--model", f"trace:path={tmp_path / 'missing.jsonl'}", "--key", KEY_ARG,
                          "--n", "20"],
             "simulate": ["--m", "100", "--reps", "1000"]}[argv[0]]
    assert main([*argv, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,stat,flag,value",
    [
        ("detect", "max", "--side", "green"),
        *(("detect", stat, flag, value) for stat in ("sum", "max")
          for flag, value in (("--hc-denom", "linear"), ("--calib-reps", "5000"),
                              ("--calib-seed", "9"))),
    ],
)
def test_flag_the_statistic_does_not_read_is_usage_error(tmp_path, capsys, monkeypatch, command,
                                                         stat, flag, value):
    # detect's input is missing, which exit 1 would show was read.
    monkeypatch.setattr(detection, "_null_statistics", lambda *args: pytest.fail("drawn"))
    extra = ["--in", str(tmp_path / "missing.jsonl"), "--key", KEY_ARG,
             "--out", str(tmp_path / "out")]
    assert main([command, "--stat", stat, flag, value, *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} does not apply to the {stat} statistic\n")
    assert list(tmp_path.iterdir()) == []


# A second value for every flag of detect and calibrate besides --stat and
# --out; "{...}" names a path of test_every_flag_is_read_or_refused.
_BASE_FLAGS = {
    "detect": {"--in": "{texts}", "--key": KEY_ARG, "--out": "{out}"},
    "calibrate": {"--n": "30", "--cache-dir": "{cache}"},
}
_SECOND_VALUES = {
    "detect": {"--in": "{other}", "--key": "12345:k=2:g=0.5:mode=hash", "--alpha": "0.05",
               "--side": "green", "--hc-denom": "linear", "--calib-reps": "1000",
               "--calib-seed": "1"},
    "calibrate": {"--n": "40", "--alpha": "0.05", "--reps": "1000", "--seed": "1",
                  "--hc-denom": "linear", "--cache-dir": "{other}"},
}


@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_every_flag_is_read_or_refused(tmp_path, capsys, monkeypatch, command):
    # Under every --stat choice, each flag of the command (but --out, which
    # only says where the output goes) is refused, or its second value
    # changes the output: a flag that some statistic ignores fails here.
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    paths = {"texts": _generate(tmp_path, "a.jsonl", n=30, texts=2),
             "other": _generate(tmp_path, "b.jsonl", n=30, texts=2, seed=1),
             "out": tmp_path / "out.jsonl", "cache": tmp_path / "cache"}
    if command == "calibrate":
        paths["other"] = tmp_path / "other-cache"

    def run(flags):
        paths["out"].unlink(missing_ok=True)
        argv = [command, *itertools.chain(*flags.items())]
        rc = main([arg.format(**paths) for arg in argv])
        out, err = capsys.readouterr()
        written = paths["out"].read_text() if paths["out"].exists() else ""
        return rc, err, out + written

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    flags = [a.option_strings[0] for a in sub._actions if a.option_strings]
    flags = [f for f in flags if f not in ("-h", "--stat", "--out")]
    stats = next(a for a in sub._actions if a.dest == "stat").choices
    for stat in stats:
        base = {"--stat": stat, **_BASE_FLAGS[command]}
        rc, _, want = run(base)
        assert rc == 0
        for flag in flags:
            assert flag in _SECOND_VALUES[command], f"give {command} {flag} a second value"
            rc, err, got = run({**base, flag: _SECOND_VALUES[command][flag]})
            if rc == 2:
                assert err == f"error: {flag} does not apply to the {stat} statistic\n"
            else:
                assert rc == 0 and got != want, f"{command} --stat {stat} ignores {flag}"


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["detect", "--in", "{missing}", "--key", "zz:k=2"], "bad key: "),
        (["specdec", "--draft", MODEL_ARG, "--target", MODEL_ARG, "--key", "zz:k=2",
          "--n", "5", "--stats-out", "{stats}"], "bad key: "),
        (["generate", "--model", "markov:seed=1", "--key", KEY_ARG, "--n", "5"],
         "bad model spec: "),
        (["specdec", "--draft", "markov:seed=1", "--target", MODEL_ARG, "--key", KEY_ARG,
          "--n", "5", "--stats-out", "{stats}"], "bad model spec: "),
        (["specdec", "--draft", MODEL_ARG, "--target", "markov:seed=1,vocab=64", "--key", KEY_ARG,
          "--n", "5", "--stats-out", "{stats}"], "bad model spec: "),
        *((["generate", "--model", MODEL_ARG, "--key", f"9e3779b97f4a7c15:{fields}", "--n", "5"],
           "bad key: ") for fields in ("k=-1:g=0.5:mode=hash", "k=2:g=1.5:mode=hash",
                                       "k=2:g=0.5:mode=foo")),
        # A repeated model parameter is refused before a trace: file is read.
        (["generate", "--model", "trace:path={missing},path={missing}", "--key", KEY_ARG,
          "--n", "5"], "bad model spec: repeated model parameter 'path'"),
        (["specdec", "--draft", MODEL_ARG, "--target", MODEL_ARG + ",seed=12", "--key", KEY_ARG,
          "--n", "5", "--stats-out", "{stats}"], "bad model spec: repeated model parameter 'seed'"),
    ],
    ids=["detect-key", "specdec-key", "generate-model", "specdec-draft", "specdec-target",
         "key-k", "key-gamma", "key-mode", "generate-repeated", "specdec-repeated"],
)
def test_bad_key_or_model_spec_is_usage_error_before_reading(tmp_path, capsys, monkeypatch,
                                                             argv, prefix):
    monkeypatch.setattr(cli, "_random_prompt", lambda *args: pytest.fail("a text was drawn"))
    paths = {"missing": tmp_path / "missing.jsonl", "stats": tmp_path / "stats.json"}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--stat", "hc+", "--n", "2", "--alpha", "0.9", "--reps", "1000",
         "--cache-dir", "{cache}"],
        ["simulate", "--regime", "weak", "--p", "0.5", "--q", "0.5", "--m", "2",
         "--reps", "1000", "--alpha", "0.9", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_refusal_after_drawing_is_runtime_error(tmp_path, capsys, monkeypatch, argv):
    # Valid flags whose simulated hc+ null has no finite quantile at level
    # 0.9: a quarter of n = 2 rows have no score >= 1/2, so their hc+ is
    # -inf.  Only the draws show it, so both commands exit 1.
    cache, out = tmp_path / "cache", tmp_path / "F"
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(cache))
    assert main([arg.format(cache=cache, out=out) for arg in argv]) == 1
    assert "no finite critical value" in capsys.readouterr().err
    assert not out.exists()
    assert not (cache / "calibrations.csv").exists()


def test_generate_accepts_any_seed(tmp_path):
    # generate masks its seed to 64 bits.
    assert _records(_generate(tmp_path, texts=1, n=5, seed=-1))[0]["tokens"]


class TestTopLevel:
    def test_unknown_flag(self):
        assert main(["generate", "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 2

    def test_no_args(self):
        assert main([]) == 2

    def test_no_scipy_stats_on_import_or_sum_detect(self, tmp_path):
        # Only the baselines' tests import scipy.  With every scipy import
        # made to fail, importing the CLI and detect with each --stat choice
        # (sum at n >= 15 included) still work.
        src = _generate(tmp_path, texts=1, n=40)
        runs = [["detect", "--in", str(src), "--key", KEY_ARG, "--stat", stat,
                 "--out", str(tmp_path / f"{stat}.jsonl")] for stat in ("sum", "max", "hc+", "hc*")]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import wmkit.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert wmkit.cli.main(argv) == 0, argv\n"
        )
        env = {**os.environ, "WMKIT_CALIB_DIR": str(tmp_path / "calib")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        for stat in ("sum", "max", "hc+", "hc*"):
            (record,) = _records(tmp_path / f"{stat}.jsonl")
            assert "error" not in record and record["statistic"] == stat
        assert _records(tmp_path / "sum.jsonl")[0]["n_scored"] >= 15

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "e.jsonl"
        proc = subprocess.run(
            [
                sys.executable,
                "-m", "wmkit.cli",
                "generate",
                "--model", MODEL_ARG,
                "--key", KEY_ARG,
                "--n", "5",
                "--texts", "1",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        # Importing the package must not import wmkit.cli before runpy runs it.
        assert "RuntimeWarning" not in proc.stderr
