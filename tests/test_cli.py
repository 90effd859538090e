"""Command-line workflows: generate, detect, attack, specdec, simulate,
calibrate."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from wmkit import cli, detection, simulation
from wmkit.cli import main
from wmkit.core import make_ntp
from wmkit.lm import NtpTrace, save_trace
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


def _records(path):
    return [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]


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

    def test_trace_replays_from_first_step_for_every_text(self, tmp_path):
        # Step t of the trace puts all mass on token t.
        trace = tmp_path / "trace.jsonl"
        save_trace(NtpTrace(16, [make_ntp(np.eye(16)[t]) for t in range(12)]), trace)
        out = tmp_path / "texts.jsonl"
        rc = main(["generate", "--model", f"trace:path={trace}", "--key", KEY_ARG, "--plain",
                   "--n", "5", "--texts", "2", "--out", str(out)])
        assert rc == 0
        conts = [rec["tokens"][rec["prompt_len"]:] for rec in _records(out)]
        assert conts == [[0, 1, 2, 3, 4]] * 2

    def test_trace_with_nan_probability_is_runtime_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        steps = [np.full(4, 0.25), np.array([np.nan, 0.25, 0.25, 0.25]), np.full(4, 0.25)]
        save_trace(NtpTrace(4, steps), trace)
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
# seed 5), captured before the keyed kernels were merged; the `--plain`
# digest was captured before plain sampling moved into `generate`.  Gumbel
# and DiPmark ignore the green mode, so their hash and perm digests agree.
GOLDEN_GENERATE = {
    ("hash", "plain"): "502a192b8f06070b4ed6c7dda66f94fe5e01246cb7ecce228cd064c85f7c721f",
    ("hash", "mc"): "eb1a684991a2f913a6ae3e615ef0c387d364e61ebff77c45541178cd655064a8",
    ("hash", "mc-soft"): "7ef2e74ee97838c9268e14f8d39f584d813eced2df7da3924bfc39e3959b8036",
    ("hash", "gumbel"): "1d1a9ad216dfe375f1df081481beb7929dde429f3baf31615bc9f0c3b8802b68",
    ("hash", "soft"): "f1f93773942e1ed9558cb9971d7a754039d04462793d0ee6f3431280ee7d9cba",
    ("hash", "dipmark"): "0aae3d1d3a1f1a3c869853d7c4f872913f5a078a190ae2661069255c284a293c",
    ("perm", "mc"): "43c223456af5bc90d4041e99c3a2e19e774ecb4c2c0c275fbd4dd3307a2d6391",
    ("perm", "mc-soft"): "e01b88ec1eddad4c5d593e4fafe32924f4c241b0938051c0d1f60886377ee59e",
    ("perm", "gumbel"): "1d1a9ad216dfe375f1df081481beb7929dde429f3baf31615bc9f0c3b8802b68",
    ("perm", "soft"): "c5e1677d602624ac27cd8590cc9a136bde7393d4e27c8357f86835aa420fcba3",
    ("perm", "dipmark"): "0aae3d1d3a1f1a3c869853d7c4f872913f5a078a190ae2661069255c284a293c",
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
# before the draft law moved onto the shared coupling kernel.
GOLDEN_SPECDEC = {
    ("hash", "mc"): "23dfc589f5632ef66a71d687d60028a5220991c746b386ce90d6be1e0cd15d20",
    ("hash", "gumbel"): "1859819fa0f3146687882553c461c6556b9d03802e967f67eb966fd54c4db1d9",
    ("perm", "mc"): "128894a08621df2414ce9bd19e689959781cd49eb25881cce8d0277b06181092",
    ("perm", "gumbel"): "1859819fa0f3146687882553c461c6556b9d03802e967f67eb966fd54c4db1d9",
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
# before the text record was written by one function.
GOLDEN_ATTACK = "ee38419c1221da17ce9b57d012863b2261caa95fa7eb2ef9279aae6de68b6288"


def test_attack_golden(golden_corpora):
    digest = hashlib.sha256(golden_corpora["attacked"].read_bytes()).hexdigest()
    assert digest == GOLDEN_ATTACK


# sha256 of `wmkit detect` reports (1000 calibration reps) on each golden
# corpus, per statistic: the outputs for sides combined and green, each with
# HC denominators sqrt and linear, concatenated in that order.  The attacked
# corpus is scored under the hash key.  Captured before the tuple walk and
# the rejection tail each had one implementation.
GOLDEN_DETECT = {
    ("attacked", "hc*"): "b521af996881e3b63356dd1fa5d30afbb6b13f6a4cd82aa5100485589ad2a135",
    ("attacked", "hc+"): "c6729ea6855f297e652993360850df387fed7857e17094b7bfe7f30a732d9aff",
    ("attacked", "max"): "2c6b8bfcccbbf63c0877d450058a870e5aabd7f42899ab0ec61a2468ef26f625",
    ("attacked", "sum"): "3e913bc22f17875a7941927b89c4bd082e330696f2814c688beb107dd6a1715f",
    ("hash", "hc*"): "a3471a4b598f295abf1b27678d108f762cdfd4ee97b63809337345b2745cbb50",
    ("hash", "hc+"): "0f11f7848c98d5c74e6e8c49b605aef9faa74172eb5eb1a12aa6f7c50387fbdd",
    ("hash", "max"): "4739873c17b3e43d6e1d158209319a1f5d89078222f297eb0aa008b828a3aaed",
    ("hash", "sum"): "07136ea8cbe6649c407989974356542f9a911e0a5a20fe0484655981171bfad0",
    ("perm", "hc*"): "6d1157eed9166ad7396cbcf55be6d2211e54b893a1efdc568f12303d4deceed9",
    ("perm", "hc+"): "a6b22372ffdfaca92f3f191caca69c56c3d09c191255ae28c8b6d9646af771e3",
    ("perm", "max"): "e992927efcdcdaa7777d191102ad5c389baf466f2c09094f762645d9bc02f3c0",
    ("perm", "sum"): "d24aeea493f2df0adbe308da06a4f4ec905417f48e223bdaf6e49e4432c6fca0",
}


@pytest.mark.parametrize("corpus,stat", sorted(GOLDEN_DETECT))
def test_detect_golden(tmp_path, monkeypatch, golden_corpora, corpus, stat):
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    key = _golden_key("perm" if corpus == "perm" else "hash")
    out, payload = tmp_path / "r.jsonl", b""
    for side in ("combined", "green"):
        for denom in ("sqrt", "linear"):
            rc = main(["detect", "--in", str(golden_corpora[corpus]), "--key", key,
                       "--stat", stat, "--side", side, "--hc-denom", denom,
                       "--calib-reps", "1000", "--out", str(out)])
            assert rc == 0
            payload += out.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_DETECT[(corpus, stat)]


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
         ("--stat", "hc+", "--calib-reps", "10")],
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
            {"tokens": good, "vocab_size": 32},
        )))
        out = tmp_path / "r.jsonl"
        rc = main(["detect", "--in", str(src), "--key", f"9e3779b97f4a7c15:k=2:g=0.5:mode={mode}",
                   "--out", str(out)])
        assert rc == 0
        bad_high, bad_low, ok = _records(out)
        assert bad_high["error"] == "token 32 outside [0, 32)"
        assert bad_low["error"] == "token -1 outside [0, vocab_size)"
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
        save_trace(NtpTrace(64, [make_ntp(np.full(64, 1 / 64))] * 50), trace)
        monkeypatch.setattr(cli, "_random_prompt", lambda *args: pytest.fail("a text was drawn"))
        models = {"--draft": MODEL_ARG, "--target": MODEL_ARG, traced: f"trace:path={trace}"}
        out = tmp_path / "sd.jsonl"
        rc = main(["specdec", *(x for kv in models.items() for x in kv), "--key", KEY_ARG,
                   "--n", "10", "--out", str(out)])
        assert rc == 2
        assert "trace sources" in capsys.readouterr().err
        assert not out.exists()

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


# sha256 of `wmkit simulate` output, captured before HC moved onto the row
# block kernel and before the histogram reused run_power's draws: the power
# CSV, and for the --histogram run the power CSV then the histogram CSV.
GOLDEN_SIMULATE = {
    ("weak", "--p", "0.2", "--q", "0.5", "--m", "1000,10000"):
        ("71dca491cf7d562fed15dcd2e729dbdf28cd9c49bb162610ff43e4e3aa55cc1a",),
    ("strong", "--p", "0.3", "--r", "0.5", "--m", "3000"):
        ("ec0921c5949013e8520087bda047019594529f79de3180024c6eabd11cf47025",),
    ("weak", "--p", "0.2", "--q", "0.4", "--m", "300,3000", "--hist-bins", "30"): (
        "f87dcde21678433be5e5afa77dc435db58079a541960cb09bc7142ac55b7fc80",
        "db48eab8afc8a74d6c099931970f550d88d8d75e610a50c94a23a04d844634f5",
    ),
    # Captured before the cells were drawn inside the HC kernel from offsets
    # in their streams; each spans more than one of the old draw chunks of
    # about 1e7 scores: two STRONG chunks (x draws, then P_G draws, per
    # chunk) and four WEAK ones.
    ("strong", "--p", "0.3", "--r", "0.5", "--m", "20000"):
        ("09ab641defb0a55a539d7be245e926a381407a10493abad7c092928853249678",),
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
    ("sum", "sqrt", 20000): "85cc924c4eb51dfff47be3dc57094e7ead3aaf872aa6bd3caf227c75b8f21f91",
    ("max", "sqrt", 20000): "bad183cf0f35c97660062a64a82cdeb26278072fd31318eb5090b250e2ba4899",
    ("hc+", "sqrt", 20000): "66f19100a9d17ec99e9da9a85ddea355a43f832f74b3dac9b30e792031752f0c",
}


@pytest.mark.parametrize("stat,denom,n", sorted(GOLDEN_CALIBRATE))
def test_calibrate_golden(tmp_path, capsys, stat, denom, n):
    rc = main(
        ["calibrate", "--stat", stat, "--n", str(n), "--hc-denom", denom,
         "--cache-dir", str(tmp_path)]
    )
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

    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "-1"])
    def test_bad_alpha_is_usage_error_before_drawing(self, tmp_path, capsys, monkeypatch, alpha):
        def no_draws(*args):
            raise AssertionError("the null was drawn")

        monkeypatch.setattr(detection, "_null_statistics", no_draws)
        cache = tmp_path / "cache"
        rc = main(["calibrate", "--stat", "sum", "--n", "30", "--alpha", alpha, "--reps", "1000",
                   "--cache-dir", str(cache)])
        assert rc == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_usage_error(self, tmp_path, capsys, n):
        cache = tmp_path / "cache"
        rc = main(
            ["calibrate", "--stat", "sum", "--n", n, "--reps", "1000", "--cache-dir", str(cache)]
        )
        assert rc == 2
        assert "n >= 1" in capsys.readouterr().err
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
        ["calibrate", "--stat", "sum", "--n", "30", "--reps", "1000", "--seed", "-1",
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
        "statistic,n,alpha,reps,seed,critical_value\nsum,30,0.01,1000,-1,12.5\n"
    )
    paths = {"missing": tmp_path / "missing.jsonl", "cache": cache}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


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
        # scipy.stats costs about a second to import; only the green-count
        # baseline needs it.
        src = _generate(tmp_path, texts=1, n=40)
        detect_argv = ["detect", "--in", str(src), "--key", KEY_ARG, "--stat", "sum",
                       "--out", str(tmp_path / "r.jsonl")]
        code = (
            "import sys\n"
            "import wmkit.cli\n"
            "assert 'scipy.stats' not in sys.modules, 'loaded by import'\n"
            f"assert wmkit.cli.main({detect_argv!r}) == 0\n"
            "assert 'scipy.stats' not in sys.modules, 'loaded by detect'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert _records(tmp_path / "r.jsonl")[0]["n_scored"] >= 15

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
