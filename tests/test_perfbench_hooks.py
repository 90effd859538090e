"""The traced benchmark in ``perfbench/`` reaches wmkit by name: its layer
sweep imports public functions, and its tracer wraps functions at the names
the calling modules look them up by.  These tests fail when a change drops
or renames one of those names, or stops calling through it.  One more test
pins the bytes of every file a benchmark round writes."""

import importlib
import json
from pathlib import Path

import pytest

from wmkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # The benchmark's modules import each other as top-level modules, as
    # perfbench/run.py arranges by putting its directory on sys.path.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def _owner_and_leaf(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_sweep_imports(perfbench):
    sweep = importlib.import_module("sweep")
    assert callable(sweep.run)


def test_tracer_installs_and_uninstalls(perfbench):
    targets = [_owner_and_leaf(module, attr) for module, attr, _ in perfbench.TARGETS]
    originals = [getattr(owner, leaf) for owner, leaf in targets]
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        for (owner, leaf), original in zip(targets, originals):
            assert getattr(owner, leaf).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (owner, leaf), original in zip(targets, originals):
        assert getattr(owner, leaf) is original


def test_traced_commands_reach_the_hooked_names(perfbench, tmp_path, monkeypatch):
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    key = "9e3779b97f4a7c15:k=2:g=0.5:mode=perm"
    texts = tmp_path / "wm.jsonl"
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        # Through the module attribute, which the tracer wraps as cli.main.
        assert cli.main(["generate", "--model", "markov:seed=11,vocab=32,order=2", "--key", key,
                         "--n", "12", "--seed", "1", "--out", str(texts)]) == 0
        assert cli.main(["detect", "--in", str(texts), "--key", key, "--stat", "hc+",
                         "--out", str(tmp_path / "det.jsonl")]) == 0
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "decoders.generate", "decoders.step", "lm.next", "keying.green_mask",
            "keying.zeta", "keying.permutation", "detection.detect", "detection.extract",
            "keying.is_green", "detection.test", "detection.calib"} <= names
    # A perm-mode green list is built from the keyed permutation.
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "keying.permutation" and s.parent is not None}
    assert "keying.green_mask" in parents
    assert json.loads(texts.read_text())["scheme"] == "mc"


# sha256 of every file that one round of each workload writes at seed 1,
# captured before the per-token kernels of lm, decoders and keying were cut
# to fewer numpy calls with the same bits; the det_*_sum reports were
# captured again when the sum p-value became the exact Irwin-Hall law at
# every n.  Like the golden digests in
# test_cli.py and test_lm.py, they hold for one host and one numpy build:
# numpy's log and exp pick a SIMD loop at run time (see README, Modules).
ROUND_DIGESTS = {
    "desk": {
        "att.jsonl": "66a6b046b7abc66fda6c5ee91f85b069ae47ca493fc2d5f208e8ce80eb2fda76",
        "det_att_hc+.jsonl": "1cb9459976463a1b5618c11b35fe06498bc5edcf7af4d9c8ae0e71602688918a",
        "det_att_sum.jsonl": "39ddf6200e39a633b0d9a0d97805206ec2f682b418b64c89ec37914f8d529b22",
        "det_plain_sum.jsonl": "d5f5ca606ffb667d284a23110f4d1b984138a08d7da4542756d36403ea3b273c",
        "det_sd_sum.jsonl": "f7dabfbef046f43dca980c1ae757c1cc6a97ab7ece3ba0b719379b2effd039cc",
        "det_wm_hc+.jsonl": "c698222716e8c58cc7a4309acb3a3c8c7b1fb93606b9401c9f993f8fa6f2bbd2",
        "det_wm_max.jsonl": "06dbdcd2f168c3b1c14f85680cf29471aa37d0001cf99835ef4a60094c63e143",
        "det_wm_sum.jsonl": "cb130b4ef5ec14ce6ae1ed8040af5734859366e922d1fe7d180fdc9ea24404b7",
        "plain.jsonl": "8235536fd1d718f7c55e9eab29783c6cb00b1e497d7781961a16d8164923859c",
        "sd.jsonl": "687501a2231a55526ba22a8d92b95aa1d3c4256e1651cff25a57e403899e4864",
        "sd_stats.json": "81097df1ed23ac3972178cb730d9b34a530c2a11d019742b05def0de4e13c082",
        "wm.jsonl": "91557c180f68eca90fcd713e89c29bcd17d0a3eba049fae0fba6af1788c06538",
    },
    "vocab32k": {
        "det_gumbel_hc+.jsonl": "47e0abe7fb57bab8fff3f7579f75ef653eb973080b64078d4f0c60288293d498",
        "det_gumbel_sum.jsonl": "5ad54103ed03a8fe2a052ae06a200fe478c5995d3bda5547c934e493154bcf70",
        "det_mc_hc+.jsonl": "6a81336f23416da75ea2fa2153bc3303d0f185d3e5473036228a4fa950459a2e",
        "det_mc_sum.jsonl": "c42f1eb51c9daec96ee1e2a4332a2dd7a6a5d80e0c2313c54c3a5dbee1b3d713",
        "det_perm_sum.jsonl": "9f50ee2ec4b6a932ca06340374212609f6f856a7b38c54d29ea613b6cb36711c",
        "dipmark.jsonl": "43760c5b2bd218b7def4473059dadb3bc803ee52c9541f743df02937026dcfd5",
        "gumbel.jsonl": "f6cd259236ea39f7af642dd826795bdfa3129315635417fd0f23440079ef9493",
        "mc.jsonl": "886be52439f7cb15d4aab5f966641fdfc6f11657c4c455ef4bf6bbf46b7078b8",
        "perm.jsonl": "c5e8411a5647a4b508beb3d83ac4d5248f190ce8fd337fc70afc9719c670deb0",
    },
}


def test_benchmark_rounds_write_the_recorded_bytes(perfbench, tmp_path, monkeypatch):
    # A round points WMKIT_CALIB_DIR at its own directory; setting it here
    # first makes monkeypatch restore conftest's session-wide value afterwards.
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    workloads = importlib.import_module("workloads")
    for workload in (workloads.Desk(1), workloads.Vocab32k(1)):
        result = workload.run_round(tmp_path / workload.name)
        assert result.failures == []
        assert result.digests == ROUND_DIGESTS[workload.name]
