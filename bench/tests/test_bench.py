"""Tests of the benchmark's own code: generator, oracle, tracer and output.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402
from oracle import Checker  # noqa: E402

selenc = run.import_selenc()

# Small variants of the real shapes, so a whole run takes well under a second.
TINY = {
    "multislice_alli": dataclasses.replace(
        streams.WORKLOADS["multislice_alli"], pictures=12, slice_rbsp_bytes=200),
    "passphrase": dataclasses.replace(
        streams.WORKLOADS["passphrase"], pictures=6, kdf_iterations=3),
}


def _benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if name == "selenc" or name.startswith("selenc.")
            for attr, value in vars(module).items()}


def test_generator_is_deterministic_in_seed():
    for w in streams.WORKLOADS.values():
        assert streams.generate(w, 7) == streams.generate(w, 7)
        assert streams.generate(w, 7).data != streams.generate(w, 8).data


@pytest.mark.parametrize("name", sorted(streams.WORKLOADS))
def test_split_annexb_reproduces_truth_layout(name):
    stream = streams.generate(streams.WORKLOADS[name], 3)
    leading, nals = selenc.split_annexb(stream.data)
    truth = [(n.ordinal, n.start_code_len, n.header, n.ebsp) for n in stream.nals]
    assert leading == b""
    assert [(n.ordinal, n.start_code_len, n.header.to_byte(), n.ebsp) for n in nals] == truth
    assert streams.split(stream.data) == [t[1:] for t in truth]
    for n, t in zip(nals, stream.nals):
        if t.slice_type is not None:
            assert selenc.parse_slice_info(selenc.ebsp_to_rbsp(n.ebsp)).slice_type == t.slice_type


def test_multislice_uses_three_byte_codes_between_slices():
    stream = streams.generate(streams.WORKLOADS["multislice_alli"], 1)
    codes = [n.start_code_len for n in stream.nals[2:]]
    assert codes[:8] == [4, 3, 3, 3, 4, 3, 3, 3]
    assert sum(n.selected for n in stream.nals) == 160


def test_escape_matches_selenc():
    rng = random.Random(0)
    for _ in range(2000):
        rbsp = bytes(rng.choice((0, 0, 0, 1, 2, 3, 4, 255)) for _ in range(rng.randrange(12)))
        assert streams.escape(rbsp) == selenc.rbsp_to_ebsp(rbsp)
        assert selenc.ebsp_to_rbsp(streams.escape(rbsp)) == rbsp


def test_slice_header_parses():
    info = selenc.parse_slice_info(streams.slice_header(297, 7))
    assert (info.first_mb_in_slice, info.slice_type) == (297, 7)


@pytest.mark.parametrize("name", sorted(TINY))
def test_checker_accepts_selenc_and_rejects_a_wrong_keystream(tmp_path, name):
    stream = streams.generate(TINY[name], 1)
    checker = Checker(stream)
    plain = tmp_path / "plain.264"
    plain.write_bytes(stream.data)
    if stream.key_hex:
        key = selenc.KeySource.from_raw_hex(stream.key_hex)
    else:
        key = selenc.KeySource.from_passphrase(stream.passphrase, stream.workload.kdf_iterations)
    policy = selenc.EncryptionPolicy.ALL_INTRA if stream.workload.policy == "all-i" else selenc.EncryptionPolicy.IDR_ONLY
    n = len(stream.nals)
    for nonce, expect_failed in ((stream.nonce, 0), (bytes(8), len(stream.selected_ordinals) + 1)):
        selenc.cmd_encrypt(plain, tmp_path / "e", tmp_path / "m", key, policy, nonce)
        enc = (tmp_path / "e").read_bytes()
        assert checker.encrypt(enc, (tmp_path / "m").read_bytes()) == (n + 1, expect_failed)
        selenc.cmd_decrypt(tmp_path / "e", tmp_path / "m", tmp_path / "r", key)
        assert checker.decrypt((tmp_path / "r").read_bytes()) == (n, 0)
    assert checker.inspect(selenc.cmd_inspect(plain, policy)) == (n, 0)
    assert checker.decrypt(enc) == (n, len(stream.selected_ordinals))


def test_self_time_subtracts_children():
    tracer = spans.Tracer("selenc")
    tracer.spans[:] = [
        ("pipeline.cmd_encrypt", 0.0, 10.0, -1, (0, "encrypt")),
        ("selective.encrypt_stream", 1.0, 4.0, 0, (0, "encrypt")),
        ("selective.encrypt_nal", 2.0, 3.5, 1, (0, "encrypt")),
        ("pipeline.derive_key", 5.0, 6.0, 0, (0, "encrypt")),
    ]
    cycle = spans.per_cycle(tracer)[0]
    assert cycle["pipeline.cmd_encrypt.self_s"] == 6.0
    assert cycle["selective.encrypt_stream.self_s"] == 1.5
    assert cycle["encrypt:selective.encrypt_nal.calls"] == 1


def _run_main(monkeypatch, capsys, name, trace) -> dict:
    monkeypatch.setitem(streams.WORKLOADS, name, TINY[name])
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_output_carries_every_end_to_end_metric(monkeypatch, capsys, name):
    result = _run_main(monkeypatch, capsys, name, 0)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_carries_every_layer_metric_and_restores_names(monkeypatch, capsys):
    before = _bindings()
    result = _run_main(monkeypatch, capsys, "passphrase", 1)
    assert _bindings() == before
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert None not in values.values()
    assert values["aes.key_expansion.calls"] > 0
    assert values["selective.cipher_fraction"] == pytest.approx(
        streams.generate(TINY["passphrase"], 2).selected_rbsp_bytes
        / streams.generate(TINY["passphrase"], 2).vcl_rbsp_bytes)


def test_missing_function_marks_its_metrics_absent(monkeypatch, capsys):
    monkeypatch.delattr(selenc.bitstream, "classify_stream")
    values = {k: v["value"] for k, v in _run_main(monkeypatch, capsys, "passphrase", 1)["metrics"].items()}
    assert values["bitstream.classify_stream.s"] is None
    assert values["bitstream.ebsp_to_rbsp.s"] > 0


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(streams.WORKLOADS)
