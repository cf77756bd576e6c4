import contextlib
import json
import os

import pytest

from selenc.cli import main
from selenc.selective import CipherHeader

KEY = "00112233445566778899aabbccddeeff"


def run(*argv):
    return main(list(argv))


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "plain.264"
    assert run("gen-test", "--out", str(path), "--gop", "4", "--frames", "12",
               "--payload", "64", "--seed", "3") == 0
    return path


@pytest.fixture
def bad_stream(tmp_path):
    """A generated clip after an SPS whose payload holds 00 00 02."""
    clip = tmp_path / "clip.264"
    assert run("gen-test", "--out", str(clip), "--gop", "4", "--frames", "12", "--seed", "1") == 0
    path = tmp_path / "bad.264"
    path.write_bytes(b"\x00\x00\x00\x01\x67\x42\x00\x00\x02\x1e" + clip.read_bytes())
    return path


class TestGenTest:
    def test_writes_stream(self, tmp_path, capsys):
        out = tmp_path / "gen.264"
        assert run("gen-test", "--out", str(out), "--gop", "2", "--frames", "4") == 0
        assert out.stat().st_size > 0
        assert "wrote" in capsys.readouterr().out

    def test_bad_params_exit_nonzero(self, tmp_path, capsys):
        rc = run("gen-test", "--out", str(tmp_path / "x"), "--gop", "0", "--frames", "4")
        assert rc == 1
        assert "gop" in capsys.readouterr().err


class TestEncryptDecrypt:
    def test_round_trip(self, stream_file, tmp_path, capsys):
        enc = tmp_path / "enc.264"
        meta = tmp_path / "meta.seh"
        out = tmp_path / "round.264"
        assert run("encrypt", "--in", str(stream_file), "--out", str(enc), "--meta", str(meta),
                   "--key", KEY, "--nonce", "00" * 8) == 0
        assert "selected=" in capsys.readouterr().out
        assert run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(out),
                   "--key", KEY) == 0
        assert out.read_bytes() == stream_file.read_bytes()

    def test_policy_flag(self, stream_file, tmp_path):
        enc = tmp_path / "enc.264"
        meta = tmp_path / "meta.seh"
        assert run("encrypt", "--in", str(stream_file), "--out", str(enc), "--meta", str(meta),
                   "--key", KEY, "--policy", "all-i", "--nonce", "11" * 8) == 0
        header = CipherHeader.from_bytes(meta.read_bytes())
        assert header.policy.name == "ALL_INTRA"

    def test_deterministic_nonce(self, stream_file, tmp_path):
        names = [(tmp_path / f"e{i}.264", tmp_path / f"m{i}.seh") for i in (1, 2)]
        for enc, meta in names:
            run("encrypt", "--in", str(stream_file), "--out", str(enc), "--meta", str(meta),
                "--key", KEY, "--nonce", "ab" * 8)
        assert names[0][0].read_bytes() == names[1][0].read_bytes()
        assert names[0][1].read_bytes() == names[1][1].read_bytes()

    def test_passphrase(self, stream_file, tmp_path, capsys):
        enc = tmp_path / "enc.264"
        meta = tmp_path / "meta.seh"
        out = tmp_path / "round.264"
        assert run("encrypt", "--in", str(stream_file), "--out", str(enc), "--meta", str(meta),
                   "--passphrase", "sesame", "--kdf-iters", "3") == 0
        capsys.readouterr()
        # The sidecar does not record --kdf-iters, and a passphrase stretched
        # by other iterations is another key: the key check refuses it, and
        # nothing is written.
        assert run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(out),
                   "--passphrase", "sesame", "--kdf-iters", "4") == 1
        assert capsys.readouterr().err == (
            "selenc: error: sidecar key check does not match the supplied key\n"
        )
        assert not out.exists()
        assert run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(out),
                   "--passphrase", "sesame", "--kdf-iters", "3") == 0
        assert out.read_bytes() == stream_file.read_bytes()

    def test_passphrase_that_is_not_utf8(self, stream_file, tmp_path, capsys):
        # Python hands an argv byte that is not UTF-8 over as a lone
        # surrogate. The passphrase is the bytes typed, and no error echoes
        # one of them.
        enc = tmp_path / "enc.264"
        meta = tmp_path / "meta.seh"
        out = tmp_path / "round.264"
        assert run("encrypt", "--in", str(stream_file), "--out", str(enc), "--meta", str(meta),
                   "--passphrase", "pa\udce9ss", "--kdf-iters", "3") == 0
        assert run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(out),
                   "--passphrase", "pa\udce9ss", "--kdf-iters", "3") == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == stream_file.read_bytes()

    def test_wrong_key_diagnostic(self, stream_file, tmp_path, capsys):
        enc = tmp_path / "enc.264"
        meta = tmp_path / "meta.seh"
        run("encrypt", "--in", str(stream_file), "--out", str(enc), "--meta", str(meta),
            "--key", KEY, "--nonce", "22" * 8)
        capsys.readouterr()
        rc = run("decrypt", "--in", str(enc), "--meta", str(meta),
                 "--out", str(tmp_path / "x.264"), "--key", "ff" * 16)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("selenc: error:") and err.count("\n") == 1

    def test_all_i_warns_about_unparsed_slice(self, stream_file, tmp_path, capsys):
        # A trailing non-IDR slice whose payload is all zero bytes has no
        # readable slice header, so all-i cannot tell whether it is intra.
        stream = tmp_path / "unparsed.264"
        stream.write_bytes(stream_file.read_bytes() + b"\x00\x00\x00\x01\x41\x00\x00")
        enc, meta = tmp_path / "enc.264", tmp_path / "meta.seh"
        assert run("encrypt", "--in", str(stream), "--out", str(enc), "--meta", str(meta),
                   "--key", KEY, "--policy", "all-i", "--nonce", "33" * 8) == 0
        err = capsys.readouterr().err
        assert err.startswith("selenc: warning:") and err.count("\n") == 1
        assert err.rstrip().endswith(" 14")  # ordinal of the appended slice
        # The ordinals are NAL ordinals, the ``ord`` column of ``selenc inspect``.
        assert "at NAL ordinals 14" in err
        assert 14 not in CipherHeader.from_bytes(meta.read_bytes()).ordinals
        # Decrypt finds the same slice left in the clear and says so alike.
        assert run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(tmp_path / "dec.264"),
                   "--key", KEY) == 0
        assert capsys.readouterr().err == err
        assert (tmp_path / "dec.264").read_bytes() == stream.read_bytes()

    def test_idr_policy_does_not_warn(self, stream_file, tmp_path, capsys):
        stream = tmp_path / "unparsed.264"
        stream.write_bytes(stream_file.read_bytes() + b"\x00\x00\x00\x01\x41\x00\x00")
        assert run("encrypt", "--in", str(stream), "--out", str(tmp_path / "e.264"),
                   "--meta", str(tmp_path / "m.seh"), "--key", KEY, "--nonce", "33" * 8) == 0
        assert capsys.readouterr().err == ""
        assert run("decrypt", "--in", str(tmp_path / "e.264"), "--meta", str(tmp_path / "m.seh"),
                   "--out", str(tmp_path / "d.264"), "--key", KEY) == 0
        assert capsys.readouterr().err == ""

    def test_all_i_copies_a_badly_escaped_non_intra_slice_silently(self, stream_file, tmp_path, capsys):
        # The prefixed non-IDR slice holds 00 00 02 past its header, which
        # reads as slice_type 1: all-i leaves it in the clear, and its
        # header parsed, so neither command warns.
        stream = tmp_path / "bad_p.264"
        stream.write_bytes(b"\x00\x00\x00\x01\x41\xa0" + b"\xaa" * 20 + b"\x00\x00\x02\x11"
                           + stream_file.read_bytes())
        enc, meta, out = tmp_path / "e.264", tmp_path / "m.seh", tmp_path / "d.264"
        assert run("encrypt", "--in", str(stream), "--out", str(enc), "--meta", str(meta),
                   "--key", KEY, "--policy", "all-i", "--nonce", "33" * 8) == 0
        assert capsys.readouterr().err == ""
        assert 0 not in CipherHeader.from_bytes(meta.read_bytes()).ordinals
        assert run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(out),
                   "--key", KEY) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == stream.read_bytes()

    @pytest.mark.parametrize("out", ["plain.264", "enc.264"])
    def test_sidecar_over_the_input_is_refused(self, stream_file, tmp_path, capsys, out):
        before = stream_file.read_bytes()
        rc = run("encrypt", "--in", str(stream_file), "--out", str(tmp_path / out),
                 "--meta", str(stream_file), "--key", KEY)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("selenc: error: sidecar path") and err.count("\n") == 1
        assert stream_file.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.264"]

    def test_sidecar_over_the_output_is_refused(self, stream_file, tmp_path, capsys):
        enc = tmp_path / "enc.264"
        rc = run("encrypt", "--in", str(stream_file), "--out", str(enc),
                 "--meta", str(tmp_path / "." / "enc.264"), "--key", KEY)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("selenc: error: sidecar path") and err.count("\n") == 1
        assert not enc.exists()

    def test_decrypt_over_the_sidecar_is_refused(self, stream_file, tmp_path, capsys):
        enc, meta = tmp_path / "enc.264", tmp_path / "enc.seh"
        assert run("encrypt", "--in", str(stream_file), "--out", str(enc),
                   "--meta", str(meta), "--key", KEY) == 0
        before = meta.read_bytes()
        capsys.readouterr()
        rc = run("decrypt", "--in", str(enc), "--meta", str(meta), "--out", str(meta), "--key", KEY)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("selenc: error: sidecar path") and err.count("\n") == 1
        assert meta.read_bytes() == before

    def test_ciphertext_that_would_lose_a_byte_is_refused(self, tmp_path, capsys):
        # Under this nonce the first IDR's ciphertext ends in 00, before the
        # second IDR's 3-byte start code.
        plain = tmp_path / "plain.264"
        plain.write_bytes(bytes.fromhex(
            "00000001" "6742c01e11" "000001" "68ce3880"
            "00000001" "6588a1b2c3d4e5f607" "000001" "6588f7e6d5c4b3a291"
        ))
        rc = run("encrypt", "--in", str(plain), "--out", str(tmp_path / "e.264"),
                 "--meta", str(tmp_path / "m.seh"), "--key", KEY, "--nonce", "00000000000004cd")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "selenc: error: NAL 2: payload ends in 00 before a 3-byte start code\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.264"]

    def test_bad_key_is_not_echoed(self, stream_file, tmp_path, capsys):
        key = "000102030405060708090a0b0c0d0e0g"
        rc = run("encrypt", "--in", str(stream_file), "--out", str(tmp_path / "e.264"),
                 "--meta", str(tmp_path / "m.seh"), "--key", key)
        err = capsys.readouterr().err
        assert rc == 1
        assert key not in err
        assert err == "selenc: error: raw key has a non-hex character at position 31\n"

    @pytest.mark.parametrize("nonce", ["xyz", ""])
    def test_bad_nonce(self, stream_file, tmp_path, capsys, nonce):
        rc = run("encrypt", "--in", str(stream_file), "--out", str(tmp_path / "e.264"),
                 "--meta", str(tmp_path / "m.seh"), "--key", KEY, "--nonce", nonce)
        assert rc == 1
        assert "nonce" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = run("encrypt", "--in", str(tmp_path / "nope.264"), "--out", str(tmp_path / "e"),
                 "--meta", str(tmp_path / "m"), "--key", KEY)
        assert rc == 1
        assert "selenc: error:" in capsys.readouterr().err

    def test_key_and_passphrase_mutually_exclusive(self, stream_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("encrypt", "--in", str(stream_file), "--out", str(tmp_path / "e"),
                "--meta", str(tmp_path / "m"), "--key", KEY, "--passphrase", "x")
        assert exc.value.code == 2

    def test_key_required(self, stream_file, tmp_path):
        with pytest.raises(SystemExit):
            run("encrypt", "--in", str(stream_file), "--out", str(tmp_path / "e"),
                "--meta", str(tmp_path / "m"))


class TestInspect:
    def test_table(self, stream_file, capsys):
        assert run("inspect", "--in", str(stream_file)) == 0
        out = capsys.readouterr().out
        assert "SPS" in out and "IDR" in out and "nals=14" in out

    def test_json(self, stream_file, capsys):
        assert run("inspect", "--in", str(stream_file), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nals"]) == 14
        assert doc["nals"][0]["name"] == "SPS"

    def test_policy_flag(self, tmp_path, capsys):
        # SPS, PPS, an IDR slice, a non-IDR I slice and a P slice; 0x88 is
        # first_mb_in_slice 0 then slice_type 7, 0xe0 slice_type 0.
        stream = tmp_path / "intra.264"
        stream.write_bytes(bytes.fromhex(
            "0000000167aa" "0000000168bb" "0000000165881f" "0000000141881f" "0000000141e01f"
        ))
        selected = {}
        for policy in ("idr", "all-i"):
            assert run("inspect", "--in", str(stream), "--policy", policy, "--json") == 0
            selected[policy] = json.loads(capsys.readouterr().out)["selected_ordinals"]
        assert selected == {"idr": [2], "all-i": [2, 3]}
        assert run("inspect", "--in", str(stream), "--json") == 0
        assert json.loads(capsys.readouterr().out)["selected_ordinals"] == [2]

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.264"
        empty.write_bytes(b"")
        assert run("inspect", "--in", str(empty)) == 1
        assert "error" in capsys.readouterr().err

    def test_flags_what_encrypt_refuses(self, bad_stream, capsys):
        assert run("inspect", "--in", str(bad_stream)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["0", "7", "SPS", "5", "-", "malformed"]
        assert not any("malformed" in line for line in lines[2:])
        assert run("inspect", "--in", str(bad_stream), "--json") == 0
        assert "malformed" not in capsys.readouterr().out

    def test_table_flags_and_leading_garbage(self, tmp_path, capsys):
        # Two bytes before the first start code, a non-IDR slice whose
        # header does not parse, and an SPS with its forbidden bit set.
        clip = tmp_path / "clip.264"
        assert run("gen-test", "--out", str(clip), "--gop", "4", "--frames", "12", "--seed", "1") == 0
        stream = tmp_path / "flagged.264"
        stream.write_bytes(b"\xde\xad" + clip.read_bytes()
                           + bytes.fromhex("00000001410000" "00000001e74280"))
        capsys.readouterr()
        assert run("inspect", "--in", str(stream)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[15:18] == [
            "  14    1 non-IDR        2 -        unparsed",
            "  15    7 SPS            2 -        forbidden",
            "leading garbage: 2 bytes",
        ]
        assert lines[18].startswith("nals=16 total_bytes=3260 ") and len(lines) == 19

    def test_closed_stdout_is_not_an_error(self, stream_file, capsys):
        r, w = os.pipe()
        os.close(r)
        with open(w, "w") as closed, contextlib.redirect_stdout(closed):
            assert run("inspect", "--in", str(stream_file)) == 1
        assert capsys.readouterr().err == ""


class TestBench:
    def test_text_output(self, stream_file, capsys):
        assert run("bench", "--in", str(stream_file), "--key", KEY) == 0
        out = capsys.readouterr().out
        for field in ("selective_encrypted_bytes", "naive_encrypted_bytes",
                      "aes_blocks_selective", "wall_time_naive"):
            assert f"{field}=" in out

    def test_json_output(self, stream_file, capsys):
        assert run("bench", "--in", str(stream_file), "--key", KEY, "--json",
                   "--policy", "all-i") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["selective_encrypted_bytes"] <= doc["naive_encrypted_bytes"]

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.264"
        empty.write_bytes(b"")
        assert run("bench", "--in", str(empty), "--key", KEY) == 1
        assert capsys.readouterr().err == f"selenc: error: {empty}: input file is empty\n"

    def test_names_a_badly_escaped_nal(self, bad_stream, capsys):
        # The same refusal, word for word, as encrypt and decrypt give.
        assert run("bench", "--in", str(bad_stream), "--key", KEY) == 1
        assert capsys.readouterr().err == "selenc: error: NAL 0: 00 00 02 at payload offset 1\n"
