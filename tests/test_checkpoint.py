"""Checkpoint serialization round-trip and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhrv.checkpoint_io import (
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from fairhrv.nnet import ModelArch, forward, init_params


def make_params(seed=0, arch=ModelArch(input_size=7, lstm_hidden=4, dense_size=3, heads=("anxiety", "protected"))):
    params = init_params(arch, seed=seed)
    params.epoch = 35
    params.rng_seed = 987654321
    rng = np.random.default_rng(seed)
    for tensor in params.tensors.values():
        tensor += rng.normal(size=tensor.shape)
    return params


class TestRoundTrip:
    def test_bitwise_equality(self, tmp_path):
        params = make_params()
        path = tmp_path / "ckpt_epoch_35.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 35
        assert loaded.rng_seed == 987654321
        assert list(loaded.tensors) == list(params.tensors)
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()

    @pytest.mark.parametrize("field,largest", [("epoch", 2**32 - 1), ("rng_seed", 2**64 - 1)])
    def test_header_fields_up_to_their_width(self, tmp_path, field, largest):
        params = make_params()
        setattr(params, field, largest)
        save_checkpoint(params, tmp_path / "a.bin")
        assert getattr(load_checkpoint(tmp_path / "a.bin"), field) == largest

    def test_save_is_deterministic(self, tmp_path):
        params = make_params()
        save_checkpoint(params, tmp_path / "a.bin")
        save_checkpoint(params, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestCorruption:
    def test_truncated_mid_tensor(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])
        with pytest.raises(ValueError, match=r"ckpt.bin: truncated at byte \d+$"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="ckpt.bin: bad magic$"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="ckpt.bin: 2 trailing bytes$"):
            load_checkpoint(path)

    def test_version_bump(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="ckpt.bin: version 2, expected 1$"):
            load_checkpoint(path)

    def test_header_layout(self, tmp_path):
        # magic, version, epoch, seed, count occupy the first 24 bytes
        path = tmp_path / "ckpt.bin"
        params = make_params()
        save_checkpoint(params, path)
        head = path.read_bytes()[:24]
        assert head[:4] == MAGIC
        version, epoch, seed, count = struct.unpack("<IIQI", head[4:])
        assert (version, epoch, seed, count) == (1, 35, 987654321, len(params.tensors))

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        data = bytearray(path.read_bytes())
        data[26] = 0xFF  # first byte of the first tensor name, after the header and its length
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="ckpt.bin: tensor name at byte 26 is not UTF-8"):
            load_checkpoint(path)

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        path.write_bytes(path.read_bytes().replace(b"lstm.U", b"lstm.W"))
        with pytest.raises(ValueError, match="ckpt.bin: tensor 'lstm.W' appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new", [(b"dense.b", b"dense.c"), (b"lstm.W", b"lstm.X"),
                                         (b"head.anxiety.W", b"head.anxietx.W"), (b"head.anxiety.b", b"head.anxi.ty.b")])
    def test_renamed_tensor(self, tmp_path, old, new):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(make_params(), path)
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(ValueError, match=r"ckpt.bin: tensor.* (name no model topology|do not fit)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,shape", [("lstm.b", (15,)), ("lstm.U", (4, 15)), ("dense.W", (4, 2)),
                                            ("head.protected.W", (3,)), ("head.anxiety.b", (1, 1))])
    def test_shape_of_no_topology(self, tmp_path, name, shape):
        path = tmp_path / "ckpt.bin"
        params = make_params()
        params.tensors[name] = np.zeros(shape)
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match=r"ckpt.bin: tensor.* (name no model topology|do not fit)"):
            load_checkpoint(path)


def structure_offsets(params) -> list:
    """Offsets of the checkpoint bytes that are not tensor payload."""
    offsets, pos = list(range(24)), 24
    for name, tensor in params.tensors.items():
        head = 2 + len(name.encode("utf-8")) + 1 + 4 * tensor.ndim
        offsets += range(pos, pos + head)
        pos += head + 8 * tensor.size
    return offsets


H8_PARAMS = make_params(seed=1, arch=ModelArch(input_size=25, lstm_hidden=8, dense_size=8,
                                               heads=("anxiety", "protected")))
H8_STRUCTURE = structure_offsets(H8_PARAMS)


class TestDamageProperties:
    """The payload has no checksum: damage either raises a ValueError that
    names the file, or loads a model that runs."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_flipped_or_truncated_byte(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.bin"
        save_checkpoint(H8_PARAMS, path)
        damaged = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            del damaged[data.draw(st.integers(0, len(damaged) - 1), label="length"):]
        else:
            # half the flips land in the header, names, ranks and dims, which are 2% of the bytes
            position = data.draw(st.one_of(st.sampled_from(H8_STRUCTURE), st.integers(0, len(damaged) - 1)),
                                 label="position")
            damaged[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(damaged))
        try:
            params = load_checkpoint(path)
        except ValueError as exc:  # a numpy error that leaks out names no file, and fails here
            assert str(exc).startswith(f"{path}: ")
            return
        arch = ModelArch.from_params(params)
        with np.errstate(all="ignore"):
            outputs, _ = forward(params, np.ones((2, 24, arch.input_size)))
        assert set(outputs) == set(arch.heads)
