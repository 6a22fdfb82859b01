"""Bit-exact binary serialization of model parameters.

File layout (all integers little-endian):

    magic   4 bytes  "FRLT"
    u32     format version (currently 1)
    u32     epoch
    u64     rng seed
    u32     tensor count
    per tensor:
        u16     name length
        bytes   name (utf-8)
        u8      rank
        u32...  dims
        f64...  payload, little-endian, row-major

Loading a saved file reproduces the parameters bit for bit, including the
epoch and seed metadata.
"""

import math
import struct
from pathlib import Path

import numpy as np

from .fileio import atomic_write_bytes
from .nnet import ModelArch, ModelParams

MAGIC = b"FRLT"
VERSION = 1


def save_checkpoint(params: ModelParams, path) -> None:
    """Serialize ``params`` to ``path`` atomically.

    The epoch and seed fit the header's u32 and u64, as ``TrainConfig`` refuses others.
    """
    chunks = [MAGIC, struct.pack("<IIQI", VERSION, params.epoch, params.rng_seed, len(params.tensors))]
    for name, tensor in params.tensors.items():
        tensor = np.ascontiguousarray(tensor, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(tensor.astype("<f8").tobytes(order="C"))
    atomic_write_bytes(path, b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise ValueError(f"{self.path}: truncated at byte {self.offset}")
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The payload has no checksum, so a changed weight loads as it reads;
    any other defect that leaves a model ``forward`` cannot run is found
    here and names the file.

    Raises:
        ValueError: naming the file, for bad magic, a version other than
            the writer's, truncation, trailing bytes, a tensor name that is
            not UTF-8 or appears twice, or tensors whose names and shapes
            are not those of a ``ModelArch``.
    """
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(4) != MAGIC:
        raise ValueError(f"{path}: bad magic")
    version, epoch, rng_seed, count = reader.unpack("<IIQI")
    if version != VERSION:
        raise ValueError(f"{path}: version {version}, expected {VERSION}")
    tensors = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor name at byte {reader.offset - name_len} is not UTF-8") from None
        if name in tensors:
            raise ValueError(f"{path}: tensor {name!r} appears twice")
        (rank,) = reader.unpack("<B")
        dims = reader.unpack(f"<{rank}I")
        # an exact integer product: a garbled rank or dim asks for more bytes than the file has
        payload = reader.take(8 * math.prod(dims))
        tensors[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
    if reader.offset != len(reader.data):
        raise ValueError(f"{path}: {len(reader.data) - reader.offset} trailing bytes")
    params = ModelParams(tensors, epoch=epoch, rng_seed=rng_seed)
    try:
        ModelArch.from_params(params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params
