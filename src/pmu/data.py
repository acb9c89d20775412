"""Feature files, dataset manifests, and utterance records.

Feature file layout: magic `PMUF`, u32 version, u32 T, u32 D, all
little-endian, followed by T*D float32 values in row-major order.
Manifests are one utterance per line: `id<TAB>feature-path<TAB>transcript`,
with feature paths resolved relative to the manifest's directory.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError, read_lines
from .tokenizers import normalize_text

MAGIC = b"PMUF"
VERSION = 1


@dataclass
class Utterance:
    id: str
    features: np.ndarray
    transcript: str


def save_features(path: str, feats: np.ndarray):
    feats = np.asarray(feats)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise InputError(f"features must be a (T, D) matrix, got {feats.shape}")
    if not np.isfinite(feats).all():
        raise InputError(f"{path}: refusing to write non-finite features")
    T, D = feats.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, T, D))
        fh.write(feats.astype("<f4").tobytes(order="C"))


def load_features(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} at byte 0")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header, {len(blob)} bytes "
                          f"(need 16)")
    version, T, D = struct.unpack("<III", blob[4:16])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    if T < 1 or D < 1:
        raise FormatError(f"{path}: empty feature matrix of shape ({T}, {D})")
    expected = 16 + T * D * 4
    if len(blob) != expected:
        raise FormatError(f"{path}: payload ends at byte {len(blob)}, "
                          f"expected {expected} for shape ({T}, {D})")
    data = np.frombuffer(blob, dtype="<f4", offset=16, count=T * D)
    return data.reshape(T, D).astype(np.float64)


def write_manifest(path: str, entries):
    """entries: iterable of (id, feature_path, transcript)."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, feat_path, transcript in entries:
            if "\t" in utt_id or "\t" in transcript:
                raise InputError(f"manifest fields may not contain tabs: {utt_id!r}")
            fh.write(f"{utt_id}\t{feat_path}\t{transcript}\n")


def load_manifest(path: str, with_features: bool = True) -> list[Utterance]:
    base = os.path.dirname(os.path.abspath(path))
    utts: list[Utterance] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated "
                              f"fields, got {len(fields)}")
        utt_id, feat_path, transcript = fields
        if utt_id in seen:
            raise InputError(f"{path}:{lineno}: duplicate utterance id "
                             f"{utt_id!r}")
        seen.add(utt_id)
        if not normalize_text(transcript):
            raise InputError(f"{path}:{lineno}: empty transcript for "
                             f"{utt_id!r}")
        if not os.path.isabs(feat_path):
            feat_path = os.path.join(base, feat_path)
        feats = load_features(feat_path) if with_features else None
        utts.append(Utterance(id=utt_id, features=feats,
                              transcript=transcript))
    if not utts:
        raise InputError(f"{path}: empty manifest")
    return utts


def check_feature_dim(utts: list[Utterance], input_dim: int):
    """InputError naming the first utterance not `input_dim` features wide."""
    for u in utts:
        if u.features.shape[1] != input_dim:
            raise InputError(f"utterance {u.id!r} has feature dim "
                             f"{u.features.shape[1]}, [model] input_dim is "
                             f"{input_dim}")
