"""Checkpoint codec: round trip and rejection of files that do not match their model."""
import struct
import time
import tracemalloc

import numpy as np
import pytest

from mrclink import encoder as enc
from mrclink.cli import main
from mrclink.encoder import EncoderConfig
from mrclink.errors import InputFormatError, ModelConfigError
from mrclink.kb import Entity, KnowledgeBase, save_kb
from mrclink.corpus import AnnotatedText, Mention, save_corpus
from mrclink.local import LocalModel, build_vocabulary, load_model, save_model
from mrclink.multiturn import GlobalModel

KINDS = {"local": LocalModel, "global": GlobalModel}


KB = KnowledgeBase([Entity("e1", "alpha sport", "alpha ball game", ("alpha",), 3)])
CORPUS = [AnnotatedText("alpha kicks", (Mention(0, 5, "alpha", "e1"),))]


def make_model(kind):
    vocab = build_vocabulary(CORPUS, KB)
    local = LocalModel.init(EncoderConfig(vocab_size=len(vocab), max_len=16, d=4, n_layers=1, n_heads=2), vocab)
    return local if kind == "local" else GlobalModel.from_local(local, max_len=20, gate_mode="concat")


def saved(kind, tmp_path):
    """A checkpoint of a fresh ``kind`` model, read back as (path, header, tensors)."""
    path = tmp_path / f"{kind}.ckpt"
    save_model(make_model(kind), str(path))
    header, tensors = enc.load_checkpoint(str(path))
    return path, header, tensors


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_round_trip_keeps_settings_and_tensor_order(kind, tmp_path):
    model = make_model(kind)
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    back = load_model(str(path), KINDS[kind])
    assert back.config == model.config
    assert back.vocab.to_dict() == model.vocab.to_dict()
    assert all(getattr(back, name) == getattr(model, name) for name in model.SETTINGS)
    assert list(back.parameters()) == list(model.parameters())
    for name, value in model.parameters().items():
        assert back.parameters()[name].tobytes() == value.tobytes()


def _drop_head_weight(header, tensors):
    del tensors["head.score_w"]


def _add_tensor(header, tensors):
    tensors["head.extra"] = np.zeros(3)


def _reshape_head_weight(header, tensors):
    tensors["head.score_w"] = np.zeros(tensors["head.score_w"].size + 1)


def _grow_tok_emb(header, tensors):
    tensors["enc.tok_emb"] = np.vstack([tensors["enc.tok_emb"], np.zeros((1, header["encoder_config"]["d"]))])


def _grow_tok_emb_and_config(header, tensors):
    _grow_tok_emb(header, tensors)
    header["encoder_config"]["vocab_size"] += 1


def _drop_encoder_config(header, tensors):
    del header["encoder_config"]


def _gap_in_vocabulary(header, tensors):
    token = max(header["vocab"], key=header["vocab"].get)
    header["vocab"][token] += 1


def _bad_setting(header, tensors):
    header["nil_verifier" if header["kind"] == "local" else "gate_mode"] = 1


def _huge_width(header, tensors):
    header["encoder_config"]["d"] = 2**40


def _huge_depth(header, tensors):
    header["encoder_config"]["n_layers"] = 10**9


def _wide_header_narrow_blocks(header, tensors):
    """Header and embeddings agree on d=1024; the block tensors stay d=4."""
    d = header["encoder_config"]["d"] = 1024
    for name in ("enc.tok_emb", "enc.pos_emb"):
        tensors[name] = np.zeros((tensors[name].shape[0], d))


def _float_heads(header, tensors):
    header["encoder_config"]["n_heads"] = 2.0


def _string_seed(header, tensors):
    header["encoder_config"]["seed"] = "0"


def _bool_depth(header, tensors):
    header["encoder_config"]["n_layers"] = True


def _float_pad_id(header, tensors):
    header["vocab"]["[PAD]"] = 0.5


MISTYPED = [_float_heads, _string_seed, _bool_depth, _float_pad_id]

CORRUPTIONS = MISTYPED + [
    _drop_head_weight,
    _add_tensor,
    _reshape_head_weight,
    _grow_tok_emb,
    _grow_tok_emb_and_config,
    _drop_encoder_config,
    _gap_in_vocabulary,
    _bad_setting,
    _huge_width,
    _huge_depth,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mismatched_checkpoint_rejected(kind, corrupt, tmp_path):
    path, header, tensors = saved(kind, tmp_path)
    corrupt(header, tensors)
    enc.save_checkpoint(str(path), header, tensors)
    with pytest.raises(ModelConfigError):
        load_model(str(path), KINDS[kind])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wrong_kind_rejected(kind, tmp_path):
    path, _, _ = saved(kind, tmp_path)
    other = next(cls for name, cls in KINDS.items() if name != kind)
    with pytest.raises(ModelConfigError):
        load_model(str(path), other)


@pytest.mark.parametrize(
    "key,value",
    [("nil_verifier", True), ("nil_verifier", False), ("history_mode", "last")],
    ids=["True", "False", "history_mode"],
)
def test_global_header_with_a_nil_verifier_key_loads(key, value, tmp_path):
    """Global checkpoints once stored the local model's ``nil_verifier`` and a
    ``history_mode`` that nothing read; both keys are ignored."""
    path, header, tensors = saved("global", tmp_path)
    header[key] = value
    enc.save_checkpoint(str(path), header, tensors)
    back = load_model(str(path), GlobalModel)
    assert not hasattr(back, key)
    assert list(back.parameters()) == list(tensors)
    for name, t in back.parameters().items():
        assert t.tobytes() == tensors[name].tobytes()


@pytest.mark.parametrize("mode", [("gate_mode", "gru_like")])
def test_unknown_global_mode_rejected(mode, tmp_path):
    path, header, tensors = saved("global", tmp_path)
    header[mode[0]] = mode[1]
    enc.save_checkpoint(str(path), header, tensors)
    with pytest.raises(ModelConfigError):
        load_model(str(path), GlobalModel)


@pytest.mark.parametrize("corrupt", [_huge_width, _huge_depth], ids=lambda f: f.__name__.strip("_"))
def test_link_refuses_oversized_header_before_allocating(corrupt, tmp_path, capsys):
    path, header, tensors = saved("local", tmp_path)
    corrupt(header, tensors)
    enc.save_checkpoint(str(path), header, tensors)
    save_kb(KB, str(tmp_path / "kb.jsonl"))
    save_corpus(CORPUS, str(tmp_path / "corpus.jsonl"))
    start = time.perf_counter()
    rc = main([
        "link", "--kb", str(tmp_path / "kb.jsonl"), "--corpus", str(tmp_path / "corpus.jsonl"),
        "--local-model", str(path), "--out", str(tmp_path / "dec.jsonl"),
    ])
    assert rc == 3
    assert time.perf_counter() - start < 1.0
    assert "does not match the stored embeddings" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", MISTYPED, ids=lambda f: f.__name__.strip("_"))
def test_link_refuses_a_mistyped_header_field(corrupt, tmp_path, capsys):
    # int() would turn each value into a valid one; the header is read strictly
    path, header, tensors = saved("local", tmp_path)
    corrupt(header, tensors)
    enc.save_checkpoint(str(path), header, tensors)
    save_kb(KB, str(tmp_path / "kb.jsonl"))
    save_corpus(CORPUS, str(tmp_path / "corpus.jsonl"))
    rc = main([
        "link", "--kb", str(tmp_path / "kb.jsonl"), "--corpus", str(tmp_path / "corpus.jsonl"),
        "--local-model", str(path), "--out", str(tmp_path / "dec.jsonl"),
    ])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "bad checkpoint header" in err[0]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wide_header_with_narrow_blocks_rejected_before_allocating(kind, tmp_path):
    # a model of the header's config would hold two 1024 x 4096 feed-forward matrices (64 MB)
    path, header, tensors = saved(kind, tmp_path)
    _wide_header_narrow_blocks(header, tensors)
    enc.save_checkpoint(str(path), header, tensors)
    tracemalloc.start()
    try:
        with pytest.raises(ModelConfigError, match="does not match the stored embeddings and blocks"):
            load_model(str(path), KINDS[kind])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """A truncation, 1-4 flipped bits or a random 8-byte overwrite of ``data``."""
    how = rng.integers(3)
    if how == 0:
        return data[: rng.integers(len(data))]
    buf = bytearray(data)
    if how == 1:
        for bit in rng.integers(len(buf) * 8, size=rng.integers(1, 5)):
            buf[bit // 8] ^= 1 << (bit % 8)
    else:
        at = rng.integers(len(buf) - 8)
        buf[at : at + 8] = rng.bytes(8)
    return bytes(buf)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_fuzzed_checkpoint_loads_or_raises_a_documented_error(kind, tmp_path):
    path, _, _ = saved(kind, tmp_path)
    data = path.read_bytes()
    rng = np.random.default_rng(2024)
    for trial in range(400):
        path.write_bytes(_mutate(data, rng))
        try:
            load_model(str(path), KINDS[kind])
        except (ModelConfigError, InputFormatError):
            pass


def test_link_rejects_a_tensor_dimension_too_large_to_read(tmp_path, capsys):
    # bit 5 of the top byte of enc.tok_emb's first dimension: 2**61 rows more
    path, _, _ = saved("local", tmp_path)
    data = bytearray(path.read_bytes())
    name = b"enc.tok_emb"
    first_dim = data.index(struct.pack("<I", len(name)) + name) + 4 + len(name) + 4
    data[first_dim + 7] ^= 1 << 5
    path.write_bytes(bytes(data))
    save_kb(KB, str(tmp_path / "kb.jsonl"))
    save_corpus(CORPUS, str(tmp_path / "corpus.jsonl"))
    rc = main([
        "link", "--kb", str(tmp_path / "kb.jsonl"), "--corpus", str(tmp_path / "corpus.jsonl"),
        "--local-model", str(path), "--out", str(tmp_path / "dec.jsonl"),
    ])
    assert rc == 3
    assert "truncated tensor 'enc.tok_emb'" in capsys.readouterr().err
