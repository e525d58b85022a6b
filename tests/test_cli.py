"""Command-line workflow and exit-code tests."""
import json

import pytest

from mrclink.cli import main
from mrclink.corpus import AnnotatedText, Mention, load_corpus, save_corpus
from mrclink.encoder import EncoderConfig, load_checkpoint, save_checkpoint
from mrclink.kb import load_kb
from mrclink.local import LocalModel, build_vocabulary, save_model

CFG = {
    "seed": 0,
    "encoder": {"d": 8, "n_layers": 1, "n_heads": 2},
    "max_len_local": 48,
    "max_len_global": 48,
    "lr_local": 2e-3,
    "lr_global": 1e-3,
    "epochs_local": 2,
    "epochs_global": 1,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CFG), encoding="utf-8")
    rc = main([
        "gen-synth", "--entities", "60", "--train-texts", "30", "--test-texts", "16",
        "--topics", "4", "--anchors-per-topic", "2", "--seed", "0",
        "--kb-out", str(root / "kb.jsonl"),
        "--train-out", str(root / "train.jsonl"),
        "--test-out", str(root / "test.jsonl"),
    ])
    assert rc == 0
    return root


def test_build_index(workdir):
    out = workdir / "index.json"
    assert main(["build-index", "--kb", str(workdir / "kb.jsonl"), "--out", str(out)]) == 0
    table = json.loads(out.read_text(encoding="utf-8"))
    assert table and all(isinstance(v, list) for v in table.values())


def test_full_workflow(workdir, capsys):
    root = workdir
    assert main([
        "train-local", "--kb", str(root / "kb.jsonl"), "--corpus", str(root / "train.jsonl"),
        "--config", str(root / "cfg.json"), "--out", str(root / "local.ckpt"),
        "--log", str(root / "local.log"),
    ]) == 0
    assert main([
        "train-global", "--kb", str(root / "kb.jsonl"), "--corpus", str(root / "train.jsonl"),
        "--local-model", str(root / "local.ckpt"), "--config", str(root / "cfg.json"),
        "--out", str(root / "global.ckpt"),
    ]) == 0
    assert main([
        "link", "--kb", str(root / "kb.jsonl"), "--corpus", str(root / "test.jsonl"),
        "--local-model", str(root / "local.ckpt"), "--global-model", str(root / "global.ckpt"),
        "--config", str(root / "cfg.json"), "--out", str(root / "dec.jsonl"),
    ]) == 0
    assert main([
        "eval", "--corpus", str(root / "test.jsonl"), "--decisions", str(root / "dec.jsonl"),
        "--out", str(root / "report.json"),
    ]) == 0
    report = json.loads((root / "report.json").read_text(encoding="utf-8"))
    assert 0.0 <= report["accuracy"] <= 1.0
    first = json.loads((root / "dec.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert {"text", "span", "selected", "local", "global", "fused", "candidates"} <= set(first)
    # local-only linking also works
    assert main([
        "link", "--kb", str(root / "kb.jsonl"), "--corpus", str(root / "test.jsonl"),
        "--local-model", str(root / "local.ckpt"),
        "--config", str(root / "cfg.json"), "--out", str(root / "dec_local.jsonl"),
    ]) == 0


def test_input_format_error_exits_2(workdir, capsys):
    rc = main(["eval", "--corpus", str(workdir / "test.jsonl"), "--decisions", str(workdir / "kb.jsonl")])
    assert rc == 2
    bad = workdir / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    assert main(["build-index", "--kb", str(bad), "--out", str(workdir / "x.json")]) == 2


def test_model_mismatch_exits_3(workdir, capsys):
    rc = main([
        "link", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(workdir / "test.jsonl"),
        "--local-model", str(workdir / "kb.jsonl"), "--out", str(workdir / "x.jsonl"),
    ])
    assert rc == 3


def test_bad_config_key_exits_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad_cfg.json"
    cfg.write_text('{"no_such_key": 1}', encoding="utf-8")
    rc = main([
        "train-local", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(workdir / "train.jsonl"),
        "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"),
    ])
    assert rc == 2


def test_gen_synth_rejects_impossible_world(tmp_path, capsys):
    rc = main([
        "gen-synth", "--entities", "5", "--train-texts", "5", "--test-texts", "5",
        "--kb-out", str(tmp_path / "kb.jsonl"),
        "--train-out", str(tmp_path / "tr.jsonl"),
        "--test-out", str(tmp_path / "te.jsonl"),
    ])
    assert rc == 2


@pytest.fixture(scope="module")
def untrained_local(workdir):
    """An untrained local checkpoint over the work directory's KB and corpus."""
    kb = load_kb(str(workdir / "kb.jsonl"))
    vocab = build_vocabulary(load_corpus(str(workdir / "train.jsonl")), kb)
    config = EncoderConfig(vocab_size=len(vocab), max_len=CFG["max_len_local"], d=8, n_layers=1, n_heads=2)
    path = workdir / "untrained_local.ckpt"
    save_model(LocalModel.init(config, vocab), str(path))
    return path


def test_checkpoint_without_head_exits_3(workdir, untrained_local, tmp_path, capsys):
    header, tensors = load_checkpoint(str(untrained_local))
    headless = tmp_path / "headless.ckpt"
    save_checkpoint(str(headless), header, {k: v for k, v in tensors.items() if not k.startswith("head.")})
    rc = main([
        "link", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(workdir / "test.jsonl"),
        "--local-model", str(headless), "--out", str(tmp_path / "dec.jsonl"),
    ])
    assert rc == 3
    assert "head.score_w" in capsys.readouterr().err


def test_overlong_text_exits_2(workdir, untrained_local, tmp_path, capsys):
    surface = load_corpus(str(workdir / "test.jsonl"))[0].mentions[0].surface
    words = [surface] + ["filler"] * 60  # 61 query tokens for max_len_local 48
    corpus = tmp_path / "long.jsonl"
    save_corpus([AnnotatedText(" ".join(words), (Mention(0, len(surface), surface),))], str(corpus))
    rc = main([
        "link", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(corpus),
        "--local-model", str(untrained_local), "--config", str(workdir / "cfg.json"),
        "--out", str(tmp_path / "dec.jsonl"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "max_len=48" in err


def test_overlong_text_does_not_stop_the_corpus(workdir, untrained_local, tmp_path, capsys):
    texts = load_corpus(str(workdir / "test.jsonl"))[:3]
    surface = texts[0].mentions[0].surface
    words = [surface] + ["filler"] * 80  # 81 query tokens for max_len_local 48
    long_text = AnnotatedText(" ".join(words), (Mention(0, len(surface), surface, texts[0].mentions[0].gold),))
    corpus = tmp_path / "mixed.jsonl"
    save_corpus([long_text] + texts, str(corpus))
    out = tmp_path / "dec.jsonl"
    rc = main([
        "link", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(corpus),
        "--local-model", str(untrained_local), "--config", str(workdir / "cfg.json"),
        "--out", str(out),
    ])
    assert rc == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("input error: text 0: ")
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert sorted({r["text"] for r in records}) == [1, 2, 3]
    assert len(records) == sum(len(t.mentions) for t in texts)
    # the failed text has no records, so its decisions do not cover the corpus
    assert main(["eval", "--corpus", str(corpus), "--decisions", str(out)]) == 2
    assert capsys.readouterr().err == "input error: text 0: 0 decisions for 1 mentions\n"


@pytest.mark.parametrize("command,flag", [("eval", "--corpus"), ("link", "--out"), ("link", "--local-model")])
def test_directory_for_a_file_exits_2(command, flag, workdir, untrained_local, tmp_path, capsys):
    args = {
        "eval": {"--corpus": workdir / "test.jsonl", "--decisions": workdir / "dec.jsonl"},
        "link": {
            "--kb": workdir / "kb.jsonl",
            "--corpus": workdir / "test.jsonl",
            "--local-model": untrained_local,
            "--config": workdir / "cfg.json",
            "--out": tmp_path / "dec.jsonl",
        },
    }[command]
    args[flag] = tmp_path
    rc = main([command] + [str(part) for pair in args.items() for part in pair])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
