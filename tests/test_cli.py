"""Command-line workflow and exit-code tests."""
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrclink
from mrclink.cli import build_parser, main
from mrclink.config import GATE_MODES, HISTORY_MODES, EncoderSettings, RunConfig
from mrclink.corpus import AnnotatedText, Mention, load_corpus, save_corpus
from mrclink.encoder import EncoderConfig, load_checkpoint, save_checkpoint
from mrclink.kb import NIL, KnowledgeBase, load_kb
from mrclink.local import LocalModel, build_vocabulary, fit, save_model
from mrclink.pipeline import LinkDecision, evaluate

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
    assert main([
        "train-local", "--kb", str(bad), "--corpus", str(workdir / "train.jsonl"), "--out", str(workdir / "x.ckpt"),
    ]) == 2


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


@pytest.mark.parametrize("entities", [100, 8000])
def test_gen_synth_out_of_topic_words_exits_2(entities, tmp_path):
    # 1,300 topics need 5,220 of the 4,900 two-syllable words; with 100
    # entities the spec is rejected before any word is drawn. A subprocess
    # with a timeout turns a hang into a failure.
    outputs = [part for name in ("kb", "train", "test") for part in (f"--{name}-out", str(tmp_path / name))]
    proc = subprocess.run(
        [sys.executable, "-m", "mrclink", "gen-synth", "--topics", "1300", "--entities", str(entities), *outputs],
        env=os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


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


def test_deeply_nested_checkpoint_header_exits_3(workdir, tmp_path, capsys):
    ckpt = tmp_path / "deep.ckpt"
    ckpt.write_bytes(b"MRCL1\n" + b"[" * 100_000 + b"\n")
    rc = main([
        "link", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(workdir / "test.jsonl"),
        "--local-model", str(ckpt), "--out", str(tmp_path / "dec.jsonl"),
    ])
    assert rc == 3
    assert "bad checkpoint header" in capsys.readouterr().err


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


# One bad file each; every one must exit 2 with a single ``input error:`` line.
BAD_INPUTS = {
    "kb_not_utf8": ("--kb", b'{"id": "e1", "name": "\xff"}\n'),
    "kb_popularity_1e400": ("--kb", b'{"id": "e1", "name": "n", "popularity": 1e400}\n'),
    "kb_aliases_string": ("--kb", b'{"id": "e1", "name": "n", "aliases": "xyz"}\n'),
    "kb_reserved_nil_id": ("--kb", b'{"id": "NIL", "name": "n"}\n'),
    "kb_duplicate_id": ("--kb", b'{"id": "e1", "name": "n"}\n{"id": "e1", "name": "m"}\n'),
    "kb_id_null": ("--kb", b'{"id": null, "name": "n"}\n'),
    "kb_popularity_float": ("--kb", b'{"id": "e1", "name": "n", "popularity": 3.7}\n'),
    "kb_popularity_string": ("--kb", b'{"id": "e1", "name": "n", "popularity": "12"}\n'),
    "kb_aliases_not_strings": ("--kb", b'{"id": "e1", "name": "n", "aliases": [1, null]}\n'),
    "kb_description_list": ("--kb", b'{"id": "e1", "name": "n", "description": ["a", "b"]}\n'),
    "corpus_not_utf8": ("--corpus", b'{"text": "\xe9t\xe9", "mentions": []}\n'),
    "corpus_array_line": ("--corpus", b'{"text": "ok", "mentions": []}\n[1, 2]\n'),
    "corpus_start_1e400": ("--corpus", b'{"text": "ab", "mentions": [{"start": 1e400, "end": 2, "surface": "ab"}]}'),
    "corpus_text_null": ("--corpus", b'{"text": null, "mentions": []}\n'),
    "corpus_start_float": ("--corpus", b'{"text": "ab", "mentions": [{"start": 0.9, "end": 2, "surface": "ab"}]}'),
    "corpus_start_false": ("--corpus", b'{"text": "ab", "mentions": [{"start": false, "end": 2, "surface": "ab"}]}'),
    "corpus_gold_int": ("--corpus", b'{"text": "ab", "mentions": [{"start": 0, "end": 2, "surface": "ab", "gold": 7}]}'),
    "corpus_mentions_string": ("--corpus", b'{"text": "ab", "mentions": ""}\n'),
    "config_not_utf8": ("--config", b'{"seed": "\xff"}'),
    "corpus_deep_nesting": ("--corpus", b"[" * 100_000 + b"\n"),
    "config_deep_nesting": ("--config", b"[" * 100_000),
}
BAD_CONFIGS = [
    {"encoder": {"d": 30, "n_heads": 4}},
    {"encoder": {"d": 0}},
    {"max_len_local": 4},
    {"lr_local": "x"},
    {"encoder": [1, 2]},
    {"stop_accuracy": "high"},
    {"seed": -1},
    {"nil_verifier": "no"},
    {"epochs_local": -1},
    {"lr_local": 10**400},
    {"nil_threshold": 5},
    {"warmup": -0.5},
    {"lr_global": -1e-5},
    {"stop_accuracy": -1},
    {"max_len_local": 2**62},  # tables of more bytes than numpy can index
    {"max_len_global": 2**62},
    {"encoder": {"d": 2**31}},
]
for i, bad in enumerate(BAD_CONFIGS):
    BAD_INPUTS[f"config{i}"] = ("--config", json.dumps(CFG | bad).encode("utf-8"))


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_file_exits_2_with_one_line(name, workdir, tmp_path, capsys):
    flag, payload = BAD_INPUTS[name]
    bad = tmp_path / "bad"
    bad.write_bytes(payload)
    args = {"--kb": workdir / "kb.jsonl", "--corpus": workdir / "train.jsonl", "--config": workdir / "cfg.json"}
    args[flag] = bad
    argv = ["train-local", *(str(part) for pair in args.items() for part in pair), "--out", str(tmp_path / "m.ckpt")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and str(bad) in err[0]
    assert not (tmp_path / "m.ckpt").exists()


def test_config_too_large_to_allocate_exits_2(workdir, tmp_path, capsys):
    # 2**55 positions of width 8 ask numpy for 2 EiB, which it refuses before
    # allocating anything: no address space holds it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG | {"max_len_local": 2**55}), encoding="utf-8")
    rc = main([
        "train-local", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(workdir / "train.jsonl"),
        "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train-local", "train-global"])
def test_diverging_training_exits_2_naming_epoch_and_tensor(command, workdir, untrained_local, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG | {"lr_local" if command == "train-local" else "lr_global": 1e300}), encoding="utf-8")
    argv = [
        command, "--kb", str(workdir / "kb.jsonl"), "--corpus", str(workdir / "train.jsonl"), "--config", str(cfg),
        "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "m.log"),
    ]
    capsys.readouterr()
    assert main(argv + (["--local-model", str(untrained_local)] if command == "train-global" else [])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: epoch 0: non-finite gradient for 'enc.")
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "m.log").exists()


def test_link_with_overflowing_scores_exits_3_and_writes_nothing(workdir, tmp_path, capsys):
    # one step at a rate of 1e300 leaves finite parameters whose scores overflow
    corpus, cfg, out = tmp_path / "one.jsonl", tmp_path / "cfg.json", tmp_path / "dec.jsonl"
    save_corpus([next(t for t in load_corpus(str(workdir / "train.jsonl")) if len(t.mentions) == 1)], str(corpus))
    cfg.write_text(json.dumps(CFG | {"lr_local": 1e300, "epochs_local": 1}), encoding="utf-8")
    kb = str(workdir / "kb.jsonl")
    assert main([
        "train-local", "--kb", kb, "--corpus", str(corpus), "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"),
    ]) == 0
    capsys.readouterr()
    assert main([
        "link", "--kb", kb, "--corpus", str(workdir / "test.jsonl"), "--local-model", str(tmp_path / "m.ckpt"),
        "--config", str(cfg), "--out", str(out),
    ]) == 3
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: text 0: ") and "not finite" in last
    assert not out.exists()


def test_readme_cli_block_names_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("mrclink ")}
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    assert documented == set(sub.choices)


def test_readme_names_only_what_exists():
    # a backticked name with a dot or an underscore is an attribute of a
    # mrclink module, a config field, or a key of a record the package writes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    names = {n for n in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", prose) if "." in n or "_" in n}
    assert {"walk_turns", "local.fit", "MentionLocalResult.decide", "nil_prob"} <= names
    modules = {m.name: importlib.import_module(f"mrclink.{m.name}") for m in pkgutil.iter_modules(mrclink.__path__)
               if not m.name.startswith("_")} | {"mrclink": mrclink}

    def exists(name):
        first, *rest = name.split(".")
        roots = [modules[first]] if first in modules else [getattr(m, first) for m in modules.values() if hasattr(m, first)]
        return any(reduce(lambda obj, part: getattr(obj, part, None), rest, root) is not None for root in roots)

    vocab = build_vocabulary([], KnowledgeBase([]))
    model = LocalModel.init(EncoderConfig(vocab_size=len(vocab), max_len=8, d=2, n_layers=1, n_heads=1), vocab)
    [epoch] = fit(model, [None], lambda *_: None, epochs=1, lr=0.0, warmup=0.0, seed=0)
    decision = LinkDecision(Mention(0, 1, "a"), (), np.zeros(0), None, None, NIL, 0).to_record(0)
    keys = {*epoch, *decision, *evaluate([], []).to_dict()}
    fields = {f.name for cls in (RunConfig, EncoderSettings) for f in dataclasses.fields(cls)}
    assert sorted(n for n in names if not exists(n) and n not in keys | fields) == []


def test_eval_of_a_text_without_mentions_exits_0(workdir, untrained_local, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    texts = load_corpus(str(workdir / "test.jsonl"))[:3]
    save_corpus(texts[:1] + [AnnotatedText("no mentions here", ())] + texts[1:], str(corpus))
    out = tmp_path / "dec.jsonl"
    assert main([
        "link", "--kb", str(workdir / "kb.jsonl"), "--corpus", str(corpus),
        "--local-model", str(untrained_local), "--config", str(workdir / "cfg.json"), "--out", str(out),
    ]) == 0
    assert main(["eval", "--corpus", str(corpus), "--decisions", str(out), "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert report["n_mentions"] == sum(len(t.mentions) for t in texts)
    assert "0" not in report["by_mention_count"]


WORDS = ["Alpha", "alpha", "李娜", "Zürich", "ﬁne", "Ålesund", "beta", "ÇA", "nowhere", "x"]
SURFACES = st.sampled_from(WORDS) | st.text(
    st.characters(codec="utf-8", exclude_categories=["Cs", "Cc", "Z"]), min_size=1, max_size=5
)
# at most one file of an example is damaged, with one of these
DAMAGE = {
    "kb": [
        b"{not json", b"[1, 2]", b'{"id": "\xff", "name": "n"}', b'{"id": "z", "name": "n", "popularity": 1e400}',
        b'{"id": "e0", "name": "twin"}', b'{"id": "z", "name": "n", "aliases": "xyz"}',
    ],
    "corpus": [
        b"{not json", b'"text"', b'{"text": "\xe9", "mentions": []}',
        b'{"text": "ab", "mentions": [{"start": 1e400, "end": 2, "surface": "ab"}]}',
    ],
    "config": [b"{\xff}", b"{", *(json.dumps(CFG | bad).encode("utf-8") for bad in BAD_CONFIGS)],
}


@st.composite
def kb_lines(draw):
    return [
        json.dumps({
            "id": f"e{i}",
            "name": draw(SURFACES),
            "description": " ".join(draw(st.lists(SURFACES, max_size=4))),
            "aliases": draw(st.lists(SURFACES, max_size=3)),  # may repeat a surface of another entity
            "popularity": draw(st.integers(0, 3)),
        }, ensure_ascii=False).encode("utf-8")
        for i in range(draw(st.integers(1, 5)))
    ]


@st.composite
def corpus_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        words = draw(st.lists(SURFACES, min_size=1, max_size=5))
        text, mentions = "", []
        for w in words:
            start = len(text) + bool(text)
            text = f"{text} {w}" if text else w
            if draw(st.booleans()):
                gold = draw(st.sampled_from(["e0", "e1", "e2", "NIL"]))
                mentions.append({"start": start, "end": start + len(w), "surface": w, "gold": gold})
        lines.append(json.dumps({"text": text, "mentions": mentions}, ensure_ascii=False).encode("utf-8"))
    return lines


@st.composite
def config_lines(draw):
    cfg = {
        "K": draw(st.integers(1, 4)),
        "alpha1": draw(st.floats(0.0, 1.0)),
        "alpha2": draw(st.floats(0.1, 1.0)),
        "beta": draw(st.floats(0.0, 1.0)),
        "nil_threshold": draw(st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**32)),
        "encoder": {"d": 8, "n_layers": draw(st.integers(1, 2)), "n_heads": draw(st.sampled_from([1, 2, 4, 8]))},
        "max_len_local": draw(st.integers(8, 64)),
        "max_len_global": draw(st.integers(8, 64)),
        "lr_local": draw(st.floats(1e-5, 1e-2)),
        "lr_global": draw(st.floats(1e-5, 1e-2)),
        "warmup": draw(st.floats(0.0, 1.0)),
        "epochs_local": 1,
        "epochs_global": 1,
        "stop_accuracy": draw(st.none() | st.floats(0.0, 1.0)),
        "gate_mode": draw(st.sampled_from(GATE_MODES)),
        "history_mode": draw(st.sampled_from(HISTORY_MODES)),
        **{flag: draw(st.booleans()) for flag in ("nil_verifier", "nil_override", "no_rerank", "no_query_update")},
    }
    return [json.dumps(cfg).encode("utf-8")]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_generated_inputs_exit_0_2_or_3(data):
    """Every command of the train, link and eval flow returns 0, 2 or 3 on
    generated KB, corpus and config files, damaged ones included."""
    files = {"kb": data.draw(kb_lines()), "corpus": data.draw(corpus_lines()), "config": data.draw(config_lines())}
    damaged = data.draw(st.sampled_from([None, None, None, *DAMAGE]))
    if damaged is not None:  # a damaged record file gains one bad line; a damaged config is the bad line alone
        lines = files[damaged] if damaged != "config" else []
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(DAMAGE[damaged])))
        files[damaged] = lines
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, lines in files.items():
            (root / name).write_bytes(b"\n".join(lines) + b"\n")
        steps = [
            ("train-local", "--kb kb --corpus corpus --config config --out local"),
            ("train-global", "--kb kb --corpus corpus --local-model local --config config --out global"),
            ("link", "--kb kb --corpus corpus --local-model local --global-model global --config config --out dec"),
            ("eval", "--corpus corpus --decisions dec --out report"),
        ]
        for command, args in steps:
            argv = [command, *(str(root / a) if i % 2 else a for i, a in enumerate(args.split()))]
            assert main(argv) in (0, 2, 3), argv
