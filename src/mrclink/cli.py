"""Command-line interface.

Exit codes: 0 success; 2 an input-format error, a path that cannot be opened,
a config too large to allocate or a diverged training; 3 model/config mismatch,
non-finite checkpoint values or scores. ``link`` writes the decisions of every
text that links and exits 2 if any text raised an input-format error."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import RunConfig
from .errors import InputFormatError, ModelConfigError
from .kb import load_kb, save_kb
from .corpus import load_corpus, save_corpus
from .local import LocalModel, load_model, save_model, train_local
from .multiturn import GlobalModel, train_global
from .pipeline import evaluate, link_corpus, load_decisions, save_decisions
from .synth import SynthSpec, generate_synthetic_world


def _load_config(path: str | None) -> RunConfig:
    return RunConfig() if path is None else RunConfig.from_file(path)


def _cmd_gen_synth(args: argparse.Namespace) -> int:
    try:
        spec = SynthSpec(
            n_entities=args.entities,
            n_train_texts=args.train_texts,
            n_test_texts=args.test_texts,
            nil_rate=args.nil_rate,
            n_topics=args.topics,
            anchors_per_topic=args.anchors_per_topic,
            seed=args.seed,
        )
        world = generate_synthetic_world(spec)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    save_kb(world.kb, args.kb_out)
    save_corpus(world.train, args.train_out, kinds=world.train_kinds)
    save_corpus(world.test, args.test_out, kinds=world.test_kinds)
    print(
        f"wrote {len(world.kb)} entities, {len(world.train)} train texts, "
        f"{len(world.test)} test texts"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """``train-local`` or ``train-global``: write the model and print its last epoch's loss and accuracy."""
    cfg = _load_config(args.config)
    kb = load_kb(args.kb)
    corpus = load_corpus(args.corpus)
    if args.command == "train-local":
        model, logs = train_local(corpus, kb, cfg, log_path=args.log)
    else:
        model, logs = train_global(corpus, kb, load_model(args.local_model, LocalModel), cfg, log_path=args.log)
    save_model(model, args.out)
    if logs:
        last = logs[-1]
        print(f"epoch {last['epoch']}: loss {last['loss']:.4f} accuracy {last['answer_accuracy']:.4f}")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    kb = load_kb(args.kb)
    corpus = load_corpus(args.corpus)
    local_model = load_model(args.local_model, LocalModel)
    global_model = None if args.global_model is None else load_model(args.global_model, GlobalModel)
    decisions, errors = link_corpus(corpus, kb, local_model, global_model, cfg)
    for i, exc in errors:
        print(f"input error: text {i}: {exc}", file=sys.stderr)
    save_decisions(decisions, args.out)
    n = sum(len(d) for d in decisions)
    print(f"linked {n} mentions in {len(corpus) - len(errors)} of {len(corpus)} texts")
    return 2 if errors else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    decisions = load_decisions(args.decisions, corpus)
    report = evaluate(corpus, decisions)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrclink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic KB and corpora")
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--train-texts", type=int, default=300)
    p.add_argument("--test-texts", type=int, default=150)
    p.add_argument("--nil-rate", type=float, default=0.15)
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--anchors-per-topic", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kb-out", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train-local", help="train the per-mention model")
    p.add_argument("--kb", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-global", help="train the multi-turn model")
    p.add_argument("--kb", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--local-model", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("link", help="link a corpus and write decisions")
    p.add_argument("--kb", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--local-model", required=True)
    p.add_argument("--global-model")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("eval", help="score decisions against gold labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--decisions", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite value is refused where it is used; numpy's warnings only add noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InputFormatError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ModelConfigError, OSError) as exc:
        code = 3 if isinstance(exc, ModelConfigError) else 2
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
