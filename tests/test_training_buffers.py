"""Training reuses one gradient vector per model across steps, and every
backward adds into it: against a reference where every backward call fills
a new zero vector that is then added into the caller's, parameters and logs
are bitwise equal."""
from dataclasses import replace

import numpy as np
import pytest

from mrclink import local, multiturn, synth
from mrclink.config import EncoderSettings, RunConfig
from mrclink.corpus import AnnotatedText


def join_texts(texts, sizes=(3, 4, 5)):
    """Join consecutive texts, spans offset, until each holds at least the
    next mention count of ``sizes`` (cycled); a short remainder is dropped."""
    out, parts, want = [], [], 0
    for text in texts:
        parts.append(text)
        if sum(len(p.mentions) for p in parts) < sizes[want % len(sizes)]:
            continue
        pieces, mentions, offset = [], [], 0
        for p in parts:
            pieces.append(p.text)
            mentions.extend(replace(m, start=m.start + offset, end=m.end + offset) for m in p.mentions)
            offset += len(p.text) + 1
        out.append(AnnotatedText(" ".join(pieces), tuple(mentions)))
        parts, want = [], want + 1
    return out


@pytest.fixture(scope="module")
def joined_world():
    world = synth.generate_synthetic_world(synth.SynthSpec(n_entities=60, n_train_texts=40, n_test_texts=4, seed=1))
    corpus = join_texts(world.train)
    cfg = RunConfig(
        encoder=EncoderSettings(d=8, n_layers=1, n_heads=2),
        max_len_local=96,
        max_len_global=128,
        lr_local=2e-3,
        lr_global=1e-3,
        epochs_local=1,
        epochs_global=1,
    )
    assert all(3 <= len(t.mentions) <= 6 for t in corpus) and len(corpus) >= 8
    return world.kb, corpus, cfg


def allocating(backward):
    """``backward`` run into a new zero vector on every call, then added
    into the caller's trailing ``grads`` views."""

    def run(model, *args):
        *args, grads = args
        fresh = model.views(np.zeros_like(model.flat))
        result = backward(model, *args, fresh)
        for prefix, group in fresh.items():
            for name, g in group.items():
                grads[prefix][name] += g
        return result

    return run


def spying(backward, seen):
    """``backward`` unchanged, recording the trailing ``grads`` views of every call."""

    def run(*args):
        seen.append(args[-1])
        return backward(*args)

    return run


def assert_reuse_is_bitwise(monkeypatch, module, name, train):
    original = getattr(module, name)
    seen = []
    monkeypatch.setattr(module, name, spying(original, seen))
    shipped, shipped_logs = train()
    assert len(seen) > 1 and all(grads is seen[0] for grads in seen)
    monkeypatch.setattr(module, name, allocating(original))
    fresh, fresh_logs = train()
    assert shipped.flat.tobytes() == fresh.flat.tobytes()
    assert shipped_logs == fresh_logs


def test_train_local_reuses_its_gradient_vector_bitwise(joined_world, monkeypatch):
    kb, corpus, cfg = joined_world
    assert_reuse_is_bitwise(monkeypatch, local, "local_backward", lambda: local.train_local(corpus, kb, cfg))


def test_train_global_reuses_its_gradient_vector_bitwise(joined_world, monkeypatch):
    kb, corpus, cfg = joined_world
    lm, _ = local.train_local(corpus, kb, cfg)
    assert_reuse_is_bitwise(
        monkeypatch, multiturn, "global_backward", lambda: multiturn.train_global(corpus, kb, lm, cfg)
    )
