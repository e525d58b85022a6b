"""Short-text entity linking.

Alias-dictionary candidate generation, multiple-choice local disambiguation
with a two-stage NIL verifier, gated multi-turn global disambiguation, and a
convex rear fusion of the two score vectors. Ships with a small trainable
reference encoder (exact analytic gradients) so the whole pipeline runs and
trains at desk scale.
"""

from .config import EncoderSettings, RunConfig
from .corpus import (
    AnnotatedText,
    Mention,
    Vocabulary,
    assemble_option_sequence,
    build_query,
    load_corpus,
    save_corpus,
    tokenize,
    update_query,
)
from .encoder import AdamState, EncoderConfig, adam_step, init_params
from .errors import InputFormatError, ModelConfigError, SequenceOverflowError
from .kb import (
    NIL,
    AliasIndex,
    CandidateSet,
    Entity,
    KnowledgeBase,
    build_index,
    generate_candidates,
    load_kb,
    normalize_surface,
    prior_baseline,
    save_kb,
)
from .local import (
    LocalModel,
    LocalScores,
    answer_loss,
    joint_local_loss,
    load_model,
    local_predict,
    nil_loss,
    nil_stage1,
    save_model,
    score_options,
    train_local,
)
from .multiturn import (
    AmbiguityRank,
    GlobalModel,
    GlobalScores,
    global_loss,
    global_score_mention,
    rank_mentions,
    run_multi_turn,
    train_global,
)
from .pipeline import (
    EvalReport,
    LinkDecision,
    evaluate,
    link_corpus,
    link_text,
    rear_fusion,
)
from .synth import SynthSpec, SynthWorld, generate_synthetic_world

__version__ = "0.1.0"
