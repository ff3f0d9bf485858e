"""maskaug: label-conditional masked-LM text augmentation, from scratch.

A small bidirectional transformer encoder is pretrained with a masked-LM
objective, fine-tuned into a label-conditional masked LM by reusing its
condition-embedding slot for class labels, and then used to grow labeled
text-classification datasets (and to rewrite sentences under the opposite
label). Downstream CNN/LSTM classifiers measure the benefit. Everything
runs on an in-package float64 autodiff kernel over numpy.
"""

from .augment import (
    AugmentationPolicy,
    AugmentReport,
    SynonymTable,
    augment_dataset,
    augment_sentence,
    sample_replacement,
    synonym_augment,
    synonym_augment_dataset,
)
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .classify import (
    Classifier,
    CnnConfig,
    EvalReport,
    RnnConfig,
    ab_experiment,
    evaluate,
    predict_proba,
    train_cnn,
    train_rnn,
)
from .encoder import (
    EncoderConfig,
    InputBatch,
    batch_from_examples,
    forward,
    init_params,
    load_encoder,
    mlm_distribution,
    mlm_distributions,
    save_encoder,
    swap_condition_table,
)
from .optim import AdamState, adam_step, init_adam
from .seeding import derive_rng, derive_seed
from .styletransfer import AttributionScores, attribute_words, transfer_style
from .tensor import Tensor
from .text import (
    Dataset,
    LabeledExample,
    ParseError,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    load_tsv,
    load_vocab,
    read_tsv,
    save_vocab,
    tokenize,
)
from .training import (
    IGNORE_ID,
    MaskPolicy,
    MaskedBatch,
    SkipExample,
    TrainConfig,
    TrainingError,
    finetune_cmlm,
    mask_tokens,
    pretrain_mlm,
)

__version__ = "0.1.0"
