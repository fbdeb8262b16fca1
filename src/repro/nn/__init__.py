"""NN substrate: numpy autograd, transformer layers, training loops.

Built for the Table 3 quantisation study: train sparse-attention
classifiers in float, run the attention on the SALO engine, optionally
finetune (quantisation-aware), and compare accuracy.
"""

from .attention import AttentionQuantizer, SparseMultiHeadAttention
from .autograd import Tensor, no_grad
from .data import PhraseTask, SentimentTask, ShapesTask
from .layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    Sequential,
)
from .model import EncoderBlock, TransformerClassifier
from .optim import Adam, clip_grad_norm, cross_entropy
from .training import TrainResult, evaluate_accuracy, train_classifier

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "FeedForward",
    "Sequential",
    "SparseMultiHeadAttention",
    "AttentionQuantizer",
    "EncoderBlock",
    "TransformerClassifier",
    "Adam",
    "cross_entropy",
    "clip_grad_norm",
    "SentimentTask",
    "PhraseTask",
    "ShapesTask",
    "TrainResult",
    "evaluate_accuracy",
    "train_classifier",
]
