"""Desk-scale one-stage object-detection kit.

From-scratch numpy implementation of a multi-scale grid detector with a
pyramid-pooling neck: network definition parsing, binary weight IO, forward
and backward compute kernels, box decoding with NMS, the composite training
loss with a toy SGD trainer, and a precision/recall/AP/mAP evaluator.
"""

__version__ = "0.1.0"

from .cfg import ModelGraph, builtin_graph, graph_equal, parse_cfg, render_cfg, shape_check
from .detect import Box, Detection, Detections, LetterboxTransform, decode, letterbox, nms
from .errors import YoloKitError
from .evaluation import EvalReport, GroundTruthBox, evaluate, parse_visdrone
from .loss import assign_targets, sgd_step, total_loss, train_toy
from .network import HeadOutput, Network
from .ops import ConvParams, GradTape
from .weights import load_weights, random_init, save_weights

__all__ = [
    "Box",
    "ConvParams",
    "Detection",
    "Detections",
    "EvalReport",
    "GradTape",
    "GroundTruthBox",
    "HeadOutput",
    "LetterboxTransform",
    "ModelGraph",
    "Network",
    "YoloKitError",
    "assign_targets",
    "builtin_graph",
    "decode",
    "evaluate",
    "graph_equal",
    "letterbox",
    "load_weights",
    "nms",
    "parse_cfg",
    "parse_visdrone",
    "random_init",
    "render_cfg",
    "save_weights",
    "sgd_step",
    "shape_check",
    "total_loss",
    "train_toy",
]
