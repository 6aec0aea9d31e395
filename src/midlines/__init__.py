"""Middle-line representation of oriented boxes.

The package turns rotated rectangles into ordered pairs of middle lines and
back, rasterizes annotations into per-branch training target maps, decodes
such maps into detections with no top-K cap, and scores the results with a
clipping-based rotated IoU. The `midlines` console script drives the same
pieces from the command line.
"""

from midlines.decoder import Detection, Detections, decode
from midlines.encoder import Cells, TargetMaps, encode_image
from midlines.errors import (
    AllLinesMalformed,
    DegenerateBox,
    EmptyFile,
    KinkProximity,
    MidlinesError,
    NonBinaryGroundTruth,
    OutOfBounds,
    ShapeMismatch,
    UnknownClass,
)
from midlines.evaluation import EvalReport, evaluate, rotated_iou, rotated_iou_pairs
from midlines.geometry import (
    Boxes,
    BranchId,
    OrientedBox,
    Point2,
    box_to_midlines,
    midlines_to_box,
    rectangle,
)
from midlines.gradcheck import run_gradchecks
from midlines.ingest import (
    AnnotatedImage,
    TileSpec,
    load_ground_truth,
    parse_dota,
    parse_icdar,
    tile_image,
)
from midlines.losses import LossValue, LossWeights, total_loss

__version__ = "0.1.0"

__all__ = [
    "AllLinesMalformed",
    "AnnotatedImage",
    "Boxes",
    "BranchId",
    "Cells",
    "DegenerateBox",
    "Detection",
    "Detections",
    "EmptyFile",
    "EvalReport",
    "KinkProximity",
    "LossValue",
    "LossWeights",
    "MidlinesError",
    "NonBinaryGroundTruth",
    "OrientedBox",
    "OutOfBounds",
    "Point2",
    "ShapeMismatch",
    "TargetMaps",
    "TileSpec",
    "UnknownClass",
    "box_to_midlines",
    "decode",
    "encode_image",
    "evaluate",
    "load_ground_truth",
    "midlines_to_box",
    "parse_dota",
    "parse_icdar",
    "rectangle",
    "rotated_iou",
    "rotated_iou_pairs",
    "run_gradchecks",
    "tile_image",
    "total_loss",
    "__version__",
]
