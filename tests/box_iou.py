"""The IoU of two ``Box`` rows, for tests that compare row objects."""

import numpy as np

from yolokit.detect import Box, corner_table, iou_grid


def box_iou(a: Box, b: Box) -> float:
    """IoU of two boxes: the kit's one kernel, ``iou_grid``, on their
    one-column corner tables."""
    ta, tb = (corner_table(*np.array([[box.x], [box.y], [box.w], [box.h]], dtype=np.float64))
              for box in (a, b))
    return float(iou_grid(ta, tb)[0])
