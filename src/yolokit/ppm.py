"""Binary P6 PPM reading/writing and box rendering.

The only supported image codec: zero dependencies, bit-exact fixtures.
Images are exchanged as (3, H, W) float arrays with values in [0, 1]
(stored 8-bit, maxval 255).
"""

from __future__ import annotations

import numpy as np

from .detect import Detections, corner_table
from .errors import ValidationError

# Fixed 10-color class palette (RGB, 0-255), cycled for class indices >= 10.
PALETTE = (
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (170, 110, 40),
)

# Width in pixels of a rendered box outline.
OUTLINE_THICKNESS = 2

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        if data[pos : pos + 1] in _WHITESPACE:
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise ValidationError("truncated PPM header")
    return data[start:pos], pos


def parse_ppm(data: bytes) -> np.ndarray:
    """Decode P6 bytes into a (3, H, W) float64 array scaled to [0, 1]."""
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise ValidationError(f"not a binary P6 PPM (magic {magic!r})")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise ValidationError(f"bad PPM header token {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValidationError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise ValidationError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte separates the header from the raster
    expected = 3 * width * height
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise ValidationError(
            f"PPM raster truncated: expected {expected} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_ppm(fh.read())


def encode_ppm(image: np.ndarray) -> bytes:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValidationError(f"expected a (3, H, W) image, got shape {image.shape}")
    _, h, w = image.shape
    raster = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + raster.transpose(1, 2, 0).tobytes()


def write_ppm(path, image: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_ppm(image))


def render_detections(image: np.ndarray, detections) -> np.ndarray:
    """Return a copy of the image with class-colored outlines drawn on it.

    Takes :class:`~yolokit.detect.Detections` (or a list of ``Detection``).
    Each box's corners are rounded to pixels and clamped to the image, and
    its outline is ``OUTLINE_THICKNESS`` pixels wide; boxes are drawn in row
    order, so a later box paints over an earlier one.
    """
    canvas = np.array(image, copy=True)
    _, h, w = canvas.shape
    table = Detections.of(detections)
    with np.errstate(over="ignore"):  # in the area row, which is not drawn
        corners = corner_table(table.x, table.y, table.w, table.h)[:4]
    # clipping a pixel past the image before rounding keeps every clamped
    # pixel below, and the ints within int64
    limit = np.array([w, h, w, h], dtype=np.float64)[:, None]
    x1, y1, x2, y2 = np.rint(np.clip(corners, -1, limit)).astype(np.int64)
    x1, y1 = np.maximum(x1, 0), np.maximum(y1, 0)
    x2, y2 = np.minimum(x2, w - 1), np.minimum(y2, h - 1)
    colors = (np.array(PALETTE) / 255.0).astype(canvas.dtype)[:, :, None, None]
    t = OUTLINE_THICKNESS
    for left, top, right, bottom, cls in zip(
        x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist(),
        (table.class_index % len(PALETTE)).tolist(),
    ):
        if left > right or top > bottom:
            continue
        col = colors[cls]
        canvas[:, top : min(top + t, bottom + 1), left : right + 1] = col
        canvas[:, max(bottom - t + 1, top) : bottom + 1, left : right + 1] = col
        canvas[:, top : bottom + 1, left : min(left + t, right + 1)] = col
        canvas[:, top : bottom + 1, max(right - t + 1, left) : right + 1] = col
    return canvas
