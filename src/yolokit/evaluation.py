"""Detection quality metrics: matching, precision/recall, AP and mAP at IoU 0.5.

Ground truth arrives as VisDrone-style per-image annotation files
(``x,y,w,h,score,category,truncation,occlusion`` with top-left corners);
predictions as one text file with ``image_id class score x y w h`` lines
(center-based, pixels). Matching is greedy by descending score per (image,
class) pair, one numpy IoU grid per pair; detections that only overlap
ignore-flagged regions are discarded from both counts, with one IoU grid
per image against its regions. AP uses all-point right-envelope
interpolation and mAP averages the classes that actually appear in the
ground truth.

Both text formats are read by one block reader: it reads a text or a text
stream (an open file or a pipe) a chunk at a time, each block of lines is
checked and converted column by column, and a bad block is bisected to its
first bad line. Each block's columns are appended to columns grown in
place, so neither the whole text nor all its lines are held. They become
columns, :class:`~yolokit.detect.Detections` and :class:`GroundTruth`, the
one form the writer, the matcher and the evaluator take; the toy trainer's
labels are a :class:`GroundTruth` too. The matcher builds its corner tables
for one block of whole images at a time and returns the kept rows'
positions with their labels, not a copy of their columns; PR curves stay
float64 arrays, written to their files in blocks of lines, so eval's memory
scales with its columns.

Everything is deterministic under input shuffling: equal scores are ordered
by image id, then box coordinates, lexicographically.
"""

from __future__ import annotations

import io
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .cfg import check_num_classes
from .detect import Box, Detections, check_names, corner_table, iou_grid
from .errors import AnnotationError, ValidationError, undecodable

VISDRONE_CLASS_NAMES = (
    "pedestrian",
    "people",
    "bicycle",
    "car",
    "van",
    "truck",
    "tricycle",
    "awning-tricycle",
    "bus",
    "motor",
)

_IGNORED_CATEGORIES = (0, 11)  # ignored regions / others


@dataclass(frozen=True)
class GroundTruthBox:
    image_id: str
    class_index: int  # -1 on ignore-flagged boxes
    box: Box
    ignore: bool = False


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Ground-truth boxes as columns, the evaluator's form of them.

    As in :class:`~yolokit.detect.Detections`: ``names`` holds the sorted
    unique image ids and ``image`` each row's position in it; ``class_index``
    is int64 (-1 on the ignore regions read from annotation files),
    ``ignore`` flags the ignore regions and ``x``, ``y``, ``w``, ``h`` are
    float64 center-based boxes in pixels.
    """

    names: tuple[str, ...]
    image: np.ndarray
    class_index: np.ndarray
    ignore: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        check_names(self.names)

    @classmethod
    def of(cls, ground_truth) -> GroundTruth:
        """``ground_truth`` itself when it is columnar, else the columns of its
        boxes: :func:`evaluate` also takes the list of them that perfbench's
        ``checks.check_evaluator_oracle`` gives it and its oracle."""
        if isinstance(ground_truth, GroundTruth):
            return ground_truth
        names = sorted({g.image_id for g in ground_truth})
        code = {name: k for k, name in enumerate(names)}
        table = np.array([
            (code[g.image_id], g.class_index, g.ignore, g.box.x, g.box.y, g.box.w, g.box.h)
            for g in ground_truth
        ], dtype=np.float64).reshape(-1, 7).T
        image, classes, ignore, x, y, w, h = table
        return cls(tuple(names), image.astype(np.int64), classes.astype(np.int64),
                   ignore != 0, x, y, w, h)


# Lines read, or PR-curve lines written, per block. Any size gives the same
# result; a block's tokens are alive at once, so a small one bounds the
# memory they take.
PARSE_BLOCK_LINES = 1 << 12

# Characters read from a text stream at a time; any size gives the same lines.
READ_CHUNK_CHARS = 1 << 16

# Where ``str.splitlines`` ends a line; "\r\n" ends one line.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")

# Grouped detections matched per block of whole images. Any size gives the
# same labels; a block's corner table is alive at once, so a small one bounds
# the memory it takes.
MATCH_BLOCK = 1 << 12

_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _column(convert, dtype, tokens: list[str]) -> np.ndarray:
    """``tokens`` read with ``convert`` (``int`` or ``float``) into one array.

    A ValueError names the first bad token stripped, as a reader that strips
    each field sees it: ``str.strip`` also drops \\x1c-\\x1f, which ``int``
    and ``float`` refuse, so only the stripped tokens give the loop's verdict.
    """
    try:
        return np.fromiter(map(convert, tokens), dtype, len(tokens))
    except ValueError:
        return np.fromiter(map(convert, map(str.strip, tokens)), dtype, len(tokens))


def _beyond_int64(tokens: list[str]) -> int:
    """The first of ``tokens`` that reads as an int outside int64."""
    return next(v for v in map(int, map(str.strip, tokens)) if not _INT64_MIN <= v <= _INT64_MAX)


def _check_finite(names, columns) -> None:
    for name, column in zip(names, columns):
        bad = ~np.isfinite(column)
        if bad.any():
            raise AnnotationError(f"non-finite {name} {float(column[bad][0])}")


def _check_extents(w: np.ndarray, h: np.ndarray) -> None:
    bad = (w <= 0) | (h <= 0)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise AnnotationError(f"non-positive box extent {float(w[k])}x{float(h[k])}")


def _visdrone_columns(lines: list[str]):
    """(class, ignore, center x, center y, w, h) of annotation lines; blank lines are skipped.

    Raises AnnotationError, without a line number, if any line is bad; on a
    one-line block its message is that line's first failing check. The
    checks, in order: 8 comma-separated fields, float x, y, w, h and an int
    category (``float``/``int`` of the stripped field), finite values,
    positive extents and a category in 0..11. Categories 0 and 11 are
    ignore regions (class -1), 1..10 the classes 0..9.
    """
    counts = set(map(str.count, lines, repeat(",")))
    if counts != {7}:
        lines = list(filter(str.strip, lines))
        counts = set(map(str.count, lines, repeat(",")))
        if counts - {7}:
            raise AnnotationError(f"expected 8 comma-separated fields, got {min(counts - {7}) + 1}")
    # 7 commas a line, and one between lines: 8 fields a line, in turn
    fields = ",".join(lines).split(",") if lines else []
    try:
        x, y, w, h = (_column(float, np.float64, fields[k::8]) for k in range(4))
        category = _column(int, np.int64, fields[5::8])
    except ValueError as exc:
        raise AnnotationError(str(exc)) from None
    except OverflowError:  # a valid int beyond int64; out of range, the last check
        category = None
    _check_finite("xywh", (x, y, w, h))
    _check_extents(w, h)
    if category is None:
        raise AnnotationError(f"category {_beyond_int64(fields[5::8])} outside 0..11")
    ignore = np.isin(category, _IGNORED_CATEGORIES)
    bad = ~ignore & ((category < 1) | (category > 10))
    if bad.any():
        raise AnnotationError(f"category {int(category[bad][0])} outside 0..11")
    return np.where(ignore, -1, category - 1), ignore, x + w / 2, y + h / 2, w, h


def _prediction_columns(lines: list[str]):
    """(image ids, class, score, x, y, w, h) of prediction lines; blank lines are skipped.

    Raises AnnotationError, without a line number, if any line is bad; on a
    one-line block its message is that line's first failing check. The
    checks, in order: 7 fields, an int class and float values
    (``int``/``float`` semantics), a class in 0..2**63-1, finite values, a
    score in [0, 1] and positive extents.
    """
    sizes = set(map(len, map(str.split, lines)))
    if sizes - {0, 7}:
        raise AnnotationError(f"expected 7 space-separated fields, got {min(sizes - {0, 7})}")
    # a space between lines joins no tokens: each line's tokens in turn
    tokens = " ".join(lines).split()
    try:
        cls = _column(int, np.int64, tokens[1::7])
    except OverflowError:  # a valid int beyond int64; reported after the floats parse
        cls = None
    except ValueError as exc:
        raise AnnotationError(str(exc)) from None
    try:
        values = [_column(float, np.float64, tokens[k::7]) for k in range(2, 7)]
    except ValueError as exc:
        raise AnnotationError(str(exc)) from None
    if cls is None:
        big = _beyond_int64(tokens[1::7])
        raise AnnotationError(f"negative class index {big}" if big < 0
                              else f"class index {big} too large")
    if (cls < 0).any():
        raise AnnotationError(f"negative class index {cls[cls < 0][0]}")
    _check_finite(("score", "x", "y", "w", "h"), values)
    score, x, y, w, h = values
    bad = (score < 0) | (score > 1)
    if bad.any():
        raise AnnotationError(f"score {float(score[bad][0])} outside [0, 1]")
    _check_extents(w, h)
    return tokens[0::7], cls, score, x, y, w, h


def _parse_block(columns_of, lines: list[str], first_line: int, path):
    """``columns_of(lines)``, with the first bad line's number (and ``path``) on errors.

    A bad block is bisected to its first bad line, whose message is the
    checks' verdict on that line alone.
    """
    try:
        return columns_of(lines)
    except AnnotationError:
        pass
    lo, hi = 0, len(lines)  # lines[lo:hi] holds the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            columns_of(lines[lo:mid])
            lo = mid
        except AnnotationError:
            hi = mid
    try:
        columns_of(lines[lo:hi])
    except AnnotationError as exc:
        raise AnnotationError(str(exc), first_line + lo, path) from None
    raise AssertionError("a bad block without a bad line")


def _line_lists(stream):
    """The lines of a text stream, split as ``str.splitlines`` splits its whole
    text, in one list per chunk of ``READ_CHUNK_CHARS`` characters read.

    The text after a chunk's last line break waits for the next break, and so
    does a line that ends the chunk with "\r": the next chunk may start with
    the "\n" of its "\r\n".
    """
    pieces = []  # the text after the last whole line
    while chunk := stream.read(READ_CHUNK_CHARS):
        pieces.append(chunk)
        if not _LINE_BREAK.search(chunk):
            continue
        text = "".join(pieces)
        lines = text.splitlines()
        if text[-1] not in _LINE_BREAKS:
            pieces = [lines.pop()]
        elif text[-1] == "\r":
            pieces = [lines.pop() + "\r"]
        else:
            pieces = []
        yield lines
    if pieces:
        yield "".join(pieces).splitlines()


def _read_blocks(source, columns_of):
    """``columns_of`` of each block of ``PARSE_BLOCK_LINES`` lines of ``source``, in turn.

    ``source`` is a text or a text stream, read a chunk at a time (see
    :func:`_line_lists`), so neither the whole text nor all its lines are
    held. Errors name a stream's ``name``, the file it reads. Bytes that do
    not decode raise AnnotationError at the line the reader had reached,
    once the lines before it are checked.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    path = getattr(stream, "name", None)
    pending, first = [], 1  # lines read and not yet parsed; the first one's number
    try:
        for lines in _line_lists(stream):
            pending += lines
            while len(pending) >= PARSE_BLOCK_LINES:
                yield _parse_block(columns_of, pending[:PARSE_BLOCK_LINES], first, path)
                del pending[:PARSE_BLOCK_LINES]
                first += PARSE_BLOCK_LINES
    except UnicodeDecodeError as exc:
        if pending:
            yield _parse_block(columns_of, pending, first, path)
        raise AnnotationError(f"{undecodable(exc)} (at or after this line)", first + len(pending),
                              path) from None
    if pending:
        yield _parse_block(columns_of, pending, first, path)


class _Table:
    """Columns that blocks of rows are appended to, each grown in place by an
    eighth, so a table of n rows never holds much more than n."""

    def __init__(self, *dtypes):
        self.columns = [np.empty(0, dtype) for dtype in dtypes]
        self.rows = 0

    def append(self, *parts) -> None:
        end = self.rows + len(parts[0])
        if end > len(self.columns[0]):
            capacity = max(end, len(self.columns[0]) * 9 // 8)
            for column in self.columns:
                column.resize(capacity, refcheck=False)  # only this table sees them
        for column, part in zip(self.columns, parts):
            column[self.rows : end] = part
        self.rows = end

    def finish(self) -> list[np.ndarray]:
        """The columns, cut to the rows appended."""
        for column in self.columns:
            column.resize(self.rows, refcheck=False)
        return self.columns


def _ground_truth_table() -> _Table:
    """Image code, then :func:`_visdrone_columns`' columns."""
    return _Table(np.int64, np.int64, bool, np.float64, np.float64, np.float64, np.float64)


def _read_visdrone(source, table: _Table, code: int) -> None:
    """Append the boxes of one annotation text or stream to ``table``, under image ``code``."""
    for columns in _read_blocks(source, _visdrone_columns):
        table.append(np.full(len(columns[0]), code, dtype=np.int64), *columns)


def parse_visdrone(text: str, image_id: str) -> list[GroundTruthBox]:
    """Parse one annotation file's text into ground-truth boxes, the rows
    perfbench's ``checks.check_evaluator_oracle`` joins into one list."""
    table = _ground_truth_table()
    _read_visdrone(text, table, 0)
    _, classes, ignore, x, y, w, h = (column.tolist() for column in table.finish())
    return [GroundTruthBox(image_id, cls, Box(*box), flag)
            for cls, flag, *box in zip(classes, ignore, x, y, w, h)]


def annotation_files(directory) -> list[str]:
    """Names of a ground-truth directory's annotation files: every ``*.txt``, sorted."""
    return sorted(name for name in os.listdir(directory) if name.endswith(".txt"))


def load_ground_truth(directory) -> GroundTruth:
    """Read every ``*.txt`` in a directory; the file stem is the image id.

    Each file is read as a stream; an error names the file and its line.
    """
    files = annotation_files(directory)
    names = sorted(name[:-4] for name in files)
    code = {name: k for k, name in enumerate(names)}
    table = _ground_truth_table()
    for name in files:
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            _read_visdrone(fh, table, code[name[:-4]])
    return GroundTruth(tuple(names), *table.finish())


def parse_predictions(source) -> Detections:
    """Parse ``image_id class_index score x y w h`` lines into columns.

    ``source`` is the text or a text stream, such as an open file or pipe,
    read in blocks. Values are read with Python's ``int`` and ``float``;
    blank lines are skipped. A bad line raises :class:`AnnotationError`
    naming its line number and its first failing check (see
    :func:`_prediction_columns`), and a stream's file.
    """
    first_seen: dict[str, int] = {}  # image id -> code in order of appearance
    table = _Table(np.int64, np.int64, *[np.float64] * 5)
    for ids, *columns in _read_blocks(source, _prediction_columns):
        for image_id in dict.fromkeys(ids):
            first_seen.setdefault(image_id, len(first_seen))
        table.append(np.fromiter(map(first_seen.__getitem__, ids), np.int64, len(ids)),
                     *columns)
    names = sorted(first_seen)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[first_seen[name] for name in names]] = np.arange(len(names))
    image, *columns = table.finish()
    return Detections(tuple(names), rank[image], *columns)


def check_image_id(image_id: str) -> None:
    """An image id is one token of a prediction line, as :func:`parse_predictions`
    splits it: a ValidationError if it is empty or holds whitespace."""
    if image_id.split() != [image_id]:
        raise ValidationError(f"image id {image_id!r} is empty or holds whitespace")


def format_predictions(detections: Detections) -> str:
    """One ``image_id class_index score x y w h`` line per detection.

    Each image id must pass :func:`check_image_id`, so every line parses
    back. Values are written as Python ``int``/``float`` reprs, so numpy
    scalars produce the same text as the Python numbers they hold.
    """
    for image_id in detections.names:
        check_image_id(image_id)
    lines = [
        f"{image_id} {cls} {score!r} {x!r} {y!r} {w!r} {h!r}"
        for image_id, cls, score, x, y, w, h in detections.rows()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True, eq=False)
class Labeled:
    """The detections :func:`match` kept, in canonical order, with their TP flags.

    Holds the matched :class:`Detections` themselves (``source``, not a
    copy), the positions of the kept rows in it in canonical order
    (``rows``, int64) and each kept row's TP flag (``is_tp``), so labeling
    copies no column. :attr:`detections` builds the kept rows' table when
    asked.
    """

    source: Detections
    rows: np.ndarray
    is_tp: np.ndarray

    @property
    def detections(self) -> Detections:
        """The kept rows, in canonical order, as a table of their own."""
        return self.source.take(self.rows)

    def __len__(self) -> int:
        return len(self.is_tp)

    def __iter__(self):
        """``(row, is_tp)`` pairs, each row a :meth:`Detections.rows` tuple:
        how perfbench's ``tracing._match_counts`` reads the labels."""
        return zip(self.detections.rows(), self.is_tp.tolist())


def _recode(names, merged) -> np.ndarray:
    """Position in ``merged`` of each of ``names``."""
    code = {name: k for k, name in enumerate(merged)}
    return np.array([code[name] for name in names], dtype=np.int64)


def _canonical_order(dets: Detections) -> np.ndarray:
    """Rows by (score desc, image id, x, y, w, h, class), input order on full ties.

    One stable sort by score, then a sort of only the rows whose score is
    tied with a neighbour's, which stay within their run of equal scores:
    one stable sort per key, from the last key to the score, as ``lexsort``
    orders them, so one key is gathered at a time.
    """
    neg = -dets.score
    order = np.argsort(neg, kind="stable")
    neg.sort()  # the scores in that order: equal values are alike wherever they sit
    tie = (neg[1:] == neg[:-1]) | np.isnan(neg[:-1])  # NaNs sort last, as equals
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = tie
    tied[:-1] |= tie
    pos = np.flatnonzero(tied)
    del neg, tie, tied  # before the tied rows' keys are gathered
    rows = order[pos]
    for column in (dets.class_index, dets.h, dets.w, dets.y, dets.x, dets.image):
        rows = rows[np.argsort(column[rows], kind="stable")]
    rows = rows[np.argsort(-dets.score[rows], kind="stable")]
    order[pos] = rows
    return order


def _groups(dets: Detections, names, classes):
    """The rows grouped by (image, class), canonical order kept inside each group.

    Returns (order, by_group, starts, keys): the canonical order, the
    positions in it of the grouped rows, the position in ``by_group`` where
    each group starts and its key, image code in ``names`` times
    ``len(classes)`` plus class position in ``classes``. The groups of one
    image are adjacent.
    """
    order = _canonical_order(dets)
    key = _recode(dets.names, names)[dets.image]
    key *= len(classes)
    key += np.searchsorted(classes, dets.class_index)
    key = key[order]
    by_group = np.argsort(key, kind="stable")
    key.sort()  # the keys in grouped order
    first = np.ones(len(key), dtype=bool)  # each group's first row
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return order, by_group, starts, key[starts]


def _image_blocks(image_starts: list[int], n: int) -> list[int]:
    """Cuts of ``n`` grouped rows into blocks of whole images: each block ends
    at the first image start at least ``MATCH_BLOCK`` rows past its own."""
    bounds = [*image_starts, n]
    cuts = [0]
    while cuts[-1] < n:
        cuts.append(bounds[bisect_left(bounds, min(cuts[-1] + MATCH_BLOCK, n))])
    return cuts


def _truth_tables(truth: GroundTruth, names, classes):
    """The ground truth as the matcher reads it.

    Returns (box_key, boxes, region_img, regions, gt_counts): the group key
    of each matchable box (as :func:`_groups` keys rows) and its corner
    table, sorted by (key, x, y, w, h); the image code in ``names`` of each
    ignore region and its corner table, sorted by image; each class's count
    of matchable boxes.
    """
    n_cls = len(classes)
    gt_img = _recode(truth.names, names)[truth.image]
    gt_cls = np.searchsorted(classes, truth.class_index)
    real = np.flatnonzero(~truth.ignore)
    box_key = gt_img[real] * n_cls + gt_cls[real]
    by_box = np.lexsort((truth.h[real], truth.w[real], truth.y[real], truth.x[real], box_key))
    real, box_key = real[by_box], box_key[by_box]
    boxes = corner_table(truth.x[real], truth.y[real], truth.w[real], truth.h[real])
    regions = np.flatnonzero(truth.ignore)
    regions = regions[np.argsort(gt_img[regions], kind="stable")]
    region_img = gt_img[regions]
    regions = corner_table(truth.x[regions], truth.y[regions], truth.w[regions],
                           truth.h[regions])
    counts = np.bincount(gt_cls[real], minlength=n_cls)
    gt_counts = {cls: count for cls, count in zip(classes.tolist(), counts.tolist()) if count}
    return box_key, boxes, region_img, regions, gt_counts


def _match_rows(dets: Detections, truth: GroundTruth, iou_threshold: float):
    """:func:`match` on columns: (kept rows in canonical order, their TP flags, gt_counts)."""
    names = sorted(set(dets.names).union(truth.names))
    classes = np.union1d(np.unique(dets.class_index), np.unique(truth.class_index))
    n_cls = len(classes)
    order, by_group, starts, group_key = _groups(dets, names, classes)
    box_key, boxes, region_img, regions, gt_counts = _truth_tables(truth, names, classes)
    n = len(dets)
    ends = np.append(starts, n)[1:]
    # per (image, class) group with boxes: its rows and its boxes
    box_lo = np.searchsorted(box_key, group_key)
    box_hi = np.searchsorted(box_key, group_key, side="right")
    with_boxes = box_hi > box_lo
    box_groups = np.stack((starts, ends, box_lo, box_hi), axis=1)[with_boxes]
    # per image with detections and regions: its rows and its regions
    group_img = group_key // n_cls
    first = np.diff(group_img, prepend=-1) != 0
    image_lo, images = starts[first], group_img[first]
    r_lo = np.searchsorted(region_img, images)
    r_hi = np.searchsorted(region_img, images, side="right")
    with_regions = r_hi > r_lo
    region_images = np.stack((image_lo, np.append(image_lo, n)[1:], r_lo, r_hi),
                             axis=1)[with_regions]

    # one block of whole images at a time: its rows' corner table, then
    # greedy matching on one IoU grid per group, then one grid per image
    # against its regions, which carry no class; the labels go to the rows
    cuts = _image_blocks(image_lo.tolist(), n)
    blocks = zip(cuts, cuts[1:],
                 np.split(box_groups, np.searchsorted(box_groups[:, 0], cuts[1:-1])),
                 np.split(region_images, np.searchsorted(region_images[:, 0], cuts[1:-1])))
    tp = np.zeros(n, dtype=bool)
    keep = np.ones(n, dtype=bool)
    for lo, hi, block_groups, block_images in blocks:
        rows = order[by_group[lo:hi]]
        corners = corner_table(dets.x[rows], dets.y[rows], dets.w[rows], dets.h[rows])
        is_tp = np.zeros(hi - lo, dtype=bool)
        for g_lo, g_hi, b_lo, b_hi in (block_groups - (lo, lo, 0, 0)).tolist():
            grid = iou_grid(corners[:, g_lo:g_hi, None], boxes[:, b_lo:b_hi])
            # a row below the threshold on every box can never match
            for row in np.flatnonzero(grid.max(axis=1) >= iou_threshold).tolist():
                best = grid[row].argmax()  # first maximum, as in the loop
                if grid[row, best] >= iou_threshold:
                    is_tp[g_lo + row] = True
                    grid[:, best] = -1.0  # consumed
        tp[rows] = is_tp
        for d_lo, d_hi, r_lo, r_hi in (block_images - (lo, lo, 0, 0)).tolist():
            overlap = iou_grid(corners[:, d_lo:d_hi, None], regions[:, r_lo:r_hi])
            hit = overlap.max(axis=1) >= iou_threshold
            keep[rows[d_lo:d_hi]] = ~hit | is_tp[d_lo:d_hi]
    del by_group  # before the kept rows are gathered
    kept = order[keep[order]]
    return kept, tp[kept], gt_counts


def check_iou_threshold(iou_threshold: float) -> None:
    """The matching IoU threshold's range, (0, 1]: a ValidationError outside it."""
    if not 0 < iou_threshold <= 1:
        raise ValidationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def check_score_threshold(score_threshold: float | None) -> None:
    """The evaluation confidence cut's range, [0, 1] or None (no cut): a
    ValidationError outside it."""
    if score_threshold is not None and not 0 <= score_threshold <= 1:
        raise ValidationError(f"score_threshold must be in [0, 1], got {score_threshold}")


def match(detections: Detections, ground_truth: GroundTruth,
          iou_threshold: float = 0.5) -> tuple[Labeled, dict]:
    """Label every detection TP/FP (or discard it) against the ground truth.

    Takes :class:`Detections` and a :class:`GroundTruth`. Returns
    (labeled, gt_counts): ``labeled`` is the :class:`Labeled` detections in
    canonical order with discarded ones removed; ``gt_counts`` maps class
    index to its non-ignored ground-truth box count.

    Canonical order is (score desc, image id, x, y, w, h, class), input
    order on full ties. Per (image, class) pair, each detection in that
    order takes the unmatched box of highest IoU, the first in (x, y, w, h)
    order on ties; it is a TP if that IoU reaches the threshold. Otherwise
    it is discarded if it reaches the threshold with an ignore-flagged
    region of its image, else a FP. The rule is ``oracles.match_loop``'s,
    label for label.
    """
    check_iou_threshold(iou_threshold)
    kept, tp, gt_counts = _match_rows(detections, ground_truth, iou_threshold)
    return Labeled(detections, kept, tp), gt_counts


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """P = TP/(TP+FP), R = TP/(TP+FN); zero denominators yield 0."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r


def pr_curve(scores, is_tp, gt_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (recall, precision) points over descending score thresholds.

    ``scores`` and ``is_tp`` are one class's score and TP-flag columns in
    descending-score order. One point is produced per distinct score (tied
    detections enter the counts together), so the curve is a function of
    the threshold alone and does not depend on how ties were ordered. With
    no ground truth every recall is 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    tps = np.asarray(is_tp, dtype=bool)
    if not len(scores):
        return np.array([]), np.array([])
    cum_tp = np.cumsum(tps)
    cum_fp = np.cumsum(~tps)
    # last index of each tied-score run = counts with threshold at that score
    boundary = np.ones(len(scores), dtype=bool)
    boundary[:-1] = scores[:-1] != scores[1:]
    cum_tp = cum_tp[boundary]
    cum_fp = cum_fp[boundary]
    recalls = cum_tp / gt_count if gt_count else np.zeros_like(cum_tp, dtype=float)
    precisions = cum_tp / (cum_tp + cum_fp)
    return recalls, precisions


def average_precision(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """All-point interpolated AP of a :func:`pr_curve`.

    At each recall step the precision is the maximum precision attained at
    any recall at least that large (the right envelope of the PR curve).
    Returns a fraction in [0, 1]; 0 for an empty curve or one without
    ground truth, whose recalls never rise above 0.
    """
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    # each recall's step is up from the largest recall before it, or from 0
    reached = np.fmax.accumulate(np.concatenate(([0.0], recalls)))[:-1]
    step = recalls > reached
    # cumsum adds in order, as a running total does
    total = np.cumsum((recalls[step] - reached[step]) * envelope[step])
    return float(total[-1]) if len(total) else 0.0


@dataclass(eq=False)
class ClassResult:
    """One class's counts, AP and :func:`pr_curve`, as float64 arrays."""

    class_index: int
    ap: float  # fraction in [0, 1]
    tp: int
    fp: int
    fn: int
    gt_count: int
    recalls: np.ndarray = field(default_factory=lambda: np.zeros(0))
    precisions: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def ap_percent(self) -> float:
        return 100.0 * self.ap


@dataclass
class EvalReport:
    per_class: list[ClassResult]
    precision: float  # pooled over classes, at the upstream score threshold
    recall: float
    map_fraction: float
    score_threshold: float | None = None

    @property
    def map_percent(self) -> float:
        return 100.0 * self.map_fraction


def evaluate(detections: Detections, ground_truth, num_classes: int,
             iou_threshold: float = 0.5, score_threshold: float | None = None) -> EvalReport:
    """Full evaluation: per-class AP, pooled precision/recall, and mAP.

    Takes :class:`Detections`, and a :class:`GroundTruth` or a list of
    :class:`GroundTruthBox` (see :meth:`GroundTruth.of`).
    ``score_threshold`` only filters the detections (and is recorded in the
    report); pass None when the caller already applied its confidence cut.
    Classes with no ground-truth boxes report AP 0 and are excluded from the
    mAP mean.
    """
    check_num_classes(num_classes)
    check_score_threshold(score_threshold)
    truth = GroundTruth.of(ground_truth)
    bad = (detections.class_index < 0) | (detections.class_index >= num_classes)
    if bad.any():
        raise ValidationError(
            f"detection class {detections.class_index[bad][0]} outside 0..{num_classes - 1}"
        )
    bad = ~truth.ignore & ((truth.class_index < 0) | (truth.class_index >= num_classes))
    if bad.any():
        raise ValidationError(
            f"ground-truth class {truth.class_index[bad][0]} outside 0..{num_classes - 1}"
        )
    if score_threshold is not None:
        detections = detections.take(detections.score >= score_threshold)

    labeled, gt_counts = match(detections, truth, iou_threshold)
    # the curves need only the class, score and TP of the kept rows: the
    # rows split by class, each class keeping the score order
    classes = detections.class_index[labeled.rows]
    by_class = np.argsort(classes, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(classes, minlength=num_classes)).tolist()]
    del classes
    rows, flags = labeled.rows[by_class], labeled.is_tp[by_class]
    del labeled, by_class
    scores = detections.score[rows]
    del rows
    per_class = []
    for cls in range(num_classes):
        gt_count = gt_counts.get(cls, 0)
        tps = flags[bounds[cls] : bounds[cls + 1]]
        recalls, precisions = pr_curve(scores[bounds[cls] : bounds[cls + 1]], tps, gt_count)
        ap = average_precision(recalls, precisions)
        tp = int(tps.sum())
        per_class.append(
            ClassResult(cls, ap, tp, len(tps) - tp, gt_count - tp, gt_count, recalls, precisions)
        )

    total_tp = sum(c.tp for c in per_class)
    total_fp = sum(c.fp for c in per_class)
    total_fn = sum(c.fn for c in per_class)
    precision, recall = precision_recall(total_tp, total_fp, total_fn)
    with_gt = [c.ap for c in per_class if c.gt_count > 0]
    map_fraction = float(np.mean(with_gt)) if with_gt else 0.0
    return EvalReport(per_class, precision, recall, map_fraction, score_threshold)


def format_report_table(report: EvalReport) -> str:
    """Aligned plain-text table: one row per class, then the dataset summary.

    Ten classes are named ``VISDRONE_CLASS_NAMES``, any other count
    ``class0``, ``class1``, ...
    """
    if len(report.per_class) == len(VISDRONE_CLASS_NAMES):
        class_names = VISDRONE_CLASS_NAMES
    else:
        class_names = [f"class{c.class_index}" for c in report.per_class]
    name_w = max(len("Class"), *(len(n) for n in class_names)) if class_names else 5
    lines = [f"{'Class':<{name_w}}  {'AP50':>6}  {'TP':>6}  {'FP':>6}  {'FN':>6}"]
    for result, name in zip(report.per_class, class_names):
        lines.append(
            f"{name:<{name_w}}  {result.ap_percent:>6.1f}  {result.tp:>6}  "
            f"{result.fp:>6}  {result.fn:>6}"
        )
    threshold = (
        "as given" if report.score_threshold is None else f"{report.score_threshold:g}"
    )
    lines.append("")
    lines.append(
        f"Precision {100 * report.precision:.1f}  Recall {100 * report.recall:.1f}  "
        f"mAP50 {report.map_percent:.1f}  (confidence threshold: {threshold})"
    )
    return "\n".join(lines) + "\n"


def report_csv(report: EvalReport) -> str:
    lines = ["class,ap,tp,fp,fn"]
    for c in report.per_class:
        lines.append(f"{c.class_index},{c.ap_percent:.6f},{c.tp},{c.fp},{c.fn}")
    return "\n".join(lines) + "\n"


def _pr_curve_blocks(result: ClassResult):
    """A class's PR curve as CSV text in blocks of ``PARSE_BLOCK_LINES``
    lines: a ``recall,precision`` header, then one line of ``repr`` values
    per curve point. The recalls are finite and at least 0, so equal values
    have equal reprs (no -0.0 beside 0.0, no NaN)."""
    yield "recall,precision\n"
    # a recall is tp / gt_count, so a class has at most gt_count + 1
    # distinct ones, each formatted once
    text = {r: repr(r) for r in np.unique(result.recalls).tolist()}
    for lo in range(0, len(result.recalls), PARSE_BLOCK_LINES):
        points = zip(result.recalls[lo : lo + PARSE_BLOCK_LINES].tolist(),
                     result.precisions[lo : lo + PARSE_BLOCK_LINES].tolist())
        yield "".join([f"{text[r]},{p!r}\n" for r, p in points])


def report_file_names(num_classes: int) -> list[str]:
    """The files :func:`write_report_files` writes: the table, the CSV and
    one PR curve per class."""
    return ["report.txt", "report.csv", *(f"pr_class{k}.csv" for k in range(num_classes))]


def write_report_files(report: EvalReport, out_dir) -> None:
    """Emit report.txt, report.csv, and one PR-curve CSV per class."""
    os.makedirs(out_dir, exist_ok=True)
    texts = chain([[format_report_table(report)], [report_csv(report)]],
                  map(_pr_curve_blocks, report.per_class))
    for name, blocks in zip(report_file_names(len(report.per_class)), texts):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
