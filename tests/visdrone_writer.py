"""Ground truth written as VisDrone annotation text, for tests that go
through ``yolokit eval`` or ``parse_visdrone``."""


def format_visdrone(boxes) -> str:
    """Inverse of ``parse_visdrone`` (score 1, truncation/occlusion 0) for
    ``GroundTruthBox`` objects.

    Each value is written as the repr of a Python float, which reads back
    as the same float. The centre read back is the written left edge plus
    half the extent, so off the pixel grid it can differ in the last bits.
    """
    lines = []
    for gt in boxes:
        category = 0 if gt.ignore else gt.class_index + 1
        b = gt.box
        left, top, w, h = (float(v) for v in (b.x - b.w / 2, b.y - b.h / 2, b.w, b.h))
        lines.append(f"{left!r},{top!r},{w!r},{h!r},1,{category},0,0")
    return "\n".join(lines) + ("\n" if lines else "")
