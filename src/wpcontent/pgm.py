"""PGM image I/O: binary P5 and ASCII P2, 8-bit, linear [0, 1] mapping."""

from __future__ import annotations

import numpy as np

from .errors import MalformedInputError
from .denoise import ImageBuffer


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
            j += 1
        yield data[i:j], j
        i = j


def read_pgm(path) -> ImageBuffer:
    """Read a P2 or P5 PGM; pixel values map to [0, 1] by v / maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise MalformedInputError("empty PGM file") from None
    if magic not in (b"P2", b"P5"):
        raise MalformedInputError(f"not a PGM file (magic {magic!r})")
    header = []
    end = 0
    try:
        while len(header) < 3:
            tok, end = next(toks)
            header.append(tok)
    except StopIteration:
        raise MalformedInputError("truncated PGM header") from None
    try:
        width, height, maxval = (int(t) for t in header)
    except ValueError:
        raise MalformedInputError(f"non-integer PGM header fields {header}") from None
    if width < 1 or height < 1:
        raise MalformedInputError(f"bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise MalformedInputError(f"unsupported PGM maxval {maxval} (need 1..255)")
    count = width * height
    if magic == b"P5":
        start = end + 1  # single whitespace byte after maxval
        raw = data[start:]
        if len(raw) != count:
            raise MalformedInputError(f"P5 payload has {len(raw)} bytes for {count} pixels")
        vals = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        pixels = [tok for tok, _ in toks]  # counted before anything sized by the header
        if len(pixels) != count:
            raise MalformedInputError(f"P2 payload has {len(pixels)} pixels for {count}")
        try:
            vals = np.array([int(tok) for tok in pixels], dtype=np.float64)
        except ValueError as exc:
            raise MalformedInputError(f"non-integer P2 pixel: {exc}") from None
        if np.any(vals < 0) or np.any(vals > maxval):
            raise MalformedInputError("P2 pixel outside [0, maxval]")
    return ImageBuffer((vals / maxval).reshape(height, width))


def quantize(img: ImageBuffer) -> np.ndarray:
    """Clip to [0, 1] and quantize to uint8, rounding half up."""
    clipped = np.clip(img.pixels, 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def write_pgm(path, img: ImageBuffer, binary: bool = True) -> None:
    """Write 8-bit PGM (P5 by default, P2 when binary=False), maxval 255."""
    q = quantize(img)
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(q.tobytes())
        else:
            for row in q:
                fh.write((" ".join(str(int(v)) for v in row) + "\n").encode("ascii"))
