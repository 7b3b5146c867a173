"""PGM image I/O: reads binary P5 and ASCII P2, writes P5; 8-bit, linear [0, 1] mapping."""

from __future__ import annotations

import re

import numpy as np

from .errors import MalformedInputError


# Four header tokens (magic, width, height, maxval), each after any run of
# whitespace and "#" comments; a missing token matches as empty.
_HEADER = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)" * 4)
_COMMENT = re.compile(rb"#[^\r\n]*")


def _integers(tokens, what: str) -> list[int]:
    """Tokens of plain ASCII digits as ints: int() would also take "+20", "-0" and "2_55",
    and refuses more digits than sys.get_int_max_str_digits()."""
    bad = [tok for tok in tokens if not tok.isdigit()]
    if bad:
        raise MalformedInputError(f"non-integer {what} {bad[0]!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        longest = max(map(len, tokens))
        raise MalformedInputError(f"{what} of {longest} digits is too long to read") from None


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM to a read-only (height, width) array; pixel v maps to v / maxval."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read PGM from {path}: {exc}") from exc
    magic, *header = (head := _HEADER.match(data)).groups()
    if not magic:
        raise MalformedInputError("empty PGM file")
    if magic not in (b"P2", b"P5"):
        raise MalformedInputError(f"not a PGM file (magic {magic!r})")
    if not all(header):
        raise MalformedInputError("truncated PGM header")
    width, height, maxval = _integers(header, "PGM header field")
    if width < 1 or height < 1:
        raise MalformedInputError(f"bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise MalformedInputError(f"unsupported PGM maxval {maxval} (need 1..255)")
    count = width * height
    if magic == b"P5":
        # one whitespace byte after maxval; with nothing after it, the payload is short
        sep, raw = data[head.end() : head.end() + 1], data[head.end() + 1 :]
        if sep and not sep.isspace():
            raise MalformedInputError(f"P5 maxval is followed by {sep!r}, not a whitespace byte")
        if len(raw) != count:
            raise MalformedInputError(f"P5 payload has {len(raw)} bytes for {width}x{height}")
        vals = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        # counted before anything sized by the header is allocated
        pixels = _COMMENT.sub(b"", data[head.end() :]).split()
        if len(pixels) != count:
            raise MalformedInputError(f"P2 payload has {len(pixels)} pixels for {width}x{height}")
        try:
            vals = np.array(_integers(pixels, "P2 pixel"), dtype=np.float64)
        except OverflowError:  # beyond the float range, so above maxval
            raise MalformedInputError("P2 pixel outside [0, maxval]") from None
    if np.any(vals < 0) or np.any(vals > maxval):
        raise MalformedInputError(f"{magic.decode()} pixel outside [0, maxval]")
    img = (vals / maxval).reshape(height, width)
    img.setflags(write=False)
    return img


def _raster(pixels) -> np.ndarray:
    """An image: a read-only, non-empty, finite 2-D float64 array; values nominally in [0, 1].

    A writable array is copied, so the caller's stays writable.
    """
    a = np.asarray(pixels, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise MalformedInputError(f"image must be a 2D raster, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MalformedInputError("image pixels must be finite")
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def quantize(img: np.ndarray) -> np.ndarray:
    """Clip an image (`_raster`) to [0, 1] and quantize to uint8, rounding half up."""
    clipped = np.clip(_raster(img), 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write an image (`_raster`) as an 8-bit binary P5 PGM, maxval 255."""
    q = quantize(img)
    height, width = q.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(q.tobytes())
