"""The four benchmark workloads: seeded inputs, `wpc` arguments, and output checks.

Each workload makes its input files from the seed, names the `wpc`
arguments of one job, computes the expected results from its inputs in
plain numpy (never through `wpcontent`), and checks one job's output
files against them. A check raises `CheckFailed`; `corrupt` damages a
copy of good outputs so that the matching check must raise.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class CheckFailed(Exception):
    """A job's outputs disagree with the benchmark's own computation."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load_report(out: Path) -> dict:
    with open(out / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def _save_report(out: Path, payload: dict) -> None:
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _gram(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    g = a @ a.T / dim
    return 0.5 * (g + g.T)


def _write_matrix(path: Path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(m.shape[0]), "data": m.ravel().tolist()}, fh)


# ---------------------------------------------------------------- greedy


class Greedy:
    """`wpc greedy` on a seeded random Gram matrix, given as matrix JSON."""

    def __init__(self, mode, tree, dim, depth, steps, csv_out, replay_steps):
        self.mode = mode
        self.tree = tree
        self.dim = dim
        self.depth = depth
        self.steps = steps
        self.csv_out = csv_out
        self.replay_steps = replay_steps
        self.n_nodes = 2**depth

    def make_inputs(self, seed: int, indir: Path) -> dict:
        a = _gram(np.random.default_rng([seed, self.dim]), self.dim)
        _write_matrix(indir / "matrix.json", a)
        lam_max = float(np.linalg.eigvalsh(a)[-1])
        return {
            "path": indir / "matrix.json",
            "matrix": a,
            "trace": float(np.trace(a)),
            "hs": float(np.linalg.norm(a)),
            "lam_max": lam_max,
            "replays": {},
        }

    def argv(self, inputs: dict, out: Path) -> list[str]:
        args = [
            "greedy", "--in", str(inputs["path"]), "--mode", self.mode,
            "--tree", self.tree, "--depth", str(self.depth),
            "--steps", str(self.steps), "--report", str(out / "report.json"),
        ]
        if self.csv_out:
            args += ["--csv", str(out / "steps.csv")]
        return args

    def check(self, inputs: dict, out: Path) -> None:
        rep = _load_report(out)
        steps = rep["steps"]
        nn = self.n_nodes
        _require(len(steps) == self.steps, f"{len(steps)} steps, expected {self.steps}")
        _require([s["k"] for s in steps] == list(range(1, self.steps + 1)), "step numbers")
        _require(rep["N_n"] == nn, f"N_n {rep['N_n']}, expected {nn}")
        t0, h0 = inputs["trace"], inputs["hs"]
        _require(abs(rep["initial"]["trace"] - t0) <= 1e-9 * (1.0 + abs(t0)), "initial trace")
        _require(abs(rep["initial"]["hs"] - h0) <= 1e-9 * (1.0 + h0), "initial HS norm")
        trace_slack = 1e-9 * (1.0 + t0)
        sq_slack = 1e-9 * (1.0 + h0**2)
        prev_t, prev_h = t0, h0
        for s in steps:
            k = s["k"]
            _require(len(s["node"]) == self.depth and set(s["node"]) <= {"0", "1"},
                     f"step {k}: node {s['node']!r} is not a depth-{self.depth} word")
            rt, rh = s["remainder_trace"], s["remainder_hs"]
            _require(rt <= prev_t + trace_slack and rh**2 <= prev_h**2 + sq_slack,
                     f"step {k}: remainder increased")
            if self.mode == "trace":
                _require(s["extracted_trace"] >= prev_t / nn - trace_slack,
                         f"step {k}: extracted less than 1/N of the remainder trace")
                _require(rt <= (1.0 - 1.0 / nn) ** k * t0 + trace_slack,
                         f"step {k}: remainder trace above the (1 - 1/N)^k envelope")
            else:
                g = s["gamma"]
                _require(g is not None and 1.0 - 1e-9 <= g <= nn + 1e-9,
                         f"step {k}: gamma {g} outside [1, N]")
                _require(rh**2 <= prev_h**2 - s["extracted_hs"] ** 2 + sq_slack,
                         f"step {k}: pythagorean HS bound fails")
                _require(rh**2 <= (1.0 - 1.0 / (g * nn)) * prev_h**2 + sq_slack,
                         f"step {k}: coherence contraction fails")
                _require(rh**2 <= (1.0 - 1.0 / nn**2) ** k * h0**2 + sq_slack,
                         f"step {k}: remainder above the (1 - 1/N^2)^k HS envelope")
            prev_t, prev_h = rt, rh
        if self.csv_out:
            with open(out / "steps.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            _require(len(rows) == self.steps + 1, f"CSV has {len(rows)} rows")
        if self.replay_steps:
            self._check_replay(inputs, steps[: self.replay_steps])

    def _check_replay(self, inputs: dict, steps: list[dict]) -> None:
        """Replay the first steps with 0/1 band masks (Shannon tree) and `np.linalg.eigh`.

        The replay follows the program's choice after checking that it is a
        block of maximal trace, so near-ties cannot fail a correct run.
        """
        words = tuple(s["node"] for s in steps)
        if words not in inputs["replays"]:
            inputs["replays"][words] = self._replay(inputs, words)
        tol = 1e-9 * inputs["lam_max"]
        for s, (best, score, ext, rem) in zip(steps, inputs["replays"][words]):
            k, w = s["k"], s["node"]
            _require(score >= best - tol, f"step {k}: node {w} is not a maximal-trace block")
            _require(abs(s["extracted_trace"] - ext) <= tol, f"step {k}: extracted trace")
            _require(abs(s["remainder_trace"] - rem) <= tol, f"step {k}: remainder trace")

    def _replay(self, inputs: dict, words: tuple[str, ...]) -> list[tuple]:
        r = inputs["matrix"].copy()
        size = self.dim // self.n_nodes
        rows = []
        for w in words:
            scores = np.diag(r).reshape(self.n_nodes, size).sum(axis=1)
            band = slice(int(w, 2) * size, (int(w, 2) + 1) * size)
            lam, vecs = np.linalg.eigh(r)
            s = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T
            d = s[:, band] @ s[band, :]
            r = r - 0.5 * (d + d.T)
            rows.append((scores.max(), scores[int(w, 2)], np.trace(d), np.trace(r)))
        return rows

    def corrupt(self, out: Path) -> str:
        rep = _load_report(out)
        first = rep["steps"][0]
        if self.replay_steps:
            idx = (int(first["node"], 2) + self.n_nodes // 2) % self.n_nodes
            first["node"] = format(idx, f"0{self.depth}b")
            what = "swapped node"
        else:
            first["remainder_trace"] = rep["initial"]["trace"]
            first["remainder_hs"] = rep["initial"]["hs"]
            what = "out-of-envelope remainder"
        _save_report(out, rep)
        return what


# ---------------------------------------------------------------- denoise


def _write_pgm(path: Path, pixels: np.ndarray) -> None:
    """8-bit P5 of values in [0, 1], rounding half up."""
    q = np.floor(np.clip(pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        fh.write(q.tobytes())


def _read_p5(path: Path) -> tuple[int, np.ndarray]:
    """(maxval, uint8 raster) of a P5 file with a comment-free header."""
    data = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    _require(header is not None, f"{path.name}: not a P5 file")
    width, height, maxval = (int(f) for f in header.groups())
    raw = data[header.end() :]
    _require(len(raw) == width * height, f"{path.name}: {len(raw)} bytes for {width}x{height}")
    return maxval, np.frombuffer(raw, dtype=np.uint8).reshape(height, width)


def _haar_packet_rows(word: str, m: int) -> np.ndarray:
    """Orthonormal rows of a 1D Haar packet node: one two-tap stage per letter."""
    b = np.eye(m)
    for letter in word:
        half = b.shape[0] // 2
        sign = 1.0 if letter == "0" else -1.0
        stage = np.zeros((half, 2 * half))
        stage[np.arange(half), 2 * np.arange(half)] = 1.0 / np.sqrt(2.0)
        stage[np.arange(half), 2 * np.arange(half) + 1] = sign / np.sqrt(2.0)
        b = stage @ b
    return b


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    return float(10.0 * np.log10(1.0 / np.mean((a - b) ** 2)))


class Denoise:
    """`wpc denoise` of a seeded piecewise-smooth image plus Gaussian noise."""

    side = 512
    m = 8
    depth = 2
    topk = 4
    stride = 2
    sigma = 0.08

    def make_inputs(self, seed: int, indir: Path) -> dict:
        rng = np.random.default_rng([seed, self.side])
        y, x = np.mgrid[0 : self.side, 0 : self.side] / self.side
        gx, gy, fx, fy, phase = rng.uniform(-1.0, 1.0, 5)
        img = 0.5 + 0.15 * (gx * x + gy * y) + 0.05 * np.sin(2 * np.pi * (3 * fx * x + 3 * fy * y) + phase)
        for _ in range(10):
            cx, cy = rng.uniform(0.0, 1.0, 2)
            level = rng.uniform(-0.25, 0.25)
            if rng.uniform() < 0.5:
                rad = rng.uniform(0.05, 0.2)
                img += level * ((x - cx) ** 2 + (y - cy) ** 2 < rad**2)
            else:
                hw, hh = rng.uniform(0.05, 0.25, 2)
                img += level * ((abs(x - cx) < hw) & (abs(y - cy) < hh))
        noisy = img + self.sigma * rng.standard_normal(img.shape)
        _write_pgm(indir / "clean.pgm", img)
        _write_pgm(indir / "noisy.pgm", noisy)
        return self._expected(indir)

    def _expected(self, indir: Path) -> dict:
        """Patch statistics, chosen blocks and output raster, in plain numpy."""
        clean = _read_p5(indir / "clean.pgm")[1] / 255.0
        noisy = _read_p5(indir / "noisy.pgm")[1] / 255.0
        m = self.m
        anchors = list(range(0, self.side - m + 1, self.stride))
        if anchors[-1] != self.side - m:
            anchors.append(self.side - m)
        windows = sliding_window_view(noisy, (m, m))[np.ix_(anchors, anchors)]
        patches = windows.reshape(-1, m * m)
        words = [format(i, f"0{self.depth}b") for i in range(2**self.depth)]
        nodes = [(r, c) for r in words for c in words]
        bases = {
            nd: np.kron(_haar_packet_rows(nd[0], m), _haar_packet_rows(nd[1], m)) for nd in nodes
        }
        scores = np.array([np.mean(np.sum((patches @ bases[nd].T) ** 2, axis=1)) for nd in nodes])
        order = np.argsort(-scores, kind="stable")[: self.topk]
        chosen = [nodes[i] for i in sorted(order)]
        basis = np.vstack([bases[nd] for nd in chosen])
        proj = (patches @ basis.T) @ basis
        acc = np.zeros_like(noisy)
        cnt = np.zeros_like(noisy)
        for i, r in enumerate(anchors):
            for j, c in enumerate(anchors):
                acc[r : r + m, c : c + m] += proj[i * len(anchors) + j].reshape(m, m)
                cnt[r : r + m, c : c + m] += 1.0
        scaled = np.clip(acc / cnt, 0.0, 1.0) * 255.0 + 0.5
        return {
            "dir": indir,
            "clean": clean,
            "noisy": noisy,
            "patches": len(patches),
            "energy": float(np.mean(np.sum(patches**2, axis=1))),
            "scores": {f"{r},{c}": float(v) for (r, c), v in zip(nodes, scores)},
            "chosen": [f"{r},{c}" for r, c in chosen],
            "pixels": np.floor(scaled).astype(np.uint8),
            # pixels whose rounding an ulp-level difference could flip
            "ambiguous": np.abs(scaled - np.round(scaled)) < 1e-6,
        }

    def argv(self, inputs: dict, out: Path) -> list[str]:
        indir = inputs["dir"]
        return [
            "denoise", "--in", str(indir / "noisy.pgm"), "--clean", str(indir / "clean.pgm"),
            "--tree", "haar", "--patch-side", str(self.m), "--depth", str(self.depth),
            "--topk", str(self.topk), "--stride", str(self.stride),
            "--out", str(out / "out.pgm"), "--report", str(out / "report.json"),
        ]

    def check(self, inputs: dict, out: Path) -> None:
        rep = _load_report(out)
        _require(rep["patches"] == inputs["patches"],
                 f"{rep['patches']} patches, expected {inputs['patches']}")
        energy = inputs["energy"]
        total = sum(row["s_w"] for row in rep["scores"])
        _require(abs(total - energy) <= 1e-9 * (1.0 + energy),
                 f"sum of s_w {total!r} != mean patch energy {energy!r}")
        for row in rep["scores"]:
            want = inputs["scores"].get(row["word"])
            _require(want is not None and abs(row["s_w"] - want) <= 1e-9 * (1.0 + energy),
                     f"score of node {row['word']}")
        _require(rep["chosen"] == inputs["chosen"], f"chosen {rep['chosen']} != {inputs['chosen']}")
        maxval, q = _read_p5(out / "out.pgm")
        _require(q.shape == (self.side, self.side) and maxval == 255, "out.pgm header")
        bad = (q != inputs["pixels"]) & ~(
            inputs["ambiguous"] & (np.abs(q.astype(int) - inputs["pixels"]) <= 1)
        )
        _require(not bad.any(), f"{int(bad.sum())} output pixels differ from the replay")
        clean = inputs["clean"]
        psnr_noisy = _psnr(inputs["noisy"], clean)
        psnr_out = _psnr(q / 255.0, clean)
        _require(abs(rep["psnr_noisy"] - psnr_noisy) <= 1e-9, "noisy PSNR")
        # The report measures the unquantized output: its RMS error and the
        # file's differ by at most half a quantisation step.
        rmse_rep = 10.0 ** (-rep["psnr_denoised"] / 20.0)
        rmse_file = 10.0 ** (-psnr_out / 20.0)
        _require(abs(rmse_rep - rmse_file) <= 0.5 / 255.0 + 1e-12, "denoised PSNR")
        _require(psnr_out > psnr_noisy, f"denoised PSNR {psnr_out} <= noisy {psnr_noisy}")

    def corrupt(self, out: Path) -> str:
        path = out / "out.pgm"
        data = bytearray(path.read_bytes())
        data[-(self.side * self.side // 2 + self.side // 2)] ^= 0x80
        path.write_bytes(bytes(data))
        return "changed pixel"


# -------------------------------------------------------------- decompose


class Decompose:
    """`wpc decompose` of a seeded diagonal symbol on the full Shannon tree."""

    levels = 10

    def make_inputs(self, seed: int, indir: Path) -> dict:
        rng = np.random.default_rng([seed, self.levels])
        half = 2 ** (self.levels - 1)
        k = np.arange(-half, half)
        width = rng.uniform(16.0, 128.0)
        r = rng.lognormal(0.0, 0.5, 2 * half) / (1.0 + (k / width) ** 2)
        with open(indir / "symbol.json", "w", encoding="utf-8") as fh:
            json.dump({"levels": self.levels, "r": r.tolist()}, fh)
        return {"path": indir / "symbol.json", "r": r, "prefix": np.concatenate([[0.0], np.cumsum(r)])}

    def argv(self, inputs: dict, out: Path) -> list[str]:
        return ["decompose", "--symbol", str(inputs["path"]), "--report", str(out / "report.json")]

    def check(self, inputs: dict, out: Path) -> None:
        rep = _load_report(out)
        rows = rep["cylinders"]
        total = float(np.sum(inputs["r"]))
        tol = 1e-9 * (1.0 + total)
        _require(len(rows) == 2 ** (self.levels + 1) - 1, f"{len(rows)} nodes")
        prefix = inputs["prefix"]
        seen = set()
        for row in rows:
            w = row["word"]
            n = len(w)
            _require(row["depth"] == n and n <= self.levels and set(w) <= {"0", "1"},
                     f"bad node {w!r}")
            size = 2 ** (self.levels - n)
            start = (int(w, 2) if w else 0) * size
            band_sum = prefix[start + size] - prefix[start]
            _require(abs(row["mass"] - band_sum) <= tol,
                     f"mass of {w!r} is {row['mass']!r}, band sum {band_sum!r}")
            seen.add(w)
        _require(len(seen) == len(rows), "repeated node words")
        _require(abs(rep["validation"]["root_mass"] - total) <= tol, "root mass != sum of r")

    def corrupt(self, out: Path) -> str:
        rep = _load_report(out)
        rep["cylinders"][-1]["mass"] += 1e-6 * rep["validation"]["trace"]
        _save_report(out, rep)
        return "perturbed mass"


WORKLOADS = {
    "greedy-hs": Greedy("hs", "d4", dim=128, depth=3, steps=48, csv_out=True, replay_steps=0),
    "greedy-trace": Greedy("trace", "shannon", dim=256, depth=6, steps=64, csv_out=False,
                           replay_steps=8),
    "denoise": Denoise(),
    "decompose": Decompose(),
}
