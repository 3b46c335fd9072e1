"""Seeded inputs and exact oracle answers for the benchmark workloads.

The datasets follow the paper's two collections (FOURIER: Fourier
descriptors of polygon boundaries; COLHIST: sparse, clustered 8x8 colour
histograms).  They are generated here rather than through
``repro.datasets`` so that a change to the program under test can never
change the benchmark's inputs.  Each paper dataset is one fixed
collection, so the collection's structure (FOURIER's shape families,
COLHIST's theme palettes) is drawn from a constant seed, and the workload
seed draws the points and the queries: with a seed-drawn structure, query
cost moved by a third between seeds and no bound could hold.

Query calibration and oracle answers come out of the same chunked pass:
a float32 prefilter over a block of queries at once (a dimension loop over
``(queries, points)`` buffers, no ``(q, n, d)`` temporaries), then an exact
float64 recheck of the few candidates with the very expressions the index
evaluates.  The prefilter is conservative by construction, so the exact
answer is always inside the candidate set:

- L-inf on float32 data and float32-representable centres rounds each
  distance once and monotonically;
- L1 sums carry a relative error below ``d * 2**-24``, covered by a margin;
- L2 uses a float64 Gram expansion whose absolute error is far below the
  candidate slack.
"""

from __future__ import annotations

import numpy as np

# Bytes of float32 working buffer per query block: bounds peak memory of the
# generator whatever the dataset size.
_BLOCK_BYTES = 16 << 20
_L1_MARGIN = 1e-4
_L2_SLACK = 1e-9
_COLLECTION_SEED = 19990323


def fourier_points(count: int, dims: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Fourier descriptors (first ``dims`` harmonic magnitudes of
    random star-shaped polygons around 40 fixed shape families), min-max
    normalised to [0, 1], and each point's family."""
    vertices, families = 32, 40
    harmonics = np.arange(1, vertices // 2)
    angles = np.linspace(0.0, 2.0 * np.pi, vertices, endpoint=False)
    shape = np.random.default_rng(_COLLECTION_SEED)
    fam_radius = shape.uniform(0.5, 1.5, families)
    fam_amp = 0.1 * harmonics ** -1.2 * shape.normal(0.0, 1.0, (families, harmonics.size))
    fam_phase = shape.uniform(0.0, 2.0 * np.pi, (families, harmonics.size))
    rng = np.random.default_rng(seed)
    fam = rng.integers(0, families, count)
    radius = fam_radius[fam][:, None] * (1.0 + rng.normal(0.0, 0.04, (count, 1)))
    out = np.empty((count, dims), dtype=np.float32)
    step = 4096
    for s in range(0, count, step):
        f = fam[s : s + step]
        amp = fam_amp[f] * (1.0 + rng.normal(0.0, 0.15, (f.size, harmonics.size)))
        phase = fam_phase[f] + rng.normal(0.0, 0.12, (f.size, harmonics.size))
        wave = np.einsum(
            "nh,nhv->nv",
            amp,
            np.cos(harmonics[None, :, None] * angles[None, None, :] + phase[:, :, None]),
        )
        radii = np.maximum(radius[s : s + step] * (1.0 + wave), 0.05)
        spectrum = np.fft.fft(radii * np.exp(1j * angles), axis=1) / vertices
        out[s : s + step] = np.abs(spectrum[:, 1 : dims + 1])
    lo, hi = out.min(axis=0), out.max(axis=0)
    return ((out - lo) / np.where(hi > lo, hi - lo, 1.0)).astype(np.float32), fam


def colhist_points(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` 64-bin (8x8) colour histograms (Dirichlet perturbations of
    60 fixed sparse theme palettes, rows sum to 1) and each image's theme."""
    palettes = np.random.default_rng(_COLLECTION_SEED).dirichlet(np.full(64, 4.0 / 64), size=60)
    rng = np.random.default_rng(seed)
    theme = rng.integers(0, 60, count)
    hist = rng.standard_gamma(palettes[theme] * 80.0 + 1e-3)
    hist /= hist.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(hist, dtype=np.float32), theme


def sample_centers(
    data: np.ndarray, labels: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Query centres drawn from the data (float32-exact, as float64).

    Systematic sampling over the points ordered by cluster label, random
    within a cluster: every cluster gets its proportional share of the
    pool.  The cluster of a centre sets most of a k-NN query's cost, so an
    unstratified pool moved the mean cost between seeds.  The pool is
    shuffled, so a run that uses only a prefix still mixes clusters.
    """
    order = np.lexsort((rng.random(len(data)), labels))
    step = len(data) / count
    picks = order[((rng.random() + np.arange(count)) * step).astype(np.int64)]
    return data[rng.permutation(picks)].astype(np.float64)


def _blocks(n_points: int, n_queries: int):
    q = max(1, min(n_queries, _BLOCK_BYTES // (4 * max(n_points, 1))))
    for s in range(0, n_queries, q):
        yield s, min(n_queries, s + q)


def _prefilter(data_t: np.ndarray, centers32: np.ndarray, reduce: str) -> np.ndarray:
    """float32 L-inf (``reduce="max"``) or L1 (``"sum"``) distances of a
    query block to every point: a dimension loop over ``(q, n)`` buffers."""
    acc = np.abs(data_t[0][None, :] - centers32[:, 0, None])
    tmp = np.empty_like(acc)
    combine = np.maximum if reduce == "max" else np.add
    for j in range(1, data_t.shape[0]):
        np.subtract(data_t[j][None, :], centers32[:, j, None], out=tmp)
        np.abs(tmp, out=tmp)
        combine(acc, tmp, out=acc)
    return acc


def box_queries(data: np.ndarray, centers: np.ndarray, selectivity: float):
    """Cube queries holding exactly ``ceil(selectivity * n)`` points each.

    The half-side is the k-th smallest L-inf distance from the centre.
    Returns ``(lows, highs, answers)``: float64 corners and, per query, the
    sorted row indices inside the closed box as ``Rect.contains_points_mask``
    evaluates it (float32 points against float64 corners).
    """
    k = max(1, int(np.ceil(selectivity * len(data))))
    data_t = np.ascontiguousarray(data.T)
    lows = np.empty_like(centers)
    highs = np.empty_like(centers)
    answers = []
    for s, e in _blocks(len(data), len(centers)):
        block = centers[s:e]
        linf = _prefilter(data_t, block.astype(np.float32), "max")
        kth32 = np.partition(linf, k - 1, axis=1)[:, k - 1]
        for i, c in enumerate(block):
            # Every point at exact distance <= the k-th lies at or below the
            # k-th float32 distance (monotone rounding); one ulp more admits
            # the boundary points the corner rounding may let in.
            cand = np.flatnonzero(linf[i] <= np.nextafter(kth32[i], np.float32(np.inf)))
            exact = np.abs(data[cand].astype(np.float64) - c).max(axis=1)
            r = float(np.partition(exact, k - 1)[k - 1])
            lows[s + i] = c - r
            highs[s + i] = c + r
            pts = data[cand]
            inside = np.all((pts >= lows[s + i]) & (pts <= highs[s + i]), axis=1)
            answers.append(np.sort(cand[inside]))
    return lows, highs, answers


def l1_queries(data: np.ndarray, centers: np.ndarray, selectivity: float):
    """L1 distance-range queries holding exactly ``ceil(selectivity * n)``
    points: the radius is the k-th smallest L1 distance.  Returns
    ``(radii, answers)`` with answers as ``(sorted row indices, distances)``."""
    k = max(1, int(np.ceil(selectivity * len(data))))
    data_t = np.ascontiguousarray(data.T)
    radii = np.empty(len(centers))
    answers = []
    for s, e in _blocks(len(data), len(centers)):
        block = centers[s:e]
        l1 = _prefilter(data_t, block.astype(np.float32), "sum")
        kth32 = np.partition(l1, k - 1, axis=1)[:, k - 1].astype(np.float64)
        for i, c in enumerate(block):
            bound = kth32[i] * (1.0 + _L1_MARGIN) / (1.0 - _L1_MARGIN) + 1e-12
            cand = np.flatnonzero(l1[i] <= bound)
            # Same expression as LpMetric.distance_batch for p = 1.
            exact = np.abs(data[cand].astype(np.float64) - c).sum(axis=1)
            radius = float(np.partition(exact, k - 1)[k - 1])
            radii[s + i] = radius
            hit = exact <= radius
            answers.append((cand[hit], exact[hit]))
    return radii, answers


def knn_answers(data: np.ndarray, centers: np.ndarray, k: int, oids: np.ndarray | None = None):
    """Exact k nearest neighbours under L2 in ``(distance, oid)`` order.

    ``oids`` labels the rows (defaults to the row index).  Returns per
    query ``(oids, distances)`` of length ``min(k, n)``.
    """
    oids = np.arange(len(data)) if oids is None else oids
    data64 = data.astype(np.float64)
    norms = np.einsum("ij,ij->i", data64, data64)
    kk = min(k, len(data))
    out = []
    for s, e in _blocks(2 * len(data), len(centers)):
        block = centers[s:e]
        block_norms = np.einsum("ij,ij->i", block, block)[:, None]
        sq = norms[None, :] - 2.0 * (block @ data64.T) + block_norms
        kth = np.partition(sq, kk - 1, axis=1)[:, kk - 1]
        for i, c in enumerate(block):
            cand = np.flatnonzero(sq[i] <= kth[i] + _L2_SLACK)
            diff = np.abs(data64[cand] - c)
            # Same expression as LpMetric.distance_batch for p = 2.
            dist = np.sqrt((diff * diff).sum(axis=1))
            order = np.lexsort((oids[cand], dist))[:kk]
            out.append((oids[cand][order], dist[order]))
    return out


def points_in_box(data: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Row indices of ``data`` inside the closed box, narrowing one
    dimension at a time (same comparisons as ``Rect.contains_points_mask``)."""
    idx = np.arange(len(data))
    for j in range(data.shape[1]):
        col = data[idx, j]
        idx = idx[(col >= low[j]) & (col <= high[j])]
        if idx.size == 0:
            break
    return idx
