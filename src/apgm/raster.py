"""Raster export of grid maps and the resampling comparison demo.

Rasters are binary PGM (P5) images sampling the pignistic probability of
one hypothesis at the finest resolution allocated inside the region.
Unallocated area renders as 127, the maximum-uncertainty grey. Row 0 is
the region's top edge (largest y), columns run along +x.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .evidence import combine_mass_arrays
from .grid import GridMap, Layer
from .resample import block_view, resample_layer

UNKNOWN_GREY = 127


def _layer_betp(layer: Layer, hyp_index: int) -> np.ndarray:
    masses = layer.masses.astype(np.float64)
    omega = 1.0 - masses.sum(axis=-1)
    return masses[..., hyp_index] + omega / len(layer.frame)


def render_betp(
    grid: GridMap,
    type_name: str = "occupancy",
    region=None,
    hypothesis: str | None = None,
) -> np.ndarray:
    """Sample BetP(hypothesis) over a world region into a uint8 image."""
    frame = grid.config.frame_of(type_name)
    hyp_index = frame.index(hypothesis) if hypothesis is not None else 0
    e = grid.config.edge_length

    layers = [
        (index, layer)
        for index, layer in grid.iter_layers()
        if layer.type_name == type_name
    ]
    if region is None:
        if layers:
            xs = [grid.patch_datum(i) for i, _ in layers]
            x0 = min(p[0] for p in xs)
            y0 = min(p[1] for p in xs)
            x1 = max(p[0] for p in xs) + e
            y1 = max(p[1] for p in xs) + e
            region = (x0, y0, x1, y1)
        else:
            region = (0.0, 0.0, e, e)
    x0, y0, x1, y1 = map(float, region)
    if x1 <= x0 or y1 <= y0:
        raise ValueError("region must have positive extent")

    in_region = [
        (index, layer)
        for index, layer in layers
        if not (
            grid.patch_datum(index)[0] >= x1
            or grid.patch_datum(index)[0] + e <= x0
            or grid.patch_datum(index)[1] >= y1
            or grid.patch_datum(index)[1] + e <= y0
        )
    ]
    r_max = max((layer.step for _, layer in in_region), default=0)
    px = e / (1 << r_max)
    n_cols = max(1, int(round((x1 - x0) / px)))
    n_rows = max(1, int(round((y1 - y0) / px)))
    canvas = np.full((n_rows, n_cols), UNKNOWN_GREY, dtype=np.uint8)

    col_x = x0 + (np.arange(n_cols) + 0.5) * px
    row_y = y1 - (np.arange(n_rows) + 0.5) * px
    for index, layer in in_region:
        datum = grid.patch_datum(index)
        width = e / (1 << layer.step)
        cols = np.flatnonzero((col_x >= datum[0]) & (col_x < datum[0] + e))
        rows = np.flatnonzero((row_y >= datum[1]) & (row_y < datum[1] + e))
        if len(cols) == 0 or len(rows) == 0:
            continue
        a = np.clip(
            ((col_x[cols] - datum[0]) / width).astype(np.int64),
            0,
            (1 << layer.step) - 1,
        )
        b = np.clip(
            ((row_y[rows] - datum[1]) / width).astype(np.int64),
            0,
            (1 << layer.step) - 1,
        )
        betp = _layer_betp(layer, hyp_index)
        values = np.floor(betp[a[None, :], b[:, None]] * 255.0)
        canvas[np.ix_(rows, cols)] = np.clip(values, 0, 255).astype(np.uint8)
    return canvas


def write_pgm(image: np.ndarray, path) -> Path:
    path = Path(path)
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError("PGM export expects a 2-D image")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
    return path


def export_raster(
    grid: GridMap,
    type_name: str,
    region,
    path,
    hypothesis: str | None = None,
) -> Path:
    return write_pgm(render_betp(grid, type_name, region, hypothesis), path)


# -- resampling comparison ------------------------------------------------------


def dstrc_merge_layer(layer: Layer, factor: int) -> Layer:
    """Baseline block merge: cell-wise Dempster fold over each block.

    Kept for comparison only; spatial merging with this rule erodes
    occupied cells next to free space.
    """
    m = layer.masses.shape[0]
    if m % factor:
        raise ValueError(f"block factor {factor} does not divide lattice {m}")
    blocks = block_view(layer.masses.astype(np.float64), factor)
    acc = blocks[:, :, 0, :]
    for j in range(1, factor * factor):
        acc, conflict = combine_mass_arrays(acc, blocks[:, :, j, :])
        # Total conflict falls back to vacuous inside combine_mass_arrays.
    step = layer.step - int(round(math.log2(factor)))
    return Layer(layer.type_name, layer.frame, step, acc.astype(np.float32))


def compare_resampling_demo(
    grid: GridMap,
    region=None,
    block_sizes=(2, 8),
    type_name: str = "occupancy",
) -> dict[str, np.ndarray]:
    """Render block merges under the measurement-space rule and under
    cell-wise Dempster combination, for each requested block size."""
    out = {"original": render_betp(grid, type_name, region)}
    for factor in block_sizes:
        delta = int(round(math.log2(factor)))
        resampled = GridMap(grid.config)
        baseline = GridMap(grid.config)
        for index, layer in grid.iter_layers():
            if layer.type_name != type_name:
                continue
            resampled.set_layer(index, resample_layer(layer, layer.step - delta))
            baseline.set_layer(index, dstrc_merge_layer(layer, factor))
        out[f"merge{factor}x{factor}_resampled"] = render_betp(
            resampled, type_name, region
        )
        out[f"merge{factor}x{factor}_dstrc"] = render_betp(
            baseline, type_name, region
        )
    return out
