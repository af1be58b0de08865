"""Raster export of grid maps and the resampling comparison demo.

Rasters are binary PGM (P5) images sampling the pignistic probability of
a type's first hypothesis at the finest resolution allocated inside the
region. Each pixel shows the cell that holds its centre, found by the
lattice rule of :mod:`apgm.grid` that the measurement builders use.
Unallocated area renders as 127, the maximum-uncertainty grey. Row 0 is
the region's top edge (largest y), columns run along +x.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InputShapeError, NonFiniteInputError
from .grid import GridMap, Layer, cell_units, split_global_cells
from .kernels import fold_masses
from .resample import block_view, resample_layer

UNKNOWN_GREY = 127
# Largest canvas render_betp allocates (64 MiB of uint8). `apgm run
# --dump-rasters` exports a square twice the demand's horizon wide at the
# demanded cell size, which validate_scenario's bound of 2^24 cells in the
# horizon disc keeps under (4 / pi) * 2^24 pixels.
MAX_RASTER_PIXELS = 1 << 26


def _layer_betp(layer: Layer) -> np.ndarray:
    return layer.masses[..., 0] + layer.omega() / len(layer.frame)


def render_betp(grid: GridMap, type_name: str, region) -> np.ndarray:
    """Sample BetP of the type's first hypothesis (occupied, for occupancy)
    over the world region (x0, y0, x1, y1) into a uint8 image.

    A NaN or infinite bound raises :class:`NonFiniteInputError`; a region
    without positive extent, or a canvas over ``MAX_RASTER_PIXELS``, raises
    :class:`InputShapeError` before the canvas is allocated."""
    grid.config.frame_of(type_name)  # refuses an unknown type
    e = grid.config.edge_length
    x0, y0, x1, y1 = map(float, region)
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise NonFiniteInputError(f"region {region} holds a NaN or inf bound")
    if x1 <= x0 or y1 <= y0:
        raise InputShapeError(f"region {region} must have positive extent")

    in_region = [
        (index, layer)
        for index, layer in grid.iter_layers()
        if layer.type_name == type_name
        and not (
            grid.patch_datum(index)[0] >= x1
            or grid.patch_datum(index)[0] + e <= x0
            or grid.patch_datum(index)[1] >= y1
            or grid.patch_datum(index)[1] + e <= y0
        )
    ]
    r_max = max((layer.step for _, layer in in_region), default=0)
    px = e / (1 << r_max)
    # An extent may overflow to inf; clamped, it still reads over the bound.
    n_cols, n_rows = (
        max(1, round(min(extent / px, MAX_RASTER_PIXELS + 1.0)))
        for extent in (x1 - x0, y1 - y0)
    )
    if n_cols * n_rows > MAX_RASTER_PIXELS:
        raise InputShapeError(
            f"region {region} at {px!r} m per pixel asks for over "
            f"{MAX_RASTER_PIXELS} pixels"
        )
    canvas = np.full((n_rows, n_cols), UNKNOWN_GREY, dtype=np.uint8)

    col_x = x0 + (np.arange(n_cols) + 0.5) * px
    row_y = y1 - (np.arange(n_rows) + 0.5) * px
    for index, layer in in_region:
        # Pixel centres bin as the builders bin points (grid.py); a layer
        # paints the pixels whose patch is its own.
        width = grid.config.cell_width(layer.step)
        (pa, a), (pb, b) = (
            split_global_cells(np.floor(u).astype(np.int64), layer.step)
            for u in cell_units(col_x, row_y, grid.config.datum, width)
        )
        cols = np.flatnonzero(pa == index[0])
        rows = np.flatnonzero(pb == index[1])
        if len(cols) == 0 or len(rows) == 0:
            continue
        betp = _layer_betp(layer)
        values = np.floor(betp[a[cols][None, :], b[rows][:, None]] * 255.0)
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


def export_raster(grid: GridMap, type_name: str, region, path) -> Path:
    return write_pgm(render_betp(grid, type_name, region), path)


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
    n, k = m // factor, len(layer.frame)
    stack = np.moveaxis(blocks, 2, 0).reshape(factor * factor, n * n, k)
    fold_masses(stack)  # total conflict falls back to vacuous
    step = layer.step - int(round(math.log2(factor)))
    return Layer(
        layer.type_name, layer.frame, step, stack[0].reshape(n, n, k).astype(np.float32)
    )


def compare_resampling_demo(
    grid: GridMap, region, block_sizes=(2, 8)
) -> dict[str, np.ndarray]:
    """Render occupancy block merges under the measurement-space rule and
    under cell-wise Dempster combination, for each requested block size."""
    type_name = "occupancy"
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
