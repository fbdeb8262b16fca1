"""Two-dimensional (image) attention patterns and their 1-D flattening.

ViL applies a local :math:`R \\times R` attention window over an
:math:`H \\times W` grid of image patches.  Flattening patches row-major
(``i = r * W + c``) turns the 2-D window into a union of 1-D bands: for each
row offset ``dr`` in ``[-R//2, R//2]`` the column offsets form a contiguous
band centred at ``dr * W`` (Figure 2c flattens exactly this way).  Each band
is an ordinary sliding window, so the whole 2-D window is SALO-schedulable
as a multi-band hybrid pattern; the vertical direction can equivalently be
seen as *dilated* window attention with dilation ``W`` (Section 2.3), which
is what the data scheduler's reordering step exploits.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .base import Band, PatternError
from .hybrid import HybridSparsePattern

__all__ = ["Local2DPattern", "flatten_2d_window"]


def flatten_2d_window(grid_w: int, window_h: int, window_w: int) -> List[Band]:
    """Bands of the flattened 2-D local window.

    Parameters
    ----------
    grid_w:
        Width ``W`` of the patch grid (row stride of the flattening).
    window_h, window_w:
        Window extent in patches along y and x.  Odd sizes centre the
        window on the query patch; even sizes put the extra patch on the
        top/left, matching the symmetric-window convention.

    Returns
    -------
    One :class:`Band` per row offset; ``window_h`` bands of width
    ``window_w`` each.
    """
    if window_h < 1 or window_w < 1:
        raise PatternError("2-D window extents must be >= 1")
    if window_w > grid_w:
        raise PatternError(
            f"window width {window_w} exceeds grid width {grid_w}; bands would wrap"
        )
    half_h = window_h // 2
    half_w = window_w // 2
    bands = []
    for dr in range(-half_h, window_h - half_h):
        centre = dr * grid_w
        bands.append(Band(centre - half_w, centre + (window_w - 1 - half_w), 1))
    return bands


class Local2DPattern(HybridSparsePattern):
    """Flattened 2-D local window attention over an ``H x W`` patch grid.

    This is the attention pattern of ViL stages: a ``window_h x window_w``
    local window plus optional global tokens, flattened row-major to a
    sequence of length ``H * W``.
    """

    def __init__(
        self,
        grid_h: int,
        grid_w: int,
        window_h: int,
        window_w: int,
        global_tokens: Sequence[int] = (),
    ) -> None:
        if grid_h < 1 or grid_w < 1:
            raise PatternError("grid extents must be >= 1")
        bands = flatten_2d_window(grid_w, window_h, window_w)
        super().__init__(grid_h * grid_w, bands, global_tokens)
        self.grid_h = int(grid_h)
        self.grid_w = int(grid_w)
        self.window_h = int(window_h)
        self.window_w = int(window_w)

    def flat_index(self, r: int, c: int) -> int:
        """Row-major flattening of patch coordinates."""
        if not (0 <= r < self.grid_h and 0 <= c < self.grid_w):
            raise PatternError(f"patch ({r}, {c}) outside {self.grid_h}x{self.grid_w} grid")
        return r * self.grid_w + c

    def patch_coords(self, i: int) -> Tuple[int, int]:
        """Inverse of :meth:`flat_index`."""
        self._check_row(i)
        return divmod(i, self.grid_w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Local2DPattern(grid={self.grid_h}x{self.grid_w}, "
            f"window={self.window_h}x{self.window_w}, "
            f"global_tokens={list(self.global_tokens())})"
        )
