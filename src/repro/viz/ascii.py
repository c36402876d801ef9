"""ASCII plotting for the paper's figures (no plotting library required).

Two plot shapes cover the evaluation:

* :func:`log_scatter` — sorted event variabilities on a log y-axis with a
  horizontal threshold line (paper Figure 2).
* :func:`grouped_series` — normalized event counts across pointer-chain
  size groups, two series overlaid (paper Figure 3: measured combination
  vs signature).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["grouped_series", "log_scatter"]


def log_scatter(
    values: Sequence[float],
    threshold: Optional[float] = None,
    title: str = "",
    height: int = 18,
    width: int = 72,
    floor: float = 1e-16,
) -> str:
    """Scatter of sorted values on a log-scale y axis.

    Zero values are plotted at ``floor`` (the paper plots them at machine
    epsilon "for the sake of visualization on a logarithmic scale").
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return f"{title}\n(no data)"
    vals = np.sort(np.maximum(vals, floor))
    logs = np.log10(vals)
    lo = np.floor(min(logs.min(), np.log10(threshold) if threshold else np.inf))
    hi = np.ceil(max(logs.max(), np.log10(threshold) if threshold else -np.inf))
    if hi <= lo:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    xs = np.minimum((np.arange(vals.size) / max(vals.size - 1, 1) * (width - 1)).astype(int), width - 1)
    ys = ((logs - lo) / (hi - lo) * (height - 1)).astype(int)
    thresh_row = None
    if threshold is not None:
        thresh_row = int((np.log10(threshold) - lo) / (hi - lo) * (height - 1))
        if 0 <= thresh_row < height:
            for x in range(width):
                grid[thresh_row][x] = "-"
    for x, y in zip(xs, ys):
        grid[int(np.clip(y, 0, height - 1))][x] = "*"

    lines = [title] if title else []
    for row in range(height - 1, -1, -1):
        exponent = lo + (hi - lo) * row / (height - 1)
        label = f"1e{exponent:+04.0f} |"
        body = "".join(grid[row])
        if thresh_row is not None and row == thresh_row:
            body += f"  tau = {threshold:g}"
        lines.append(label + body)
    lines.append(" " * 7 + "+" + "-" * width)
    lines.append(" " * 8 + f"events sorted by variability (n={vals.size})")
    return "\n".join(lines)


def grouped_series(
    group_labels: Sequence[str],
    series: Sequence[Tuple[str, Sequence[float]]],
    title: str = "",
    height: int = 12,
    y_max: Optional[float] = None,
) -> str:
    """Two-or-more overlaid series across labelled x groups.

    Each series is rendered with its own marker; coincident points show
    the later series' marker over the earlier one — in the paper's Fig. 3
    the measured combination sits exactly on the signature, so overlap is
    the success criterion and is easy to eyeball here.
    """
    markers = "ox+#@"
    n = len(group_labels)
    if any(len(values) != n for _, values in series):
        raise ValueError("every series must have one value per group label")
    all_vals = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    top = y_max if y_max is not None else max(1.0, float(all_vals.max()) * 1.1)

    col_width = 4
    width = n * col_width
    grid = [[" "] * width for _ in range(height)]
    for s_idx, (_, values) in enumerate(series):
        marker = markers[s_idx % len(markers)]
        for i, value in enumerate(values):
            y = int(np.clip(value / top * (height - 1), 0, height - 1))
            x = i * col_width + 1 + (s_idx % 2)
            grid[y][x] = marker

    lines = [title] if title else []
    for row in range(height - 1, -1, -1):
        y_val = top * row / (height - 1)
        lines.append(f"{y_val:5.2f} |" + "".join(grid[row]))
    lines.append(" " * 6 + "+" + "-" * width)
    label_row = " " * 7
    for label in group_labels:
        label_row += label[: col_width - 1].ljust(col_width)
    lines.append(label_row)
    legend = "  ".join(
        f"{markers[i % len(markers)]} = {name}" for i, (name, _) in enumerate(series)
    )
    lines.append(" " * 7 + legend)
    return "\n".join(lines)
