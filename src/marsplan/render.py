"""Per-step SVG rendering of a plan.

One SVG per step, drawn on a canvas shared by the whole plan: the pre-move
configuration (healthy units gray, faulty units red), the moving cell set
outlined, and the flight path as a polyline through cell centers. Output is
built from sorted inputs with fixed number formatting, so rendering the same
plan twice produces byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .model import Cell, Configuration
from .planner import Plan

_CELL = 40.0
_MARGIN = 20.0
_HEALTHY_FILL = "#b8bcc2"
_HEALTHY_EDGE = "#6c7076"
_FAULTY_FILL = "#d9534f"
_FAULTY_EDGE = "#8b1a1a"
_MOVE_EDGE = "#1f6feb"


def _bounds(plan: Plan, start: Configuration) -> tuple[int, int, int, int]:
    """The box around every configuration and every waypoint of the plan."""
    cells = list(start.cells)
    for step in plan.steps:
        cells += [*step.post_config.cells, *step.path.waypoints]
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    return min(xs), min(ys), max(xs), max(ys)


class _Canvas:
    def __init__(self, min_x: int, min_y: int, max_x: int, max_y: int):
        self.min_x, self.min_y, self.max_x, self.max_y = min_x, min_y, max_x, max_y
        self.width = (max_x - min_x + 1) * _CELL + 2 * _MARGIN
        self.height = (max_y - min_y + 1) * _CELL + 2 * _MARGIN

    def corner(self, cell: Cell) -> tuple[float, float]:
        # grid +y points up; SVG +y points down
        px = _MARGIN + (cell.x - self.min_x) * _CELL
        py = _MARGIN + (self.max_y - cell.y) * _CELL
        return px, py

    def center(self, cell: Cell) -> tuple[float, float]:
        px, py = self.corner(cell)
        return px + _CELL / 2, py + _CELL / 2


def _cell_rect(canvas: _Canvas, cell: Cell, fill: str, edge: str) -> str:
    px, py = canvas.corner(cell)
    return (f'<rect x="{px:.1f}" y="{py:.1f}" width="{_CELL:.1f}" height="{_CELL:.1f}" '
            f'fill="{fill}" stroke="{edge}" stroke-width="1.0"/>')

def _outline(canvas: _Canvas, cells: frozenset[Cell]) -> list[str]:
    # draw only the outer boundary edges of the moving set
    out = []
    for cell in sorted(cells):
        px, py = canvas.corner(cell)
        edges = {
            (0, 1): ((px, py), (px + _CELL, py)),                       # top
            (0, -1): ((px, py + _CELL), (px + _CELL, py + _CELL)),      # bottom
            (-1, 0): ((px, py), (px, py + _CELL)),                      # left
            (1, 0): ((px + _CELL, py), (px + _CELL, py + _CELL)),       # right
        }
        for (dx, dy), ((x1, y1), (x2, y2)) in edges.items():
            if cell + (dx, dy) in cells:
                continue
            out.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                       f'stroke="{_MOVE_EDGE}" stroke-width="3.0" stroke-linecap="square"/>')
    return out


def render_step_svg(canvas: _Canvas, config: Configuration,
                    moved: frozenset[Cell], waypoints: tuple[Cell, ...]) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.width:.1f}" '
        f'height="{canvas.height:.1f}" viewBox="0 0 {canvas.width:.1f} {canvas.height:.1f}">',
        f'<rect x="0" y="0" width="{canvas.width:.1f}" height="{canvas.height:.1f}" fill="#ffffff"/>',
    ]
    for cell in config.cells:
        if config.state(cell).is_faulty:
            parts.append(_cell_rect(canvas, cell, _FAULTY_FILL, _FAULTY_EDGE))
        else:
            parts.append(_cell_rect(canvas, cell, _HEALTHY_FILL, _HEALTHY_EDGE))
    parts.extend(_outline(canvas, moved))
    if len(waypoints) > 1:
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in
                          (canvas.center(w) for w in waypoints))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{_MOVE_EDGE}" '
                     f'stroke-width="2.0" stroke-linejoin="round"/>')
        gx, gy = canvas.center(waypoints[-1])
        parts.append(f'<circle cx="{gx:.1f}" cy="{gy:.1f}" r="4.0" fill="{_MOVE_EDGE}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plan_svgs(plan: Plan, start: Configuration, out_dir: str | Path) -> list[Path]:
    """Write step_000.svg … step_NNN.svg; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not plan.steps:
        return []
    canvas = _Canvas(*_bounds(plan, start))
    written: list[Path] = []
    config = start
    for i, step in enumerate(plan.steps):
        svg = render_step_svg(canvas, config, frozenset(step.moved_cells),
                              step.path.waypoints)
        path = out / f"step_{i:03d}.svg"
        path.write_text(svg)
        written.append(path)
        config = step.post_config
    return written
