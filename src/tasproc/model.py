"""Core domain types and file formats.

Windows are axis-aligned boxes, cluster offset distributions come in three
flavours (uniform interval, isotropic Gaussian, empirical point cloud), and
point patterns are plain coordinate arrays bound to a window.  Everything is
immutable after construction.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "ClusterDistribution",
    "UniformInterval",
    "IsotropicGaussian",
    "EmpiricalCloud",
    "TasParameters",
    "PointPattern",
    "DistanceProfile",
    "ContactCurve",
    "read_pattern",
    "write_pattern",
    "read_window_json",
    "write_window_json",
]

# Coordinates are serialized with 12 significant digits.
COORD_FMT = "%.12g"


class ValidationError(ValueError):
    """Raised when a domain object fails its invariants."""


class ParseError(ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


def _as_points(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValidationError("points must be an (n, d) array")
    if dim is not None and pts.shape[0] > 0 and pts.shape[1] != dim:
        raise ValidationError(
            "dimension mismatch: got %d-dim points, expected %d" % (pts.shape[1], dim)
        )
    return pts


@dataclass(frozen=True)
class Window:
    """Axis-aligned observation box [lower_1, upper_1] x ... x [lower_d, upper_d]."""

    lower: tuple
    upper: tuple

    def __init__(self, lower, upper):
        lower = tuple(float(x) for x in np.atleast_1d(lower))
        upper = tuple(float(x) for x in np.atleast_1d(upper))
        if len(lower) != len(upper) or len(lower) < 1:
            raise ValidationError("lower and upper must have the same dimension >= 1")
        if not all(u > l for l, u in zip(lower, upper)):
            raise ValidationError("window must have upper > lower in every coordinate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self):
        return len(self.lower)

    @property
    def volume(self):
        return float(np.prod(np.subtract(self.upper, self.lower)))

    @property
    def side_lengths(self):
        return np.subtract(self.upper, self.lower)

    def dilate(self, margin):
        """Grow the box by `margin` on every side."""
        if margin < 0:
            raise ValidationError("margin must be >= 0")
        return Window(np.subtract(self.lower, margin), np.add(self.upper, margin))

    def erode(self, margin):
        """Shrink the box by `margin` on every side."""
        lo = np.add(self.lower, margin)
        hi = np.subtract(self.upper, margin)
        if not np.all(hi > lo):
            raise ValidationError("erosion margin swallows the window")
        return Window(lo, hi)

    def contains(self, points):
        """Boolean mask of points inside the closed box."""
        pts = _as_points(points, self.dimension)
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def grid_axes(self, n_target):
        """Per axis, (lower, step, centres) of the cell-centre grid of
        `grid_points`: centre i is lower + step * (i + 1/2)."""
        per_dim = max(1, round(n_target ** (1.0 / self.dimension)))
        axes = []
        for lo, hi in zip(self.lower, self.upper):
            step = (hi - lo) / per_dim
            axes.append((lo, step, lo + step * (np.arange(per_dim) + 0.5)))
        return axes

    def grid_points(self, n_target):
        """Roughly n_target cell-centre grid points covering the window, in
        row-major order of their per-axis indices."""
        mesh = np.meshgrid(*[c for _, _, c in self.grid_axes(n_target)],
                           indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def to_json_dict(self):
        return {"lower": list(self.lower), "upper": list(self.upper)}

    @classmethod
    def from_json_dict(cls, obj):
        return cls(obj["lower"], obj["upper"])


class ClusterDistribution:
    """Offset distribution of a single cluster, centred at the origin.

    Subclasses provide `dimension`, `sample(n, generator)` and a recommended
    simulation buffer `effective_radius`.
    """

    dimension = None

    def sample(self, n, generator):
        raise NotImplementedError

    @property
    def effective_radius(self):
        """Buffer width covering (effectively) all of the offset mass."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformInterval(ClusterDistribution):
    """Uniform offsets on [-h, h]; one-dimensional only."""

    halfwidth: float

    def __post_init__(self):
        if not 0.0 < self.halfwidth < np.inf:
            raise ValidationError("halfwidth must be finite and > 0")

    dimension = 1

    def sample(self, n, generator):
        return generator.uniform(-self.halfwidth, self.halfwidth, size=(n, 1))

    @property
    def effective_radius(self):
        return self.halfwidth


@dataclass(frozen=True)
class IsotropicGaussian(ClusterDistribution):
    """Centred isotropic Gaussian offsets with standard deviation sigma."""

    dim: int
    sigma: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be >= 1")
        if not 0.0 < self.sigma < np.inf:
            raise ValidationError("sigma must be finite and > 0")

    @property
    def dimension(self):
        return self.dim

    def sample(self, n, generator):
        return generator.normal(0.0, self.sigma, size=(n, self.dim))

    @property
    def effective_radius(self):
        # 6 sigma keeps the per-point truncation probability below 1e-8.
        return 6.0 * self.sigma


class EmpiricalCloud(ClusterDistribution):
    """Uniform draws from a fixed finite point cloud (e.g. a recentred cluster)."""

    def __init__(self, points):
        pts = _as_points(points)
        if pts.shape[0] == 0:
            raise ValidationError("empirical cloud must be non-empty")
        self._points = pts
        self._points.setflags(write=False)

    @property
    def points(self):
        return self._points

    @property
    def dimension(self):
        return self._points.shape[1]

    def sample(self, n, generator):
        idx = generator.integers(0, self._points.shape[0], size=n)
        return self._points[idx]

    @property
    def effective_radius(self):
        return float(np.max(np.linalg.norm(self._points, axis=1)))

    def __repr__(self):
        return "EmpiricalCloud(%d points, dim=%d)" % (len(self._points), self.dimension)

    def __eq__(self, other):
        return isinstance(other, EmpiricalCloud) and np.array_equal(
            self._points, other._points
        )


@dataclass(frozen=True)
class TasParameters:
    """The model triple (alpha, lambda, mu0)."""

    alpha: float
    lam: float
    mu0: ClusterDistribution

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must lie in (0, 1]")
        if not 0.0 < self.lam < np.inf:
            raise ValidationError("lambda must be finite and > 0")


class PointPattern:
    """A finite point set inside a window, optionally with cluster labels."""

    def __init__(self, points, window, labels=None, metadata=None):
        pts = _as_points(points, window.dimension)
        if pts.shape[0] and not np.all(window.contains(pts)):
            bad = int(np.flatnonzero(~window.contains(pts))[0])
            raise ValidationError(
                "point %d at %s lies outside the window" % (bad, pts[bad])
            )
        if labels is not None:
            labels = [str(l) for l in labels]
            if len(labels) != pts.shape[0]:
                raise ValidationError("labels must match the number of points")
        self._points = pts
        self._points.setflags(write=False)
        self._labels = tuple(labels) if labels is not None else None
        self.window = window
        self.metadata = dict(metadata or {})

    @property
    def points(self):
        return self._points

    @property
    def labels(self):
        return self._labels

    @property
    def dimension(self):
        return self.window.dimension

    def __len__(self):
        return self._points.shape[0]

    def cluster_sizes(self):
        """Label -> point count, insertion-ordered by first occurrence."""
        if self._labels is None:
            raise ValidationError("pattern has no cluster labels")
        sizes = {}
        for lab in self._labels:
            sizes[lab] = sizes.get(lab, 0) + 1
        return sizes

    def clusters(self):
        """Label -> (m, d) array of that cluster's points."""
        if self._labels is None:
            raise ValidationError("pattern has no cluster labels")
        groups = {}
        for i, lab in enumerate(self._labels):
            groups.setdefault(lab, []).append(i)
        return {lab: self._points[idx] for lab, idx in groups.items()}


@dataclass(frozen=True)
class DistanceProfile:
    """Per test point, the ascending distances to the K nearest pattern points."""

    test_points: np.ndarray
    distances: np.ndarray  # shape (n_test, K), each row sorted ascending
    depth_clamped: bool = False

    def __post_init__(self):
        tp = _as_points(self.test_points)
        dist = np.asarray(self.distances, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != tp.shape[0]:
            raise ValidationError("distances must be (n_test, K)")
        if dist.shape[1] < 1:
            raise ValidationError("depth K must be >= 1")
        if not np.all(np.diff(dist, axis=1) >= 0):
            raise ValidationError("each distance row must be sorted ascending")
        object.__setattr__(self, "test_points", tp)
        object.__setattr__(self, "distances", dist)

    @property
    def depth(self):
        return self.distances.shape[1]

    @property
    def nearest(self):
        return self.distances[:, 0]


@dataclass(frozen=True)
class ContactCurve:
    """Sampled contact distribution tail: pairs (r, G(r)) with r increasing."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        g = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != g.shape:
            raise ValidationError("radii and values must be 1-d of equal length")
        # NaN fails every comparison, so both checks reject it.
        if not (np.all(np.isfinite(r) & (r >= 0)) and np.all(np.diff(r) > 0)):
            raise ValidationError("radii must be finite, nonnegative and "
                                  "strictly increasing")
        if not np.all((g >= 0) & (g <= 1)):
            raise ValidationError("curve values must lie in [0, 1]")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", g)

    def to_csv(self, stream):
        stream.write("r,G\n")
        for r, g in zip(self.radii, self.values):
            stream.write((COORD_FMT + "," + COORD_FMT + "\n") % (r, g))


# ---------------------------------------------------------------------------
# Point-pattern CSV format: header x[,y[,z]][,cluster], one point per row.

_AXIS_NAMES = ("x", "y", "z")


def _axis_header(d):
    if d <= 3:
        return list(_AXIS_NAMES[:d])
    return ["x%d" % i for i in range(d)]


def write_pattern(pattern, stream=None):
    """Serialize a pattern as CSV; returns the text when no stream is given.
    Labels are CSV-quoted where needed; line breaks (a text-mode read rewrites
    a bare CR) and NUL (Python 3.10's csv reader refuses it) are rejected."""
    labels = pattern.labels
    if labels is not None and not set("\r\n\0").isdisjoint("".join(labels)):
        raise ValidationError("cluster labels must not contain line breaks "
                              "or NUL")
    own = stream is None
    if own:
        stream = io.StringIO()
    cols = _axis_header(pattern.dimension)
    if labels is not None:
        cols = cols + ["cluster"]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(cols)
    rows = ([COORD_FMT % c for c in pt] for pt in pattern.points.tolist())
    if labels is not None:
        rows = (row + [label] for row, label in zip(rows, labels))
    writer.writerows(rows)
    if own:
        return stream.getvalue()
    return None


def read_pattern(stream, window):
    """Parse a point-pattern CSV; validates every point against the window.

    An unlabelled file goes through numpy's parser first; any file it does
    not take whole goes through the csv reader, which names the bad line.
    """
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(stream.decode() if isinstance(stream, bytes) else stream)
    text = stream.read()
    reader = _csv_rows(csv.reader(io.StringIO(text)))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty stream", line=1)
    has_labels = header and header[-1] == "cluster"
    coord_cols = header[:-1] if has_labels else header
    d = len(coord_cols)
    if d < 1 or coord_cols != _axis_header(d):
        raise ParseError("unrecognized header %r" % (header,), line=1)
    if d != window.dimension:
        raise ValidationError(
            "file is %d-dimensional but window is %d-dimensional"
            % (d, window.dimension)
        )
    # Without a CR the header row ends at the first newline.
    if not has_labels and "\r" not in text:
        pts = _plain_rows(text.partition("\n")[2], d)
        if pts is not None:
            return PointPattern(pts, window)
    points, labels = [], [] if has_labels else None
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError("expected %d fields, got %d" % (len(header), len(row)),
                             line=lineno)
        try:
            coords = [float(v) for v in row[:d]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno)
        points.append(coords)
        if has_labels:
            labels.append(row[d])
    pts = np.asarray(points, dtype=float).reshape(-1, d)
    return PointPattern(pts, window, labels=labels)


def _csv_rows(reader):
    """The rows of a csv reader, whose own errors (a field over csv's size
    limit, say) become ParseErrors at the reader's physical line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num)


def _plain_rows(body, d):
    """The rows of `body` as an (n, d) array by numpy's C parser, or None.

    numpy refuses quoted fields, underscores, non-ASCII digits and rows of
    changing length, where the csv reader differs or names the bad line;
    every row it does take, the csv reader parses to the same floats.
    """
    if not body.strip():
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == d else None


def write_window_json(window, stream, metadata=None):
    """Sidecar JSON carrying the window and optional run metadata."""
    obj = window.to_json_dict()
    if metadata:
        obj["metadata"] = metadata
    json.dump(obj, stream, indent=2)
    stream.write("\n")


def read_window_json(stream):
    obj = json.load(stream)
    return Window.from_json_dict(obj), obj.get("metadata", {})
