"""Corrective depth remapping.

Inverse of the perception model: scene depth is remapped so that geometry
perceived under a vergence offset coincides with the intended geometry.
Operates on scalar depths, single points, and triangle meshes in the
cyclopean view frame; world/view conversion is the caller's concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geometry import EyeGeometry, ScenePoint, shift_distance, shift_distances
from .perception import PerturbationParams, predict_endpoint

__all__ = [
    "MeshModel",
    "remap_depth",
    "transform_point",
    "transform_points",
    "transform_mesh",
    "predicted_correction_curve",
    "CorrectionCurveRow",
]


def _face_dtype(n_vertices: int) -> np.dtype:
    """MeshModel's face index dtype for a mesh of n_vertices: int32 while
    every index, and every index + 1 that the OBJ writer prints, fits in
    it, int64 beyond."""
    return np.dtype(np.int32 if n_vertices <= np.iinfo(np.int32).max else np.int64)


@dataclass(frozen=True, eq=False)
class MeshModel:
    """Triangle mesh: an (N, 3) vertex array and (M, 3) face index array.

    Attributes:
        vertices: Vertex coordinates in meters, view space.
        faces: 0-based vertex index triples, int32 when every index fits
            (N <= 2**31 - 1), int64 otherwise.  Input of another dtype is
            converted to int64, range-checked there, then narrowed, so an
            index past int32 is refused rather than wrapped into range.
        provenance: Source path or a description of how the mesh was made.
        normal_lines: Raw normal records carried through from an OBJ file;
            they are not recomputed by any transform and become stale once
            vertices move.
    """

    vertices: np.ndarray
    faces: np.ndarray
    provenance: str = ""
    normal_lines: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        faces = self.faces
        keep = isinstance(faces, np.ndarray) and faces.dtype in (np.int32, np.int64)
        faces = np.ascontiguousarray(faces, dtype=faces.dtype if keep else np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 1:
            raise DomainError(f"vertices must be (N>=1, 3), got shape {vertices.shape}")
        if faces.size and (faces.ndim != 2 or faces.shape[1] != 3):
            raise DomainError(f"faces must be (M, 3), got shape {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise DomainError("face indices out of vertex range")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces.reshape(-1, 3).astype(
            _face_dtype(len(vertices)), copy=False))


def remap_depth(z_view: float, eyes: EyeGeometry, params: PerturbationParams) -> float:
    """Corrected display depth for an on-axis point at depth z_view.

    tau = 2*atan2(ipd/2, z); tau_tilde = tau - beta;
    z_tilde = (ipd/2) / tan(tau_tilde / 2).  For beta > 0 the result is
    farther than the input: objects are pushed away so that the offset
    pulls them back to where they belong.

    Args:
        z_view: View-space depth in meters (> 0).
        eyes: Viewing geometry.
        params: Offset parameters.

    Raises:
        DomainError: If z_view <= 0 or the corrected angle leaves (0, pi)
            (a point too distant, or too near, to correct).
    """
    if z_view <= 0.0:
        raise DomainError(f"z_view must be positive, got {z_view!r}")
    return shift_distance(z_view, eyes.half_ipd, -params.beta_offset,
                          "corrected angle")


def transform_point(p: ScenePoint, eyes: EyeGeometry,
                    params: PerturbationParams) -> ScenePoint:
    """Remap one point's depth, preserving its x and y coordinates.

    The corrected cyclopean distance d_tilde is remap_depth of the
    point's cyclopean distance; the new depth is
    sqrt(d_tilde^2 - x^2 - y^2).

    Raises:
        DomainError: If the corrected distance cannot keep the lateral
            coordinates (radicand <= 0), or as remap_depth does.
    """
    d_tilde = remap_depth(p.cyclopean_distance, eyes, params)
    radicand = d_tilde * d_tilde - p.x * p.x - p.y * p.y
    if radicand <= 0.0:
        raise DomainError(
            f"corrected point cannot keep lateral coordinates: "
            f"point ({p.x}, {p.y}, {p.z}) has corrected distance {d_tilde}"
        )
    return ScenePoint(x=p.x, y=p.y, z=math.sqrt(radicand))


# Rows _remap_in_place evaluates at once: its temporaries are a few arrays of
# this many float64s, whatever the size of the input.
_BLOCK_ROWS = 1 << 13


def transform_points(points: np.ndarray, eyes: EyeGeometry,
                     params: PerturbationParams, *,
                     kind: str = "point") -> np.ndarray:
    """Remap an (N, 3) point array, row order preserved.

    As transform_point on each row, vectorized: a row's cyclopean
    distance is remapped and its depth re-solved keeping x and y; the
    numpy and libm routes may differ in the last few bits.  A zero offset
    copies the input bitwise (after the domain checks) so that a no-op
    transform cannot drift by rounding.  The input is not modified: it is
    copied to a float64 array, which _remap_in_place then remaps in place.

    Args:
        kind: Word naming a row in the error message ("point", "vertex").

    Raises:
        DomainError: Naming the index and coordinates of the first point
            that cannot be corrected: behind the viewer, a corrected angle
            outside (0, pi), or a corrected distance that cannot keep the
            lateral coordinates.
    """
    out = np.array(points, dtype=np.float64, order="C")
    _remap_in_place(out, eyes, params, kind=kind)
    return out


def _remap_in_place(xyz: np.ndarray, eyes: EyeGeometry,
                    params: PerturbationParams, *, kind: str = "point",
                    literal_half_angle: bool = False) -> None:
    """transform_points written over xyz, a writable float64 (N, 3) array.

    The rows are evaluated in blocks of _BLOCK_ROWS, so the call holds one
    block's temporaries; each element is the same as the whole-array
    expression.  A block is checked whole before any of its rows is
    written, so the DomainError names the row's coordinates as given, and
    leaves that block and the ones after it as given (earlier blocks are
    remapped).

    literal_half_angle (vackit transform --compat-literal-half-angle, for
    comparison only) applies beta to the half angle, that is 2*beta to the
    full angle, bit for bit: transform_points at PerturbationParams(2*beta)
    while |2*beta| < 0.05 rad.  It has no inverse property.
    """
    shift = float(-2.0 * params.beta_offset if literal_half_angle
                  else -params.beta_offset)
    half_ipd = float(eyes.half_ipd)
    for start in range(0, len(xyz), _BLOCK_ROWS):
        block = xyz[start:start + _BLOCK_ROWS]
        x, y, z = block[:, 0], block[:, 1], block[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):  # an inf distance is refused
            d_tilde, ok = shift_distances(np.sqrt(x * x + y * y + z * z),
                                          half_ipd, shift)
            radicand = d_tilde * d_tilde - x * x - y * y
        ok &= (z > 0.0) & (radicand > 0.0)
        if not ok.all():
            i = start + int(np.argmin(ok))
            x, y, z = xyz[i]
            raise DomainError(f"{kind} {i} at ({x}, {y}, {z}) cannot be corrected")
        if shift != 0.0:
            np.sqrt(radicand, out=z)


def transform_mesh(mesh: MeshModel, eyes: EyeGeometry,
                   params: PerturbationParams) -> MeshModel:
    """Remap every vertex of a mesh; faces and ordering are preserved.

    Raises:
        DomainError: Naming the index and coordinates of the first vertex
            that cannot be corrected.
    """
    out = transform_points(mesh.vertices, eyes, params, kind="vertex")
    return MeshModel(vertices=out, faces=mesh.faces, provenance=mesh.provenance,
                     normal_lines=mesh.normal_lines)


@dataclass(frozen=True)
class CorrectionCurveRow:
    """One distance of the predicted endpoint-error comparison."""

    distance: float
    original_error: float
    transformed_error: float


def predicted_correction_curve(distances: "np.ndarray | list[float]",
                               eyes: EyeGeometry,
                               params: PerturbationParams) -> list[CorrectionCurveRow]:
    """Predicted endpoint errors with and without the corrective remap.

    For each target distance: the original column is the model endpoint
    error in the uncorrected scene; the transformed column repeats the
    prediction for a target displayed at its remapped depth.  The
    transformed error is zero by construction but is computed numerically
    rather than assumed.

    Args:
        distances: Target cyclopean distances in meters, all positive.

    Returns:
        One row per input distance, in input order.
    """
    rows = []
    for d in np.asarray(distances, dtype=float):
        d = float(d)
        original = predict_endpoint(d, params, eyes) - d
        displayed = remap_depth(d, eyes, params)
        transformed = predict_endpoint(displayed, params, eyes) - d
        rows.append(CorrectionCurveRow(distance=d, original_error=original,
                                       transformed_error=transformed))
    return rows
