//! Planar geometry: disks, half-planes, convex containers.

/// A disk with center `c` and radius `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disk {
    /// Center coordinates.
    pub c: [f64; 2],
    /// Radius (the solver may transiently produce negative values; final
    /// solutions should have `r ≥ 0`).
    pub r: f64,
}

impl Disk {
    /// Signed gap to another disk: positive means separated.
    pub(crate) fn gap(&self, other: &Disk) -> f64 {
        let dx = self.c[0] - other.c[0];
        let dy = self.c[1] - other.c[1];
        (dx * dx + dy * dy).sqrt() - self.r - other.r
    }

    /// Area `π r²` (0 if the radius is negative).
    pub(crate) fn area(&self) -> f64 {
        if self.r > 0.0 {
            std::f64::consts::PI * self.r * self.r
        } else {
            0.0
        }
    }
}

/// A half-plane `{p : Qᵀ(p − V) ≥ 0}` with inward unit normal `Q` through
/// point `V`. A disk of radius `r` is inside iff `Qᵀ(c − V) ≥ r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    /// Inward unit normal.
    pub q: [f64; 2],
    /// A point on the boundary line.
    pub v: [f64; 2],
}

impl HalfPlane {
    /// Constructs, normalizing `q`.
    pub(crate) fn new(q: [f64; 2], v: [f64; 2]) -> Self {
        let norm = (q[0] * q[0] + q[1] * q[1]).sqrt();
        assert!(norm > 0.0, "half-plane normal must be non-zero");
        HalfPlane {
            q: [q[0] / norm, q[1] / norm],
            v,
        }
    }

    /// Signed clearance of a disk: `Qᵀ(c − V) − r`, ≥ 0 when inside.
    pub(crate) fn clearance(&self, d: &Disk) -> f64 {
        self.q[0] * (d.c[0] - self.v[0]) + self.q[1] * (d.c[1] - self.v[1]) - d.r
    }
}

/// A convex container as an intersection of half-planes, plus its vertex
/// list (for area and sampling).
#[derive(Debug, Clone)]
pub struct Polygon {
    /// Bounding half-planes (inward normals).
    pub walls: Vec<HalfPlane>,
    /// Vertices in counter-clockwise order.
    pub vertices: Vec<[f64; 2]>,
}

impl Polygon {
    /// Builds from CCW vertices, deriving one wall per edge.
    pub(crate) fn from_vertices(vertices: Vec<[f64; 2]>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs at least 3 vertices");
        let n = vertices.len();
        let mut walls = Vec::with_capacity(n);
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let edge = [b[0] - a[0], b[1] - a[1]];
            // CCW order → inward normal is the left-hand normal.
            walls.push(HalfPlane::new([-edge[1], edge[0]], a));
        }
        Polygon { walls, vertices }
    }

    /// The paper's container: a triangle. This is the equilateral triangle
    /// with side `side`, base on the x-axis.
    pub fn triangle(side: f64) -> Self {
        assert!(side > 0.0);
        let h = side * 3.0_f64.sqrt() / 2.0;
        Polygon::from_vertices(vec![[0.0, 0.0], [side, 0.0], [side / 2.0, h]])
    }

    /// Axis-aligned unit square scaled by `side`.
    pub fn square(side: f64) -> Self {
        assert!(side > 0.0);
        Polygon::from_vertices(vec![[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    }

    /// Polygon area by the shoelace formula.
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a[0] * b[1] - b[0] * a[1];
        }
        acc / 2.0
    }

    /// Centroid of the vertex set.
    #[cfg(test)]
    pub(crate) fn centroid(&self) -> [f64; 2] {
        let n = self.vertices.len() as f64;
        let mut c = [0.0, 0.0];
        for v in &self.vertices {
            c[0] += v[0] / n;
            c[1] += v[1] / n;
        }
        c
    }

    /// Whether a point satisfies all wall constraints (radius 0).
    pub fn contains(&self, p: [f64; 2]) -> bool {
        let probe = Disk { c: p, r: 0.0 };
        self.walls.iter().all(|w| w.clearance(&probe) >= 0.0)
    }

    /// Worst (most negative) wall clearance over all disks.
    pub(crate) fn min_clearance(&self, disks: &[Disk]) -> f64 {
        disks
            .iter()
            .flat_map(|d| self.walls.iter().map(move |w| w.clearance(d)))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_gap_and_area() {
        let a = Disk {
            c: [0.0, 0.0],
            r: 1.0,
        };
        let b = Disk {
            c: [3.0, 0.0],
            r: 1.0,
        };
        assert!((a.gap(&b) - 1.0).abs() < 1e-12);
        assert!((a.area() - std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(
            Disk {
                c: [0.0, 0.0],
                r: -1.0
            }
            .area(),
            0.0
        );
    }

    #[test]
    fn halfplane_clearance() {
        // x ≥ 0 half-plane.
        let w = HalfPlane::new([1.0, 0.0], [0.0, 0.0]);
        let inside = Disk {
            c: [2.0, 5.0],
            r: 1.0,
        };
        let outside = Disk {
            c: [0.5, 0.0],
            r: 1.0,
        };
        assert!((w.clearance(&inside) - 1.0).abs() < 1e-12);
        assert!((w.clearance(&outside) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn halfplane_normalizes() {
        let w = HalfPlane::new([3.0, 4.0], [0.0, 0.0]);
        assert!((w.q[0] - 0.6).abs() < 1e-12);
        assert!((w.q[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn triangle_area_and_walls() {
        let t = Polygon::triangle(2.0);
        assert_eq!(t.walls.len(), 3);
        assert!((t.area() - 3.0_f64.sqrt()).abs() < 1e-12);
        assert!(t.contains(t.centroid()));
        assert!(!t.contains([-1.0, 0.0]));
    }

    #[test]
    fn square_area() {
        let s = Polygon::square(3.0);
        assert!((s.area() - 9.0).abs() < 1e-12);
        assert!(s.contains([1.5, 1.5]));
    }

    #[test]
    fn inward_normals_point_inside() {
        let t = Polygon::triangle(1.0);
        let c = t.centroid();
        for w in &t.walls {
            let probe = Disk { c, r: 0.0 };
            assert!(w.clearance(&probe) > 0.0, "centroid must clear every wall");
        }
    }

    #[test]
    fn min_clearance_over_disks() {
        let s = Polygon::square(4.0);
        let disks = vec![
            Disk {
                c: [2.0, 2.0],
                r: 1.0,
            },
            Disk {
                c: [0.5, 2.0],
                r: 1.0,
            }, // pokes out left wall by 0.5
        ];
        assert!((s.min_clearance(&disks) + 0.5).abs() < 1e-12);
    }
}
