//! Axis-aligned integer rectangles: foveal regions and their incremental
//! differences.
//!
//! The active-visualization client requests growing square regions around
//! the fovea; the server must transmit only the *new* area each round.
//! [`Rect::subtract`] decomposes `self \ other` into at most four disjoint
//! rectangles, which is how incremental "rings" are produced.

/// A half-open rectangle `[x, x+w) x [y, y+h)` in pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    pub x: usize,
    pub y: usize,
    pub w: usize,
    pub h: usize,
}

impl Rect {
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Rect { x, y, w, h }
    }

    /// The empty rectangle at the origin.
    pub fn empty() -> Self {
        Rect { x: 0, y: 0, w: 0, h: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    pub fn area(&self) -> usize {
        self.w * self.h
    }

    pub fn x1(&self) -> usize {
        self.x + self.w
    }

    pub fn y1(&self) -> usize {
        self.y + self.h
    }

    pub fn contains(&self, px: usize, py: usize) -> bool {
        px >= self.x && px < self.x1() && py >= self.y && py < self.y1()
    }

    /// Intersection (possibly empty).
    pub fn intersect(&self, o: &Rect) -> Rect {
        let x0 = self.x.max(o.x);
        let y0 = self.y.max(o.y);
        let x1 = self.x1().min(o.x1());
        let y1 = self.y1().min(o.y1());
        if x0 >= x1 || y0 >= y1 {
            Rect::empty()
        } else {
            Rect::new(x0, y0, x1 - x0, y1 - y0)
        }
    }

    /// A square of side `2r` centered at `(cx, cy)`, clamped to a
    /// `width x height` image.
    pub fn fovea(cx: usize, cy: usize, r: usize, width: usize, height: usize) -> Rect {
        let x0 = cx.saturating_sub(r);
        let y0 = cy.saturating_sub(r);
        let x1 = (cx + r).min(width);
        let y1 = (cy + r).min(height);
        if x0 >= x1 || y0 >= y1 {
            Rect::empty()
        } else {
            Rect::new(x0, y0, x1 - x0, y1 - y0)
        }
    }

    /// Scale down by `2^shift` (for mapping a full-resolution region onto a
    /// coarser pyramid level), rounding outward so the scaled rect covers
    /// every coefficient that influences the original region.
    pub fn scale_down(&self, shift: usize) -> Rect {
        if self.is_empty() {
            return Rect::empty();
        }
        let x0 = self.x >> shift;
        let y0 = self.y >> shift;
        let x1 = (self.x1() + (1 << shift) - 1) >> shift;
        let y1 = (self.y1() + (1 << shift) - 1) >> shift;
        Rect::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// `self \ other` as up to four disjoint rectangles (top, bottom, left,
    /// right bands). Their union is exactly the set difference.
    pub fn subtract(&self, other: &Rect) -> Vec<Rect> {
        let inter = self.intersect(other);
        if inter.is_empty() {
            return if self.is_empty() { vec![] } else { vec![*self] };
        }
        let mut out = Vec::new();
        // Top band.
        if inter.y > self.y {
            out.push(Rect::new(self.x, self.y, self.w, inter.y - self.y));
        }
        // Bottom band.
        if inter.y1() < self.y1() {
            out.push(Rect::new(self.x, inter.y1(), self.w, self.y1() - inter.y1()));
        }
        // Left band (within the intersection's vertical extent).
        if inter.x > self.x {
            out.push(Rect::new(self.x, inter.y, inter.x - self.x, inter.h));
        }
        // Right band.
        if inter.x1() < self.x1() {
            out.push(Rect::new(inter.x1(), inter.y, self.x1() - inter.x1(), inter.h));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.area(), 20);
        assert_eq!((r.x1(), r.y1()), (6, 8));
        assert!(r.contains(2, 3));
        assert!(r.contains(5, 7));
        assert!(!r.contains(6, 3));
    }

    #[test]
    fn intersection() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Rect::new(5, 5, 5, 5));
        let c = Rect::new(20, 20, 5, 5);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn fovea_clamps_to_image() {
        let r = Rect::fovea(10, 10, 20, 64, 64);
        assert_eq!(r, Rect::new(0, 0, 30, 30));
        let r = Rect::fovea(60, 60, 20, 64, 64);
        assert_eq!(r, Rect::new(40, 40, 24, 24));
    }

    #[test]
    fn scale_down_rounds_outward() {
        let r = Rect::new(3, 5, 6, 2); // x in [3,9), y in [5,7)
        let s = r.scale_down(1);
        // x in [1, 5), y in [2, 4)
        assert_eq!(s, Rect::new(1, 2, 4, 2));
        assert_eq!(Rect::empty().scale_down(3), Rect::empty());
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(10, 10, 2, 2);
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_contained_leaves_frame() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(2, 2, 6, 6);
        let parts = a.subtract(&b);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Rect::area).sum();
        assert_eq!(total, 100 - 36);
        // Pieces are disjoint and none overlaps b.
        for (i, p) in parts.iter().enumerate() {
            assert!(p.intersect(&b).is_empty());
            for q in &parts[i + 1..] {
                assert!(p.intersect(q).is_empty(), "{p:?} overlaps {q:?}");
            }
        }
    }

    #[test]
    fn subtract_covering_returns_empty() {
        let a = Rect::new(2, 2, 3, 3);
        let b = Rect::new(0, 0, 10, 10);
        assert!(a.subtract(&b).is_empty());
    }

    #[test]
    fn subtract_partial_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 0, 10, 10);
        let parts = a.subtract(&b);
        let total: usize = parts.iter().map(Rect::area).sum();
        assert_eq!(total, 50);
        for p in &parts {
            assert_eq!(a.intersect(p), *p, "inside a");
            assert!(p.intersect(&b).is_empty());
        }
    }

    #[test]
    fn subtract_exactly_tiles_difference() {
        // Pointwise check on a small grid.
        let a = Rect::new(1, 2, 7, 6);
        let b = Rect::new(4, 4, 9, 2);
        let parts = a.subtract(&b);
        for y in 0..12 {
            for x in 0..12 {
                let in_diff = a.contains(x, y) && !b.contains(x, y);
                let covered = parts.iter().filter(|p| p.contains(x, y)).count();
                assert_eq!(covered, usize::from(in_diff), "({x},{y})");
            }
        }
    }
}
