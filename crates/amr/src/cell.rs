//! Quadtree cells: addressing, geometry, and tree navigation.
//!
//! The domain is the unit square `[0,1]²`. At refinement level `ℓ` the
//! square is a uniform `2^ℓ × 2^ℓ` grid; a cell is addressed by its
//! level and its integer grid coordinates. The `Ord` derive (level
//! first, then `y`, then `x`) fixes one canonical cell order used
//! everywhere — leaf enumeration, vertex numbering, tie-breaking — so
//! the whole AMR subsystem is deterministic by construction.
//!
//! Lookups by address go through [`CellMap`] (and `CellSet`), hashed by the
//! crate's own [`CellHasher`]. Their iteration order never reaches an
//! output: anything ordered is read from a sorted `Vec`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A face direction of a cell.
///
/// Replaces the old raw-`usize` direction API (where an out-of-range
/// index panicked at runtime): the enum makes every direction value
/// valid by construction, so [`Cell::neighbor`] and
/// [`Cell::face_children`] are total functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Direction {
    /// `-x`.
    West,
    /// `+x`.
    East,
    /// `-y`.
    South,
    /// `+y`.
    North,
}

impl Direction {
    /// The four directions in canonical order (west, east, south,
    /// north) — the iteration order everywhere in the mesh code, so the
    /// AMR subsystem stays deterministic by construction.
    pub(crate) const ALL: [Direction; 4] = [
        Direction::West,
        Direction::East,
        Direction::South,
        Direction::North,
    ];

    /// The opposite face direction.
    #[inline]
    pub(crate) fn opposite(self) -> Direction {
        match self {
            Direction::West => Direction::East,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::North => Direction::South,
        }
    }
}

/// One quadtree cell: refinement level plus grid coordinates at that
/// level. Only cells stored in a `QuadMesh`'s leaf set are part
/// of the mesh; the type itself is a pure address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    /// Refinement level (`0` = the whole domain as one cell).
    pub level: u8,
    /// Row index in `0..2^level` (y direction).
    pub y: u32,
    /// Column index in `0..2^level` (x direction).
    pub x: u32,
}

/// One `u64` per cell, so hashing a cell is one write.
impl Hash for Cell {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key());
    }
}

/// A map keyed by [`Cell`] under `CellHasher`.
pub type CellMap<V> = HashMap<Cell, V, BuildHasherDefault<CellHasher>>;

/// A set of [`Cell`]s under [`CellHasher`].
pub(crate) type CellSet = HashSet<Cell, BuildHasherDefault<CellHasher>>;

/// The hasher behind [`CellMap`] and `CellSet`: one multiply over a
/// cell's packed `(level, y, x)` key. It holds no random state, so a
/// table's layout is the same in every run; iteration order still
/// never decides an output.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        // Fold the row and level bits down before the multiply and the
        // product's high half down after it: tables index by low bits.
        let k = self.0.rotate_left(5) ^ key;
        let h = (k ^ (k >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

impl Cell {
    /// `(level, y, x)` packed into one `u64`; orders like the derived
    /// `Ord` for every cell a mesh can hold (coordinates below `2^24`).
    #[inline]
    pub(crate) fn key(self) -> u64 {
        (self.level as u64) << 48 | (self.y as u64) << 24 | self.x as u64
    }

    /// The cell covering `[x/2^ℓ, (x+1)/2^ℓ] × [y/2^ℓ, (y+1)/2^ℓ]`.
    ///
    /// # Panics
    /// Panics if the coordinates are outside the level's grid.
    #[cfg(test)]
    pub(crate) fn new(level: u8, x: u32, y: u32) -> Self {
        let side = 1u32 << level;
        assert!(
            x < side && y < side,
            "cell ({x},{y}) outside level-{level} grid"
        );
        Cell { level, x, y }
    }

    /// Cell edge length.
    #[inline]
    pub(crate) fn width(self) -> f64 {
        1.0 / (1u64 << self.level) as f64
    }

    /// Cell center coordinates.
    #[inline]
    pub(crate) fn center(self) -> (f64, f64) {
        let w = self.width();
        ((self.x as f64 + 0.5) * w, (self.y as f64 + 0.5) * w)
    }

    /// The parent cell, or `None` at the root.
    #[inline]
    pub(crate) fn parent(self) -> Option<Cell> {
        if self.level == 0 {
            None
        } else {
            Some(Cell {
                level: self.level - 1,
                x: self.x / 2,
                y: self.y / 2,
            })
        }
    }

    /// The four children, in canonical order: `(2x,2y)`, `(2x+1,2y)`,
    /// `(2x,2y+1)`, `(2x+1,2y+1)` (south-west, south-east, north-west,
    /// north-east).
    #[inline]
    pub(crate) fn children(self) -> [Cell; 4] {
        let (l, x, y) = (self.level + 1, self.x * 2, self.y * 2);
        [
            Cell { level: l, x, y },
            Cell {
                level: l,
                x: x + 1,
                y,
            },
            Cell {
                level: l,
                x,
                y: y + 1,
            },
            Cell {
                level: l,
                x: x + 1,
                y: y + 1,
            },
        ]
    }

    /// The same-level neighbor in direction `dir`, or `None` past the
    /// domain boundary.
    #[inline]
    pub(crate) fn neighbor(self, dir: Direction) -> Option<Cell> {
        let side = 1u32 << self.level;
        let (x, y) = (self.x, self.y);
        let (nx, ny) = match dir {
            Direction::West => (x.checked_sub(1)?, y),
            Direction::East => {
                if x + 1 >= side {
                    return None;
                }
                (x + 1, y)
            }
            Direction::South => (x, y.checked_sub(1)?),
            Direction::North => {
                if y + 1 >= side {
                    return None;
                }
                (x, y + 1)
            }
        };
        Some(Cell {
            level: self.level,
            x: nx,
            y: ny,
        })
    }

    /// The two children of `self` that touch the face in direction
    /// `dir` — used when descending into a *finer* neighbor: from a
    /// cell's perspective, the relevant children of its neighbor in
    /// direction `dir` are the neighbor's children on the *opposite*
    /// face, `face_children(dir.opposite())`.
    #[inline]
    pub(crate) fn face_children(self, dir: Direction) -> [Cell; 2] {
        let c = self.children();
        match dir {
            Direction::West => [c[0], c[2]],  // left column
            Direction::East => [c[1], c[3]],  // right column
            Direction::South => [c[0], c[1]], // bottom row
            Direction::North => [c[2], c[3]], // top row
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cell {
        /// True if `self` lies inside (or equals) `ancestor`.
        pub(crate) fn descends_from(self, ancestor: Cell) -> bool {
            if self.level < ancestor.level {
                return false;
            }
            let shift = self.level - ancestor.level;
            (self.x >> shift) == ancestor.x && (self.y >> shift) == ancestor.y
        }
    }

    #[test]
    fn geometry() {
        let c = Cell::new(2, 1, 2);
        assert_eq!(c.width(), 0.25);
        assert_eq!(c.center(), (0.375, 0.625));
        assert_eq!(c.parent(), Some(Cell::new(1, 0, 1)));
        assert_eq!(Cell::new(0, 0, 0).parent(), None);
    }

    #[test]
    fn children_partition_parent() {
        let p = Cell::new(1, 1, 0);
        let kids = p.children();
        assert_eq!(kids[0], Cell::new(2, 2, 0));
        assert_eq!(kids[3], Cell::new(2, 3, 1));
        for child in kids {
            assert!(child.descends_from(p));
            assert_eq!(child.parent(), Some(p));
        }
        assert!(!Cell::new(2, 0, 0).descends_from(p));
    }

    #[test]
    fn neighbors_respect_boundary() {
        let c = Cell::new(1, 0, 0);
        assert_eq!(c.neighbor(Direction::West), None);
        assert_eq!(c.neighbor(Direction::South), None);
        assert_eq!(c.neighbor(Direction::East), Some(Cell::new(1, 1, 0)));
        assert_eq!(c.neighbor(Direction::North), Some(Cell::new(1, 0, 1)));
        assert_eq!(Cell::new(1, 1, 1).neighbor(Direction::East), None);
        assert_eq!(Cell::new(1, 1, 1).neighbor(Direction::North), None);
    }

    #[test]
    fn opposite_directions() {
        assert_eq!(Direction::West.opposite(), Direction::East);
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::South.opposite(), Direction::North);
        assert_eq!(Direction::North.opposite(), Direction::South);
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn face_children_touch_the_face() {
        let p = Cell::new(0, 0, 0);
        // East face children have x = 1 at level 1.
        assert!(p.face_children(Direction::East).iter().all(|c| c.x == 1));
        assert!(p.face_children(Direction::West).iter().all(|c| c.x == 0));
        assert!(p.face_children(Direction::North).iter().all(|c| c.y == 1));
        assert!(p.face_children(Direction::South).iter().all(|c| c.y == 0));
    }

    /// Neighboring and direction opposition round-trip: if `n` is `c`'s
    /// neighbor in direction `d`, then `c` is `n`'s neighbor in
    /// `d.opposite()`, at every interior cell of a grid.
    #[test]
    fn neighbor_direction_round_trip() {
        for level in 1..=3u8 {
            let side = 1u32 << level;
            for y in 0..side {
                for x in 0..side {
                    let c = Cell::new(level, x, y);
                    for d in Direction::ALL {
                        if let Some(n) = c.neighbor(d) {
                            assert_eq!(n.neighbor(d.opposite()), Some(c), "{c:?} via {d:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn key_orders_like_cells() {
        let mut cells = Vec::new();
        for level in 0..=4u8 {
            let side = 1u32 << level;
            for y in 0..side {
                for x in 0..side {
                    cells.push(Cell::new(level, x, y));
                }
            }
        }
        cells.push(Cell::new(20, (1 << 20) - 1, 0));
        cells.push(Cell::new(20, 0, (1 << 20) - 1));
        for a in &cells {
            for b in &cells {
                assert_eq!(a.key().cmp(&b.key()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn canonical_order_is_level_major() {
        let mut cells = [Cell::new(2, 3, 0), Cell::new(1, 0, 1), Cell::new(2, 0, 0)];
        cells.sort();
        assert_eq!(cells[0].level, 1);
        assert!(cells[1] < cells[2]);
    }
}
