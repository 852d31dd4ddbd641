//! FNV-1a fingerprints of inputs (CSR arrays) and outputs (partitions).

use dlb_hypergraph::Hypergraph;

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Feeds the eight little-endian bytes of `w`.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a partition vector.
pub fn partition(part: &[usize]) -> u64 {
    let mut f = Fnv::new();
    f.words(part.iter().map(|&p| p as u64));
    f.finish()
}

/// Shape and fingerprint of a workload's first input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputFingerprint {
    pub vertices: usize,
    pub nets: usize,
    pub pins: usize,
    /// FNV-1a over the net→pin CSR arrays, then the bit patterns of the
    /// vertex weights, vertex sizes and net costs.
    pub hash: u64,
}

/// Fingerprint of a hypergraph: any change to structure, weights, sizes
/// or costs changes the hash.
pub fn input(h: &Hypergraph) -> InputFingerprint {
    let mut f = Fnv::new();
    let (offsets, pins) = h.pin_csr();
    f.words(offsets.iter().map(|&x| x as u64));
    f.words(pins.iter().map(|&x| x as u64));
    f.words((0..h.num_vertices()).map(|v| h.vertex_weight(v).to_bits()));
    f.words(h.vertex_sizes().iter().map(|x| x.to_bits()));
    f.words(h.net_costs().iter().map(|x| x.to_bits()));
    InputFingerprint {
        vertices: h.num_vertices(),
        nets: h.num_nets(),
        pins: h.num_pins(),
        hash: f.finish(),
    }
}

/// Fixed-width hex, the form fingerprints take in result files (a u64
/// does not survive a trip through a JSON double).
pub fn hex(x: u64) -> String {
    format!("{x:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 vectors: "" and "a".
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::new();
        a.byte(b'a');
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        // A word is its eight little-endian bytes.
        let (mut w, mut bytes) = (Fnv::new(), Fnv::new());
        w.word(0x0102);
        for b in [2, 1, 0, 0, 0, 0, 0, 0] {
            bytes.byte(b);
        }
        assert_eq!(w.finish(), bytes.finish());
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let nets = vec![vec![0, 1, 2], vec![2, 3]];
        let a = input(&Hypergraph::from_nets_unit(4, &nets));
        let b = input(&Hypergraph::from_nets_unit(4, &nets));
        assert_eq!(a, b);
        assert_eq!((a.vertices, a.nets, a.pins), (4, 2, 5));
        let moved = input(&Hypergraph::from_nets_unit(4, &[vec![0, 1, 3], vec![2, 3]]));
        assert_ne!(a.hash, moved.hash);
        let mut h = Hypergraph::from_nets_unit(4, &nets);
        h.set_net_cost(1, 2.0);
        assert_ne!(a.hash, input(&h).hash);
        assert_ne!(partition(&[0, 1, 1]), partition(&[0, 1, 0]));
        assert_eq!(hex(255), "00000000000000ff");
    }
}
