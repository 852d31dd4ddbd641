//! Simple text I/O for hypergraphs and graphs.
//!
//! Two formats are supported:
//!
//! * A **PaToH-like hypergraph format**: a header line
//!   `num_vertices num_nets num_pins`, then one line per net
//!   (`cost pin pin ...`), then one line per vertex (`weight size`).
//!   This is a simplification of the PaToH file format sufficient for
//!   round-tripping every structure this workspace produces.
//! * A **MatrixMarket pattern reader** for `coordinate` matrices, treated
//!   as the adjacency structure of an undirected graph (the way the
//!   paper's Table 1 datasets are distributed).

use std::io::{self, BufRead};

use crate::{CsrGraph, GraphBuilder, Hypergraph, HypergraphBuilder};

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A net cost, vertex weight or vertex size: a finite, non-negative number.
fn amount(token: Option<&str>, what: &str) -> io::Result<f64> {
    token
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| bad(&format!("bad {what}: want a finite non-negative number")))
}

/// Reads a hypergraph in the PaToH-like text format. Costs, weights and
/// sizes must be finite and non-negative.
pub fn read_hypergraph<R: BufRead>(r: R) -> io::Result<Hypergraph> {
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| bad("missing header"))??;
    let mut it = header.split_whitespace();
    let nv: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("bad vertex count"))?;
    let nn: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("bad net count"))?;

    let mut b = HypergraphBuilder::new(nv);
    for _ in 0..nn {
        let line = lines.next().ok_or_else(|| bad("missing net line"))??;
        let mut toks = line.split_whitespace();
        let cost = amount(toks.next(), "net cost")?;
        let pins: Result<Vec<usize>, _> = toks.map(|t| t.parse::<usize>()).collect();
        let pins = pins.map_err(|_| bad("bad pin index"))?;
        if pins.iter().any(|&p| p >= nv) {
            return Err(bad("pin index out of range"));
        }
        b.add_net(cost, pins);
    }
    for v in 0..nv {
        let line = lines.next().ok_or_else(|| bad("missing vertex line"))??;
        let mut toks = line.split_whitespace();
        b.set_vertex_weight(v, amount(toks.next(), "vertex weight")?);
        b.set_vertex_size(v, amount(toks.next(), "vertex size")?);
    }
    Ok(b.build())
}

/// Reads a MatrixMarket `coordinate` file as an undirected graph.
///
/// Both `pattern` and numeric value entries are accepted (the absolute
/// values are used as edge weights and must be finite; `pattern` entries
/// get weight 1). Diagonal entries are dropped; the structure is
/// symmetrized. Only square matrices are accepted, matching the paper's
/// symmetric test problems.
pub fn read_matrix_market_graph<R: BufRead>(r: R) -> io::Result<CsrGraph> {
    let mut lines = r.lines();
    let mut header: Option<String> = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        header = Some(t.to_string());
        break;
    }
    let header = header.ok_or_else(|| bad("missing size line"))?;
    let dims: Vec<usize> = header
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| bad("bad size line"))?;
    if dims.len() < 2 {
        return Err(bad("size line needs rows and cols"));
    }
    let (rows, cols) = (dims[0], dims[1]);
    if rows != cols {
        return Err(bad("only square (symmetric) matrices supported"));
    }

    let mut b = GraphBuilder::new(rows);
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = t.split_whitespace().collect();
        if toks.len() < 2 {
            return Err(bad("bad entry line"));
        }
        let i: usize = toks[0].parse().map_err(|_| bad("bad row index"))?;
        let j: usize = toks[1].parse().map_err(|_| bad("bad col index"))?;
        if i == 0 || j == 0 || i > rows || j > cols {
            return Err(bad("indices must be 1-based and in range"));
        }
        let w = match toks.get(2) {
            Some(value) => value
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| bad("bad entry value: want a finite number"))?
                .abs(),
            None => 1.0,
        };
        if i != j {
            b.add_edge(i - 1, j - 1, w);
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Write};

    /// Writes `h` in the PaToH-like text format.
    fn write_hypergraph<W: Write>(h: &Hypergraph, mut w: W) -> io::Result<()> {
        writeln!(w, "{} {} {}", h.num_vertices(), h.num_nets(), h.num_pins())?;
        for j in 0..h.num_nets() {
            write!(w, "{}", h.net_cost(j))?;
            for &p in h.net(j) {
                write!(w, " {p}")?;
            }
            writeln!(w)?;
        }
        for v in 0..h.num_vertices() {
            writeln!(w, "{} {}", h.vertex_weight(v), h.vertex_size(v))?;
        }
        Ok(())
    }

    #[test]
    fn hypergraph_roundtrip() {
        let mut h = Hypergraph::from_nets(4, &[vec![0, 1, 2], vec![2, 3]], vec![1.5, 2.0]);
        h.set_vertex_weight(1, 3.0);
        h.set_vertex_size(2, 0.5);
        let mut buf = Vec::new();
        write_hypergraph(&h, &mut buf).unwrap();
        let h2 = read_hypergraph(Cursor::new(buf)).unwrap();
        assert_eq!(h2.num_vertices(), 4);
        assert_eq!(h2.num_nets(), 2);
        assert_eq!(h2.net(0), h.net(0));
        assert_eq!(h2.net_cost(1), 2.0);
        assert_eq!(h2.vertex_weight(1), 3.0);
        assert_eq!(h2.vertex_size(2), 0.5);
    }

    #[test]
    fn matrix_market_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % comment\n\
                    3 3 3\n\
                    1 2\n\
                    2 3\n\
                    3 3\n";
        let g = read_matrix_market_graph(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2); // diagonal dropped
        g.validate().unwrap();
    }

    #[test]
    fn matrix_market_values_become_weights() {
        let text = "3 3 2\n1 2 -4.0\n1 3 2.0\n";
        let g = read_matrix_market_graph(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_weights(0), &[4.0, 2.0]);
    }

    #[test]
    fn matrix_market_duplicate_symmetric_entries_merge() {
        let text = "2 2 2\n1 2 1.0\n2 1 1.0\n";
        let g = read_matrix_market_graph(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weights(0), &[2.0]);
    }

    #[test]
    fn rejects_rectangular() {
        let text = "2 3 1\n1 2\n";
        assert!(read_matrix_market_graph(Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_out_of_range_pin() {
        let text = "2 1 2\n1.0 0 5\n1 1\n1 1\n";
        assert!(read_hypergraph(Cursor::new(text)).is_err());
    }

    /// Every malformed amount is an `InvalidData` error, never a panic or
    /// a value taken as read.
    #[test]
    fn rejects_malformed_hypergraph_amounts() {
        for (case, text) in [
            ("NaN vertex weight", "2 1 2\n1.0 0 1\nNaN 1\n1 1\n"),
            ("negative vertex weight", "2 1 2\n1.0 0 1\n-1 1\n1 1\n"),
            ("infinite vertex size", "2 1 2\n1.0 0 1\n1 1\n1 inf\n"),
            ("negative vertex size", "2 1 2\n1.0 0 1\n1 1\n1 -2\n"),
            ("negative net cost", "2 1 2\n-1.0 0 1\n1 1\n1 1\n"),
            ("infinite net cost", "2 1 2\ninf 0 1\n1 1\n1 1\n"),
            ("NaN net cost", "2 1 2\nNaN 0 1\n1 1\n1 1\n"),
        ] {
            let Err(err) = read_hypergraph(Cursor::new(text)) else { panic!("{case} accepted") };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}");
        }
    }

    #[test]
    fn rejects_malformed_matrix_market_entries() {
        for (case, text) in [
            ("unparsable value", &b"4 4 2\n1 2\n3 4 abc\n"[..]),
            ("infinite value", b"4 4 2\n1 2 1.0\n3 4 inf\n"),
            ("NaN value", b"4 4 1\n1 2 NaN\n"),
            ("unparsable diagonal value", b"4 4 1\n2 2 x\n"),
        ] {
            let Err(err) = read_matrix_market_graph(Cursor::new(text)) else {
                panic!("{case} accepted")
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}");
        }
        // A line that is not UTF-8 ends the read with its error instead of
        // silently dropping it and every entry after it.
        let text = b"4 4 4\n1 2\n2 3\n\xff\xfe 4\n3 4\n";
        let Err(err) = read_matrix_market_graph(Cursor::new(&text[..])) else {
            panic!("non-UTF-8 line accepted")
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
