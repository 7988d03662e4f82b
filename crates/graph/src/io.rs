//! Graph serialization in standard interchange formats.
//!
//! The paper deliberately sticks to standard representations so BFS can be
//! "a component of a complex workflow with many components that use
//! standard formats for passing data between them" (§II-D). This module
//! provides the two formats such workflows actually exchange:
//!
//! * a whitespace text edge list (`u v` per line, `#` comments, compatible
//!   with SNAP / common graph tooling);
//! * a compact little-endian binary edge list (`u64 n`, `u64 m`, then
//!   `m` pairs of `u64`).

use crate::edgelist::EdgeList;
use std::io::{self, BufRead, BufWriter, Read, Write};

/// Magic header of the binary format.
const MAGIC: &[u8; 8] = b"GCBFSEL1";

/// Writes the text edge-list format.
pub fn write_text<W: Write>(graph: &EdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# gcbfs edge list: {} vertices, {} edges", graph.num_vertices, graph.num_edges())?;
    writeln!(w, "# vertices {}", graph.num_vertices)?;
    for &(u, v) in &graph.edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Reads the text edge-list format. Lines starting with `#` are comments;
/// a `# vertices N` comment fixes the vertex count, otherwise it is
/// `max endpoint + 1`.
pub fn read_text<R: Read>(reader: R) -> io::Result<EdgeList> {
    let buf = io::BufReader::new(reader);
    let mut edges = Vec::new();
    let mut declared_n: Option<u64> = None;
    let mut max_endpoint = 0u64;
    for line in buf.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("vertices") {
                if let Some(n) = parts.next().and_then(|s| s.parse().ok()) {
                    declared_n = Some(n);
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |s: Option<&str>| -> io::Result<u64> {
            s.and_then(|x| x.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed edge line"))
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        max_endpoint = max_endpoint.max(u).max(v);
        edges.push((u, v));
    }
    let n = declared_n.unwrap_or(if edges.is_empty() { 0 } else { max_endpoint + 1 });
    if edges.iter().any(|&(u, v)| u >= n || v >= n) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "endpoint exceeds vertex count"));
    }
    Ok(EdgeList { num_vertices: n, edges })
}

/// The length of [`write_binary`]'s encoding of `graph`: a 24-byte header
/// and 16 bytes per edge.
pub fn binary_len(graph: &EdgeList) -> usize {
    24 + 16 * graph.edges.len()
}

/// Writes the binary edge-list format.
pub fn write_binary<W: Write>(graph: &EdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&graph.num_vertices.to_le_bytes())?;
    w.write_all(&graph.num_edges().to_le_bytes())?;
    for &(u, v) in &graph.edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// True when `bytes` is exactly [`write_binary`]'s encoding of `graph`:
/// the same vertex count and the same edges in the same order. Compares
/// in place, without decoding or allocating.
pub fn matches_binary(graph: &EdgeList, bytes: &[u8]) -> bool {
    let Some((header, edges)) = bytes.split_at_checked(24) else { return false };
    header[..8] == MAGIC[..]
        && header[8..16] == graph.num_vertices.to_le_bytes()
        && header[16..] == graph.num_edges().to_le_bytes()
        && bytes.len() == binary_len(graph)
        && edges
            .chunks_exact(16)
            .zip(&graph.edges)
            .all(|(e, &(u, v))| e[..8] == u.to_le_bytes() && e[8..] == v.to_le_bytes())
}

/// Reads the binary edge-list format.
pub fn read_binary<R: Read>(mut reader: R) -> io::Result<EdgeList> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let mut word = [0u8; 8];
    reader.read_exact(&mut word)?;
    let n = u64::from_le_bytes(word);
    reader.read_exact(&mut word)?;
    let m = u64::from_le_bytes(word);
    // The header is untrusted: the edges grow as their bytes arrive, at
    // most doubling what was read and never past the claimed count.
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for _ in 0..m {
        if edges.len() == edges.capacity() {
            let read = edges.len() as u64;
            edges.reserve_exact((m - read).min(read.max(4096)) as usize);
        }
        reader.read_exact(&mut word)?;
        let u = u64::from_le_bytes(word);
        reader.read_exact(&mut word)?;
        let v = u64::from_le_bytes(word);
        if u >= n || v >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "endpoint exceeds vertex count",
            ));
        }
        edges.push((u, v));
    }
    Ok(EdgeList { num_vertices: n, edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::rmat::RmatConfig;

    #[test]
    fn text_roundtrip() {
        let g = builders::double_star(4);
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn text_infers_vertex_count_without_header() {
        let input = "0 3\n2 1\n";
        let g = read_text(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices, 4);
        assert_eq!(g.edges, vec![(0, 3), (2, 1)]);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text("0 banana\n".as_bytes()).is_err());
        assert!(read_text("7\n".as_bytes()).is_err());
    }

    #[test]
    fn text_respects_declared_count_with_isolated_tail() {
        let input = "# vertices 10\n0 1\n";
        let g = read_text(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices, 10);
    }

    #[test]
    fn binary_roundtrip_rmat() {
        let g = RmatConfig::graph500(7).generate();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_match_is_exact() {
        let g = RmatConfig::graph500(7).generate();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert!(matches_binary(&g, &buf));
        // One endpoint changed, same length.
        let mut other = g.clone();
        other.edges[17].1 = (other.edges[17].1 + 1) % other.num_vertices;
        assert!(!matches_binary(&other, &buf));
        // An isolated vertex more, an edge fewer, a truncated encoding.
        let mut wider = g.clone();
        wider.num_vertices += 1;
        assert!(!matches_binary(&wider, &buf));
        let mut shorter = g.clone();
        shorter.edges.pop();
        assert!(!matches_binary(&shorter, &buf));
        assert!(!matches_binary(&g, &buf[..buf.len() - 1]));
        assert!(!matches_binary(&g, &buf[..10]));
    }

    #[test]
    fn binary_rejects_bad_magic_and_truncation() {
        assert!(read_binary(&b"NOTMAGIC"[..]).is_err());
        let g = builders::path(3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_header_claiming_more_edges_than_follow_is_a_typed_eof() {
        let g = builders::path(3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Claims the largest counts a header can: reading them must not
        // reserve memory for them first.
        for m in [u64::MAX, 1 << 40] {
            buf[16..24].copy_from_slice(&m.to_le_bytes());
            let err = read_binary(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "m = {m}");
        }
    }

    #[test]
    fn binary_rejects_out_of_range_endpoint() {
        let g = builders::path(3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Corrupt the vertex count downwards.
        buf[8..16].copy_from_slice(&1u64.to_le_bytes());
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = EdgeList::new(5, vec![]);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
        let mut tbuf = Vec::new();
        write_text(&g, &mut tbuf).unwrap();
        assert_eq!(read_text(&tbuf[..]).unwrap(), g);
    }
}
