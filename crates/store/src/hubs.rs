//! The HUBS section: hub block summaries stored next to the adjacency, so
//! decode-free routes skip hub blocks just as in-RAM routes do.
//!
//! The payload is [`HubBlocks`]' own three arrays, little-endian:
//!
//! ```text
//! 8          hub count h (u64)
//! 4·h        hub ids (u32, strictly ascending), zero-padded to 8 bytes
//! 8·(h+1)    row starts (u64): hub i's rows are starts[i]..starts[i+1]
//! 8·w·rows   summary rows, w = 1 + 2d f64s each (HubBlocks' row layout)
//! ```
//!
//! [`HubsView`] views the arrays in place (the rows are as zero-copy as
//! POS) after checking them structurally; see [`HubsView::parse`]. The
//! section CRC catches flipped bits, but a CRC-valid section that lies
//! about the geometry misroutes, exactly as a lying NBR section would.

use std::borrow::Cow;

use smallworld_graph::NodeId;
use smallworld_models::girg::{HubBlocks, HUB_BLOCK_SLOTS};

use crate::format::le_view;
use crate::StoreError;

/// The HUBS section payload of `hubs`.
pub(crate) fn hubs_section_bytes<const D: usize>(hubs: &HubBlocks<D>) -> Vec<u8> {
    let ids = hubs.hubs();
    let mut bytes = Vec::with_capacity(
        8 + ids.len().next_multiple_of(2) * 4 + hubs.starts().len() * 8 + hubs.all_rows().len() * 8,
    );
    bytes.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    for id in ids {
        bytes.extend_from_slice(&id.raw().to_le_bytes());
    }
    bytes.resize(bytes.len().next_multiple_of(8), 0);
    for &start in hubs.starts() {
        bytes.extend_from_slice(&start.to_le_bytes());
    }
    for &value in hubs.all_rows() {
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    bytes
}

/// A validated view of a store's HUBS section.
#[derive(Debug)]
pub(crate) struct HubsView<'a> {
    ids: Cow<'a, [u32]>,
    starts: Cow<'a, [u64]>,
    rows: Cow<'a, [f64]>,
    /// Values per row, `1 + 2d`.
    width: usize,
}

fn corrupt(what: String) -> StoreError {
    StoreError::Corrupt(format!("HUBS section: {what}"))
}

impl<'a> HubsView<'a> {
    /// Views a HUBS payload of a `dim`-dimensional store whose adjacency
    /// is the OFFSETS index `offsets` over the NBR bytes `nbr` (already
    /// validated as a monotone cover of `nbr`).
    ///
    /// Checked, each failure a [`StoreError::Corrupt`]: the hub ids are
    /// strictly ascending and below the vertex count; the row starts begin
    /// at 0, never decrease and end at the number of rows the section
    /// holds; no row value is NaN and `lo ≤ hi` on every axis; and each
    /// hub has `ceil(deg / HUB_BLOCK_SLOTS)` rows, where `deg` counts the
    /// varint terminator bytes (MSB clear) of the hub's NBR range, so no
    /// list is decoded.
    pub(crate) fn parse(
        bytes: &'a [u8],
        dim: u32,
        offsets: &[u64],
        nbr: &[u8],
    ) -> Result<HubsView<'a>, StoreError> {
        let width = 1 + 2 * dim as usize;
        let (count, rest) = bytes
            .split_first_chunk::<8>()
            .ok_or_else(|| corrupt(format!("{} bytes, shorter than its count", bytes.len())))?;
        let count = u64::from_le_bytes(*count);
        // each hub takes at least 12 bytes, which also bounds the products
        let lengths = |h: usize| ((4 * h).next_multiple_of(8), 8 * (h + 1));
        let h = usize::try_from(count)
            .ok()
            .filter(|&h| h <= rest.len() / 12 && lengths(h).0 + lengths(h).1 <= rest.len())
            .ok_or_else(|| corrupt(format!("{count} hubs do not fit {} bytes", bytes.len())))?;
        let (ids_len, starts_len) = lengths(h);
        let ids: Cow<'a, [u32]> = le_view(&rest[..4 * h]);
        let starts: Cow<'a, [u64]> = le_view(&rest[ids_len..ids_len + starts_len]);
        let row_bytes = &rest[ids_len + starts_len..];
        let rows: Cow<'a, [f64]> = le_view(row_bytes);
        if row_bytes.len() % (8 * width) != 0
            || starts[0] != 0
            || starts[h] != (rows.len() / width) as u64
        {
            return Err(corrupt(format!(
                "{} row bytes do not match the row starts",
                row_bytes.len()
            )));
        }
        if starts.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("row starts decrease".into()));
        }
        let n = offsets.len() - 1;
        if ids.windows(2).any(|w| w[0] >= w[1]) || ids.last().is_some_and(|&v| v as usize >= n) {
            return Err(corrupt(format!("hub ids not strictly ascending below {n}")));
        }
        for row in rows.chunks_exact(width) {
            let (lo, hi) = row[1..].split_at(dim as usize);
            if row.iter().any(|x| x.is_nan()) || lo.iter().zip(hi).any(|(lo, hi)| lo > hi) {
                return Err(corrupt(format!("summary row {row:?} is not a box")));
            }
        }
        for (i, &v) in ids.iter().enumerate() {
            let list = &nbr[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
            let degree = list.iter().filter(|&&b| b & 0x80 == 0).count();
            let blocks = starts[i + 1] - starts[i];
            if degree.div_ceil(HUB_BLOCK_SLOTS) as u64 != blocks {
                return Err(corrupt(format!(
                    "hub v{v} of degree {degree} has {blocks} block rows"
                )));
            }
        }
        Ok(HubsView {
            ids,
            starts,
            rows,
            width,
        })
    }

    /// The summary rows of `v`'s list, or `None` if `v` is not a hub.
    #[inline]
    pub(crate) fn rows(&self, v: NodeId) -> Option<&[f64]> {
        let i = self.ids.binary_search(&v.raw()).ok()?;
        let (from, to) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        Some(&self.rows[from * self.width..to * self.width])
    }

    /// Number of summarized hubs.
    pub(crate) fn hub_count(&self) -> usize {
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{
        meta_section_bytes, offsets_section_bytes, pos_section_bytes, weight_section_bytes,
        write_sections, SectionSource,
    };
    use crate::{CompressedCsr, GraphStore, SectionId, FLAG_GEOMETRY};
    use smallworld_geometry::Point;
    use smallworld_graph::Graph;
    use smallworld_models::girg::GirgParams;
    use smallworld_models::Alpha;

    /// A star of degree 300 around vertex 0 (5 blocks), in one dimension.
    fn star() -> (Graph, Vec<Point<1>>, Vec<f64>) {
        let n = 301;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|u| (0, u)).collect();
        let graph = Graph::from_edges(n, edges).unwrap();
        let positions = (0..n).map(|i| Point::new([i as f64 / n as f64])).collect();
        (graph, positions, vec![1.0; n])
    }

    /// Writes the star as a store whose HUBS payload is `hubs`.
    fn write_star(path: &std::path::Path, hubs: Vec<u8>) {
        let (graph, positions, weights) = star();
        let compressed = CompressedCsr::from_graph(&graph);
        let params = GirgParams {
            intensity: 301.0,
            beta: 2.5,
            wmin: 1.0,
            alpha: Alpha::Threshold,
            lambda: 1.0,
        };
        let sections = [
            (SectionId::Meta, meta_section_bytes(params, 0)),
            (
                SectionId::Offsets,
                offsets_section_bytes(compressed.offsets()),
            ),
            (SectionId::Nbr, compressed.data().to_vec()),
            (SectionId::Pos, pos_section_bytes(&positions)),
            (SectionId::Weight, weight_section_bytes(&weights)),
            (SectionId::Hubs, hubs),
        ]
        .map(|(id, bytes)| (id, SectionSource::Bytes(bytes)));
        let targets = compressed.target_count() as u64;
        write_sections(path, 1, FLAG_GEOMETRY, 301, targets, &sections).unwrap();
    }

    /// The star's own summaries as raw parts: ids, starts and rows.
    fn parts() -> (Vec<u32>, Vec<u64>, Vec<f64>) {
        let (graph, positions, weights) = star();
        let hubs = HubBlocks::build(&graph, &positions, &weights);
        let ids = hubs.hubs().iter().map(|v| v.raw()).collect();
        (ids, hubs.starts().to_vec(), hubs.all_rows().to_vec())
    }

    fn payload(ids: &[u32], starts: &[u64], rows: &[f64]) -> Vec<u8> {
        let mut bytes = (ids.len() as u64).to_le_bytes().to_vec();
        ids.iter().for_each(|v| bytes.extend(v.to_le_bytes()));
        bytes.resize(bytes.len().next_multiple_of(8), 0);
        starts.iter().for_each(|s| bytes.extend(s.to_le_bytes()));
        rows.iter().for_each(|x| bytes.extend(x.to_le_bytes()));
        bytes
    }

    #[test]
    fn written_section_views_back_as_the_summaries() {
        let (graph, positions, weights) = star();
        let hubs = HubBlocks::build(&graph, &positions, &weights);
        let (ids, starts, rows) = parts();
        assert_eq!(hubs_section_bytes(&hubs), payload(&ids, &starts, &rows));

        let path = std::env::temp_dir().join(format!(
            "smallworld-store-hubs-ok-{}.swg",
            std::process::id()
        ));
        write_star(&path, hubs_section_bytes(&hubs));
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        assert_eq!(mapped.hub_count(), 1);
        assert_eq!(mapped.hub_rows(NodeId::new(0)), hubs.rows(NodeId::new(0)));
        assert_eq!(mapped.hub_rows(NodeId::new(1)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_hubs_section_is_corrupt_not_a_panic() {
        let path = std::env::temp_dir().join(format!(
            "smallworld-store-hubs-bad-{}.swg",
            std::process::id()
        ));
        let (ids, starts, rows) = parts();
        let w = HubBlocks::<1>::ROW_WIDTH;
        // a second hub so the ids can be out of order: vertex 1 has
        // degree 1, one block
        let two_hubs = |ids: [u32; 2]| {
            let mut rows2 = rows.clone();
            rows2.extend_from_slice(&rows[..w]);
            payload(&ids, &[0, 5, 6], &rows2)
        };
        let mut nan = rows.clone();
        nan[w] = f64::NAN;
        let mut inverted = rows.clone();
        inverted.swap(1, 2);
        assert!(inverted[1] > inverted[2]);
        let faults = [
            ("ids out of order", two_hubs([1, 0])),
            (
                "block count off the degree",
                payload(&ids, &[0, 4], &rows[..4 * w]),
            ),
            (
                "truncated rows",
                payload(&ids, &starts, &rows[..rows.len() - 1]),
            ),
            ("NaN in a row", payload(&ids, &starts, &nan)),
            ("lo above hi", payload(&ids, &starts, &inverted)),
            ("hub count past the section", {
                let mut bytes = payload(&ids, &starts, &rows);
                bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
                bytes
            }),
            ("short section", vec![0; 5]),
        ];
        assert!(matches!(
            {
                write_star(&path, two_hubs([0, 1]));
                GraphStore::open(&path).unwrap().mapped_graph().map(drop)
            },
            Ok(())
        ));
        for (fault, hubs) in faults {
            write_star(&path, hubs);
            let store = GraphStore::open(&path).expect(fault);
            assert!(
                matches!(store.mapped_graph(), Err(StoreError::Corrupt(_))),
                "{fault}: {:?}",
                store.mapped_graph().map(drop)
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
