//! The φ objective over packed (flat `f64`) geometry.
//!
//! The on-disk store (`smallworld-store`) keeps vertex positions as one flat
//! little-endian `f64` array of length `n · d` and weights as a plain `f64`
//! array — the natural zero-copy view of a memory-mapped file. Those bytes
//! are exactly a `[Point<D>]` (`Point` is `repr(transparent)` over
//! `[f64; D]`), so [`PackedGirgObjective`] views them in place with
//! [`Point::from_flat`] and scores through [`GirgObjective`]'s own
//! [`GirgHopKernel`]: one φ kernel for in-RAM and mapped geometry, and no
//! copy of the geometry.

use smallworld_geometry::Point;
use smallworld_graph::NodeId;

use crate::objective::{GirgHopKernel, GirgObjective, Objective};

/// The paper's objective `φ(v) = w_v / (w_min · n · ‖x_v − x_t‖^d)` (§2.2),
/// evaluated over packed geometry: a flat `f64` position array (`n · d`
/// entries, vertex-major) and a weight array, as exposed by a mapped
/// `.swg` store.
///
/// It is [`GirgObjective::from_parts`] over the viewed points, so its
/// kernel is [`GirgHopKernel`].
///
/// # Examples
///
/// ```
/// use smallworld_core::{Objective, PackedGirgObjective};
/// use smallworld_graph::NodeId;
///
/// // two vertices on the unit torus, packed vertex-major
/// let positions = [0.25, 0.25, 0.75, 0.75];
/// let weights = [1.0, 2.0];
/// let obj = PackedGirgObjective::<2>::new(&positions, &weights, 2.0);
/// assert!(obj.score(NodeId::new(1), NodeId::new(1)).is_infinite());
/// assert!(obj.score(NodeId::new(0), NodeId::new(1)) > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PackedGirgObjective<'a, const D: usize>(GirgObjective<'a, D>);

impl<'a, const D: usize> PackedGirgObjective<'a, D> {
    /// Creates the objective over packed geometry with normalization
    /// `w_min · n`.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != weights.len() * D`, a coordinate is
    /// not canonical (`0.0 <= c < 1.0`), or the normalization is not
    /// positive.
    pub fn new(positions: &'a [f64], weights: &'a [f64], wmin_times_n: f64) -> Self {
        assert_eq!(
            positions.len(),
            weights.len() * D,
            "positions must hold D coordinates per vertex"
        );
        let points = Point::from_flat(positions).expect("positions must be canonical coordinates");
        PackedGirgObjective(GirgObjective::from_parts(points, weights, wmin_times_n))
    }
}

impl<const D: usize> Objective for PackedGirgObjective<'_, D> {
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        self.0.score(v, target)
    }

    type Kernel<'k>
        = GirgHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        self.0.prepare(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GirgObjective, ScoreKernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::{Girg, GirgBuilder};

    fn pack<const D: usize>(girg: &Girg<D>) -> Vec<f64> {
        girg.positions()
            .iter()
            .flat_map(|p| p.coords().to_vec())
            .collect()
    }

    #[test]
    fn scores_match_point_based_objective_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let girg: Girg<2> = GirgBuilder::new(500).sample(&mut rng).unwrap();
        let flat = pack(&girg);
        let packed = PackedGirgObjective::<2>::new(&flat, girg.weights(), {
            let p = girg.params();
            p.wmin * p.intensity
        });
        let reference = GirgObjective::new(&girg);
        let n = girg.node_count();
        for t in (0..n).step_by(17) {
            let t = NodeId::new(t as u32);
            let kernel = packed.prepare(t);
            let ref_kernel = reference.prepare(t);
            for v in 0..n as u32 {
                let v = NodeId::new(v);
                let a = reference.score(v, t);
                let b = packed.score(v, t);
                assert!(
                    a.to_bits() == b.to_bits(),
                    "score mismatch at v={v:?} t={t:?}: {a} vs {b}"
                );
                assert_eq!(kernel.score(v).to_bits(), ref_kernel.score(v).to_bits());
            }
        }
    }

    #[test]
    fn one_dimensional_geometry_unpacks() {
        let mut rng = StdRng::seed_from_u64(3);
        let girg: Girg<1> = GirgBuilder::new(200).sample(&mut rng).unwrap();
        let flat = pack(&girg);
        let p = girg.params();
        let packed = PackedGirgObjective::<1>::new(&flat, girg.weights(), p.wmin * p.intensity);
        let reference = GirgObjective::new(&girg);
        let t = NodeId::new(0);
        for v in 0..girg.node_count() as u32 {
            let v = NodeId::new(v);
            assert_eq!(
                packed.score(v, t).to_bits(),
                reference.score(v, t).to_bits()
            );
        }
    }

    #[test]
    fn flat_positions_view_back_as_the_girg_points() {
        let mut rng = StdRng::seed_from_u64(5);
        let girg: Girg<2> = GirgBuilder::new(300).sample(&mut rng).unwrap();
        let flat = pack(&girg);
        assert_eq!(Point::<2>::from_flat(&flat), Some(girg.positions()));
    }

    #[test]
    #[should_panic(expected = "positions must hold D coordinates")]
    fn mismatched_lengths_panic() {
        let _ = PackedGirgObjective::<2>::new(&[0.0; 5], &[1.0; 2], 1.0);
    }
}
