//! Cluster formation.
//!
//! §III-B: "To decide on the components of clusters, we can either use
//! clustering techniques developed in wireless sensor networks [13] or
//! define clusters as the set of DF servers of a physical building or
//! district." Both are implemented: [`by_building`] and [`kmeans`]
//! (Lloyd's algorithm with deterministic k-means++-style seeding).

use rand::Rng;
use simcore::dist::discrete;

/// A server's physical position in the district, metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    pub x: f64,
    pub y: f64,
}

impl Position {
    pub fn dist(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A clustering: `assignment[i]` is the cluster of server `i`.
#[derive(Debug, Clone)]
pub struct Clustering {
    pub assignment: Vec<usize>,
    pub n_clusters: usize,
}

impl Clustering {
    /// Members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sizes of every cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.n_clusters];
        for &a in &self.assignment {
            sizes[a] += 1;
        }
        sizes
    }

    /// Maximum distance from a server to its cluster centroid — the
    /// gateway-reach quality metric.
    pub fn max_radius(&self, positions: &[Position]) -> f64 {
        assert_eq!(positions.len(), self.assignment.len());
        let centroids = self.centroids(positions);
        positions
            .iter()
            .zip(&self.assignment)
            .map(|(p, &c)| p.dist(&centroids[c]))
            .fold(0.0, f64::max)
    }

    /// Centroids of each cluster.
    pub fn centroids(&self, positions: &[Position]) -> Vec<Position> {
        let mut sums = vec![(0.0, 0.0, 0usize); self.n_clusters];
        for (p, &c) in positions.iter().zip(&self.assignment) {
            sums[c].0 += p.x;
            sums[c].1 += p.y;
            sums[c].2 += 1;
        }
        sums.into_iter()
            .map(|(x, y, n)| {
                let n = n.max(1) as f64;
                Position { x: x / n, y: y / n }
            })
            .collect()
    }
}

/// Cluster by building id: servers of one building form one cluster.
/// Building ids need not be contiguous; clusters are numbered in order
/// of first appearance.
pub fn by_building(buildings: &[usize]) -> Clustering {
    let mut map = std::collections::HashMap::new();
    let mut assignment = Vec::with_capacity(buildings.len());
    for &b in buildings {
        let next = map.len();
        let c = *map.entry(b).or_insert(next);
        assignment.push(c);
    }
    Clustering {
        assignment,
        n_clusters: map.len(),
    }
}

/// Lloyd's k-means over server positions with k-means++ seeding,
/// deterministic given the RNG. Panics if `k` is 0 or exceeds the
/// number of servers.
pub fn kmeans<R: Rng + ?Sized>(
    rng: &mut R,
    positions: &[Position],
    k: usize,
    max_iters: usize,
) -> Clustering {
    assert!(k > 0 && k <= positions.len(), "bad k = {k}");
    // k-means++ seeding.
    let mut centroids: Vec<Position> = Vec::with_capacity(k);
    centroids.push(positions[rng.gen_range(0..positions.len())]);
    while centroids.len() < k {
        let d2: Vec<f64> = positions
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| p.dist(c).powi(2))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= f64::EPSILON {
            // All remaining points coincide with a centroid; pick any.
            centroids.push(positions[rng.gen_range(0..positions.len())]);
        } else {
            centroids.push(positions[discrete(rng, &d2)]);
        }
    }
    let mut assignment = vec![0usize; positions.len()];
    for _ in 0..max_iters {
        // Assign.
        let mut changed = false;
        for (i, p) in positions.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| p.dist(a.1).partial_cmp(&p.dist(b.1)).expect("NaN dist"))
                .map(|(j, _)| j)
                .expect("k > 0");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        let clustering = Clustering {
            assignment: assignment.clone(),
            n_clusters: k,
        };
        centroids = clustering.centroids(positions);
        if !changed {
            break;
        }
    }
    Clustering {
        assignment,
        n_clusters: k,
    }
}

/// Lay out `n` servers in `n_buildings` buildings on a city grid:
/// buildings sit on a √n_buildings grid with `spacing` metres, servers
/// scatter within `building_radius` of their building. Returns
/// (positions, building ids).
pub fn city_layout<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    n_buildings: usize,
    spacing: f64,
    building_radius: f64,
) -> (Vec<Position>, Vec<usize>) {
    assert!(n_buildings > 0);
    let side = (n_buildings as f64).sqrt().ceil() as usize;
    let mut positions = Vec::with_capacity(n);
    let mut buildings = Vec::with_capacity(n);
    for i in 0..n {
        let b = i % n_buildings;
        let bx = (b % side) as f64 * spacing;
        let by = (b / side) as f64 * spacing;
        positions.push(Position {
            x: bx + (rng.gen::<f64>() - 0.5) * 2.0 * building_radius,
            y: by + (rng.gen::<f64>() - 0.5) * 2.0 * building_radius,
        });
        buildings.push(b);
    }
    (positions, buildings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RngStreams;

    fn rng() -> rand_chacha::ChaCha8Rng {
        RngStreams::new(10).stream("cluster")
    }

    #[test]
    fn by_building_groups_correctly() {
        let c = by_building(&[5, 5, 9, 5, 9, 2]);
        assert_eq!(c.n_clusters, 3);
        assert_eq!(c.members(0), vec![0, 1, 3]); // building 5
        assert_eq!(c.members(1), vec![2, 4]); // building 9
        assert_eq!(c.members(2), vec![5]); // building 2
        assert_eq!(c.sizes(), vec![3, 2, 1]);
    }

    #[test]
    fn kmeans_separates_distant_blobs() {
        let mut r = rng();
        let mut positions = Vec::new();
        for i in 0..30 {
            let (cx, cy) = match i % 3 {
                0 => (0.0, 0.0),
                1 => (1_000.0, 0.0),
                _ => (0.0, 1_000.0),
            };
            positions.push(Position {
                x: cx + r.gen::<f64>() * 20.0,
                y: cy + r.gen::<f64>() * 20.0,
            });
        }
        let c = kmeans(&mut r, &positions, 3, 50);
        // Every blob must be pure: members of one blob share a cluster.
        for blob in 0..3 {
            let clusters: std::collections::HashSet<usize> = (0..30)
                .filter(|i| i % 3 == blob)
                .map(|i| c.assignment[i])
                .collect();
            assert_eq!(clusters.len(), 1, "blob {blob} split across clusters");
        }
        assert!(c.max_radius(&positions) < 50.0);
    }

    #[test]
    fn kmeans_radius_beats_random_assignment() {
        let mut r = rng();
        let (positions, _) = city_layout(&mut r, 100, 9, 300.0, 30.0);
        let km = kmeans(&mut r, &positions, 9, 50);
        // A single-cluster "clustering" has a much larger radius.
        let whole = Clustering {
            assignment: vec![0; 100],
            n_clusters: 1,
        };
        assert!(km.max_radius(&positions) < 0.5 * whole.max_radius(&positions));
    }

    #[test]
    fn building_clusters_match_layout() {
        let mut r = rng();
        let (positions, buildings) = city_layout(&mut r, 60, 6, 500.0, 25.0);
        let c = by_building(&buildings);
        assert_eq!(c.n_clusters, 6);
        // Servers of a building are within 2×radius of each other.
        for cl in 0..6 {
            let m = c.members(cl);
            for &a in &m {
                for &b in &m {
                    assert!(positions[a].dist(&positions[b]) <= 100.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn kmeans_is_deterministic_per_seed() {
        let (positions, _) = city_layout(&mut rng(), 50, 5, 400.0, 20.0);
        let a = kmeans(&mut rng(), &positions, 5, 50);
        let b = kmeans(&mut rng(), &positions, 5, 50);
        // Note: rng() recreates the same stream, so layout+clustering match.
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    #[should_panic]
    fn kmeans_rejects_k_zero() {
        let mut r = rng();
        kmeans(&mut r, &[Position { x: 0.0, y: 0.0 }], 0, 10);
    }
}
