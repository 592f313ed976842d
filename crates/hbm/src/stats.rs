//! Accounting types: operation categories, latency/energy/bandwidth counters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Breakdown categories used throughout the paper's evaluation (Figure 11):
/// data movement (loading and intra-memory copies), non-reduction arithmetic,
/// reductions, and other operations (plain reads and stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Data loading and intra-memory copies (host loads, ring broadcast,
    /// buffer copies, RowClone).
    DataMovement,
    /// Non-reduction arithmetic (point-wise PIM ops, NBP MACs, exponent
    /// Taylor series).
    Arithmetic,
    /// Vector reductions (ACU adder trees, PIM shift-add reduction, NBP
    /// adder tree) and the Softmax normalization division.
    Reduction,
    /// Plain memory reads and stores of results.
    Other,
}

impl Category {
    /// All categories, in the order the paper's Figure 11 stacks them.
    pub const ALL: [Category; 4] =
        [Category::DataMovement, Category::Arithmetic, Category::Reduction, Category::Other];

    /// Stable index for array-based accumulation.
    pub fn index(self) -> usize {
        match self {
            Category::DataMovement => 0,
            Category::Arithmetic => 1,
            Category::Reduction => 2,
            Category::Other => 3,
        }
    }

    /// Whether this category counts as "computation" for the resource
    /// utilization metric of Section V-C.
    pub fn is_compute(self) -> bool {
        matches!(self, Category::Arithmetic | Category::Reduction)
    }

    /// Stable display label, also used as the trace-event category string.
    pub fn label(self) -> &'static str {
        match self {
            Category::DataMovement => "data-movement",
            Category::Arithmetic => "arithmetic",
            Category::Reduction => "reduction",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated simulation statistics.
///
/// `latency_ns` is wall-clock makespan; the per-category times partition it
/// (every engine phase is attributed to exactly one category), so
/// `time_by_category` sums to `latency_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total makespan in nanoseconds.
    pub latency_ns: f64,
    /// Makespan attributed to each [`Category`] (indexed by
    /// [`Category::index`]).
    pub time_ns: [f64; 4],
    /// Energy in picojoules attributed to each [`Category`].
    pub energy_pj: [f64; 4],
    /// Total bytes read or written inside the memory system (for the
    /// Figure 12 average-bandwidth metric).
    pub bytes_moved: f64,
}

impl SimStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one engine phase.
    pub fn record(&mut self, category: Category, latency_ns: f64, energy_pj: f64, bytes: f64) {
        self.latency_ns += latency_ns;
        self.time_ns[category.index()] += latency_ns;
        self.energy_pj[category.index()] += energy_pj;
        self.bytes_moved += bytes;
    }

    /// Total energy across categories, in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.energy_pj.iter().sum()
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.total_energy_pj() * 1e-12
    }

    /// Latency in seconds.
    pub fn latency_s(&self) -> f64 {
        self.latency_ns * 1e-9
    }

    /// Average power in watts (energy / latency).
    ///
    /// Returns 0 for an empty run.
    pub fn average_power_w(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            0.0
        } else {
            self.total_energy_j() / self.latency_s()
        }
    }

    /// Average memory bandwidth usage in GB/s (Figure 12 metric: bytes read
    /// and written divided by latency).
    pub fn average_bandwidth_gbs(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            0.0
        } else {
            self.bytes_moved / self.latency_ns
        }
    }

    /// Fraction of time spent on computation (Section V-C utilization).
    pub fn compute_utilization(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            return 0.0;
        }
        Category::ALL
            .iter()
            .filter(|c| c.is_compute())
            .map(|c| self.time_ns[c.index()])
            .sum::<f64>()
            / self.latency_ns
    }

    /// Fraction of time per category.
    pub fn time_fraction(&self, category: Category) -> f64 {
        if self.latency_ns <= 0.0 {
            0.0
        } else {
            self.time_ns[category.index()] / self.latency_ns
        }
    }
}

impl Add for SimStats {
    type Output = SimStats;
    fn add(mut self, rhs: SimStats) -> SimStats {
        self += rhs;
        self
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, rhs: SimStats) {
        self.latency_ns += rhs.latency_ns;
        self.bytes_moved += rhs.bytes_moved;
        for i in 0..4 {
            self.time_ns[i] += rhs.time_ns[i];
            self.energy_pj[i] += rhs.energy_pj[i];
        }
    }
}

/// Per-scope statistics (e.g., per Transformer layer kind) for the layer-wise
/// breakdown of Figure 11(b). Keys are caller-chosen labels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScopedStats {
    scopes: BTreeMap<String, SimStats>,
}

impl ScopedStats {
    /// Empty scoped statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (created-if-absent) statistics entry for `scope`, cloning the
    /// label only on first sight.
    pub fn entry_mut(&mut self, scope: &str) -> &mut SimStats {
        if !self.scopes.contains_key(scope) {
            self.scopes.insert(scope.to_owned(), SimStats::default());
        }
        self.scopes.get_mut(scope).expect("entry just ensured")
    }

    /// Statistics for one scope, if any phases were recorded under it.
    pub fn get(&self, scope: &str) -> Option<&SimStats> {
        self.scopes.get(scope)
    }

    /// Iterate over `(scope, stats)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SimStats)> {
        self.scopes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of all scopes.
    pub fn total(&self) -> SimStats {
        self.scopes.values().copied().fold(SimStats::new(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_partitions_latency() {
        let mut s = SimStats::new();
        s.record(Category::DataMovement, 10.0, 100.0, 64.0);
        s.record(Category::Arithmetic, 30.0, 300.0, 0.0);
        s.record(Category::Reduction, 10.0, 50.0, 0.0);
        assert_eq!(s.latency_ns, 50.0);
        assert_eq!(s.time_ns.iter().sum::<f64>(), s.latency_ns);
        assert_eq!(s.total_energy_pj(), 450.0);
        assert!((s.compute_utilization() - 0.8).abs() < 1e-12);
        assert!((s.average_bandwidth_gbs() - 64.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn power_is_energy_over_time() {
        let mut s = SimStats::new();
        s.record(Category::Arithmetic, 1e9, 5e12, 0.0); // 1 s, 5 J
        assert!((s.average_power_w() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_dont_divide_by_zero() {
        let s = SimStats::new();
        assert_eq!(s.average_power_w(), 0.0);
        assert_eq!(s.average_bandwidth_gbs(), 0.0);
        assert_eq!(s.compute_utilization(), 0.0);
    }

    #[test]
    fn scoped_total_matches_sum() {
        let mut s = ScopedStats::new();
        s.entry_mut("fc").record(Category::Arithmetic, 5.0, 10.0, 1.0);
        s.entry_mut("attn").record(Category::DataMovement, 7.0, 20.0, 2.0);
        s.entry_mut("fc").record(Category::Reduction, 3.0, 5.0, 0.0);
        let t = s.total();
        assert_eq!(t.latency_ns, 15.0);
        assert_eq!(s.get("fc").expect("fc recorded two phases").latency_ns, 8.0);
        assert!(s.get("nope").is_none());
    }
}
