//! Synthetic analogues of the paper's Table 4 datasets.
//!
//! The ten real graphs of the evaluation (Astroph … Clueweb12, ~180 GB in
//! total) cannot be redistributed, so each is replaced by a `P(α,β)` graph
//! fitted to the **same average degree** and a (configurably scaled)
//! vertex count, generated from a fixed per-dataset seed. The algorithms'
//! relative behaviour — IS size vs the Algorithm 5 bound, round counts,
//! early-stop profile, SC size — is governed by the degree distribution
//! and scan order, which the analogues preserve; absolute counts scale
//! with `|V|`. Every experiment that uses this registry prints the scale
//! it ran at.
//!
//! Set the `REPRO_SCALE` environment variable (a float, default 1.0) to
//! grow or shrink all analogues together.

use mis_graph::CsrGraph;

use crate::plrg::Plrg;

/// Default cap on the analogue vertex count, chosen so the whole
/// Table 5/6/7/8 suite runs in minutes on a laptop.
pub const DEFAULT_MAX_VERTICES: u64 = 120_000;

/// One row of the paper's Table 4 plus the analogue configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// `|V|` of the real graph.
    pub paper_vertices: u64,
    /// `|E|` of the real graph.
    pub paper_edges: u64,
    /// Average degree reported in Table 4.
    pub paper_avg_degree: f64,
    /// On-disk size reported in Table 4 (for documentation).
    pub paper_disk: &'static str,
    /// Seed for the analogue generator.
    pub seed: u64,
}

impl Dataset {
    /// Analogue vertex count at `scale` (1.0 = default cap).
    pub fn analog_vertices(&self, scale: f64) -> u64 {
        let cap = (DEFAULT_MAX_VERTICES as f64 * scale).max(1_000.0) as u64;
        self.paper_vertices.min(cap)
    }

    /// Generates the analogue graph at `scale`.
    pub fn generate(&self, scale: f64) -> CsrGraph {
        Plrg::with_vertices_and_avg_degree(self.analog_vertices(scale), self.paper_avg_degree)
            .seed(self.seed)
            .generate()
    }
}

/// The ten datasets of Table 4, in the paper's order.
pub const DATASETS: [Dataset; 10] = [
    Dataset {
        name: "Astroph",
        paper_vertices: 37_000,
        paper_edges: 396_000,
        paper_avg_degree: 21.1,
        paper_disk: "3.3MB",
        seed: 0x000A_5701,
    },
    Dataset {
        name: "DBLP",
        paper_vertices: 425_000,
        paper_edges: 1_050_000,
        paper_avg_degree: 4.92,
        paper_disk: "11.2MB",
        seed: 0xDB19,
    },
    Dataset {
        name: "Youtube",
        paper_vertices: 1_160_000,
        paper_edges: 2_990_000,
        paper_avg_degree: 5.16,
        paper_disk: "31.6MB",
        seed: 0x107B,
    },
    Dataset {
        name: "Patent",
        paper_vertices: 3_770_000,
        paper_edges: 16_520_000,
        paper_avg_degree: 8.76,
        paper_disk: "154MB",
        seed: 0x9A7E,
    },
    Dataset {
        name: "Blog",
        paper_vertices: 4_040_000,
        paper_edges: 34_680_000,
        paper_avg_degree: 17.18,
        paper_disk: "295MB",
        seed: 0xB106,
    },
    Dataset {
        name: "Citeseerx",
        paper_vertices: 6_540_000,
        paper_edges: 15_010_000,
        paper_avg_degree: 4.6,
        paper_disk: "164MB",
        seed: 0xC17E,
    },
    Dataset {
        name: "Uniport",
        paper_vertices: 6_970_000,
        paper_edges: 15_980_000,
        paper_avg_degree: 4.59,
        paper_disk: "175MB",
        seed: 0x0417,
    },
    Dataset {
        name: "Facebook",
        paper_vertices: 59_220_000,
        paper_edges: 151_740_000,
        paper_avg_degree: 5.12,
        paper_disk: "1.57GB",
        seed: 0xFACE,
    },
    Dataset {
        name: "Twitter",
        paper_vertices: 61_580_000,
        paper_edges: 2_405_000_000,
        paper_avg_degree: 78.12,
        paper_disk: "9.41GB",
        seed: 0x7817,
    },
    Dataset {
        name: "Clueweb12",
        paper_vertices: 978_400_000,
        paper_edges: 42_570_000_000,
        paper_avg_degree: 87.03,
        paper_disk: "169GB",
        seed: 0xC10E,
    },
];

/// Looks a dataset up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<&'static Dataset> {
    DATASETS.iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Reads the `REPRO_SCALE` environment variable (default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_order_and_size() {
        assert_eq!(DATASETS.len(), 10);
        assert_eq!(DATASETS[0].name, "Astroph");
        assert_eq!(DATASETS[9].name, "Clueweb12");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("facebook").is_some());
        assert!(by_name("Twitter").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn small_datasets_keep_full_size() {
        let astroph = by_name("Astroph").unwrap();
        assert_eq!(astroph.analog_vertices(1.0), 37_000);
    }

    #[test]
    fn huge_datasets_are_capped() {
        let clueweb = by_name("Clueweb12").unwrap();
        assert_eq!(clueweb.analog_vertices(1.0), DEFAULT_MAX_VERTICES);
        assert_eq!(clueweb.analog_vertices(2.0), 2 * DEFAULT_MAX_VERTICES);
    }

    #[test]
    fn analogues_match_target_avg_degree() {
        // Use the small, fast dataset at a reduced scale.
        let dblp = by_name("DBLP").unwrap();
        let g = dblp.generate(0.3); // 36k vertices
        let avg = g.avg_degree();
        assert!(
            (avg - dblp.paper_avg_degree).abs() < 0.8,
            "avg degree {avg} vs {}",
            dblp.paper_avg_degree
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let d = by_name("Astroph").unwrap();
        // tiny scale for speed
        let a = d.generate(0.05);
        let b = d.generate(0.05);
        assert_eq!(a, b);
    }
}
