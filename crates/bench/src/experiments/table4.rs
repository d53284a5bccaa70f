//! Table 4: dataset characteristics — the paper's real graphs and the
//! synthetic analogues standing in for them.

use mis_gen::DATASETS;

use crate::harness;

/// Prints the registry with paper vs analogue characteristics.
pub fn run() {
    let scale = mis_gen::datasets::env_scale();
    println!("== Table 4: datasets (paper) and their synthetic analogues (REPRO_SCALE={scale}) ==");
    let header = [
        "Data Set",
        "paper |V|",
        "paper |E|",
        "paper avg",
        "paper disk",
        "analog |V|",
        "analog |E|",
        "analog avg",
        "analog disk",
    ];
    let mut rows = Vec::new();
    for d in &DATASETS {
        let g = d.generate(scale);
        rows.push(vec![
            d.name.to_string(),
            format!("{}", d.paper_vertices),
            format!("{}", d.paper_edges),
            format!("{:.2}", d.paper_avg_degree),
            d.paper_disk.to_string(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            format!("{:.2}", g.avg_degree()),
            harness::fmt_bytes(g.adj_file_bytes()),
        ]);
    }
    harness::print_table(&header, &rows);
}
