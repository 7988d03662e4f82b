//! Figure 5: distribution of edge kinds and delegates vs degree threshold,
//! for an RMAT graph (paper: scale 30; default here: scale 18).
//!
//! Expected shape (paper): as `TH` rises, delegate% and dd% fall, nn%
//! rises; in the paper's suggested band the delegates stay a small
//! percentage while nn edges remain under ~10%.
//!
//! Usage: `gcbfs-bench fig05_edge_distribution`. Environment knob:
//! `GCBFS_SCALE` (default 18).

use gcbfs_bench::prelude::*;
use gcbfs_core::distributor::{distribute, EdgeClass};
use gcbfs_core::separation::Separation;

/// The columns of [`distribution_rows`].
pub const HEADERS: &[&str] = &["TH", "dd edges", "dn/nd edges", "nn edges", "delegates"];

/// One row per threshold: the dd, dn+nd and nn edge shares of `graph`
/// distributed over `topo`, and its delegate share (Figs. 5 and 12).
pub fn distribution_rows(graph: &EdgeList, topo: Topology, ths: &[u64]) -> Vec<Vec<String>> {
    let degrees = graph.out_degrees();
    ths.iter()
        .map(|&th| {
            let sep = Separation::from_degrees(&degrees, th);
            let c = distribute(graph, &sep, &degrees, &topo).class_counts;
            vec![
                th.to_string(),
                pct(c.percentage(EdgeClass::Dd)),
                pct(c.percentage(EdgeClass::Dn) + c.percentage(EdgeClass::Nd)),
                pct(c.percentage(EdgeClass::Nn)),
                pct(100.0 * sep.delegate_fraction()),
            ]
        })
        .collect()
}

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(18);
    println!("Fig. 5 reproduction: RMAT scale {scale} (paper: scale 30)");
    let graph = RmatConfig::graph500(scale).generate();
    let max_degree = *graph.out_degrees().iter().max().unwrap();
    let ths: Vec<u64> = std::iter::successors(Some(1), |th| Some(th * 2))
        .take_while(|&th| th <= max_degree * 2)
        .collect();
    print_table(
        &format!("Fig. 5 — edge/delegate distribution vs TH (RMAT scale {scale})"),
        HEADERS,
        &distribution_rows(&graph, Topology::new(4, 4), &ths),
    );
    println!(
        "\nShape check: dd%% and delegate%% fall with TH; nn%% rises; \
         the paper's suggested band keeps nn under ~10%% and delegates small."
    );
}
