//! Table IV — coarsening-method comparison on the device-sim policy:
//! total coarsening time ratios relative to HEC, level counts per method,
//! and the average coarsening ratio for HEC and mt-Metis coarsening.

use crate::harness::{geo, header, median_time, ratio, row, Ctx};
use mlcg_coarsen::{coarsen, CoarsenOptions, MapMethod};
use mlcg_graph::suite::Group;

/// Print Table IV.
pub fn run(ctx: &Ctx) {
    let policy = ctx.device();
    let corpus = ctx.corpus();
    if ctx.trace_enabled() {
        // Two profiled HEC coarsens: the largest corpus graph (mapping
        // and sort kernels dominate; wide dispatches) and the densest one
        // (hub rows take construction's skew path, so its transpose
        // kernel appears in the dispatch records next to group, rows and
        // place). The reports render as Chrome traces with --trace-out
        // (FILE and FILE-2.json).
        let largest = corpus.iter().max_by_key(|ng| ng.graph.n());
        let densest = corpus
            .iter()
            .max_by_key(|ng| ng.graph.adj().len() / ng.graph.n().max(1));
        let mut profiled: Vec<&mlcg_graph::suite::NamedGraph> = Vec::new();
        for ng in [largest, densest].into_iter().flatten() {
            if !profiled.iter().any(|p| p.name == ng.name) {
                profiled.push(ng);
            }
        }
        for ng in profiled {
            let trace = ctx.trace_collector();
            {
                let _p = mlcg_par::profile::install(&trace);
                let _h = coarsen(
                    &policy,
                    &ng.graph,
                    &CoarsenOptions {
                        method: MapMethod::Hec,
                        seed: ctx.seed,
                        trace: trace.clone(),
                        ..Default::default()
                    },
                );
            }
            ctx.emit_trace(&format!("table4/coarsen/{}", ng.name), &trace.report());
        }
    }
    println!("Table IV: coarsening methods on the device-sim policy (ratios vs HEC)");
    header(&[
        "Graph", "HEM", "mtMetis", "GOSH", "MIS2", "l HEC", "l HEM", "l mtM", "l GOSH", "l MIS2",
        "cr HEC", "cr mtM",
    ]);
    let methods = [
        MapMethod::Hem,
        MapMethod::MtMetis,
        MapMethod::Gosh,
        MapMethod::Mis2,
    ];
    let mut ratios: Vec<(Group, [f64; 4])> = Vec::new();
    let mut crs: Vec<(Group, f64, f64)> = Vec::new();

    for ng in &corpus {
        let g = &ng.graph;
        let (h_hec, t_hec) = median_time(ctx.runs, || {
            coarsen(
                &policy,
                g,
                &CoarsenOptions {
                    method: MapMethod::Hec,
                    seed: ctx.seed,
                    ..Default::default()
                },
            )
        });
        let mut cells = vec![ng.name.to_string()];
        let mut per_method = [0.0f64; 4];
        let mut hierarchies = Vec::new();
        for (i, &method) in methods.iter().enumerate() {
            let (h, t) = median_time(ctx.runs, || {
                coarsen(
                    &policy,
                    g,
                    &CoarsenOptions {
                        method,
                        seed: ctx.seed,
                        ..Default::default()
                    },
                )
            });
            per_method[i] = t / t_hec;
            hierarchies.push(h);
        }
        cells.extend(per_method.iter().map(|&r| ratio(r)));
        cells.push(h_hec.num_levels().to_string());
        cells.extend(hierarchies.iter().map(|h| h.num_levels().to_string()));
        let cr_hec = h_hec.avg_coarsening_ratio();
        let cr_mtm = hierarchies[1].avg_coarsening_ratio();
        cells.push(format!("{cr_hec:.2}"));
        cells.push(format!("{cr_mtm:.2}"));
        row(&cells);
        ratios.push((ng.group, per_method));
        crs.push((ng.group, cr_hec, cr_mtm));
    }

    for (group, label) in [(Group::Regular, "regular"), (Group::Skewed, "skewed")] {
        let sel: Vec<&(Group, [f64; 4])> = ratios.iter().filter(|r| r.0 == group).collect();
        if sel.is_empty() {
            continue;
        }
        let mut cells = vec![format!("GeoMean ({label})")];
        for i in 0..4 {
            cells.push(ratio(geo(&sel.iter().map(|r| r.1[i]).collect::<Vec<_>>())));
        }
        for _ in 0..5 {
            cells.push(String::new());
        }
        let crsel: Vec<&(Group, f64, f64)> = crs.iter().filter(|r| r.0 == group).collect();
        cells.push(format!(
            "{:.2}",
            geo(&crsel.iter().map(|r| r.1).collect::<Vec<_>>())
        ));
        cells.push(format!(
            "{:.2}",
            geo(&crsel.iter().map(|r| r.2).collect::<Vec<_>>())
        ));
        row(&cells);
    }
}
