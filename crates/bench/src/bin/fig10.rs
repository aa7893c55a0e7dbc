//! E1 / **Figure 10** and its variants (E6, E9, E10): execution time of
//! TAL-FT, with and without the green≺blue scheduling constraint,
//! normalized to the unprotected baseline.
//!
//! The first table is Figure 10 itself: every Full-scale kernel on the
//! default 3-wide in-order model (`MachineModel::default()`). The paper
//! reports 1.34x geomean ordered and 1.30x without ordering. The second
//! table recomputes the geomeans over the Small kernels with one
//! `CompileOptions` field changed per row: the issue width (E6), inverted
//! loops (E9) and the pre-duplication optimizer (E10). Its width-3 row is
//! the default compile, so it is also E9's top-test row and E10's `-O0`
//! row.
//!
//! Usage: `cargo run --release -p talft-bench --bin fig10 [-- --json <path>]`
//!
//! Exits 1 on a compile error or a reference run that does not halt.

use talft_bench::report::{self, fig10_json, Report};
use talft_bench::{fig10_row, fig10_rows, geomeans, render_fig10, Fig10Row};
use talft_compiler::CompileOptions;
use talft_obs::Json;
use talft_sim::MachineModel;
use talft_suite::{kernels, Scale};

/// The issue widths of the variant table.
const WIDTHS: [u32; 6] = [1, 2, 3, 4, 6, 8];

fn main() {
    report::flags(&["--json"], &[]);
    let json = report::json_path();
    let model = MachineModel::default();
    println!("# Figure 10 — Performance normalized to unprotected version");
    println!(
        "# model: {}-wide in-order, lat(alu/mul/ld/st) = {}/{}/{}/{}, branch penalty {}",
        model.width,
        model.lat_alu,
        model.lat_mul,
        model.lat_load,
        model.lat_store,
        model.branch_penalty
    );
    let rows = fig10_rows(Scale::Full, &model).unwrap_or_else(|e| fail(&e));
    print!("{}", render_fig10(&rows));

    println!();
    println!("# Variants over the Small kernels, one CompileOptions field changed per row");
    println!("# (default: width 3, top-test loops, -O0)");
    println!(
        "| variant | TAL-FT | TAL-FT w/o ordering | gap | baseline cyc (sum) | TAL-FT cyc (sum) |"
    );
    println!("|---|---:|---:|---:|---:|---:|");
    let small = kernels(Scale::Small);
    let mut variant_rows = Vec::new();
    for (label, opts) in variants() {
        let rows: Vec<Fig10Row> = small
            .iter()
            .map(|k| fig10_row(k, &opts))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| fail(&e));
        let (go, gu) = geomeans(&rows);
        let base: u64 = rows.iter().map(|r| r.base_cycles).sum();
        let talft: u64 = rows.iter().map(|r| r.talft_cycles).sum();
        println!(
            "| {label} | {go:.3}x | {gu:.3}x | {:.1}% | {base} | {talft} |",
            (go - gu) * 100.0
        );
        variant_rows.push(Json::obj([
            ("label", Json::str(&label)),
            ("width", Json::U64(u64::from(opts.model.width))),
            ("invert_loops", Json::Bool(opts.invert_loops)),
            ("optimize", Json::Bool(opts.optimize)),
            ("geomean_ordered", Json::F64(go)),
            ("geomean_unordered", Json::F64(gu)),
            ("base_cycles", Json::U64(base)),
            ("talft_cycles", Json::U64(talft)),
        ]));
    }
    report::emit(json, || {
        Report::new("talft.fig10.v2")
            .field("scale", Json::str("full"))
            .field("width", Json::U64(u64::from(model.width)))
            .field("data", fig10_json(&rows))
            .field(
                "variants",
                Json::obj([
                    ("scale", Json::str("small")),
                    ("rows", Json::Array(variant_rows)),
                ]),
            )
            .build()
    });
}

/// The variant table's rows: a label and the options each kernel compiles
/// with, its timing model included.
fn variants() -> Vec<(String, CompileOptions)> {
    let mut v: Vec<_> = WIDTHS
        .iter()
        .map(|&width| {
            let model = MachineModel {
                width,
                ..MachineModel::default()
            };
            let opts = CompileOptions {
                model,
                ..CompileOptions::default()
            };
            (format!("width {width}"), opts)
        })
        .collect();
    let inverted = CompileOptions {
        invert_loops: true,
        ..CompileOptions::default()
    };
    let optimized = CompileOptions {
        optimize: true,
        ..CompileOptions::default()
    };
    v.push(("inverted loops".to_owned(), inverted));
    v.push(("-O1 (fold+prop+dce)".to_owned(), optimized));
    v
}

/// Report an error and exit 1.
fn fail(e: &str) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}
