//! E1 / **Figure 10**: execution time of TAL-FT (with and without the
//! green≺blue scheduling constraint) normalized to the unprotected baseline,
//! per benchmark, on the default 3-wide in-order model
//! (`MachineModel::default()`).
//!
//! Paper's result: 1.34x geomean (ordered), 1.30x (without ordering).
//! Usage: `cargo run --release -p talft-bench --bin fig10
//!          [--scale full|small|tiny] [--json <path>]`

use talft_bench::report::{self, fig10_json, Report};
use talft_bench::{fig10_rows, render_fig10};
use talft_obs::Json;
use talft_sim::MachineModel;
use talft_suite::Scale;

fn main() {
    report::flags(&["--scale", "--json"], &[]);
    let (scale, scale_name) = match report::arg::<String>("--scale").as_deref() {
        Some("tiny") => (Scale::Tiny, "tiny"),
        Some("small") => (Scale::Small, "small"),
        None | Some("full") => (Scale::Full, "full"),
        Some(other) => {
            eprintln!("fig10: cannot parse the value `{other}` of `--scale`");
            std::process::exit(1);
        }
    };
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
    match fig10_rows(scale, &model) {
        Ok(rows) => {
            print!("{}", render_fig10(&rows));
            report::emit(json, || {
                Report::new("talft.fig10.v1")
                    .field("scale", Json::str(scale_name))
                    .field("width", Json::U64(u64::from(model.width)))
                    .field("data", fig10_json(&rows))
                    .build()
            });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
