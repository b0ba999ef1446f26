//! Regenerates the paper's evaluation: every report of
//! `emoleak_bench::paper::REPORTS` in registry order, or only the reports
//! named as arguments (`paper table5_tess fig6_confusion`). Each report is
//! published as `<name>.txt` under `EMOLEAK_RESULTS_DIR` (default
//! `results/`). An unknown name fails before any report runs, listing the
//! valid ones.

use emoleak_core::EmoleakError;

fn main() -> Result<(), EmoleakError> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    emoleak_bench::paper::run(&names)
}
