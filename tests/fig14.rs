//! Byte-level golden of the Fig.-14 mitigation-overhead sweep.
//!
//! `paper_shape.rs` only checks the figure's shape; this snapshot pins
//! every normalized-performance bit of `memsim_exp::run` at reduced
//! scale (2 mixes × 20k simulated ns), so an optimization of the
//! memory-system simulator or the sweep driver must reproduce the
//! result exactly.
//!
//! To bless after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=fig14 cargo test --test fig14
//! ```

#[path = "util/golden.rs"]
mod golden;

use vrd_experiments::{memsim_exp, Options};

#[test]
fn golden_fig14_seed_2025() {
    let opts = Options { mixes: 2, sim_cycles: 20_000, seed: 2025, ..Options::smoke() };
    let result = memsim_exp::run(&opts);
    let json = serde_json::to_string_pretty(&result).expect("serializable result");
    golden::assert_golden("fig14", "fig14_seed_2025.json", &json);
}
