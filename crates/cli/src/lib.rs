//! # dpc-cli
//!
//! A small command-line tool exposing the workspace's index-based Density
//! Peak Clustering to shell users: generate benchmark datasets, estimate a
//! starting `dc`, and cluster any `x,y` CSV file with the index of your
//! choice.
//!
//! ```text
//! dpc generate    --dataset birch --scale 0.05 --output points.csv --labels truth.csv
//! dpc estimate-dc --input points.csv --fraction 0.02
//! dpc cluster     --input points.csv --dc 50000 --index rtree --centers top:100 \
//!                 --output labels.csv --decision-graph graph.csv
//! dpc knn-cluster --input points.csv --k 16 --centers top:100 --output labels.csv
//! dpc stream      --input points.csv --dc 50000 --window 1000 --batch 100
//! ```
//!
//! The crate exposes [`run`] so the whole tool is testable without spawning a
//! process; `src/main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use args::ParsedArgs;

/// Runs the tool for an argument list (excluding the program name) and
/// returns the text to print on success.
pub fn run(args: Vec<String>) -> Result<String, String> {
    if args.is_empty() || args[0] == "help" || args[0] == "--help" || args[0] == "-h" {
        return Ok(usage());
    }
    let parsed = ParsedArgs::parse(&args)?;
    match parsed.command.as_str() {
        "generate" => commands::generate(&parsed),
        "estimate-dc" => commands::estimate_dc(&parsed),
        "cluster" => commands::cluster(&parsed),
        "knn-cluster" => commands::knn_cluster(&parsed),
        "stream" => commands::stream(&parsed),
        "serve" => commands::serve(&parsed),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The usage / help text.
pub fn usage() -> String {
    "dpc — index-based Density Peak Clustering

USAGE:
  dpc generate    --dataset <s1|query|birch|range|brightkite|gowalla>
                  [--scale F] [--seed N] --output points.csv [--labels truth.csv]
  dpc estimate-dc --input points.csv [--fraction F]
  dpc cluster     --input points.csv --dc F
                  [--index list|ch|quadtree|rtree|kdtree|grid|naive]
                  [--bin-width F] [--tau F] [--centers top:K|auto[:MAX]|threshold:RHO,DELTA]
                  [--kernel cutoff|gaussian|exponential] [--bandwidth F]
                  [--threads N] [--halo] [--output labels.csv] [--decision-graph graph.csv]
  dpc knn-cluster --input points.csv --k N
                  [--centers top:K|auto[:MAX]] [--output labels.csv]
  dpc stream      --input points.csv --dc F
                  [--engine grid|kdtree|naive] [--window N] [--batch N] [--threads N]
                  [--centers top:K|auto[:MAX]|threshold:RHO,DELTA]
                  [--kernel cutoff|gaussian|exponential] [--bandwidth F] [--decay L]
                  [--max-epochs N] [--quiet] [--json] [--metrics] [--trace-out trace.json]
  dpc serve       --input points.csv --dc F
                  [--engine grid|kdtree|naive] [--window N] [--batch N] [--threads N]
                  [--readers N] [--ring N]
                  [--centers top:K|auto[:MAX]|threshold:RHO,DELTA]
                  [--kernel cutoff|gaussian|exponential] [--bandwidth F] [--decay L]
                  [--max-epochs N] [--quiet] [--json] [--metrics] [--trace-out trace.json]
  dpc help

Datasets are the paper's six evaluation datasets, regenerated synthetically
at `--scale` times their original size. Clustering reads any CSV of `x,y`
rows (extra columns ignored) and writes `x,y,label` rows; halo points get an
empty label when --halo is set. `stream` replays the CSV as a point stream:
the first --window rows seed an incremental engine, every following batch
slides the window, and per-epoch cluster births/deaths are printed.
--kernel swaps the hard cut-off density for a weighted gaussian/exponential
kernel (requires --bandwidth), and --decay L (0 < L <= 1) multiplies every
surviving point's density by L each epoch so stale mass fades out. --json
emits one JSON object per epoch instead of text, --metrics prints a metrics
table after the replay, and --trace-out writes a Chrome trace-event file of
the per-epoch phase spans (open in Perfetto or chrome://tracing). `serve` runs the same
writer replay behind the concurrent serving layer while --readers threads
answer point-lookup, eps-neighbourhood and delta-subscription queries from
the published epoch snapshots (per-family p50/p99 in the exit summary);
--ring bounds the subscription delta ring — readers that fall further behind
resync from a full snapshot."
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_paths_return_usage() {
        assert!(run(vec![]).unwrap().contains("USAGE"));
        assert!(run(vec!["help".into()]).unwrap().contains("USAGE"));
        assert!(run(vec!["--help".into()]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(vec!["frobnicate".into()]).is_err());
    }
}
