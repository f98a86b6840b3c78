//! `cargo sched` — deterministic schedule exploration of the real
//! stream protocols (see `gss_analysis::sched` for the machinery).
//!
//! Default mode runs the healthy-protocol cells:
//!
//! * exhaustive DFS (no preemption bound) for the smallest config of
//!   each protocol — every schedule at yield-point granularity: 1 shard
//!   over one epoch shipped as one chunk through capacity-1 channels, 1
//!   partition over two epochs for `run_keyed`, which has no merge stage;
//! * bounded-preemption DFS for the same 1 shard over one record per
//!   chunk (bound 5: two chunks an epoch put every schedule out of
//!   reach, see `--deep`) and for the 2-shard / 2-partition configs
//!   (bound 2, the CHESS sweet spot);
//! * two seed-pinned PCT cells over the two-producer configs.
//!
//! Exit status is nonzero on any oracle violation or on a truncated
//! exhaustive cell (the space must actually be covered).
//!
//! `--deep` instead walks every schedule of the one-record-per-chunk
//! one-shard cell (1.4 million schedules).
//!
//! `--mutants` (requires the `sched-mutants` feature) instead runs the
//! anti-vacuity matrix: each seeded protocol fault must be caught by
//! some explored schedule; any survivor fails the run.

use gss_analysis::sched::{keyed_cell, shard_cell, Cell, Explore, Workload};

/// `parent` is the cell's schedule count at 764c8af, before the merge
/// loops moved behind `barrier.rs`: the channel operations did not change,
/// so the trees should not have either.
fn print_cell(mode: &str, cell: &Cell, parent: u64) -> bool {
    let status = match &cell.violation {
        None if cell.truncated => "TRUNCATED",
        None => "ok",
        Some(_) => "VIOLATION",
    };
    println!(
        "  {:<24} {:<22} schedules={:<7} (parent {:<7}) max_yields={:<5} {}",
        cell.name, mode, cell.schedules, parent, cell.max_yields, status
    );
    if let Some(v) = &cell.violation {
        println!("    -> {v}");
    }
    cell.passed() && !cell.truncated
}

fn healthy() -> bool {
    let mut ok = true;
    println!("schedule exploration over the real protocols (healthy build):");

    // Exhaustive: every schedule of the smallest config of each
    // driver over the one-epoch workload, its records in one chunk
    // (`run_keyed` has no merge stage, so its tree leaves room for the
    // two-epoch workload). These must terminate below the cap —
    // truncation fails.
    let exhaustive = Explore::Dfs { preemption_bound: None, max_schedules: 250_000 };
    ok &= print_cell("dfs/exhaustive", &shard_cell(1, Workload::OneChunk, &exhaustive), 203_232);
    ok &= print_cell("dfs/exhaustive", &keyed_cell(1, Workload::Full, &exhaustive), 22_456);

    // The same one-shard config with one record per chunk: two
    // chunks and a watermark through a capacity-2 channel. Every
    // schedule with at most 5 preemptions (of 18 yield points).
    let bounded5 = Explore::Dfs { preemption_bound: Some(5), max_schedules: 150_000 };
    ok &= print_cell("dfs/preempt<=5", &shard_cell(1, Workload::Tiny, &bounded5), 87_060);

    // Bounded-preemption DFS for the two-producer configs: complete
    // coverage of every schedule with at most 2 preemptions of the
    // one-epoch workload. (The sharded two-epoch workload's schedule
    // tree is exponential in voluntary switches even at bound 0 — it
    // belongs to the PCT cells below; `run_keyed`'s is small enough for
    // both.)
    let bounded2 = Explore::Dfs { preemption_bound: Some(2), max_schedules: 150_000 };
    ok &= print_cell("dfs/preempt<=2", &shard_cell(2, Workload::Tiny, &bounded2), 104_098);
    ok &= print_cell("dfs/preempt<=2", &keyed_cell(2, Workload::Tiny, &bounded2), 1_135);
    ok &= print_cell("dfs/preempt<=2", &keyed_cell(2, Workload::Full, &bounded2), 12_081);

    // Seed-pinned PCT sweeps over the full (two-epoch) workload: depth-3
    // random schedules, reproducible run to run and machine to machine.
    let pct_b = Explore::Pct { seed: 0x5EED_CAFE, depth: 3, runs: 300 };
    ok &= print_cell("pct/seed=0x5EEDCAFE", &shard_cell(2, Workload::Full, &pct_b), 300);
    let pct_c = Explore::Pct { seed: 0xB0FF_E125, depth: 3, runs: 300 };
    ok &= print_cell("pct/seed=0xB0FFE125", &keyed_cell(2, Workload::Full, &pct_c), 300);

    ok
}

/// Every schedule of the one-shard cell at one record per chunk.
fn deep() -> bool {
    println!("every schedule of the one-shard cell, one record per chunk:");
    let exhaustive = Explore::Dfs { preemption_bound: None, max_schedules: 2_000_000 };
    print_cell("dfs/exhaustive", &shard_cell(1, Workload::Tiny, &exhaustive), 1_400_336)
}

#[cfg(feature = "sched-mutants")]
fn mutants() -> bool {
    let matrix = gss_analysis::sched::mutant_matrix();
    let mut ok = true;
    println!("anti-vacuity mutant matrix (every fault must be caught):");
    for (name, cell) in &matrix {
        let caught = cell.violation.is_some();
        println!(
            "  {:<18} {:<26} schedules={:<7} {}",
            name,
            cell.name,
            cell.schedules,
            if caught { "caught" } else { "SURVIVED" }
        );
        if let Some(v) = &cell.violation {
            let first = v.lines().next().unwrap_or("");
            println!("    -> {first}");
        }
        ok &= caught;
    }
    if ok {
        let mutants = gss_stream::mutants::ALL_MUTANTS.len();
        println!("all {mutants} mutants caught in {} cells", matrix.len());
    }
    ok
}

#[cfg(not(feature = "sched-mutants"))]
fn mutants() -> bool {
    eprintln!("--mutants requires the sched-mutants feature (use `cargo sched-mutants`)");
    false
}

fn main() {
    let want = |flag: &str| std::env::args().any(|a| a == flag);
    let ok = if want("--mutants") {
        mutants()
    } else if want("--deep") {
        deep()
    } else {
        healthy()
    };
    if !ok {
        std::process::exit(1);
    }
}
