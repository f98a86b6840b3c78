//! In-tree static analysis for the stream-slicing workspace.
//!
//! Three layers, all dependency-free:
//!
//! * **Lint** ([`lexer`] → [`scope`] → [`rules`] → [`allowlist`]): a
//!   hand-rolled Rust scanner plus line-level rules (panic discipline,
//!   `SAFETY:` comments on `unsafe`, checked casts in `gss-core`,
//!   FxHash in hot paths, no wall-clock in event-time code), with an
//!   audited-exception file at `analysis/lint.allow`. Run via the
//!   `lint` binary (`cargo lint`).
//! * **Barrier exploration** (`mc`): every delivery order and every
//!   merge lag of the shipped `gss_stream::barrier::EpochBarrier`, over a
//!   matrix of source scripts, with a recording stage checking the
//!   barrier's contract. Run via the `mc` binary (`cargo mc`).
//! * **Schedule exploration** (`sched`): runs the *real* `gss-stream`
//!   drivers under the deterministic `crossbeam::sched` runtime,
//!   exploring interleavings by bounded-preemption DFS and seed-pinned
//!   PCT, checking protocol invariants against probe traces plus
//!   bit-identical output vs a sequential reference. Run via the `sched`
//!   binary (`cargo sched`, `cargo sched-mutants`).
//!
//!   Both execute the code they check, so both sit behind the `sched`
//!   feature, the only part of the crate with dependencies: the lint
//!   stays dependency-free.
//! * The **invariant-audit build** lives in the checked crates
//!   themselves behind the workspace-wide `audit` feature; this crate
//!   only documents it (see `DESIGN.md`).

pub mod allowlist;
pub mod lexer;
#[cfg(feature = "sched")]
pub mod mc;
pub mod rules;
#[cfg(feature = "sched")]
pub mod sched;
pub mod scope;
pub mod walk;

#[cfg(test)]
mod self_test {
    use super::*;

    /// The lint must hold on its own implementation, with no allowlist
    /// help: the analysis crate is ordinary library code.
    #[test]
    fn lint_is_clean_on_own_crate() {
        let root = walk::workspace_root();
        let mut checked = 0;
        for (rel, path) in walk::rust_files(&root) {
            if !rel.starts_with("crates/analysis/") {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("analysis source readable");
            let violations = rules::check_file(&rel, &src);
            assert!(violations.is_empty(), "self-lint failed:\n{:#?}", violations);
            checked += 1;
        }
        assert!(checked >= 7, "expected to self-lint the whole crate, saw {checked} files");
    }
}
