//! `cargo mc` — explores every delivery order and merge lag of the
//! shipped epoch barrier over a matrix of source scripts (see
//! `gss_analysis::mc`), then confirms the checker can fail: each faulty
//! stage must trip the invariant it breaks.
//!
//! Exit codes: `0` every configuration passes and every fault is caught,
//! `1` the barrier broke an invariant or a fault slipped through.

use gss_analysis::mc::{check, Fault, McConfig};

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let (mut configs, mut states, mut transitions) = (0u64, 0u64, 0u64);
    for sources in 1..=3 {
        for epochs in 1..=3 {
            for batches in 0..=2 {
                for bits in 0..8u8 {
                    let (stragglers, tail, regressive) =
                        (bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
                    let fault = Fault::None;
                    let cfg =
                        McConfig { sources, epochs, batches, stragglers, tail, regressive, fault };
                    let shape = format!(
                        "s={sources} e={epochs} b={batches} strag={} tail={} regr={}",
                        flag(stragglers),
                        flag(tail),
                        flag(regressive)
                    );
                    match check(&cfg) {
                        Ok(rep) => {
                            configs += 1;
                            states += rep.states;
                            transitions += rep.transitions;
                            println!(
                                "mc: ok  {shape} — {} states, {} transitions, {} items, {} rounds",
                                rep.states, rep.transitions, rep.items, rep.rounds
                            );
                        }
                        Err(v) => {
                            eprintln!("mc: FAILED  {shape}\n{v}");
                            return 1;
                        }
                    }
                }
            }
        }
    }

    // Sensitivity: a checker that cannot fail proves nothing.
    let faults = [
        (Fault::DoubleApply, "exactly-once application"),
        (Fault::EagerRelease, "epoch-ordered release"),
        (Fault::DropStaged, "exactly-once release"),
    ];
    for (fault, invariant) in faults {
        match check(&McConfig { fault, ..McConfig::new(2, 2) }) {
            Err(v) if v.invariant == invariant => {
                println!("mc: faulty stage {fault:?} caught ({} trace steps)", v.trace.len());
            }
            Err(v) => {
                eprintln!("mc: FAILED — {fault:?} tripped `{}`, not `{invariant}`", v.invariant);
                return 1;
            }
            Ok(_) => {
                eprintln!("mc: FAILED — {fault:?} passed; checker is not sensitive");
                return 1;
            }
        }
    }

    println!(
        "mc: OK — {configs} configurations exhaustively explored over the real barrier \
         ({states} states, {transitions} transitions), {} faulty stages caught \
         (parent: 108 + 108 configurations over two models, 193937 + 239351 states, \
         487101 + 607603 transitions)",
        faults.len()
    );
    0
}

fn flag(b: bool) -> char {
    if b {
        'y'
    } else {
        'n'
    }
}
