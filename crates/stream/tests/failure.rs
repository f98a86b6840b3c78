//! One user panic fails a run once: whichever task it strikes — a worker
//! in its first chunk or in the tail behind the last watermark, a hosted
//! operator's `on_watermark`, the merge stage's `combine` — the caller of
//! `run_keyed` / `run_parallel` / `run_sharded_keyed` gets the user's own
//! payload, the panic hook has seen exactly one panic, and the call
//! returns, every thread joined.
//!
//! A counting panic hook needs a process of its own, hence an integration
//! test with a single `#[test]`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use gss_core::testsupport::PoisonSum;
use gss_core::{
    AggregateFunction, KeyedConfig, KeyedWindowOperator, OperatorConfig, PerKey, StreamElement,
    Time, WindowAggregator, WindowOperator, WindowResult,
};
use gss_stream::{run_keyed, run_parallel, run_sharded_keyed, PipelineConfig};
use gss_windows::{SlidingWindow, TumblingWindow};

static PANICS: AtomicUsize = AtomicUsize::new(0);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// The first record of the stream is poisoned.
    FirstChunk,
    /// A record behind the last watermark is.
    Tail,
    /// Past the workers' fold: a hosted operator's second `on_watermark`
    /// (`run_keyed`, `run_sharded_keyed`), `combine` at the merge stage's
    /// first emission (`run_parallel`).
    Downstream,
}

/// Forwards to `inner` and panics, as the user's function would, in the
/// `fuse`-th `on_watermark`.
struct Failing<A: AggregateFunction> {
    inner: Box<dyn WindowAggregator<A>>,
    fuse: Option<usize>,
}

impl<A: AggregateFunction> WindowAggregator<A> for Failing<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        self.inner.process(ts, value, out);
    }

    fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        self.inner.process_batch_columns(times, values, out);
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        if let Some(left) = &mut self.fuse {
            *left -= 1;
            if *left == 0 {
                std::panic::panic_any(PoisonSum::MESSAGE);
            }
        }
        self.inner.on_watermark(wm, out);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "failing"
    }
}

const BODY: i64 = 160;
const TAIL: i64 = 24;

/// `BODY` records with a watermark after every 40th, then `TAIL` records
/// and no further watermark; `spread` apart in time, `value(i)` each.
fn stream(spread: Time, value: impl Fn(i64) -> i64) -> Vec<StreamElement<(u64, i64)>> {
    let mut out = Vec::new();
    for i in 0..BODY + TAIL {
        out.push(StreamElement::Record { ts: i * spread, value: (i as u64 % 8, value(i)) });
        if i < BODY && i % 40 == 39 {
            out.push(StreamElement::Watermark((i - 10) * spread));
        }
    }
    out
}

fn poisoned(fault: Fault, spread: Time) -> Vec<StreamElement<(u64, i64)>> {
    stream(spread, |i| match (fault, i) {
        (Fault::FirstChunk, 0) => PoisonSum::LIFT,
        (Fault::Tail, i) if i == BODY + 5 => PoisonSum::LIFT,
        _ => 1,
    })
}

/// The hosted operators fail in the last partition only: one panic.
fn fuse(fault: Fault, index: usize, cfg: &PipelineConfig) -> Option<usize> {
    (fault == Fault::Downstream && index + 1 == cfg.parallelism).then_some(2)
}

fn keyed(fault: Fault, cfg: PipelineConfig) {
    run_keyed::<PoisonSum, _>(poisoned(fault, 1), cfg, |i| {
        let mut op = WindowOperator::new(PoisonSum, OperatorConfig::out_of_order(100));
        op.add_query(Box::new(TumblingWindow::new(50))).unwrap();
        Box::new(Failing { inner: Box::new(op), fuse: fuse(fault, i, &cfg) })
    });
}

fn sharded(fault: Fault, cfg: PipelineConfig) {
    run_sharded_keyed::<PoisonSum, _>(poisoned(fault, 1), cfg, |i| {
        let op = KeyedWindowOperator::new(
            PoisonSum,
            vec![Box::new(TumblingWindow::new(50))],
            KeyedConfig::default().with_allowed_lateness(100),
        );
        Box::new(Failing::<PerKey<PoisonSum>> { inner: Box::new(op), fuse: fuse(fault, i, &cfg) })
    });
}

fn parallel(fault: Fault, cfg: PipelineConfig) {
    // One record per slice, two slices per window: no worker ever combines
    // two partials, the merge operator does for every window it emits.
    let elements = match fault {
        Fault::Downstream => stream(10, |i| if i == 25 { PoisonSum::COMBINE } else { 1 }),
        _ => poisoned(fault, 10),
    };
    run_parallel(
        elements.into_iter().map(|e| e.map(|(_, v)| v)),
        cfg,
        PoisonSum,
        vec![Box::new(SlidingWindow::new(20, 10))],
        OperatorConfig::out_of_order(1_000),
    );
}

#[test]
fn one_user_panic_fails_the_run_once_with_the_users_payload() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        // Stay quiet about the panics the cells plant, not about others.
        if info.payload().downcast_ref::<&str>() != Some(&PoisonSum::MESSAGE) {
            default_hook(info);
        }
    }));
    type Driver = fn(Fault, PipelineConfig);
    let drivers: [(&str, Driver); 3] =
        [("run_keyed", keyed), ("run_parallel", parallel), ("run_sharded_keyed", sharded)];
    for (name, driver) in drivers {
        for fault in [Fault::FirstChunk, Fault::Tail, Fault::Downstream] {
            for parallelism in [1, 2, 4] {
                for batch in [1, 16] {
                    let cell = format!("{name} {fault:?} parallelism={parallelism} batch={batch}");
                    let mut cfg =
                        PipelineConfig::with_parallelism(parallelism).with_batch_size(batch);
                    // Tight channels: the pump and the workers run into each other.
                    cfg.channel_capacity = 2;
                    PANICS.store(0, Ordering::SeqCst);
                    let outcome = catch_unwind(AssertUnwindSafe(|| driver(fault, cfg)));
                    let seen = PANICS.load(Ordering::SeqCst);
                    let payload = outcome.expect_err(&cell);
                    assert_eq!(
                        payload.downcast_ref::<&str>(),
                        Some(&PoisonSum::MESSAGE),
                        "{cell}: the caller must get the user's payload"
                    );
                    assert_eq!(seen, 1, "{cell}: one user panic, one trip through the hook");
                }
            }
        }
    }
}
