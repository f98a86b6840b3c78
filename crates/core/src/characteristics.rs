//! Workload-characteristics decision logic (paper Section 5.1, Figures 4–6).
//!
//! General stream slicing adapts to four workload characteristics: stream
//! order, aggregate-function properties, windowing measure, and window type.
//! This module derives, from the set of registered queries and the
//! aggregation's algebraic properties, the three decisions the paper's
//! figures encode:
//!
//! * **Figure 4** — must individual tuples be kept in memory?
//! * **Figure 5** — can split operations occur?
//! * **Figure 6** — are tuple removals needed?
//!
//! They depend on workload characteristics only, never on the data
//! (Section 5), so they are taken once per query set, in a `SlicePlan`.

use crate::function::{AggregateFunction, FunctionProperties};
use crate::time::{Measure, StreamOrder};
use crate::window::QuerySet;

/// Aggregated characteristics of the current set of queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadCharacteristics {
    /// Declared order of the input stream.
    pub order: StreamOrder,
    /// At least one forward-context-aware window is registered.
    pub has_fca_window: bool,
    /// At least one context-aware window that is *not* a session window.
    pub has_context_aware_non_session: bool,
    /// At least one context-aware window of any kind (incl. sessions).
    pub has_context_aware: bool,
    /// At least one query uses the count measure.
    pub has_count_measure: bool,
    /// Properties of the aggregate function shared by all queries.
    pub function: FunctionProperties,
}

impl WorkloadCharacteristics {
    /// Derives the characteristics from the registered queries, the declared
    /// stream order, and the aggregate function's properties.
    pub fn derive(queries: &QuerySet, order: StreamOrder, function: FunctionProperties) -> Self {
        WorkloadCharacteristics {
            order,
            has_fca_window: queries.has_fca,
            has_context_aware_non_session: queries.has_context_aware_non_session,
            has_context_aware: queries.has_context_aware(),
            has_count_measure: queries.has(Measure::Count),
            function,
        }
    }

    /// Figure 4: which workload characteristics require storing individual
    /// tuples in memory?
    ///
    /// * In-order streams: keep tuples iff an FCA window is registered.
    /// * Out-of-order streams: keep tuples if the function is
    ///   non-commutative, **or** a non-session context-aware window is
    ///   registered, **or** a count-based measure is used.
    pub fn requires_tuple_storage(&self) -> bool {
        match self.order {
            StreamOrder::InOrder => self.has_fca_window,
            StreamOrder::OutOfOrder => {
                !self.function.commutative
                    || self.has_context_aware_non_session
                    || self.has_count_measure
            }
        }
    }

    /// Figure 5: can split operations occur?
    ///
    /// In-order streams split only for FCA windows; out-of-order streams
    /// split for every context-aware window. Context-free windows never
    /// split. Session windows are context aware, so they formally fall in
    /// the "splits required" branch, but their splits always hit the cheap
    /// no-recompute path (the split point lies in a tuple-free gap), which
    /// is why Figure 4 exempts them from tuple storage.
    fn requires_splits(&self) -> bool {
        match self.order {
            StreamOrder::InOrder => self.has_fca_window,
            StreamOrder::OutOfOrder => self.has_context_aware,
        }
    }

    /// Figure 6: are tuples removed from slices?
    ///
    /// Only for count-based measures on out-of-order streams: an
    /// out-of-order tuple shifts the count of all succeeding tuples, so the
    /// last tuple of each slice moves one slice further. What a removal
    /// costs is the function's answer, not the plan's: the shift tries ⊖
    /// and recomputes the slice from its stored tuples where ⊖ is not
    /// exact.
    fn removes(&self) -> bool {
        !self.order.is_in_order() && self.has_count_measure
    }

    /// Out-of-order tuples force a slice recomputation when the function is
    /// non-commutative (paper Section 5.2, Update).
    fn ooo_insert_recomputes(&self) -> bool {
        !self.function.commutative
    }
}

/// The Figure 4–6 decisions for one query set, derived when the queries
/// change. The store's write paths dispatch on it, not on the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlicePlan {
    /// Figure 4: slices keep their tuples (the store's tuple column).
    pub(crate) keep_tuples: bool,
    /// Figure 5: context-aware windows split slices.
    pub(crate) splits: bool,
    /// Figure 6: the count shift takes tuples out of slices.
    pub(crate) removes: bool,
    /// Section 5.2: a late or shifted tuple recomputes its slice (⊕ is not
    /// commutative).
    pub(crate) late_recomputes: bool,
}

impl SlicePlan {
    /// The plan of `chars`; `force_tuples` keeps tuples whatever Figure 4
    /// says (an ablation switch).
    pub(crate) fn new(chars: &WorkloadCharacteristics, force_tuples: bool) -> Self {
        SlicePlan {
            keep_tuples: chars.requires_tuple_storage() || force_tuples,
            splits: chars.requires_splits(),
            removes: chars.removes(),
            late_recomputes: chars.ooo_insert_recomputes(),
        }
    }

    /// The plan of a store without an operator: every write `f` allows.
    pub(crate) fn standalone<A: AggregateFunction>(f: &A, keep_tuples: bool) -> Self {
        let every = WorkloadCharacteristics {
            order: StreamOrder::OutOfOrder,
            has_fca_window: true,
            has_context_aware_non_session: true,
            has_context_aware: true,
            has_count_measure: true,
            function: f.properties(),
        };
        SlicePlan { keep_tuples, ..SlicePlan::new(&every, false) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionKind;
    use crate::time::Range;
    use crate::window::{ContextClass, ContextEdges, WindowFunction};

    /// Configurable stub window for decision-table tests.
    #[derive(Clone)]
    struct Stub {
        measure: Measure,
        context: ContextClass,
        session: bool,
    }

    impl WindowFunction for Stub {
        fn measure(&self) -> Measure {
            self.measure
        }
        fn context(&self) -> ContextClass {
            self.context
        }
        fn is_session(&self) -> bool {
            self.session
        }
        fn next_edge(&self, _ts: i64) -> Option<i64> {
            None
        }
        fn trigger_windows(&mut self, _p: i64, _c: i64, _out: &mut dyn FnMut(Range)) {}
        fn windows_containing(&self, _ts: i64, _out: &mut dyn FnMut(Range)) {}
        fn notify_context(&mut self, _ts: i64, _e: &mut ContextEdges) {}
        fn max_extent(&self) -> i64 {
            0
        }
        fn clone_box(&self) -> Box<dyn WindowFunction> {
            Box::new(self.clone())
        }
    }

    fn q(measure: Measure, context: ContextClass, session: bool) -> Box<dyn WindowFunction> {
        Box::new(Stub { measure, context, session })
    }

    fn set(windows: &[Box<dyn WindowFunction>]) -> QuerySet {
        let mut set = QuerySet::default();
        for w in windows {
            set.add(w.clone());
        }
        set
    }

    fn props(commutative: bool) -> FunctionProperties {
        FunctionProperties { commutative, kind: FunctionKind::Distributive }
    }

    const CF: ContextClass = ContextClass::ContextFree;
    const FCF: ContextClass = ContextClass::ForwardContextFree;
    const FCA: ContextClass = ContextClass::ForwardContextAware;

    #[test]
    fn fig4_in_order_cf_drops_tuples() {
        let qs = [q(Measure::Time, CF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::InOrder, props(true));
        assert!(!c.requires_tuple_storage());
    }

    #[test]
    fn fig4_in_order_fcf_drops_tuples() {
        let qs = [q(Measure::Time, FCF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::InOrder, props(true));
        assert!(!c.requires_tuple_storage());
    }

    #[test]
    fn fig4_in_order_fca_keeps_tuples() {
        let qs = [q(Measure::Time, FCA, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::InOrder, props(true));
        assert!(c.requires_tuple_storage());
    }

    #[test]
    fn fig4_ooo_non_commutative_keeps_tuples() {
        let qs = [q(Measure::Time, CF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(false));
        assert!(c.requires_tuple_storage());
    }

    #[test]
    fn fig4_ooo_session_drops_tuples() {
        // Sessions are the exception among context-aware windows.
        let qs = [q(Measure::Time, FCA, true)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(true));
        assert!(!c.requires_tuple_storage());
    }

    #[test]
    fn fig4_ooo_non_session_context_aware_keeps_tuples() {
        let qs = [q(Measure::Time, FCF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(true));
        assert!(c.requires_tuple_storage());
    }

    #[test]
    fn fig4_ooo_count_measure_keeps_tuples() {
        let qs = [q(Measure::Count, CF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(true));
        assert!(c.requires_tuple_storage());
    }

    #[test]
    fn fig4_ooo_cf_time_commutative_drops_tuples() {
        let qs = [q(Measure::Time, CF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(true));
        assert!(!c.requires_tuple_storage());
    }

    #[test]
    fn fig5_split_matrix() {
        let cf = [q(Measure::Time, CF, false)];
        let fca = [q(Measure::Time, FCA, false)];
        let fcf = [q(Measure::Time, FCF, false)];
        let p = props(true);
        let io = StreamOrder::InOrder;
        let ooo = StreamOrder::OutOfOrder;
        assert!(!WorkloadCharacteristics::derive(&set(&cf), io, p).requires_splits());
        assert!(!WorkloadCharacteristics::derive(&set(&cf), ooo, p).requires_splits());
        assert!(!WorkloadCharacteristics::derive(&set(&fcf), io, p).requires_splits());
        assert!(WorkloadCharacteristics::derive(&set(&fcf), ooo, p).requires_splits());
        assert!(WorkloadCharacteristics::derive(&set(&fca), io, p).requires_splits());
        assert!(WorkloadCharacteristics::derive(&set(&fca), ooo, p).requires_splits());
    }

    #[test]
    fn fig6_removal_matrix() {
        let count = [q(Measure::Count, CF, false)];
        let time = [q(Measure::Time, CF, false)];
        let removes = |qs: &[Box<dyn WindowFunction>], order| {
            WorkloadCharacteristics::derive(&set(qs), order, props(true)).removes()
        };
        assert!(!removes(&count, StreamOrder::InOrder));
        assert!(!removes(&time, StreamOrder::OutOfOrder));
        assert!(removes(&count, StreamOrder::OutOfOrder));
    }

    #[test]
    fn non_commutative_ooo_inserts_recompute() {
        let qs = [q(Measure::Time, CF, false)];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(false));
        assert!(c.ooo_insert_recomputes());
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(true));
        assert!(!c.ooo_insert_recomputes());
    }

    #[test]
    fn mixed_queries_union_characteristics() {
        let qs = [
            q(Measure::Time, CF, false),
            q(Measure::Count, CF, false),
            q(Measure::Time, FCA, true),
        ];
        let c = WorkloadCharacteristics::derive(&set(&qs), StreamOrder::OutOfOrder, props(true));
        assert!(c.has_count_measure);
        assert!(c.has_context_aware);
        assert!(!c.has_context_aware_non_session);
        assert!(c.has_fca_window);
        // Count measure on an out-of-order stream forces tuple storage even
        // though the session alone would not.
        assert!(c.requires_tuple_storage());
    }
}
