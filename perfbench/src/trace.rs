//! In-memory spans recorded around the calls the replay makes into each
//! layer. A span has a layer name, a start, an end and the span that
//! caused it; spans of one corpus line share that line's root span. A
//! layer's self time is its duration minus the time its child spans
//! cover.

use std::time::Instant;

/// The layers the replay times, named `<module>.<function>` after the
/// public functions it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one corpus line; its self time is harness glue.
    Line,
    Decode,
    Canonical,
    CacheGet,
    CacheInsert,
    Classify,
    Plan,
    /// One portfolio member, by [`msrs_engine::SolverKind::index`].
    Member(usize),
    Validate,
    StoreAppend,
    StoreSync,
    StoreOpen,
    WriteJson,
}

/// Number of distinct [`Layer`] slots.
pub const LAYERS: usize = 19;

impl Layer {
    /// Dense slot of this layer in per-layer arrays.
    pub fn slot(self) -> usize {
        match self {
            Layer::Line => 0,
            Layer::Decode => 1,
            Layer::Canonical => 2,
            Layer::CacheGet => 3,
            Layer::CacheInsert => 4,
            Layer::Classify => 5,
            Layer::Plan => 6,
            Layer::Member(i) => 7 + i,
            Layer::Validate => 14,
            Layer::StoreAppend => 15,
            Layer::StoreSync => 16,
            Layer::StoreOpen => 17,
            Layer::WriteJson => 18,
        }
    }

    /// The `<module>.<function>` name of the layer at `slot`.
    pub fn name_of(slot: usize) -> &'static str {
        const NAMES: [&str; LAYERS] = [
            "replay.line",
            "jsonl.decode",
            "canonical.of",
            "cache.get",
            "cache.insert",
            "profile.classify",
            "portfolio.plan",
            "approx.five_thirds",
            "approx.three_halves",
            "approx.hebrard_greedy",
            "approx.list_scheduler",
            "approx.merged_lpt",
            "exact.solve_warm",
            "ptas.eptas_fixed_m",
            "validate",
            "cachestore.append",
            "cachestore.sync",
            "cachestore.open",
            "report.write_json_line",
        ];
        NAMES[slot]
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the causing span in the tracer, or `None` for a root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When off, [`Tracer::span`] only runs its closure, so
/// an untraced replay measures the same code without the recording.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`, a child of the span open now.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open = Some(idx);
        let out = f(self);
        self.spans[idx as usize].end_ns = self.now_ns();
        self.open = parent;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer slot, in nanoseconds: each span's duration minus
/// the durations of its direct children.
pub fn self_times(spans: &[Span]) -> [u64; LAYERS] {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut out = [0u64; LAYERS];
    for (s, t) in spans.iter().zip(own) {
        out[s.layer.slot()] += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Layer::Line, None, 0, 100),
            span(Layer::Decode, Some(0), 10, 30),
            span(Layer::Member(0), Some(0), 40, 90),
            span(Layer::Validate, Some(2), 60, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t[Layer::Line.slot()], 100 - 20 - 50);
        assert_eq!(t[Layer::Decode.slot()], 20);
        assert_eq!(t[Layer::Member(0).slot()], 50 - 10);
        assert_eq!(t[Layer::Validate.slot()], 10);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let mut on = Tracer::new(true);
        on.span(Layer::Line, |t| {
            t.span(Layer::Decode, |_| ());
            t.span(Layer::Plan, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let mut off = Tracer::new(false);
        assert_eq!(off.span(Layer::Line, |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn every_slot_has_a_distinct_name() {
        let names: std::collections::HashSet<_> = (0..LAYERS).map(Layer::name_of).collect();
        assert_eq!(names.len(), LAYERS);
        assert_eq!(
            Layer::name_of(Layer::WriteJson.slot()),
            "report.write_json_line"
        );
        assert_eq!(
            Layer::name_of(Layer::Member(6).slot()),
            "ptas.eptas_fixed_m"
        );
    }
}
