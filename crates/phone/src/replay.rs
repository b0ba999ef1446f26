//! Chunked replay of recorded sessions — the sample feed for online
//! inference.
//!
//! A live attacker does not get a whole campaign at once: the sensor HAL
//! hands the zero-permission app small batches of accelerometer samples,
//! and reads occasionally fail transiently (binder hiccups, listener
//! re-registration after a foreground change). [`ChunkedReplay`] turns a
//! recorded [`SessionTrace`] into exactly that shape — fixed-size chunks in
//! playback order, tagged with their labeled window. Transient read
//! failures are layered on at the stream level
//! (`emoleak_stream::FlakySource`), and [`ChunkValidator`] rejects hostile
//! chunks before they reach DSP.

use crate::session::SessionTrace;

/// A fixed-size batch of samples from one labeled window of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayChunk<L> {
    /// Index of the labeled window (= clip playback) this chunk belongs to.
    pub window: usize,
    /// Offset of the first sample within its window, samples.
    pub offset: usize,
    /// The samples: `chunk_len` of them, fewer at a window's tail.
    pub samples: Vec<f64>,
    /// The window's playback-time label.
    pub label: L,
    /// Whether this is the final chunk of its window.
    pub last_in_window: bool,
}

/// Cuts a [`SessionTrace`] into per-window fixed-size chunks, in playback
/// order.
///
/// Every labeled window appears, in order, as one or more chunks whose
/// concatenated samples equal [`SessionTrace::window`] exactly; the last
/// chunk of each window is flagged. A window emptied by fault injection
/// still yields one empty flagged chunk, so downstream consumers see every
/// window index exactly once — the property that keeps streaming output
/// aligned with the batch pipeline's per-window iteration.
#[derive(Debug, Clone)]
pub struct ChunkedReplay<'a, L> {
    session: &'a SessionTrace<L>,
    chunk_len: usize,
    window: usize,
    offset: usize,
}

impl<L: Clone> SessionTrace<L> {
    /// Replays this session as fixed-size chunks of at most `chunk_len`
    /// samples (clamped to at least 1).
    pub fn chunks(&self, chunk_len: usize) -> ChunkedReplay<'_, L> {
        ChunkedReplay { session: self, chunk_len: chunk_len.max(1), window: 0, offset: 0 }
    }
}

impl<L: Clone> Iterator for ChunkedReplay<'_, L> {
    type Item = ReplayChunk<L>;

    fn next(&mut self) -> Option<ReplayChunk<L>> {
        let span = self.session.labels.get(self.window)?;
        let window = self.session.window(self.window);
        let start = self.offset;
        let end = (start + self.chunk_len).min(window.len());
        let last_in_window = end == window.len();
        let chunk = ReplayChunk {
            window: self.window,
            offset: start,
            samples: window[start..end].to_vec(),
            label: span.label.clone(),
            last_in_window,
        };
        if last_in_window {
            self.window += 1;
            self.offset = 0;
        } else {
            self.offset = end;
        }
        Some(chunk)
    }
}

/// A hostile or corrupt condition in an incoming sample stream, detected
/// *before* the data reaches DSP.
///
/// A zero-permission listener ingests sensor data it does not control; a
/// malicious or broken HAL can feed it NaN/Inf samples (which poison every
/// downstream statistic) or replayed / reordered timestamps (which
/// misalign labels and double-count windows). Validation rejects those
/// with a typed defect instead of propagating garbage; legitimate *gaps*
/// (missing data) are not defects — fault injection produces those on the
/// honest path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputDefect {
    /// A sample is NaN or ±Inf.
    NonFiniteSample {
        /// Window the sample belongs to (the span count when it falls in
        /// an unlabeled gap of a session trace).
        window: usize,
        /// Sample offset — within the window for chunk streams, absolute
        /// within the trace for session validation.
        offset: usize,
    },
    /// A chunk's window index went backwards — a replayed or reordered
    /// stream.
    NonMonotonicWindow {
        /// The last window index seen.
        previous: usize,
        /// The regressing index observed.
        observed: usize,
    },
    /// A window delivered more chunks after its flagged final chunk — a
    /// duplicate-delivery attack on window accounting.
    ReopenedWindow {
        /// The reopened window.
        window: usize,
    },
    /// Two chunks of one window carried the same sample offset — a
    /// duplicated timestamp.
    DuplicateTimestamp {
        /// The affected window.
        window: usize,
        /// The repeated offset.
        offset: usize,
    },
    /// A chunk's sample offset within its window went backwards.
    NonMonotonicTimestamp {
        /// The affected window.
        window: usize,
        /// The last offset seen in this window.
        previous: usize,
        /// The regressing offset observed.
        observed: usize,
    },
    /// A labeled span of a session trace ends before it starts or overlaps
    /// its predecessor.
    DisorderedSpan {
        /// Index of the offending span.
        window: usize,
    },
}

impl core::fmt::Display for InputDefect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InputDefect::NonFiniteSample { window, offset } => {
                write!(f, "non-finite sample at window {window} offset {offset}")
            }
            InputDefect::NonMonotonicWindow { previous, observed } => {
                write!(f, "window index regressed from {previous} to {observed}")
            }
            InputDefect::ReopenedWindow { window } => {
                write!(f, "window {window} delivered chunks after its final chunk")
            }
            InputDefect::DuplicateTimestamp { window, offset } => {
                write!(f, "duplicate timestamp in window {window} at offset {offset}")
            }
            InputDefect::NonMonotonicTimestamp { window, previous, observed } => write!(
                f,
                "timestamp in window {window} regressed from offset {previous} to {observed}"
            ),
            InputDefect::DisorderedSpan { window } => {
                write!(f, "labeled span {window} is disordered (reversed or overlapping)")
            }
        }
    }
}

impl std::error::Error for InputDefect {}

/// Stateful validator for a chunk stream: feed every chunk through
/// [`ChunkValidator::check`] in delivery order.
///
/// Accepts exactly what an honest (possibly faulted) source can produce —
/// finite samples, non-decreasing window indices, strictly increasing
/// offsets within a window, no chunks after a window's flagged final chunk
/// — and rejects everything else. Gaps (skipped offsets or whole skipped
/// windows) are allowed: missing data is a fault, not an attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkValidator {
    last: Option<LastChunk>,
}

#[derive(Debug, Clone, Copy)]
struct LastChunk {
    window: usize,
    offset: usize,
    closed: bool,
}

impl ChunkValidator {
    /// A fresh validator (no chunks seen yet).
    pub fn new() -> Self {
        ChunkValidator::default()
    }

    /// Validates the next chunk of the stream.
    ///
    /// # Errors
    ///
    /// The [`InputDefect`] the chunk exhibits, if any. A rejected chunk
    /// does not advance the validator: the stream is already condemned.
    pub fn check<L>(&mut self, chunk: &ReplayChunk<L>) -> Result<(), InputDefect> {
        if let Some(i) = chunk.samples.iter().position(|v| !v.is_finite()) {
            return Err(InputDefect::NonFiniteSample {
                window: chunk.window,
                offset: chunk.offset + i,
            });
        }
        if let Some(last) = self.last {
            if chunk.window < last.window {
                return Err(InputDefect::NonMonotonicWindow {
                    previous: last.window,
                    observed: chunk.window,
                });
            }
            if chunk.window == last.window {
                if last.closed {
                    return Err(InputDefect::ReopenedWindow { window: chunk.window });
                }
                if chunk.offset == last.offset {
                    return Err(InputDefect::DuplicateTimestamp {
                        window: chunk.window,
                        offset: chunk.offset,
                    });
                }
                if chunk.offset < last.offset {
                    return Err(InputDefect::NonMonotonicTimestamp {
                        window: chunk.window,
                        previous: last.offset,
                        observed: chunk.offset,
                    });
                }
            }
        }
        self.last = Some(LastChunk {
            window: chunk.window,
            offset: chunk.offset,
            closed: chunk.last_in_window,
        });
        Ok(())
    }
}

impl<L> SessionTrace<L> {
    /// Validates a whole recorded session against the same hostile-input
    /// rules the chunk stream enforces: every sample finite, labeled spans
    /// ordered and non-overlapping (spans running past a fault-shortened
    /// trace are legitimate — [`SessionTrace::window`] clamps them).
    ///
    /// # Errors
    ///
    /// The first [`InputDefect`] found, scanning samples then spans.
    pub fn validate(&self) -> Result<(), InputDefect> {
        if let Some(i) = self.trace.samples.iter().position(|v| !v.is_finite()) {
            let window = self
                .labels
                .iter()
                .position(|s| s.start <= i && i < s.end)
                .unwrap_or(self.labels.len());
            return Err(InputDefect::NonFiniteSample { window, offset: i });
        }
        let mut prev_end = 0usize;
        for (w, span) in self.labels.iter().enumerate() {
            if span.end < span.start || span.start < prev_end {
                return Err(InputDefect::DisorderedSpan { window: w });
            }
            prev_end = span.end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelTrace;
    use crate::session::LabeledSpan;

    fn session() -> SessionTrace<&'static str> {
        let samples: Vec<f64> = (0..25).map(f64::from).collect();
        SessionTrace {
            trace: AccelTrace { samples, fs: 420.0 },
            labels: vec![
                LabeledSpan { start: 0, end: 10, label: "anger" },
                LabeledSpan { start: 10, end: 10, label: "empty" },
                LabeledSpan { start: 10, end: 25, label: "sad" },
                LabeledSpan { start: 30, end: 40, label: "gone" }, // clamped away
            ],
        }
    }

    #[test]
    fn chunks_reassemble_every_window_in_order() {
        let st = session();
        let chunks: Vec<_> = st.chunks(4).collect();
        // Window 0: 10 samples → 3 chunks; window 1: empty → 1 chunk;
        // window 2: 15 samples → 4 chunks; window 3: clamped empty → 1.
        assert_eq!(chunks.len(), 3 + 1 + 4 + 1);
        for w in 0..st.labels.len() {
            let of_w: Vec<_> = chunks.iter().filter(|c| c.window == w).collect();
            let rebuilt: Vec<f64> =
                of_w.iter().flat_map(|c| c.samples.iter().copied()).collect();
            assert_eq!(rebuilt, st.window(w), "window {w}");
            let (last, rest) = of_w.split_last().unwrap();
            assert!(last.last_in_window);
            assert!(rest.iter().all(|c| !c.last_in_window));
            assert!(of_w.iter().all(|c| c.label == st.labels[w].label));
        }
        // Offsets advance within a window.
        assert_eq!(
            chunks.iter().filter(|c| c.window == 0).map(|c| c.offset).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
    }

    #[test]
    fn zero_chunk_len_is_clamped_not_an_infinite_loop() {
        let st = session();
        let n = st.chunks(0).take(1000).count();
        assert!(n < 1000, "chunking must terminate");
    }

    #[test]
    fn honest_streams_pass_validation_even_with_gaps() {
        let st = session();
        let mut v = ChunkValidator::new();
        for chunk in st.chunks(4) {
            v.check(&chunk).unwrap();
        }
        assert!(st.validate().is_ok());
        // Gaps are faults, not attacks: skipping a chunk or a whole window
        // must not condemn the stream.
        let chunks: Vec<_> = session().chunks(4).collect();
        let mut v = ChunkValidator::new();
        for (i, chunk) in chunks.iter().enumerate() {
            if i % 3 == 1 {
                continue; // dropped delivery
            }
            v.check(chunk).unwrap();
        }
    }

    fn chunk(window: usize, offset: usize, samples: &[f64], last: bool) -> ReplayChunk<()> {
        ReplayChunk { window, offset, samples: samples.to_vec(), label: (), last_in_window: last }
    }

    #[test]
    fn validator_rejects_each_hostile_shape() {
        let mut v = ChunkValidator::new();
        assert_eq!(
            v.check(&chunk(0, 0, &[1.0, f64::NAN], false)),
            Err(InputDefect::NonFiniteSample { window: 0, offset: 1 })
        );
        // The rejected chunk did not advance the validator.
        v.check(&chunk(2, 0, &[1.0], true)).unwrap();
        assert_eq!(
            v.check(&chunk(1, 0, &[1.0], true)),
            Err(InputDefect::NonMonotonicWindow { previous: 2, observed: 1 })
        );
        assert_eq!(
            v.check(&chunk(2, 4, &[1.0], true)),
            Err(InputDefect::ReopenedWindow { window: 2 })
        );
        let mut v = ChunkValidator::new();
        v.check(&chunk(0, 0, &[1.0], false)).unwrap();
        assert_eq!(
            v.check(&chunk(0, 0, &[2.0], false)),
            Err(InputDefect::DuplicateTimestamp { window: 0, offset: 0 })
        );
        v.check(&chunk(0, 8, &[2.0], false)).unwrap();
        assert_eq!(
            v.check(&chunk(0, 3, &[2.0], true)),
            Err(InputDefect::NonMonotonicTimestamp { window: 0, previous: 8, observed: 3 })
        );
        assert!(v.check(&chunk(0, 3, &[f64::INFINITY], true)).is_err());
    }

    #[test]
    fn session_validate_finds_poisoned_samples_and_disordered_spans() {
        let mut st = session();
        st.trace.samples[12] = f64::NAN; // inside window 2 (spans 10..25)
        assert_eq!(
            st.validate(),
            Err(InputDefect::NonFiniteSample { window: 2, offset: 12 })
        );
        let st = SessionTrace {
            trace: AccelTrace { samples: vec![0.0; 20], fs: 420.0 },
            labels: vec![
                LabeledSpan { start: 0, end: 10, label: () },
                LabeledSpan { start: 8, end: 12, label: () }, // overlaps
            ],
        };
        assert_eq!(st.validate(), Err(InputDefect::DisorderedSpan { window: 1 }));
        let st = SessionTrace {
            trace: AccelTrace { samples: vec![0.0; 20], fs: 420.0 },
            labels: vec![LabeledSpan { start: 9, end: 3, label: () }], // reversed
        };
        assert_eq!(st.validate(), Err(InputDefect::DisorderedSpan { window: 0 }));
        // Spans past a fault-shortened trace are legitimate.
        let st = SessionTrace {
            trace: AccelTrace { samples: vec![0.0; 5], fs: 420.0 },
            labels: vec![LabeledSpan { start: 0, end: 40, label: () }],
        };
        assert!(st.validate().is_ok());
    }

    #[test]
    fn defects_render_their_coordinates() {
        let d = InputDefect::NonMonotonicTimestamp { window: 3, previous: 64, observed: 8 };
        let msg = d.to_string();
        assert!(msg.contains('3') && msg.contains("64") && msg.contains('8'), "{msg}");
    }
}
