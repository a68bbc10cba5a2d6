//! The rank runtime: threads + typed, tagged point-to-point messaging.
//!
//! [`run`] spawns one OS thread per rank and hands each a [`Proc`] handle.
//! Messages are typed (`Box<dyn Any>` under the hood, downcast on
//! receive), tagged with a `(context, tag)` pair so that traffic of
//! different communicators and different collective invocations never
//! interferes, and delivered through unbounded channels (sends never
//! block, so no send-side deadlocks).
//!
//! Delivery between a fixed (sender, receiver) pair is FIFO; receives
//! match on `(source, tag)` and buffer out-of-order arrivals.
//!
//! [`run_instrumented`] is [`run`] plus optional wall-clock tracing and
//! live metrics: with a [`Recorder`], each rank thread records its sends,
//! receive waits and collective invocations into a per-rank `mre-trace`
//! buffer; with a [`MetricsRegistry`], per-rank handles count messages,
//! bytes and receive-wait time. Untraced, unmetered runs carry
//! `None` handles, so instrumentation disabled costs one `Option` check
//! per operation — payload byte accounting ([`Payload::payload_bytes`])
//! is only consulted when a recorder or metrics handle is present.

use crate::payload::Payload;
use mre_trace::{EventKind, MetricsRegistry, RankMetrics, RankRecorder, Recorder};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Message tag: the communicator context plus a per-operation tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Communicator context id (unique per communicator).
    pub ctx: u64,
    /// Operation tag within the context.
    pub tag: u64,
}

type AnyPayload = Box<dyn Any + Send>;

struct Envelope {
    src: usize,
    tag: Tag,
    payload: AnyPayload,
}

struct Shared {
    senders: Vec<Sender<Envelope>>,
}

/// A rank's handle: world identity plus messaging endpoints.
pub struct Proc {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    rx: Receiver<Envelope>,
    pending: RefCell<HashMap<(usize, Tag), VecDeque<AnyPayload>>>,
    recorder: Option<RankRecorder>,
    metrics: Option<RankMetrics>,
}

impl Proc {
    /// This rank's index in the world (0-based).
    pub fn world_rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.size
    }

    /// The wall-clock recorder handle of this rank, when running under
    /// [`run_instrumented`] with a recorder attached.
    pub fn recorder(&self) -> Option<&RankRecorder> {
        self.recorder.as_ref()
    }

    /// The metrics handle of this rank, when running under
    /// [`run_instrumented`] with a registry attached.
    pub fn metrics(&self) -> Option<&RankMetrics> {
        self.metrics.as_ref()
    }

    fn instrumented(&self) -> bool {
        self.recorder.is_some() || self.metrics.is_some()
    }

    /// Sends `value` to world rank `dst` with `tag`. Never blocks.
    ///
    /// Under instrumentation the send event carries the payload size
    /// (`bytes`) and the communicator context (`ctx`), so wall-clock
    /// traces support the same per-level byte accounting as simulated
    /// ones.
    ///
    /// # Panics
    /// If `dst` is out of range.
    pub fn send<T: Payload>(&self, dst: usize, tag: Tag, value: T) {
        if self.instrumented() {
            let bytes = value.payload_bytes();
            if let Some(rec) = &self.recorder {
                rec.instant(
                    format!("send -> {dst}"),
                    EventKind::Send,
                    vec![
                        ("dst".to_string(), dst.to_string()),
                        ("bytes".to_string(), bytes.to_string()),
                        ("ctx".to_string(), tag.ctx.to_string()),
                    ],
                );
            }
            if let Some(m) = &self.metrics {
                m.counter_add("mpi.send.count", 1);
                m.counter_add("mpi.send.bytes", bytes);
                m.observe("mpi.send.bytes.hist", bytes as f64);
            }
        }
        self.shared.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                payload: Box::new(value),
            })
            .expect("receiver thread alive for the duration of run()");
    }

    /// Receives the next message from world rank `src` with `tag`,
    /// blocking until it arrives.
    ///
    /// Under instrumentation every receive records a completion: a
    /// buffered (already-arrived) message records an instant event, a
    /// blocking wait records a span covering the wait. Both carry `src`
    /// and `bytes` args.
    ///
    /// # Panics
    /// If the arrived payload's type is not `T` (a protocol bug), or if
    /// all senders disconnected while waiting (a deadlock symptom).
    pub fn recv<T: Payload>(&self, src: usize, tag: Tag) -> T {
        let key = (src, tag);
        // Check the out-of-order buffer first.
        if let Some(queue) = self.pending.borrow_mut().get_mut(&key) {
            if let Some(payload) = queue.pop_front() {
                let value: T = downcast(payload);
                if self.instrumented() {
                    let bytes = value.payload_bytes();
                    if let Some(rec) = &self.recorder {
                        rec.instant(
                            format!("recv <- {src}"),
                            EventKind::RecvWait,
                            vec![
                                ("src".to_string(), src.to_string()),
                                ("bytes".to_string(), bytes.to_string()),
                            ],
                        );
                    }
                    if let Some(m) = &self.metrics {
                        m.counter_add("mpi.recv.count", 1);
                        m.counter_add("mpi.recv.bytes", bytes);
                        m.counter_add("mpi.recv.buffered.count", 1);
                    }
                }
                return value;
            }
        }
        let wait_start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let mut wait = self.recorder.as_ref().map(|rec| {
            let mut span = rec.span(format!("recv <- {src}"), EventKind::RecvWait);
            span.arg("src", src.to_string());
            span
        });
        loop {
            let envelope = self
                .rx
                .recv()
                .expect("no message will ever arrive: all peers are gone (deadlock?)");
            if envelope.src == src && envelope.tag == tag {
                let value: T = downcast(envelope.payload);
                if self.instrumented() {
                    let bytes = value.payload_bytes();
                    if let Some(span) = &mut wait {
                        span.arg("bytes", bytes.to_string());
                    }
                    if let Some(m) = &self.metrics {
                        m.counter_add("mpi.recv.count", 1);
                        m.counter_add("mpi.recv.bytes", bytes);
                        if let Some(t0) = wait_start {
                            m.observe("mpi.recv.wait_seconds", t0.elapsed().as_secs_f64());
                        }
                    }
                }
                return value;
            }
            self.pending
                .borrow_mut()
                .entry((envelope.src, envelope.tag))
                .or_default()
                .push_back(envelope.payload);
        }
    }

    /// Sends to `dst` and receives from `src` with the same tag —
    /// the `MPI_Sendrecv` idiom every round-based collective needs.
    pub fn sendrecv<T: Payload>(&self, dst: usize, src: usize, tag: Tag, value: T) -> T {
        if dst == self.rank && src == self.rank {
            return value;
        }
        self.send(dst, tag, value);
        self.recv(src, tag)
    }
}

fn downcast<T: 'static>(payload: AnyPayload) -> T {
    *payload
        .downcast::<T>()
        .expect("payload type mismatch: sender and receiver disagree on T")
}

/// Runs `f` on `nprocs` ranks (one thread each) and returns their results
/// ordered by rank.
///
/// ```
/// use mre_mpi::runtime::{run, Tag};
/// let sums = run(4, |p| {
///     // Everybody sends their rank to rank 0.
///     let tag = Tag { ctx: 0, tag: 0 };
///     if p.world_rank() == 0 {
///         (1..p.world_size()).map(|src| p.recv::<usize>(src, tag)).sum::<usize>()
///     } else {
///         p.send(0, tag, p.world_rank());
///         0
///     }
/// });
/// assert_eq!(sums[0], 6);
/// ```
pub fn run<F, R>(nprocs: usize, f: F) -> Vec<R>
where
    F: Fn(&Proc) -> R + Send + Sync,
    R: Send,
{
    run_inner(nprocs, None, None, f)
}

/// The fully general entry point: [`run`] plus an optional wall-clock
/// recorder and an optional metrics registry, each independently
/// attachable. With a recorder, every rank records wall-clock events into
/// it; after the call returns, [`Recorder::take_trace`] yields the merged
/// timeline (each rank's buffer is flushed when its thread's [`Proc`]
/// drops). Rank threads buffer metrics locally and merge them into the
/// registry at thread exit; if the recorder is bounded
/// ([`Recorder::bounded`]) and evicted events during this run, the count
/// is surfaced as the `trace.recorder.dropped` counter.
///
/// ```
/// use mre_mpi::runtime::{run_instrumented, Tag};
/// use mre_trace::{MetricsRegistry, Recorder};
/// let metrics = MetricsRegistry::new();
/// run_instrumented(2, None, Some(&metrics), |p| {
///     let tag = Tag { ctx: 0, tag: 0 };
///     let other = 1 - p.world_rank();
///     p.sendrecv(other, other, tag, p.world_rank() as u64)
/// });
/// assert_eq!(metrics.snapshot().counter("mpi.send.count"), 2);
///
/// let recorder = Recorder::new();
/// run_instrumented(2, Some(&recorder), None, |p| {
///     let tag = Tag { ctx: 0, tag: 0 };
///     let other = 1 - p.world_rank();
///     p.sendrecv(other, other, tag, p.world_rank())
/// });
/// let trace = recorder.take_trace();
/// assert!(!trace.events.is_empty());
/// ```
pub fn run_instrumented<F, R>(
    nprocs: usize,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsRegistry>,
    f: F,
) -> Vec<R>
where
    F: Fn(&Proc) -> R + Send + Sync,
    R: Send,
{
    run_inner(nprocs, recorder, metrics, f)
}

fn run_inner<F, R>(
    nprocs: usize,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsRegistry>,
    f: F,
) -> Vec<R>
where
    F: Fn(&Proc) -> R + Send + Sync,
    R: Send,
{
    assert!(nprocs > 0, "need at least one rank");
    let mut senders = Vec::with_capacity(nprocs);
    let mut receivers = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(Shared { senders });
    let f = &f;
    let dropped_before = recorder.map_or(0, Recorder::dropped_events);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let shared = Arc::clone(&shared);
                let rank_recorder = recorder.map(|r| r.rank(rank));
                let rank_metrics = metrics.map(MetricsRegistry::rank);
                scope.spawn(move || {
                    let proc_ = Proc {
                        rank,
                        size: nprocs,
                        shared,
                        rx,
                        pending: RefCell::new(HashMap::new()),
                        recorder: rank_recorder,
                        metrics: rank_metrics,
                    };
                    f(&proc_)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    if let (Some(rec), Some(m)) = (recorder, metrics) {
        let dropped = rec.dropped_events() - dropped_before;
        if dropped > 0 {
            m.counter_add("trace.recorder.dropped", dropped);
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Tag = Tag { ctx: 0, tag: 0 };
    const T1: Tag = Tag { ctx: 0, tag: 1 };

    #[test]
    fn ring_pass() {
        let results = run(5, |p| {
            let right = (p.world_rank() + 1) % 5;
            let left = (p.world_rank() + 4) % 5;
            p.send(right, T0, p.world_rank());
            p.recv::<usize>(left, T0)
        });
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn typed_payloads() {
        let results = run(2, |p| {
            if p.world_rank() == 0 {
                p.send(1, T0, vec![1.5f64, 2.5]);
                p.send(1, T1, "hello".to_string());
                0.0
            } else {
                let v: Vec<f64> = p.recv(0, T0);
                let s: String = p.recv(0, T1);
                assert_eq!(s, "hello");
                v.iter().sum()
            }
        });
        assert_eq!(results[1], 4.0);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run(2, |p| {
            if p.world_rank() == 0 {
                p.send(1, T0, 10u32);
                p.send(1, T1, 20u32);
                0
            } else {
                // Receive in the opposite order of sending.
                let b: u32 = p.recv(0, T1);
                let a: u32 = p.recv(0, T0);
                a + b
            }
        });
        assert_eq!(results[1], 30);
    }

    #[test]
    fn fifo_per_pair_and_tag() {
        let results = run(2, |p| {
            if p.world_rank() == 0 {
                for i in 0..100u64 {
                    p.send(1, T0, i);
                }
                0
            } else {
                let mut last = None;
                for _ in 0..100 {
                    let v: u64 = p.recv(0, T0);
                    if let Some(prev) = last {
                        assert!(v > prev, "FIFO violated: {v} after {prev}");
                    }
                    last = Some(v);
                }
                last.unwrap()
            }
        });
        assert_eq!(results[1], 99);
    }

    #[test]
    fn sendrecv_exchanges() {
        let results = run(2, |p| {
            let other = 1 - p.world_rank();
            p.sendrecv(other, other, T0, p.world_rank())
        });
        assert_eq!(results, vec![1, 0]);
    }

    #[test]
    fn sendrecv_with_self_is_identity() {
        let results = run(1, |p| p.sendrecv(0, 0, T0, 42u8));
        assert_eq!(results, vec![42]);
    }

    #[test]
    fn contexts_do_not_collide() {
        // Same tag number in two contexts must not cross.
        let a = Tag { ctx: 1, tag: 7 };
        let b = Tag { ctx: 2, tag: 7 };
        let results = run(2, |p| {
            if p.world_rank() == 0 {
                p.send(1, a, 100u32);
                p.send(1, b, 200u32);
                0
            } else {
                let vb: u32 = p.recv(0, b);
                let va: u32 = p.recv(0, a);
                va * 1000 + vb
            }
        });
        assert_eq!(results[1], 100_200);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        run(0, |_p| ());
    }

    #[test]
    fn instrumented_run_counts_messages_bytes_and_buffered_hits() {
        let recorder = Recorder::new();
        let metrics = MetricsRegistry::new();
        run_instrumented(2, Some(&recorder), Some(&metrics), |p| {
            if p.world_rank() == 0 {
                p.send(1, T0, vec![1.0f64; 4]);
                p.send(1, T1, 7u32);
            } else {
                // Force a buffered hit: receive the second send first…
                let b: u32 = p.recv(0, T1);
                // …then the first, which by now sits in the buffer.
                let v: Vec<f64> = p.recv(0, T0);
                assert_eq!(b, 7);
                assert_eq!(v.len(), 4);
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("mpi.send.count"), 2);
        assert_eq!(snap.counter("mpi.send.bytes"), 32 + 4);
        assert_eq!(snap.counter("mpi.recv.count"), 2);
        assert_eq!(snap.counter("mpi.recv.bytes"), 32 + 4);
        // At least the Vec receive hit the out-of-order buffer.
        assert!(snap.counter("mpi.recv.buffered.count") >= 1);
        assert_eq!(snap.histogram("mpi.send.bytes.hist").unwrap().count, 2);

        // Every send and every recv completion carries a bytes arg.
        let trace = recorder.take_trace();
        let sends: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Send)
            .collect();
        assert_eq!(sends.len(), 2);
        for e in &sends {
            assert!(e.args.iter().any(|(k, v)| k == "bytes" && !v.is_empty()));
            assert!(e.args.iter().any(|(k, _)| k == "ctx"));
        }
        let recvs: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::RecvWait)
            .collect();
        assert_eq!(recvs.len(), 2, "buffered receives must record too");
        for e in &recvs {
            assert!(e.args.iter().any(|(k, v)| k == "bytes" && !v.is_empty()));
        }
    }

    #[test]
    fn metrics_without_recorder_and_vice_versa() {
        let metrics = MetricsRegistry::new();
        run_instrumented(2, None, Some(&metrics), |p| {
            let other = 1 - p.world_rank();
            p.sendrecv(other, other, T0, 1u8)
        });
        assert_eq!(metrics.snapshot().counter("mpi.send.count"), 2);

        let recorder = Recorder::new();
        run_instrumented(2, Some(&recorder), None, |p| {
            let other = 1 - p.world_rank();
            p.sendrecv(other, other, T0, 1u8)
        });
        assert!(!recorder.take_trace().events.is_empty());
    }

    #[test]
    fn bounded_recorder_drop_count_becomes_a_metric() {
        let recorder = Recorder::bounded(1);
        let metrics = MetricsRegistry::new();
        run_instrumented(2, Some(&recorder), Some(&metrics), |p| {
            let other = 1 - p.world_rank();
            for _ in 0..5 {
                p.sendrecv(other, other, T0, 0u8);
            }
        });
        let snap = metrics.snapshot();
        assert!(snap.counter("trace.recorder.dropped") > 0);
        assert_eq!(
            snap.counter("trace.recorder.dropped"),
            recorder.dropped_events()
        );
    }

    #[test]
    fn many_ranks_all_to_one() {
        let n = 32;
        let results = run(n, |p| {
            if p.world_rank() == 0 {
                (1..n).map(|src| p.recv::<usize>(src, T0)).sum::<usize>()
            } else {
                p.send(0, T0, p.world_rank());
                0
            }
        });
        assert_eq!(results[0], n * (n - 1) / 2);
    }
}
