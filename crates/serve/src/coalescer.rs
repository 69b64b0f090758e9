//! Request coalescing: many asynchronous client streams in, dense
//! batches out.
//!
//! The [`Coalescer`] is the server's admission point. Reader threads
//! [`Coalescer::offer`] one [`Pending`] request at a time; the single
//! executor thread blocks in [`Coalescer::next_drain`] until a batch is
//! worth draining, then runs it through the pipeline. Three policies live
//! here:
//!
//! - **Admission control / backpressure.** The queue is bounded by
//!   [`CoalescerConfig::queue_cap`]; an offer beyond it is refused with
//!   [`Admission::QueueFull`] and the server answers a typed overload
//!   response instead of buffering without limit.
//! - **Graceful degradation.** Above [`CoalescerConfig::shed_watermark`]
//!   the coalescer sheds the most expensive class first: reads whose
//!   prefilter shortlist falls back to a full reference scan are refused
//!   with [`Admission::Shed`] while cheap shortlisted reads still board.
//!   The (potentially costly) classification runs lazily — only when the
//!   queue is actually above the watermark.
//! - **Per-client fairness.** Requests queue per client and batches are
//!   assembled round-robin, one read per client per turn, resuming after
//!   the last-served client. A client blasting 10k requests cannot starve
//!   a client sending one.
//!
//! # Determinism
//!
//! Batch assembly is timing-dependent (arrival order, flush deadlines) —
//! deliberately so. It can never change mapping *results*, because each
//! request's sensing seed derives from its request id via
//! [`asmcap::read_seed`], not from its batch or position
//! (`crates/serve/tests/coalescer_determinism.rs` pins this). Timing here
//! steers only *grouping*, which is why the `Instant` uses below are
//! annotated rather than forbidden.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use asmcap_genome::PackedSeq;

/// Sizing and policy knobs for a [`Coalescer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescerConfig {
    /// Hard cap on queued requests; offers beyond it get
    /// [`Admission::QueueFull`].
    pub queue_cap: usize,
    /// Queue depth at which full-scan-fallback reads start being refused
    /// with [`Admission::Shed`]. Set `>= queue_cap` to disable shedding.
    pub shed_watermark: usize,
    /// Largest batch [`Coalescer::next_drain`] assembles.
    pub batch_max: usize,
    /// How long a partial batch may wait for company before it is flushed
    /// anyway. Bounds queueing latency under light load.
    pub flush_timeout: Duration,
    /// Per-request queueing deadline. A request that has waited longer
    /// than this when its batch is drained is answered with a typed
    /// deadline overload instead of being mapped (see
    /// [`Coalescer::next_drain`]). `None` disables expiry. Deadlines are
    /// checked at drain time, so they should sit well above
    /// `flush_timeout` to be meaningful.
    pub deadline: Option<Duration>,
}

impl Default for CoalescerConfig {
    /// 4096-deep queue, shedding above 3072, 256-read batches, 500 µs
    /// flush, no deadline.
    fn default() -> Self {
        Self {
            queue_cap: 4096,
            shed_watermark: 3072,
            batch_max: 256,
            flush_timeout: Duration::from_micros(500),
            deadline: None,
        }
    }
}

/// One admitted-or-not map request. `T` is a caller-owned tag carried
/// through to the drained batch (the server threads a per-connection
/// reply handle; tests use `()`).
#[derive(Debug)]
pub struct Pending<T> {
    /// Connection id, the fairness key.
    pub client: u64,
    /// Client-chosen request id — the determinism key downstream.
    pub req_id: u64,
    /// The packed, exactly-row-width-or-longer read.
    pub read: PackedSeq,
    /// When the request entered the queue (for queue-latency reporting).
    pub enqueued: Instant,
    /// Caller-owned payload.
    pub tag: T,
}

/// The verdict [`Coalescer::offer`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; a future batch will carry it.
    Enqueued,
    /// Refused: the queue is at [`CoalescerConfig::queue_cap`].
    QueueFull,
    /// Refused: the queue is above [`CoalescerConfig::shed_watermark`]
    /// and this read would need a full reference scan.
    Shed,
    /// Refused: [`Coalescer::close`] has been called.
    Closed,
}

/// What one [`Coalescer::next_drain`] call hands the executor: the live
/// batch to map, plus any requests whose deadline expired in the queue
/// (to be answered with a typed overload, never silently dropped).
#[derive(Debug)]
pub struct Drain<T> {
    /// Requests still inside their deadline, round-robin fair.
    pub batch: Vec<Pending<T>>,
    /// Requests that outlived [`CoalescerConfig::deadline`] in the queue.
    /// Always empty when no deadline is configured.
    pub expired: Vec<Pending<T>>,
}

#[derive(Debug)]
struct State<T> {
    /// Per-client FIFO queues, keyed by connection id. A `BTreeMap` so
    /// the round-robin order is the deterministic client-id order, not a
    /// hash order.
    queues: BTreeMap<u64, VecDeque<Pending<T>>>,
    /// Total queued across all clients (kept, not recomputed).
    len: usize,
    /// The client id served last; the next batch resumes *after* it.
    resume_after: u64,
    closed: bool,
}

/// The bounded, fair, flush-on-timeout request queue. See the
/// [module docs](self) for the three policies it implements.
#[derive(Debug)]
pub struct Coalescer<T> {
    state: Mutex<State<T>>,
    wakeup: Condvar,
    config: CoalescerConfig,
}

impl<T> Coalescer<T> {
    /// An empty coalescer with the given policy knobs (`batch_max` and
    /// `queue_cap` are clamped to at least 1).
    #[must_use]
    pub fn new(mut config: CoalescerConfig) -> Self {
        config.batch_max = config.batch_max.max(1);
        config.queue_cap = config.queue_cap.max(1);
        Self {
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                len: 0,
                resume_after: 0,
                closed: false,
            }),
            wakeup: Condvar::new(),
            config,
        }
    }

    /// The policy knobs this coalescer runs with.
    #[must_use]
    pub fn config(&self) -> CoalescerConfig {
        self.config
    }

    /// Current queue depth.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the queue lock.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("coalescer lock poisoned").len
    }

    /// Whether the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the queue lock.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offers one request. `is_full_scan` classifies the read's cost for
    /// the shed policy; it is invoked **only** when the queue is above the
    /// shed watermark, so the common uncongested path never pays for a
    /// prefilter probe.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the queue lock.
    pub fn offer(&self, pending: Pending<T>, is_full_scan: impl FnOnce() -> bool) -> Admission {
        let mut state = self.state.lock().expect("coalescer lock poisoned");
        if state.closed {
            return Admission::Closed;
        }
        if state.len >= self.config.queue_cap {
            return Admission::QueueFull;
        }
        if state.len >= self.config.shed_watermark && is_full_scan() {
            return Admission::Shed;
        }
        state
            .queues
            .entry(pending.client)
            .or_default()
            .push_back(pending);
        state.len += 1;
        drop(state);
        self.wakeup.notify_one();
        Admission::Enqueued
    }

    /// Blocks until a batch is ready and returns it together with any
    /// deadline-expired requests, or `None` once the coalescer is closed
    /// **and** drained (requests queued before [`Coalescer::close`] still
    /// come out).
    ///
    /// A batch is ready when `batch_max` requests are queued, or when the
    /// oldest queued request has waited `flush_timeout` — whichever comes
    /// first. Assembly is round-robin one-per-client (see the
    /// [module docs](self)); expired requests do not count against
    /// `batch_max`.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the queue lock.
    pub fn next_drain(&self) -> Option<Drain<T>> {
        let mut state = self.state.lock().expect("coalescer lock poisoned");
        loop {
            if state.len >= self.config.batch_max || (state.closed && state.len > 0) {
                return Some(self.assemble(&mut state));
            }
            if state.closed {
                return None;
            }
            if state.len == 0 {
                state = self.wakeup.wait(state).expect("coalescer lock poisoned");
                continue;
            }
            // A partial batch is waiting: flush once the oldest request
            // has been queued for `flush_timeout`.
            let oldest = Self::oldest_enqueue(&state);
            // lint: timing-ok — flush pacing only; per-request seeds come
            // from request ids, so batch timing cannot change results.
            let waited = Instant::now().saturating_duration_since(oldest);
            if waited >= self.config.flush_timeout {
                return Some(self.assemble(&mut state));
            }
            let (next, _timeout) = self
                .wakeup
                .wait_timeout(state, self.config.flush_timeout - waited)
                .expect("coalescer lock poisoned");
            state = next;
        }
    }

    /// Closes the queue: future offers get [`Admission::Closed`], blocked
    /// [`Coalescer::next_drain`] callers drain what is queued and then
    /// observe `None`.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the queue lock.
    pub fn close(&self) {
        self.state.lock().expect("coalescer lock poisoned").closed = true;
        self.wakeup.notify_all();
    }

    /// When the oldest queued request was enqueued. Caller guarantees the
    /// queue is non-empty.
    fn oldest_enqueue(state: &State<T>) -> Instant {
        state
            .queues
            .values()
            .filter_map(|q| q.front())
            .map(|p| p.enqueued)
            .min()
            .expect("oldest_enqueue called on a non-empty queue")
    }

    /// Takes up to `batch_max` live requests round-robin, one per client
    /// per turn, resuming after the last-served client id. Clients emptied
    /// along the way are dropped from the map. Requests past the
    /// configured deadline are diverted to [`Drain::expired`] without
    /// counting against the cap.
    fn assemble(&self, state: &mut State<T>) -> Drain<T> {
        let cap = self.config.batch_max;
        // lint: timing-ok — expiry steers only which requests get a typed
        // deadline answer, never a mapped read's result.
        let now = Instant::now();
        let deadline = self.config.deadline;
        let mut batch = Vec::with_capacity(cap.min(state.len));
        let mut expired = Vec::new();
        while batch.len() < cap && state.len > 0 {
            // One full round: every client with queued work contributes
            // one read, in client-id order starting after `resume_after`.
            let round: Vec<u64> = state
                .queues
                .range((
                    std::ops::Bound::Excluded(state.resume_after),
                    std::ops::Bound::Unbounded,
                ))
                .map(|(&client, _)| client)
                .chain(
                    state
                        .queues
                        .range(..=state.resume_after)
                        .map(|(&client, _)| client),
                )
                .collect();
            for client in round {
                if batch.len() >= cap {
                    break;
                }
                let Some(queue) = state.queues.get_mut(&client) else {
                    continue;
                };
                let Some(pending) = queue.pop_front() else {
                    continue;
                };
                if queue.is_empty() {
                    state.queues.remove(&client);
                }
                state.len -= 1;
                state.resume_after = client;
                let is_expired =
                    deadline.is_some_and(|d| now.saturating_duration_since(pending.enqueued) > d);
                if is_expired {
                    expired.push(pending);
                } else {
                    batch.push(pending);
                }
            }
        }
        Drain { batch, expired }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(client: u64, req_id: u64) -> Pending<()> {
        let seq = asmcap_genome::DnaSeq::from_bytes(b"ACGT").expect("ACGT parses");
        Pending {
            client,
            req_id,
            read: PackedSeq::from_seq(&seq),
            enqueued: Instant::now(),
            tag: (),
        }
    }

    fn config(queue_cap: usize, shed: usize, batch_max: usize) -> CoalescerConfig {
        CoalescerConfig {
            queue_cap,
            shed_watermark: shed,
            batch_max,
            flush_timeout: Duration::from_millis(5),
            deadline: None,
        }
    }

    #[test]
    fn bounded_queue_refuses_beyond_cap() {
        let c: Coalescer<()> = Coalescer::new(config(2, 2, 8));
        assert_eq!(c.offer(pending(1, 0), || false), Admission::Enqueued);
        assert_eq!(c.offer(pending(1, 1), || false), Admission::Enqueued);
        assert_eq!(c.offer(pending(1, 2), || false), Admission::QueueFull);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn full_scan_reads_shed_above_watermark_only() {
        let c: Coalescer<()> = Coalescer::new(config(8, 2, 8));
        // Below the watermark the classifier must not even run.
        assert_eq!(
            c.offer(pending(1, 0), || panic!("classified below watermark")),
            Admission::Enqueued
        );
        assert_eq!(c.offer(pending(1, 1), || true), Admission::Enqueued);
        // At the watermark: expensive reads shed, cheap reads board.
        assert_eq!(c.offer(pending(1, 2), || true), Admission::Shed);
        assert_eq!(c.offer(pending(1, 3), || false), Admission::Enqueued);
    }

    #[test]
    fn batches_are_round_robin_fair_across_clients() {
        let c: Coalescer<()> = Coalescer::new(config(64, 64, 4));
        // Client 1 floods; clients 2 and 3 send one each.
        for req in 0..6 {
            assert_eq!(c.offer(pending(1, req), || false), Admission::Enqueued);
        }
        assert_eq!(c.offer(pending(2, 100), || false), Admission::Enqueued);
        assert_eq!(c.offer(pending(3, 200), || false), Admission::Enqueued);
        let batch = c.next_drain().expect("batch ready").batch;
        let clients: Vec<u64> = batch.iter().map(|p| p.client).collect();
        // One per client per round: 1, 2, 3, then back to 1.
        assert_eq!(clients, vec![1, 2, 3, 1]);
        // FIFO within a client.
        assert_eq!(batch[0].req_id, 0); // lint: index-ok — asserted 4 long above
        assert_eq!(batch[3].req_id, 1); // lint: index-ok — asserted 4 long above
                                        // The next batch resumes after client 1: 2 and 3 are drained, so
                                        // client 1's remaining reads flow.
        let batch = c.next_drain().expect("second batch ready").batch;
        let ids: Vec<u64> = batch.iter().map(|p| p.req_id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn partial_batch_flushes_after_timeout() {
        let c: Coalescer<()> = Coalescer::new(config(64, 64, 1000));
        assert_eq!(c.offer(pending(1, 7), || false), Admission::Enqueued);
        let start = Instant::now();
        let batch = c.next_drain().expect("flush fires").batch;
        assert_eq!(batch.len(), 1);
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn expired_requests_are_diverted_not_dropped() {
        let c: Coalescer<()> = Coalescer::new(CoalescerConfig {
            deadline: Some(Duration::from_millis(1)),
            ..config(64, 64, 4)
        });
        // One request ages past the deadline; a fresh one does not.
        let mut stale = pending(1, 0);
        stale.enqueued = Instant::now() - Duration::from_millis(50);
        assert_eq!(c.offer(stale, || false), Admission::Enqueued);
        assert_eq!(c.offer(pending(2, 1), || false), Admission::Enqueued);
        let drain = c.next_drain().expect("drain ready");
        assert_eq!(drain.batch.len(), 1);
        assert_eq!(drain.batch[0].req_id, 1); // lint: index-ok — asserted 1 long above
        assert_eq!(drain.expired.len(), 1);
        assert_eq!(drain.expired[0].req_id, 0); // lint: index-ok — asserted 1 long above
        assert!(c.is_empty(), "expired entries leave the queue");
    }

    #[test]
    fn no_deadline_means_nothing_expires() {
        let c: Coalescer<()> = Coalescer::new(config(64, 64, 4));
        let mut stale = pending(1, 0);
        stale.enqueued = Instant::now() - Duration::from_secs(3600);
        assert_eq!(c.offer(stale, || false), Admission::Enqueued);
        let drain = c.next_drain().expect("drain ready");
        assert_eq!(drain.batch.len(), 1);
        assert!(drain.expired.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let c: Coalescer<()> = Coalescer::new(config(64, 64, 1000));
        assert_eq!(c.offer(pending(1, 0), || false), Admission::Enqueued);
        c.close();
        assert_eq!(c.offer(pending(1, 1), || false), Admission::Closed);
        assert_eq!(c.next_drain().expect("drain queued work").batch.len(), 1);
        assert!(c.next_drain().is_none());
    }
}
