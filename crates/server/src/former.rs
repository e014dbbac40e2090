//! The dynamic micro-batch former.
//!
//! Requests wait in a virtual-time priority queue ordered by
//! `(arrival, client, seq)`. A batch **closes** — its composition becomes
//! final — on whichever comes first:
//!
//! * **`max_batch`**: the window already holds `max_batch` requests; the
//!   batch closes at the `max_batch`-th request's arrival instant;
//! * **`max_wait`**: the virtual clock reaches
//!   `oldest pending arrival + max_wait`; the batch closes then with
//!   every request that arrived inside the window.
//!
//! Because arrivals come from concurrently running client threads but
//! batching happens on the *virtual* clock, the former must never close
//! a batch whose composition a not-yet-delivered request could still
//! change. The scheduler therefore passes a **frontier**: a proven lower
//! bound (exclusive) on every future arrival, computed from per-client
//! watermarks (each client's arrivals are nondecreasing, and a
//! closed-loop client cannot submit before its previous completion).
//! [`BatchFormer::try_close`] only finalizes a batch when every slot is
//! below the frontier — which makes batch composition, and every latency
//! percentile downstream, a deterministic function of the request trace
//! no matter how host threads interleave.
//!
//! A frontier of [`u64::MAX`] means "no further arrival can ever come":
//! every client is finished, or is a closed-loop client whose next
//! arrival the scheduler itself controls. The former then **drains**,
//! finalizing whatever is pending — but the close *instant* must stay a
//! pure function of the trace, not of when the scheduler happened to
//! learn the trace was over (`drive` and a thread-per-client `Server`
//! session deliver the same trace with very different host pacing).
//! Drain-mode closes therefore charge `min(close_by, max(last arrival,
//! drain_end))`, where `drain_end` is the virtual instant the trace
//! provably ended: the latest final watermark among finished clients
//! (a client disconnects at its last arrival or heartbeat). Mid-trace
//! batches that a flood of buffered events pushed into drain mode thus
//! still close at `close_by`, exactly as they would have under
//! window expiry; an all-closed-loop drain (no finished clients,
//! `drain_end = 0`) still closes work-conservingly at the last taken
//! arrival.

use crate::request::RequestMeta;
use std::collections::BTreeMap;

/// Why a batch's composition became final — recorded so traces can
/// distinguish "the chip was fed a full batch" from "the window expired
/// half-empty" (the difference between throughput-bound and
/// latency-bound operating points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseTrigger {
    /// The batch reached `max_batch` requests.
    Full,
    /// The forming window (`max_wait`) expired.
    Window,
    /// The trace ended and the former drained the remainder.
    Drain,
}

impl CloseTrigger {
    /// Stable lowercase label for traces and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseTrigger::Full => "full",
            CloseTrigger::Window => "window",
            CloseTrigger::Drain => "drain",
        }
    }
}

/// A closed batch: requests in `(arrival, client, seq)` order plus the
/// virtual instant the batch closed (its earliest possible dispatch).
#[derive(Debug)]
pub struct FormedBatch<T> {
    /// Virtual close instant, in ns.
    pub close_ns: u64,
    /// What finalized the batch's composition.
    pub trigger: CloseTrigger,
    /// The batch members, in dispatch order.
    pub requests: Vec<(RequestMeta, T)>,
}

/// The dynamic micro-batch former (see the module docs for the close
/// rules). Generic over the per-request payload `T` so the scheduler can
/// carry inputs and responders while tests drive it with `()`.
#[derive(Debug)]
pub struct BatchFormer<T> {
    max_batch: usize,
    max_wait_ns: u64,
    pending: BTreeMap<(u64, usize, u64), (RequestMeta, T)>,
}

impl<T> BatchFormer<T> {
    /// A former closing batches at `max_batch` requests or `max_wait_ns`
    /// after the oldest pending arrival, whichever comes first.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, max_wait_ns: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Self {
            max_batch,
            max_wait_ns,
            pending: BTreeMap::new(),
        }
    }

    /// The batch-size bound.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The forming-window bound, in ns.
    pub fn max_wait_ns(&self) -> u64 {
        self.max_wait_ns
    }

    /// Pending (not yet closed) request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Pending requests that arrived at or before `t_ns`. When `t_ns`
    /// is below the scheduler's frontier this count is a deterministic
    /// function of the request trace: every arrival ≤ `t_ns` is
    /// provably delivered (in-channel events carry arrivals at or
    /// above their client's watermark, hence at or above the frontier),
    /// so host interleaving cannot change what is counted.
    pub fn pending_at(&self, t_ns: u64) -> usize {
        self.pending.range(..=(t_ns, usize::MAX, u64::MAX)).count()
    }

    /// Queues a request.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate `(arrival, client, seq)` key: silently
    /// replacing the earlier request would drop its payload (and with
    /// it any pending responder), leaving a caller waiting on a
    /// completion that can never come. [`ClientHandle`] never produces
    /// duplicates (`seq` is strictly increasing per client); a custom
    /// driver must not either.
    ///
    /// [`ClientHandle`]: crate::ClientHandle
    pub fn push(&mut self, meta: RequestMeta, payload: T) {
        let key = (meta.arrival_ns, meta.client, meta.seq);
        let prev = self.pending.insert(key, (meta, payload));
        assert!(prev.is_none(), "duplicate request key {key:?}");
    }

    /// Tries to close the next batch given `frontier_ns`, the exclusive
    /// lower bound on every future arrival (`u64::MAX` = no more
    /// arrivals possible), and `drain_end_ns`, the virtual instant the
    /// trace provably ended (the latest finished client's final
    /// watermark; only read in drain mode — see the module docs).
    /// Returns `None` when no batch can be finalized yet — the caller
    /// must learn more about future arrivals first.
    pub fn try_close(&mut self, frontier_ns: u64, drain_end_ns: u64) -> Option<FormedBatch<T>> {
        let (&(head_arrival, _, _), _) = self.pending.iter().next()?;
        let close_by = head_arrival.saturating_add(self.max_wait_ns);
        let draining = frontier_ns == u64::MAX;

        // Count, in order, the requests that could belong to this batch:
        // inside the window and provably un-preemptable (below the
        // frontier — a later arrival sorts after them).
        let mut taken = 0usize;
        let mut last_arrival = head_arrival;
        for &(arrival, _, _) in self.pending.keys() {
            if arrival > close_by || taken == self.max_batch {
                break;
            }
            if !draining && arrival >= frontier_ns {
                // A future request could still arrive before this one;
                // the batch cannot be finalized past this point.
                break;
            }
            taken += 1;
            last_arrival = arrival;
        }
        if taken == 0 {
            return None;
        }

        // Decide whether the prefix is final.
        let full = taken == self.max_batch;
        let window_expired = close_by < frontier_ns; // everything ≤ close_by is known
        if !(full || window_expired || draining) {
            return None;
        }
        let (close_ns, trigger) = if full {
            // Work-conserving close at the last member's arrival.
            (last_arrival, CloseTrigger::Full)
        } else if draining {
            // Trace-deterministic drain instant: when the trace is
            // known to have ended by `close_by` the server stops
            // waiting then; otherwise it waits out the window exactly
            // as the expiry rule would have. With no finished client
            // (`drain_end_ns = 0`, the all-closed-loop case) this is
            // the classic work-conserving close at the last arrival.
            let close = close_by.min(last_arrival.max(drain_end_ns));
            // The *label* must be trace-deterministic too: whether the
            // scheduler learned "trace over" before or after the window
            // expired depends on host pacing, but a drain close landing
            // exactly on `close_by` is the window close by another
            // route — same members, same instant — so report it as one.
            let trigger = if close == close_by {
                CloseTrigger::Window
            } else {
                CloseTrigger::Drain
            };
            (close, trigger)
        } else {
            (close_by, CloseTrigger::Window)
        };

        let keys: Vec<_> = self.pending.keys().take(taken).copied().collect();
        let requests = keys
            .into_iter()
            .map(|k| self.pending.remove(&k).expect("key just enumerated"))
            .collect();
        Some(FormedBatch {
            close_ns,
            trigger,
            requests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(client: usize, seq: u64, arrival_ns: u64) -> RequestMeta {
        RequestMeta {
            client,
            tenant: 0,
            network: 0,
            seq,
            arrival_ns,
            deadline_ns: None,
        }
    }

    fn arrivals<T>(batch: &FormedBatch<T>) -> Vec<u64> {
        batch.requests.iter().map(|(m, _)| m.arrival_ns).collect()
    }

    #[test]
    fn closes_on_max_batch_at_kth_arrival() {
        let mut f = BatchFormer::new(3, 1_000);
        for (i, t) in [10u64, 20, 30, 40].iter().enumerate() {
            f.push(meta(0, i as u64, *t), ());
        }
        let b = f.try_close(50, 0).expect("full batch closes");
        assert_eq!(arrivals(&b), vec![10, 20, 30]);
        assert_eq!(b.close_ns, 30);
        assert_eq!(b.trigger, CloseTrigger::Full);
        assert_eq!(f.len(), 1);
        // The leftover cannot close: its window runs to 1040 and more
        // arrivals below that are still possible.
        assert!(f.try_close(50, 0).is_none());
    }

    #[test]
    fn closes_on_window_expiry_with_partial_batch() {
        let mut f = BatchFormer::new(8, 100);
        f.push(meta(0, 0, 10), ());
        f.push(meta(1, 0, 60), ());
        f.push(meta(1, 1, 200), ()); // outside the 10+100 window
        assert!(f.try_close(105, 0).is_none(), "window still open at 105");
        let b = f.try_close(111, 0).expect("frontier past close_by");
        assert_eq!(arrivals(&b), vec![10, 60]);
        assert_eq!(b.close_ns, 110);
        assert_eq!(b.trigger, CloseTrigger::Window);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn never_finalizes_past_the_frontier() {
        let mut f = BatchFormer::new(2, 1_000);
        f.push(meta(0, 0, 10), ());
        f.push(meta(0, 1, 500), ());
        // Frontier 400: a request at 300 could still arrive and belongs
        // in slot 2 before the one at 500 — no close.
        assert!(f.try_close(400, 0).is_none());
        // Frontier 501: both slots are final, batch is full.
        let b = f.try_close(501, 0).expect("now final");
        assert_eq!(arrivals(&b), vec![10, 500]);
        assert_eq!(b.close_ns, 500);
    }

    #[test]
    fn drain_mode_closes_work_conservingly() {
        let mut f = BatchFormer::new(8, 1_000_000);
        f.push(meta(0, 0, 10), ());
        f.push(meta(0, 1, 20), ());
        let b = f.try_close(u64::MAX, 0).expect("drain closes");
        assert_eq!(b.close_ns, 20, "no max_wait padding when draining");
        assert_eq!(b.trigger, CloseTrigger::Drain);
        assert!(f.is_empty());
        assert!(f.try_close(u64::MAX, 0).is_none());
    }

    #[test]
    fn orders_by_arrival_then_client_then_seq() {
        let mut f = BatchFormer::new(4, 0);
        f.push(meta(1, 0, 10), ());
        f.push(meta(0, 5, 10), ());
        f.push(meta(0, 6, 10), ());
        let b = f.try_close(11, 0).expect("window of width 0 at t=10");
        let order: Vec<_> = b.requests.iter().map(|(m, _)| (m.client, m.seq)).collect();
        assert_eq!(order, vec![(0, 5), (0, 6), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_panics() {
        let _ = BatchFormer::<()>::new(0, 10);
    }

    #[test]
    fn pending_at_counts_arrivals_up_to_the_instant() {
        let mut f = BatchFormer::new(8, 1_000);
        for (i, t) in [10u64, 20, 30, 500].iter().enumerate() {
            f.push(meta(0, i as u64, *t), ());
        }
        assert_eq!(f.pending_at(9), 0);
        assert_eq!(f.pending_at(10), 1);
        assert_eq!(f.pending_at(30), 3);
        assert_eq!(f.pending_at(u64::MAX), 4);
    }
}
