//! The batch-invariance property that makes dynamic batching *correct*, not
//! just fast: for **any** interleaving or partition of a query stream, the
//! batcher's scattered answers are bit-identical to one synchronous
//! `top_k_batch` call over the whole stream — under both scoring kernels.
//!
//! Three layers, from pure to policy-driven:
//!
//! 1. any hand-chosen partition of the stream into batches (random cuts);
//! 2. any arrival *order* (random permutation, answers scattered back by
//!    stream tag);
//! 3. the partitions the real [`BatchQueue`] policy actually produces under
//!    randomized configs and mock-time schedules (deadline flushes, full
//!    flushes, shutdown drains — whatever the drawn schedule triggers).
//!
//! "Bit-identical" is literal: item ids equal and `f64::to_bits` of every
//! score equal, so a `Fast32` kernel answer is compared at full strictness
//! too.

mod common;

use std::time::Duration;

use common::{lcg_model, splitmix};
use msopds_serve_async::{
    BatchQueue, BatcherConfig, Clock, MockClock, ScorePrecision, ScoredItem, ServingModel,
};
use proptest::prelude::*;

const K: usize = 5;
const PRECISIONS: [ScorePrecision; 2] = [ScorePrecision::Exact64, ScorePrecision::Fast32];

/// Panic-free bitwise comparison with a useful failure message.
fn assert_bitwise(got: &[ScoredItem], want: &[ScoredItem], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "row length: {}", ctx);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(g.item, w.item, "item id: {}", ctx);
        prop_assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "score bits for item {}: {}",
            g.item,
            ctx
        );
    }
    Ok(())
}

/// The deterministic query stream for a case: `len` users drawn from the
/// model's universe via splitmix.
fn stream(seed: u64, len: usize, n_users: usize) -> Vec<usize> {
    let mut state = seed;
    (0..len).map(|_| (splitmix(&mut state) % n_users as u64) as usize).collect()
}

fn reference(
    model: &ServingModel,
    users: &[usize],
    precision: ScorePrecision,
) -> Vec<Vec<ScoredItem>> {
    model.top_k_batch_with(users, K, precision)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Layer 1: any partition of the stream into contiguous batches gives
    /// the same answers as the unpartitioned call.
    #[test]
    fn any_partition_is_bit_identical(seed in 0u64..u64::MAX, len in 1usize..64, cut_seed in 0u64..u64::MAX) {
        let model = lcg_model(23, 37, 4, 1.0);
        let users = stream(seed, len, model.n_users());
        // Random cut points: each position independently starts a new batch.
        let mut cuts = cut_seed;
        for precision in PRECISIONS {
            let want = reference(&model, &users, precision);
            let mut got: Vec<Vec<ScoredItem>> = Vec::with_capacity(len);
            let mut start = 0usize;
            for i in 1..=len {
                if i == len || splitmix(&mut cuts) & 3 == 0 {
                    got.extend(model.top_k_batch_with(&users[start..i], K, precision));
                    start = i;
                }
            }
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_bitwise(g, w, &format!("partitioned row {i} ({precision})"))?;
            }
        }
    }

    /// Layer 2: any arrival order. Queries are served in a permuted order
    /// (in permuted sub-batches, even) and scattered back to their stream
    /// position by tag — the reconstruction the async server performs with
    /// tickets.
    #[test]
    fn any_arrival_order_scatters_back_bit_identical(seed in 0u64..u64::MAX, len in 1usize..64, perm_seed in 0u64..u64::MAX) {
        let model = lcg_model(19, 41, 3, 0.7);
        let users = stream(seed, len, model.n_users());
        // Fisher–Yates with splitmix: a uniform-enough permutation.
        let mut order: Vec<usize> = (0..len).collect();
        let mut ps = perm_seed;
        for i in (1..len).rev() {
            let j = (splitmix(&mut ps) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for precision in PRECISIONS {
            let want = reference(&model, &users, precision);
            let mut got: Vec<Option<Vec<ScoredItem>>> = vec![None; len];
            for chunk in order.chunks(7) {
                let batch_users: Vec<usize> = chunk.iter().map(|&tag| users[tag]).collect();
                let answers = model.top_k_batch_with(&batch_users, K, precision);
                for (&tag, row) in chunk.iter().zip(answers) {
                    got[tag] = Some(row);
                }
            }
            for (i, w) in want.iter().enumerate() {
                let g = got[i].as_ref().expect("every tag answered exactly once");
                assert_bitwise(g, w, &format!("permuted row {i} ({precision})"))?;
            }
        }
    }

    /// Layer 3: the partitions the real batcher policy emits. A randomized
    /// mock-time schedule interleaves offers with time advances and take
    /// polls; a skipped poll stands for a busy dispatcher, so arrivals pile
    /// up. The drawn cases exercise idle, deadline and full flushes and the
    /// final shutdown drain; whatever batches fall out, the scattered answers
    /// must reconstruct the synchronous reference bit-for-bit, and every
    /// batch must be counted under exactly one flush label.
    #[test]
    fn batcher_policy_cuts_are_bit_identical(
        seed in 0u64..u64::MAX,
        len in 1usize..96,
        sched_seed in 0u64..u64::MAX,
        max_batch in 1usize..16,
        deadline_us in 1u64..400,
    ) {
        let model = lcg_model(29, 31, 4, 1.3);
        let users = stream(seed, len, model.n_users());
        for precision in PRECISIONS {
            let want = reference(&model, &users, precision);
            let clock = MockClock::new();
            let mut q: BatchQueue<usize> = BatchQueue::new(BatcherConfig {
                deadline: Duration::from_micros(deadline_us),
                max_batch,
                queue_cap: len.max(1), // no shedding in this property
            });
            let mut got: Vec<Option<Vec<ScoredItem>>> = vec![None; len];
            let serve = |batch: Vec<msopds_serve_async::Pending<usize>>,
                             got: &mut Vec<Option<Vec<ScoredItem>>>| {
                let batch_users: Vec<usize> = batch.iter().map(|p| p.user).collect();
                let answers = model.top_k_batch_with(&batch_users, K, precision);
                for (p, row) in batch.into_iter().zip(answers) {
                    prop_assert!(got[p.tag].is_none(), "tag {} dispatched twice", p.tag);
                    got[p.tag] = Some(row);
                }
                Ok(())
            };
            let mut ss = sched_seed;
            for (tag, &user) in users.iter().enumerate() {
                // Random inter-arrival gap, occasionally past the deadline.
                clock.advance_us(splitmix(&mut ss) % (deadline_us * 2 / 3 + 2));
                q.offer(user, tag, clock.now_ns()).expect("cap covers the stream");
                // The dispatcher polls whenever it is free; poll probabilistically.
                if splitmix(&mut ss) & 1 == 0 {
                    if let Some((batch, _reason)) = q.take(clock.now_ns(), false) {
                        serve(batch, &mut got)?;
                    }
                }
            }
            // Shutdown drain, in max_batch chunks like the dispatcher loop.
            while let Some((batch, _reason)) = q.take(clock.now_ns(), true) {
                serve(batch, &mut got)?;
            }
            let c = q.counters();
            prop_assert_eq!(c.offered, len as u64);
            prop_assert_eq!(c.accepted, len as u64);
            prop_assert_eq!(c.rejected, 0);
            prop_assert_eq!(
                c.batches,
                c.flush_full + c.flush_deadline + c.flush_shutdown + c.flush_idle
            );
            for (i, w) in want.iter().enumerate() {
                let g = got[i].as_ref().expect("every accepted query dispatched");
                assert_bitwise(g, w, &format!("policy-cut row {i} ({precision})"))?;
            }
        }
    }
}
