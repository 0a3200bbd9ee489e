//! Shared fixtures for the serve-net integration suites: a deterministic
//! LCG serving model (same family as the serve-async suites) and a helper
//! that stands up a full TCP stack — `NetServer` over `AsyncServer` — on an
//! ephemeral loopback port.

use std::time::Duration;

use msopds_autograd::Tensor;
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use msopds_serve_async::{
    AsyncServeConfig, AsyncServer, BatcherConfig, PauseHandle, ServeConfig, ServingModel,
};
use msopds_serve_net::{NetServeConfig, NetServer};

/// A deterministic in-memory snapshot (LCG weights, fixed fingerprints).
pub fn lcg_snapshot(n_users: usize, n_items: usize, d: usize, scale: f64) -> Snapshot {
    let mut state = 0x2545F4914F6CDD1Du64 ^ scale.to_bits();
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        scale * (((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5)
    };
    let fill =
        |n: usize, next: &mut dyn FnMut() -> f64| -> Vec<f64> { (0..n).map(|_| next()).collect() };
    Snapshot {
        header: SnapshotHeader {
            kind: ModelKind::Mf,
            backend: Backend::Dense,
            seed: 17,
            social_fingerprint: 0xFEED,
            item_fingerprint: 0xF00D,
            n_users: n_users as u64,
            n_items: n_items as u64,
            mu: 3.4,
        },
        config_json: String::from("{}"),
        tensors: vec![
            (String::from("p"), Tensor::from_vec(fill(n_users * d, &mut next), &[n_users, d])),
            (String::from("q"), Tensor::from_vec(fill(n_items * d, &mut next), &[n_items, d])),
            (String::from("b_u"), Tensor::from_vec(fill(n_users, &mut next), &[n_users, 1])),
            (String::from("b_i"), Tensor::from_vec(fill(n_items, &mut next), &[n_items, 1])),
        ],
    }
}

/// [`lcg_snapshot`] loaded into a serving model.
pub fn lcg_model(n_users: usize, n_items: usize, d: usize) -> ServingModel {
    ServingModel::from_snapshot(&lcg_snapshot(n_users, n_items, d, 1.0))
        .expect("valid fixture snapshot")
}

/// The standard small rig: 64 users × 48 items, short batching deadline.
pub fn rig_async_config(queue_cap: usize) -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig { deadline: Duration::from_micros(100), max_batch: 64, queue_cap },
        serve: ServeConfig::default(),
    }
}

/// Stands up `NetServer` over a fresh `AsyncServer` on an ephemeral loopback
/// port; returns the front end plus the dispatcher's pause handle.
pub fn start_rig(queue_cap: usize, net: NetServeConfig) -> (NetServer, PauseHandle) {
    let server = AsyncServer::start(lcg_model(64, 48, 8), rig_async_config(queue_cap));
    let pause = server.pause_handle();
    let net = NetServer::start("127.0.0.1:0", server, net).expect("bind loopback");
    (net, pause)
}
