//! Million-user scale sweep: streaming world build and zero-copy snapshot
//! load at n ∈ {20k, 200k, 1M}.
//!
//! Nothing here materializes a dense structure: the world is emitted as
//! row-range `WorldChunk`s (streaming `WorldBuilder` mode — O(n_items +
//! chunk) resident), the social graph accumulates through `CsrBuilder`,
//! and the planted-model snapshot is written tensor-by-tensor through
//! `SnapshotWriter` without ever holding the `[n, d]` user matrix. Loads
//! are timed through both `SnapshotSource` paths; `mmap` load time should
//! stay flat in model size while the heap load grows with it — CI asserts
//! exactly that on the smoke run.
//!
//! Every row is a one-shot measurement (`iters_per_sample` = 1): the unit
//! is milliseconds for `*_ms` rows and bytes for `*_bytes` rows. Sizes
//! gated off (smoke mode, opt-out) are reported as explicit
//! `{"skipped": reason}` rows, never silently dropped. Set
//! `MSOPDS_BENCH_SMOKE=1` for the 20k-only CI run, or
//! `MSOPDS_SCALE_SIZES=200000` (comma-separated) to pick sizes directly.

use std::time::Instant;

use criterion::BenchResult;
use msopds_het_graph::CsrBuilder;
use msopds_recdata::{DatasetSpec, WorldBuilder};
use msopds_recsys::snapshot::{ModelKind, SnapshotHeader, SnapshotWriter, TensorDecl};
use msopds_recsys::Backend;
use msopds_serve::{ServingModel, SnapshotSource};

const SEED: u64 = 42;
const DIM: usize = 8;
/// Item catalogs saturate around real-world scale: user counts grow into
/// the millions, catalogs don't.
const MAX_ITEMS: usize = 50_000;
const FULL_SIZES: [usize; 3] = [20_000, 200_000, 1_000_000];
const CHUNK_ROWS: usize = 65_536;

fn requested_sizes() -> Vec<usize> {
    if let Ok(raw) = std::env::var("MSOPDS_SCALE_SIZES") {
        return raw.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n > 0).collect();
    }
    if std::env::var("MSOPDS_BENCH_SMOKE").is_ok() {
        vec![FULL_SIZES[0]]
    } else {
        FULL_SIZES.to_vec()
    }
}

/// Ciao's density profile (≈17 ratings and ≈19 social links per user)
/// carried up to `n` users, with the item catalog capped at [`MAX_ITEMS`].
fn spec_for(n: usize) -> DatasetSpec {
    let mut spec = DatasetSpec::ciao();
    spec.name = format!("ciao-scale-{n}");
    spec.n_users = n;
    spec.n_items = ((n as f64 * 1.46) as usize).clamp(200, MAX_ITEMS);
    spec.n_ratings = n * 17;
    spec.n_links = n * 19;
    spec.latent_dim = DIM;
    spec
}

fn row(id: String, value: f64) -> BenchResult {
    BenchResult { id, sample_means_ns: vec![value], iters_per_sample: 1, skipped: None }
}

fn ms(elapsed: std::time::Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Current resident set size from `/proc/self/status` (linux only).
fn vm_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0)
}

/// One full sweep at `n`: streaming build → streamed snapshot → both load
/// paths. Returns the result rows.
fn sweep(n: usize, check_parity: bool) -> Vec<BenchResult> {
    let mut rows = Vec::new();
    let spec = spec_for(n);
    let builder = WorldBuilder::streaming(spec.clone(), SEED);

    // -- Build: emit every rating/edge/factor draw, keep only the CSR. ----
    let start = Instant::now();
    let mut social = CsrBuilder::with_capacity(spec.n_users, spec.n_links);
    let mut n_ratings = 0u64;
    let mut rating_digest = 0.0f64;
    builder.for_each_chunk(CHUNK_ROWS, |chunk| {
        n_ratings += chunk.ratings.len() as u64;
        // Fold the values so the generator can't be dead-code-eliminated.
        rating_digest += chunk.ratings.iter().map(|r| r.value).sum::<f64>();
        social.add_edges(chunk.social_edges.iter().copied());
    });
    let social = social.finish();
    let build = start.elapsed();
    assert!(rating_digest.is_finite());
    eprintln!(
        "scale n={n}: built {} ratings, {} social edges in {:.1} ms",
        n_ratings,
        social.num_edges(),
        ms(build)
    );
    rows.push(row(format!("scale/build_ms_n{n}"), ms(build)));
    rows.push(row(format!("scale/ratings_n{n}"), n_ratings as f64));
    rows.push(row(format!("scale/social_csr_bytes_n{n}"), social.resident_bytes() as f64));
    match vm_rss_bytes() {
        Some(rss) => rows.push(row(format!("scale/vm_rss_bytes_n{n}"), rss)),
        None => rows.push(BenchResult::skipped(
            format!("scale/vm_rss_bytes_n{n}"),
            "/proc/self/status unavailable",
        )),
    }

    // -- Snapshot: stream the planted MF model straight to disk. ---------
    let path = std::env::temp_dir().join(format!("msopds-scale-{n}-{}.snap", std::process::id()));
    let (n_users, n_items) = (spec.n_users, spec.n_items);
    let header = SnapshotHeader {
        kind: ModelKind::Mf,
        backend: Backend::Sparse,
        seed: SEED,
        social_fingerprint: social.fingerprint(),
        item_fingerprint: 0,
        n_users: n_users as u64,
        n_items: n_items as u64,
        mu: 3.5,
    };
    let start = Instant::now();
    let mut writer = SnapshotWriter::create(
        &path,
        header,
        "{\"planted\":true}",
        vec![
            TensorDecl::matrix("p", n_users, DIM),
            TensorDecl::matrix("q", n_items, DIM),
            TensorDecl::vector("b_u", n_users),
            TensorDecl::vector("b_i", n_items),
        ],
    )
    .expect("create snapshot writer");
    // p: the planted user factors, one chunk at a time — the [n, d] matrix
    // never exists in memory.
    builder.for_each_chunk(CHUNK_ROWS, |chunk| {
        writer.write(&chunk.user_latent).expect("stream user factors");
    });
    writer.write(&builder.item_latent()).expect("item factors");
    let zeros = vec![0.0f64; CHUNK_ROWS];
    for t in [n_users, n_items] {
        let mut left = t;
        while left > 0 {
            let take = left.min(CHUNK_ROWS);
            writer.write(&zeros[..take]).expect("biases");
            left -= take;
        }
    }
    writer.finish().expect("finish snapshot");
    let write = start.elapsed();
    let snap_bytes = std::fs::metadata(&path).expect("snapshot on disk").len();
    eprintln!("scale n={n}: wrote {snap_bytes} snapshot bytes in {:.1} ms", ms(write));
    rows.push(row(format!("scale/snapshot_write_ms_n{n}"), ms(write)));
    rows.push(row(format!("scale/snapshot_bytes_n{n}"), snap_bytes as f64));

    // -- Load: the heap path copies every payload, the mmap path none. ----
    let start = Instant::now();
    let heap = ServingModel::open(&SnapshotSource::file(&path)).expect("heap load");
    rows.push(row(format!("scale/heap_load_ms_n{n}"), ms(start.elapsed())));
    rows.push(row(format!("scale/heap_model_bytes_n{n}"), heap.heap_param_bytes() as f64));

    let start = Instant::now();
    let mapped = ServingModel::open(&SnapshotSource::mmap(&path)).expect("mmap load");
    rows.push(row(format!("scale/mmap_load_ms_n{n}"), ms(start.elapsed())));
    rows.push(row(format!("scale/mmap_model_bytes_n{n}"), mapped.heap_param_bytes() as f64));

    if check_parity {
        for u in [0usize, n_users / 2, n_users - 1] {
            for i in [0usize, n_items - 1] {
                assert_eq!(
                    heap.predict(u, i).to_bits(),
                    mapped.predict(u, i).to_bits(),
                    "heap/mmap drift at ({u}, {i})"
                );
            }
        }
    }
    drop(heap);
    drop(mapped);
    std::fs::remove_file(&path).ok();
    rows
}

fn main() {
    let sizes = requested_sizes();
    let mut all: Vec<BenchResult> = Vec::new();
    for (idx, &n) in sizes.iter().enumerate() {
        all.extend(sweep(n, idx == 0));
    }
    for &n in FULL_SIZES.iter().filter(|n| !sizes.contains(n)) {
        all.push(BenchResult::skipped(
            format!("scale/sweep_n{n}"),
            if std::env::var("MSOPDS_BENCH_SMOKE").is_ok() {
                "smoke mode runs the smallest size only"
            } else {
                "size excluded by MSOPDS_SCALE_SIZES"
            },
        ));
    }
    criterion::write_results_json("scale", &all);
}
