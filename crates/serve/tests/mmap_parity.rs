//! Zero-copy parity: a `ServingModel` opened over an mmapped v2 snapshot
//! must serve **bit-identical** answers to one built from the same snapshot
//! on the heap — across model kinds and training backends — and the mapped
//! open path must reject structural corruption with typed errors.

use msopds_recsys::snapshot::{
    MappedSnapshot, ModelKind, Snapshot, SnapshotError, SnapshotHeader, SnapshotSource,
};
use msopds_recsys::Backend;
use msopds_serve::ServingModel;
use proptest::prelude::*;

use msopds_autograd::Tensor;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn filled(state: &mut u64, n: usize) -> Vec<f64> {
    (0..n).map(|_| (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect()
}

fn model_snapshot(kind: ModelKind, backend: Backend, n: usize, m: usize, d: usize) -> Snapshot {
    let mut s = 0x5eed ^ (n as u64) << 20 ^ (m as u64) << 8 ^ d as u64;
    let (user_name, item_name) = match kind {
        ModelKind::HetRec => ("finals.user", "finals.item"),
        ModelKind::Mf => ("p", "q"),
    };
    Snapshot {
        header: SnapshotHeader {
            kind,
            backend,
            seed: 7,
            social_fingerprint: 0x50c1a1,
            item_fingerprint: 0x17e35,
            n_users: n as u64,
            n_items: m as u64,
            mu: 3.4,
        },
        config_json: "{}".to_string(),
        tensors: vec![
            (user_name.to_string(), Tensor::from_vec(filled(&mut s, n * d), &[n, d])),
            (item_name.to_string(), Tensor::from_vec(filled(&mut s, m * d), &[m, d])),
            ("b_u".to_string(), Tensor::from_vec(filled(&mut s, n), &[n, 1])),
            ("b_i".to_string(), Tensor::from_vec(filled(&mut s, m), &[m, 1])),
        ],
    }
}

fn temp_path(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("msopds-parity-{tag}-{case}-{}.snap", std::process::id()))
}

#[test]
fn mmap_and_heap_models_serve_bit_identical_top_k() {
    let mut case = 0u64;
    for kind in [ModelKind::Mf, ModelKind::HetRec] {
        for backend in [Backend::Dense, Backend::Sparse] {
            case += 1;
            let snap = model_snapshot(kind, backend, 17, 29, 6);
            let path = temp_path("topk", case);
            snap.save(&path).unwrap();

            let heap = ServingModel::open(&SnapshotSource::file(&path)).unwrap();
            let mapped = ServingModel::open(&SnapshotSource::mmap(&path)).unwrap();
            assert!(!heap.is_zero_copy());
            #[cfg(unix)]
            assert!(mapped.is_zero_copy());
            assert!(mapped.heap_param_bytes() < heap.heap_param_bytes());
            assert_eq!(mapped.backend(), backend);

            let users: Vec<usize> = (0..17).collect();
            // Bit-identical scores and lists.
            let hs = heap.score_batch(&users);
            let ms = mapped.score_batch(&users);
            for (a, b) in hs.data().iter().zip(ms.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "score drifted between storages");
            }
            assert_eq!(heap.top_k_batch(&users, 7), mapped.top_k_batch(&users, 7));
            // Single-pair predicts agree bitwise as well.
            for u in [0usize, 5, 16] {
                for i in [0usize, 11, 28] {
                    assert_eq!(heap.predict(u, i).to_bits(), mapped.predict(u, i).to_bits());
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Snapshots are derived artifacts and version 2 is the only format: a
/// file stamped with any older version is refused with the same typed
/// error by every read path, full parse and header peek alike.
#[test]
fn v1_files_are_refused_on_every_read_path() {
    let mut bytes = model_snapshot(ModelKind::Mf, Backend::Sparse, 9, 13, 4).to_bytes();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let path = temp_path("v1", 0);
    std::fs::write(&path, &bytes).unwrap();
    let is_v1 = |e: SnapshotError| matches!(e, SnapshotError::UnsupportedVersion { found: 1, .. });
    let sources = [
        SnapshotSource::Owned(bytes.clone()),
        SnapshotSource::file(&path),
        SnapshotSource::mmap(&path),
    ];
    assert!(is_v1(Snapshot::from_bytes(&bytes).unwrap_err()));
    for source in &sources {
        assert!(is_v1(Snapshot::open(source).unwrap_err()), "Snapshot::open({source:?})");
        assert!(is_v1(Snapshot::peek(source).unwrap_err()), "Snapshot::peek({source:?})");
        assert!(is_v1(ServingModel::open(source).unwrap_err()), "ServingModel::open({source:?})");
    }
    assert!(is_v1(MappedSnapshot::open(&path).map(|_| ()).unwrap_err()));
    let message = Snapshot::from_bytes(&bytes).unwrap_err().to_string();
    assert!(message.contains("repro snapshot"), "{message}");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Truncating a v2 file anywhere leaves the mapped open path with a
    /// typed error — never a panic, never a silently short model.
    #[test]
    fn mapped_open_rejects_any_truncation(cut_frac in 0.0f64..1.0, case in 0u64..1_000_000) {
        let snap = model_snapshot(ModelKind::Mf, Backend::Dense, 5, 7, 3);
        let bytes = snap.to_bytes();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        let path = temp_path("trunc", case);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = MappedSnapshot::open(&path).map(|_| ()).unwrap_err();
        std::fs::remove_file(&path).ok();
        prop_assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at {} gave {}", cut, err
        );
    }

    /// Any flipped byte is caught: header flips at open time, payload flips
    /// by the opt-in `verify_payloads` pass.
    #[test]
    fn mapped_open_plus_verify_detects_any_flip(pos_frac in 0.0f64..1.0, case in 0u64..1_000_000) {
        let snap = model_snapshot(ModelKind::Mf, Backend::Dense, 5, 7, 3);
        let mut bytes = snap.to_bytes();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 0x10;
        let path = temp_path("flip", case);
        std::fs::write(&path, &bytes).unwrap();
        let caught = match MappedSnapshot::open(&path) {
            Err(_) => true,
            Ok(m) => m.verify_payloads().is_err(),
        };
        std::fs::remove_file(&path).ok();
        prop_assert!(caught, "flip at {} went undetected", pos);
    }

    /// Nudging a directory offset off its 64-byte-aligned slot (re-signing
    /// the header so only the layout rule can object) is typed `Corrupt`.
    #[test]
    fn misaligned_sections_are_rejected(entry in 0usize..4, nudge in 1usize..8, case in 0u64..1_000_000) {
        let snap = model_snapshot(ModelKind::Mf, Backend::Dense, 5, 7, 3);
        let mut bytes = snap.to_bytes();
        // Walk the directory to the chosen entry's offset field.
        let config_len =
            u32::from_le_bytes(bytes[64..68].try_into().unwrap()) as usize;
        let mut pos = 64 + 4 + config_len + 4;
        for _ in 0..entry {
            let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2 + name_len + 1 + 8 + 8 + 8 + 8;
        }
        let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
        let field = pos + 2 + name_len + 1 + 8 + 8;
        let stored = u64::from_le_bytes(bytes[field..field + 8].try_into().unwrap());
        bytes[field..field + 8].copy_from_slice(&(stored + nudge as u64 * 8).to_le_bytes());
        // Find the header end (count entries fully) and re-sign it.
        let count = u32::from_le_bytes(
            bytes[64 + 4 + config_len..64 + 4 + config_len + 4].try_into().unwrap(),
        ) as usize;
        let mut end = 64 + 4 + config_len + 4;
        for _ in 0..count {
            let nl = u16::from_le_bytes(bytes[end..end + 2].try_into().unwrap()) as usize;
            end += 2 + nl + 1 + 8 + 8 + 8 + 8;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes[..end] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[end..end + 8].copy_from_slice(&h.to_le_bytes());
        let path = temp_path("misalign", case);
        std::fs::write(&path, &bytes).unwrap();
        let err = MappedSnapshot::open(&path).map(|_| ()).unwrap_err();
        std::fs::remove_file(&path).ok();
        prop_assert!(matches!(err, SnapshotError::Corrupt { .. }), "got {}", err);
    }
}
