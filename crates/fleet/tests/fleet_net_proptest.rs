//! Property tests for the simulated message plane: under *arbitrary*
//! duplicate/drop/reorder schedules, a chunk offer is never applied
//! twice, and the fleet conservation identity
//! `offered == served + rejected + shed + queued + migrated` holds at
//! every tick — including across partition windows, lease failovers, and
//! journal replays.

use emoleak_admission::AdmissionConfig;
use emoleak_fleet::config::NetConfig;
use emoleak_fleet::{FleetConfig, FleetCoordinator, NetProfile, NetProfileKind, NodeId, SimNet};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once at the plane: every payload sent is applied exactly
    /// once at its destination, whatever the fault schedule and however
    /// small the dedup window (the watermark covers evicted seqs).
    #[test]
    fn arbitrary_fault_schedules_never_double_apply(
        // A fault mix heavy on duplication and reordering (the schedules
        // the dedup window exists for), moderate drop so retransmission
        // liveness is exercised too.
        faults in (0u32..=300_000, 0u32..=800_000, 0u32..=1_000_000, 0u64..=4),
        delay_ppm in 0u32..=600_000,
        seed in 0u64..u64::MAX,
        dedup_window in 8usize..=256,
        n in 1usize..=40,
    ) {
        let (drop_ppm, dup_ppm, reorder_ppm, delay_max) = faults;
        let profile = NetProfile { drop_ppm, dup_ppm, reorder_ppm, delay_max, delay_ppm };
        let mut net: SimNet<u32> = SimNet::new(profile, seed, dedup_window, 2);
        let mut applied: BTreeMap<(NodeId, u32), u32> = BTreeMap::new();
        let horizon = (n as u64) + 160;
        let mut due = Vec::new();
        for now in 0..horizon {
            // Two independent links so cross-link seq spaces can't mask
            // each other.
            if (now as usize) < n {
                net.send(NodeId::Coordinator, NodeId::Shard(0), now as u32, now);
                net.send(NodeId::Coordinator, NodeId::Shard(1), now as u32, now);
            }
            net.pump(now, &mut due);
            for d in due.drain(..) {
                *applied.entry((d.dst, d.payload)).or_insert(0) += 1;
                net.accept(d.src, d.dst, d.seq, now);
            }
        }
        for shard in [NodeId::Shard(0), NodeId::Shard(1)] {
            for p in 0..n as u32 {
                let count = applied.get(&(shard, p)).copied().unwrap_or(0);
                prop_assert!(
                    count == 1,
                    "payload {} to {} applied {} times under {:?}",
                    p, shard, count, net.stats()
                );
            }
        }
    }

    /// Conservation end to end: a real fleet driven through a faulty
    /// plane — with a proptest-drawn partition window thrown in — keeps
    /// the chunk identity at every tick, never serves a chunk twice, and
    /// drains to an empty queue.
    #[test]
    fn fleet_conserves_and_never_double_serves_under_chaos(
        seed in 0u64..u64::MAX,
        chaotic in 0u32..=1,
        part_start in 10u64..=60,
        part_len in 1u64..=40,
        capacity in 1usize..=6,
    ) {
        let profile = if chaotic == 1 { NetProfileKind::Chaotic } else { NetProfileKind::Lossy };
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "emoleak-fleet-prop-{}-{seed:x}-{part_start}-{part_len}-{capacity}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FleetConfig {
            shards: 4,
            // Reseeds the ring placement and the plane's fault draws.
            seed,
            ledger_every: 10,
            scrub_every: 10,
            net: NetConfig { profile, lease_ticks: 6 },
            admission: AdmissionConfig {
                mem_budget: u64::MAX / 2,
                tenant_rps: 1_000_000,
                tenant_burst: 1_000_000,
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        let tenants: Vec<String> = (0..8).map(|t| format!("tenant-{t}")).collect();
        let mut served: BTreeMap<(String, u64), u32> = BTreeMap::new();
        for now in 0..90 {
            if now == part_start {
                c.partition_shard(1);
            }
            if now == part_start + part_len {
                c.heal_partitions();
            }
            for t in &tenants {
                let _ = c.offer(t, 64, now);
            }
            for chunk in c.advance(now, capacity, &[]) {
                *served.entry((chunk.tenant, chunk.seq)).or_insert(0) += 1;
            }
            let s = c.stats();
            prop_assert!(s.conserves(), "tick {}: {:?}", now, s);
        }
        for now in 90..260 {
            for chunk in c.advance(now, usize::MAX, &[]) {
                *served.entry((chunk.tenant, chunk.seq)).or_insert(0) += 1;
            }
        }
        for ((tenant, seq), count) in &served {
            prop_assert!(*count == 1, "chunk ({}, {}) served {} times", tenant, seq, count);
        }
        let s = c.stats();
        prop_assert!(s.conserves(), "final: {:?}", s);
        prop_assert!(s.settled(), "drain window must finish: {:?}", s);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
