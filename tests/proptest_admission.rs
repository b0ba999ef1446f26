//! Property tests: admission accounting balances for *any* tenant mix.
//!
//! For any random combination of tenant count, offer pattern, chunk
//! costs, session churn, limits, budget, and drain capacity:
//!
//! * the conservation identity holds at every tick —
//!   `offered == served + rejected + shed + queued + migrated` — and
//!   closes without the `queued` term once the queue is fully drained
//!   (`migrated` is zero for a standalone controller; the term keeps the
//!   identity aligned with the fleet-wide form);
//! * per-tenant books sum to the fleet books;
//! * the per-tenant and fleet session bulkheads are never exceeded, no
//!   matter how aggressively sessions are requested;
//! * charged bytes never exceed the budget, and a drained fleet holds
//!   zero bytes;
//! * the admission layer never panics.

use emoleak::admission::{AdmissionConfig, AdmissionController, CodelConfig};
use emoleak::stream::LadderConfig;
use emoleak::exec::{derive_seed, splitmix64};
use proptest::prelude::*;

const TENANTS: [&str; 5] = ["ada", "bea", "cyd", "dot", "eve"];

fn conserves(ctrl: &AdmissionController) -> Result<(), String> {
    let s = ctrl.stats();
    prop_assert!(
        s.offered == s.served + s.rejected + s.shed + s.queued + s.migrated,
        "fleet books out of balance: {s:?}"
    );
    let mut per_tenant = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (name, t) in ctrl.tenant_stats() {
        prop_assert!(
            t.offered >= t.served + t.rejected + t.shed + t.migrated,
            "tenant {} books out of balance: {:?}",
            name,
            t
        );
        per_tenant.0 += t.offered;
        per_tenant.1 += t.served;
        per_tenant.2 += t.rejected;
        per_tenant.3 += t.shed;
        per_tenant.4 += t.migrated;
    }
    prop_assert!(per_tenant.0 == s.offered, "tenant offers do not sum to the fleet's");
    prop_assert!(per_tenant.1 == s.served, "tenant serves do not sum to the fleet's");
    prop_assert!(per_tenant.2 == s.rejected, "tenant rejects do not sum to the fleet's");
    prop_assert!(per_tenant.3 == s.shed, "tenant sheds do not sum to the fleet's");
    prop_assert!(per_tenant.4 == s.migrated, "tenant migrations do not sum to the fleet's");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accounting_balances_for_any_tenant_mix(
        seed in 0u64..1_000_000,
        n_tenants in 1usize..=5,
        max_sessions in 1usize..=6,
        tenant_sessions in 1usize..=3,
        tenant_rps in 1u64..5_000,
        tenant_burst in 1u64..16,
        mem_budget in 256u64..16_384,
        degrade_after in 1u32..8,
        ticks in 50u64..300,
        capacity in 0usize..6,
    ) {
        let cfg = AdmissionConfig {
            max_sessions,
            tenant_sessions,
            mem_budget,
            tenant_rps,
            tenant_burst,
            codel: CodelConfig { target: 5, interval: 30 },
            breaker: LadderConfig { degrade_after, recover_after: 6, cooldown: 3 },
        };
        let mut ctrl = AdmissionController::new(cfg.clone());
        let mut held: Vec<&str> = Vec::new();

        for now in 0..ticks {
            let mut stream = derive_seed(seed, now);
            let mut draw = || splitmix64(&mut stream);

            // Session churn: random open/close attempts; refusals are
            // part of the contract, not a failure.
            for _ in 0..draw() % 3 {
                let t = TENANTS[(draw() as usize) % n_tenants];
                if ctrl.open_session(t, now).is_ok() {
                    held.push(t);
                }
            }
            if draw() % 4 == 0 {
                if let Some(t) = held.pop() {
                    ctrl.close_session(t);
                }
            }

            // Random offers: 0..6 chunks, random tenant, random cost.
            for _ in 0..draw() % 6 {
                let t = TENANTS[(draw() as usize) % n_tenants];
                let cost = 16 + draw() % 512;
                let _ = ctrl.offer(t, cost, now);
            }

            ctrl.drain(now, capacity);
            ctrl.observe(now);
            conserves(&ctrl)?;
        }

        // Full drain: the identity must close with no queued term.
        let mut now = ticks;
        while ctrl.queue_depth() > 0 {
            ctrl.drain(now, 64);
            now += 1;
            prop_assert!(now < ticks + 10_000, "drain failed to make progress");
        }
        for t in held.drain(..) {
            ctrl.close_session(t);
        }
        conserves(&ctrl)?;

        let s = ctrl.stats();
        prop_assert_eq!(s.queued, 0);
        prop_assert_eq!(s.offered, s.served + s.rejected + s.shed + s.migrated);
        prop_assert!(s.mem_charged == 0, "drained fleet still holds bytes");
        prop_assert!(
            s.mem_peak <= cfg.mem_budget,
            "memory peak {} exceeded budget {}",
            s.mem_peak,
            cfg.mem_budget
        );
        prop_assert!(
            s.peak_sessions <= cfg.max_sessions,
            "fleet bulkhead exceeded: {} > {}",
            s.peak_sessions,
            cfg.max_sessions
        );
        for (name, t) in ctrl.tenant_stats() {
            prop_assert!(
                t.peak_sessions <= cfg.tenant_sessions,
                "tenant {} bulkhead exceeded: {} > {}",
                name,
                t.peak_sessions,
                cfg.tenant_sessions
            );
        }
    }
}
