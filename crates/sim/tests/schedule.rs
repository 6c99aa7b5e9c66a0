//! Schedule-perturbation integration tests.
//!
//! The contract under test, in order of importance:
//!
//! 1. With `cfg.schedule` unset the engine is **byte-identical** to the
//!    unperturbed engine — pinned against constants captured before the
//!    perturbation hooks existed.
//! 2. A fixed seed replays **bit-identically** (full `RunStats` equality,
//!    sanitize report included).
//! 3. Perturbation actually perturbs: some seed produces a different
//!    interleaving than the default on a contended workload.
//! 4. Perturbed grant orders must not fabricate sanitizer findings:
//!    a consistently-ordered lock program stays cycle-free under every
//!    seed, a real inversion is found under every seed, and the
//!    barrier-divergence lint survives schedule perturbation.

use ccnuma_sim::config::{Fnv1a, MachineConfig};
use ccnuma_sim::error::SimError;
use ccnuma_sim::machine::{Machine, Placement};
use ccnuma_sim::schedule::ScheduleConfig;
use ccnuma_sim::stats::RunStats;

fn cfg(nprocs: usize, schedule: Option<ScheduleConfig>) -> MachineConfig {
    let mut c = MachineConfig::origin2000_scaled(nprocs, 16 << 10);
    c.schedule = schedule;
    c
}

/// A contended workload exercising every choice point: lock handoffs
/// with multi-waiter queues, semaphore wake-ups, barrier wake sweeps and
/// same-time heap ties.
fn contended_workload(c: MachineConfig) -> Result<RunStats, SimError> {
    let n = c.nprocs;
    let mut m = Machine::new(c)?;
    let x = m.shared_vec::<f64>(1024.max(256 + 64 * n), Placement::Blocked);
    let l = m.lock();
    let b = m.barrier();
    let s = m.semaphore(1);
    let x2 = x.clone();
    m.run(move |ctx| {
        let x = &x2;
        let p = ctx.id();
        let n = ctx.nprocs();
        for round in 0..4 {
            ctx.compute_ops(50 + (p as u64) * 13);
            ctx.with_lock(l, || {
                let v = x.read(ctx, round);
                x.write(ctx, round, v + 1.0);
            });
            ctx.sem_wait(s);
            ctx.compute_ops(20);
            ctx.sem_post(s, 1);
            let lo = 64 * p;
            for i in lo..lo + 16 {
                x.write(ctx, 256 + i, (i + round) as f64);
            }
            ctx.barrier(b);
            let _ = x.read(ctx, 256 + 64 * ((p + 1) % n));
        }
    })
}

/// A stable digest of the run's timing-visible outcome.
fn digest(stats: &RunStats) -> (u64, u64, u64) {
    let mut h = Fnv1a::new();
    h.update(format!("{:?}", stats.procs).as_bytes());
    (stats.wall_ns, stats.events, h.finish())
}

#[test]
fn unset_schedule_is_byte_identical_to_the_unperturbed_engine() {
    // Constants captured from the engine before the schedule hooks were
    // added: the default path must not drift by a single nanosecond.
    let stats = contended_workload(cfg(4, None)).unwrap();
    assert_eq!(digest(&stats), (6469, 84, 0x6da9_0d50_d6c3_a83b));
}

#[test]
fn seed_replay_is_bit_identical() {
    for sc in [ScheduleConfig::random(7), ScheduleConfig::pct(7, 16)] {
        let mut c = cfg(4, Some(sc));
        c.sanitize.enabled = true;
        let a = contended_workload(c.clone()).unwrap();
        let b = contended_workload(c).unwrap();
        assert_eq!(a, b, "seed {sc:?} must replay bit-identically");
        assert!(a.sanitize.is_some());
    }
}

#[test]
fn some_seed_changes_the_interleaving() {
    let base = digest(&contended_workload(cfg(4, None)).unwrap());
    let perturbed = (1..=16).filter(|&s| {
        let d = digest(&contended_workload(cfg(4, Some(ScheduleConfig::random(s)))).unwrap());
        d != base
    });
    assert!(
        perturbed.count() > 0,
        "no seed in 1..=16 perturbed a contended 4-proc workload"
    );
}

#[test]
fn results_stay_correct_under_perturbation() {
    // Whatever order the perturber picks, the synchronization still
    // provides the same guarantees: the lock-protected counters reach
    // their exact totals under every seed.
    for seed in 0..6 {
        let schedule = (seed > 0).then(|| ScheduleConfig::random(seed));
        let mut m = Machine::new(cfg(4, schedule)).unwrap();
        let x = m.shared_vec::<u64>(1, Placement::Blocked);
        let l = m.lock();
        let x2 = x.clone();
        m.run(move |ctx| {
            for _ in 0..8 {
                ctx.with_lock(l, || x2.update(ctx, 0, |v| v + 1));
            }
        })
        .unwrap();
        assert_eq!(x.get(0), 32, "lost update under seed {seed}");
    }
}

/// Locks are always taken in id order (outer, then inner) by every
/// processor: no seed may invent a lock-order cycle out of reordered
/// grant decisions.
#[test]
fn no_false_lock_cycles_under_perturbed_grants() {
    for seed in 0..8 {
        let schedule = (seed > 0).then(|| ScheduleConfig::random(seed));
        let mut c = cfg(4, schedule);
        c.sanitize.enabled = true;
        let mut m = Machine::new(c).unwrap();
        let x = m.shared_vec::<u64>(2, Placement::Blocked);
        let outer = m.lock();
        let inner = m.lock();
        let x2 = x.clone();
        let stats = m
            .run(move |ctx| {
                for _ in 0..4 {
                    ctx.with_lock(outer, || {
                        x2.update(ctx, 0, |v| v + 1);
                        ctx.with_lock(inner, || x2.update(ctx, 1, |v| v + 1));
                    });
                }
            })
            .unwrap();
        let rep = stats.sanitize.unwrap();
        assert!(
            rep.is_clean(),
            "seed {seed} fabricated findings: {}",
            rep.summary()
        );
    }
}

/// A real lock-order inversion (A→B on one side of a barrier, B→A on the
/// other, so it never actually deadlocks) is reported identically under
/// the default schedule and under every perturbation seed.
#[test]
fn real_lock_cycle_is_found_under_every_seed() {
    let mut cycles = Vec::new();
    for seed in 0..6 {
        let schedule = (seed > 0).then(|| ScheduleConfig::random(seed));
        let mut c = cfg(2, schedule);
        c.sanitize.enabled = true;
        let mut m = Machine::new(c).unwrap();
        let a = m.lock();
        let b = m.lock();
        let bar = m.barrier();
        let stats = m
            .run(move |ctx| {
                if ctx.id() == 0 {
                    ctx.with_lock(a, || ctx.with_lock(b, || ctx.compute_ops(4)));
                }
                ctx.barrier(bar);
                if ctx.id() == 1 {
                    ctx.with_lock(b, || ctx.with_lock(a, || ctx.compute_ops(4)));
                }
            })
            .unwrap();
        let rep = stats.sanitize.unwrap();
        assert_eq!(rep.lock_cycles.len(), 1, "seed {seed}: {}", rep.summary());
        cycles.push(rep.lock_cycles[0].clone());
    }
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "cycle finding must not depend on the seed: {cycles:?}"
    );
}

#[test]
fn barrier_divergence_lint_survives_perturbation() {
    for seed in [1, 2, 3] {
        let mut c = cfg(4, Some(ScheduleConfig::random(seed)));
        c.sanitize.enabled = true;
        let mut m = Machine::new(c).unwrap();
        let b = m.barrier();
        let err = m
            .run(move |ctx| {
                if ctx.id() != 1 {
                    ctx.barrier(b);
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock(msg) => {
                assert!(msg.contains("barrier-divergence"), "seed {seed}: {msg}");
                assert!(msg.contains("[1] never did"), "seed {seed}: {msg}");
            }
            other => panic!("seed {seed}: expected deadlock, got {other}"),
        }
    }
}

/// Digests of seeded schedules at 4 and 16 processors, captured from the
/// engine while it still ran on a coordinator thread fed by channels.
/// They pin every lock, semaphore, barrier and heap-tie choice the
/// perturber makes, so an executor change that reorders any of them
/// fails here even where the unperturbed records stay the same.
#[test]
fn seeded_schedules_match_pinned_digests() {
    type Pin = (usize, bool, u64, (u64, u64, u64));
    const PINS: [Pin; 16] = [
        (4, false, 1, (7013, 84, 0x231e_69a3_1c1d_7b88)),
        (4, false, 2, (6805, 84, 0x641f_ebd6_ac15_ef3f)),
        (4, false, 3, (6753, 84, 0xb97f_1662_78e5_11e1)),
        (4, false, 4, (6596, 84, 0xcdc2_ad0b_253d_12eb)),
        (4, true, 1, (6743, 84, 0x2d30_d0e3_2530_5b18)),
        (4, true, 2, (7123, 84, 0x6979_2df7_59df_168c)),
        (4, true, 3, (6589, 84, 0x116d_8c15_2e15_cb83)),
        (4, true, 4, (6552, 84, 0x263d_ec5c_7969_e250)),
        (16, false, 1, (20309, 336, 0xcc58_d1ad_8603_8cf0)),
        (16, false, 2, (19885, 336, 0xa297_693c_4a62_1b59)),
        (16, false, 3, (20424, 336, 0xcf11_940a_b296_d9ab)),
        (16, false, 4, (20176, 336, 0x9dfd_65c9_2fc4_9549)),
        (16, true, 1, (18671, 336, 0x8675_a409_c286_d789)),
        (16, true, 2, (20585, 336, 0x4395_3f38_4812_6c97)),
        (16, true, 3, (20041, 336, 0xc39b_2cb6_9f02_c222)),
        (16, true, 4, (19965, 336, 0x8247_b41a_3bdf_a011)),
    ];
    for (n, pct, seed, want) in PINS {
        let sc = if pct {
            ScheduleConfig::pct(seed, 16)
        } else {
            ScheduleConfig::random(seed)
        };
        let got = digest(&contended_workload(cfg(n, Some(sc))).unwrap());
        assert_eq!(got, want, "{n}p {sc:?}");
    }
    // The unperturbed 16p run, for the same reason.
    let got = digest(&contended_workload(cfg(16, None)).unwrap());
    assert_eq!(got, (18440, 336, 0x7394_2fb6_2407_04b4));
}

/// A sibling of [`contended_workload`] that also drives every other
/// happening an observer consumes: `fetch_add`, phase changes, software
/// prefetch, accesses to a labelled range and one real write-write race.
fn observed_workload(c: MachineConfig) -> Result<RunStats, SimError> {
    let n = c.nprocs;
    let mut m = Machine::new(c)?;
    let x = m.shared_vec::<f64>(1024.max(256 + 64 * n), Placement::Blocked);
    let hot = m.shared_vec_labeled::<u64>("hot", 16 * n, Placement::Node(0));
    let l = m.lock();
    let b = m.barrier();
    let s = m.semaphore(1);
    let cell = m.fetch_cell(0);
    let (x2, hot2) = (x.clone(), hot.clone());
    m.run(move |ctx| {
        let (x, hot) = (&x2, &hot2);
        let p = ctx.id();
        let n = ctx.nprocs();
        for round in 0..4 {
            ctx.phase(if round % 2 == 0 { "even" } else { "odd" });
            ctx.compute_ops(40 + (p as u64) * 11);
            let k = ctx.fetch_add(cell, 1) as usize;
            hot.write(ctx, k % (16 * n), k as u64);
            ctx.with_lock(l, || {
                let v = x.read(ctx, round);
                x.write(ctx, round, v + 1.0);
            });
            ctx.sem_wait(s);
            ctx.compute_ops(20);
            ctx.sem_post(s, 1);
            let lo = 64 * p;
            x.prefetch(ctx, 256 + lo, 32);
            for i in lo..lo + 16 {
                x.write(ctx, 256 + i, (i + round) as f64);
            }
            if round == 3 {
                // Unsynchronized writes to one word: a race to report.
                hot.write(ctx, 0, p as u64);
            }
            ctx.barrier(b);
            let _ = x.read(ctx, 256 + 64 * ((p + 1) % n));
            let _ = hot.read(ctx, (p + round) % (16 * n));
        }
    })
}

/// FNV-1a of `s`.
fn fnv(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.update(s.as_bytes());
    h.finish()
}

/// `p` without the counters that only `classify_misses` fills.
fn unclassified(mut p: ccnuma_sim::stats::ProcStats) -> ccnuma_sim::stats::ProcStats {
    p.misses_cold = 0;
    p.misses_coherence = 0;
    p.misses_capacity = 0;
    p.misses_conflict = 0;
    p.misses_false_share = 0;
    p.mem_cause_ns = Default::default();
    p
}

/// Each observer's output, pinned byte for byte as FNV-1a digests of the
/// Chrome trace JSON, the critical path's Chrome JSON and text table,
/// the sanitize report's `Debug` text, and the `ranges` and `phases`
/// records. An observer refactor must leave every one unchanged, and
/// the observers must leave the processors' statistics alone.
#[test]
fn observer_outputs_match_pinned_digests() {
    // (procs, schedule seed, trace span cap (0: default), digests); the
    // small cap makes the trace buffer compact mid-run, which pins the
    // order in which spans reach it.
    type Pin = (usize, Option<u64>, usize, [u64; 6]);
    const PINS: [Pin; 4] = [
        (
            4,
            None,
            0,
            [
                0xb1e3_3f04_ca3e_e78f,
                0x9608_6c6d_5124_e6aa,
                0x4a78_d9eb_4bae_65b5,
                0xdda3_7a9b_69ac_871b,
                0x5152_d887_feb5_ac3a,
                0xf152_0c55_27b3_9601,
            ],
        ),
        (
            16,
            None,
            0,
            [
                0xf7ac_6247_0f0d_a0bd,
                0xc4fc_2bf4_6ed6_78e4,
                0xe312_01ba_313a_37cc,
                0xc9ea_5748_940b_a3dd,
                0x5075_cc93_21c7_7774,
                0x0e5f_13be_489e_0d46,
            ],
        ),
        (
            4,
            Some(5),
            0,
            [
                0xe932_0e17_e188_a227,
                0x9305_4f82_07f6_041a,
                0x9d56_9be5_e6b8_395a,
                0x9567_812b_830e_ca5a,
                0xd7ae_794b_389b_105c,
                0x9d9f_80e0_7a29_2a4c,
            ],
        ),
        (
            16,
            None,
            64,
            [
                0x810f_c83c_cfcd_35df,
                0xc4fc_2bf4_6ed6_78e4,
                0xe312_01ba_313a_37cc,
                0xc9ea_5748_940b_a3dd,
                0x5075_cc93_21c7_7774,
                0x0e5f_13be_489e_0d46,
            ],
        ),
    ];
    for (n, seed, cap, want) in PINS {
        let mut c = cfg(n, seed.map(ScheduleConfig::random));
        c.prefetch_enabled = true;
        let off = observed_workload(c.clone()).unwrap();
        c.classify_misses = true;
        c.trace.enabled = true;
        if cap > 0 {
            c.trace.max_spans = cap;
        }
        c.sanitize.enabled = true;
        c.critpath = true;
        let on = observed_workload(c).unwrap();
        let (trace, crit) = (on.trace.as_ref().unwrap(), on.critpath.as_ref().unwrap());
        let got = [
            fnv(&trace.to_chrome_json("pin")),
            fnv(&crit.to_chrome_json("pin")),
            fnv(&crit.text_table()),
            fnv(&format!("{:?}", on.sanitize.as_ref().unwrap())),
            fnv(&format!("{:?}", on.ranges)),
            fnv(&format!("{:?}", on.phases)),
        ];
        assert_eq!(got, want, "{n}p seed {seed:?} cap {cap}: {got:#x?}");
        assert!(!on.ranges.is_empty() && !on.sanitize.as_ref().unwrap().is_clean());
        assert_eq!((on.wall_ns, on.events), (off.wall_ns, off.events));
        let strip = |s: &RunStats| {
            s.procs
                .iter()
                .cloned()
                .map(unclassified)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            strip(&on),
            strip(&off),
            "{n}p seed {seed:?}: observers moved procs"
        );
    }
}
