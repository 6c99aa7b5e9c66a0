//! One function per table/figure of the paper: each runs the experiment on
//! the simulator and renders the same rows/series the paper reports.

use ccnuma_sim::config::{BarrierImpl, LockImpl, MigrationConfig, PagePlacement};
use ccnuma_sim::latency::LatencyProfile;
use ccnuma_sim::mapping::ProcessMapping;
use scaling_study::experiments::{all_basic, basic, restructurings, sor, sweep, Scale, APP_IDS};
use scaling_study::report::{breakdown_continuum, f2, pct, Table};
use scaling_study::runner::{Runner, StudyError};
use splash_apps::common::Workload;
use splash_apps::fft::Fft;
use splash_apps::ocean::Ocean;
use splash_apps::radix::Radix;
use splash_apps::raytrace::Raytrace;
use splash_apps::sample_sort::SampleSort;
use splash_apps::water_sp::WaterSpatial;

use crate::probes;

/// A runner sized for the scale's machine.
pub fn runner_for(scale: Scale) -> Runner {
    Runner::new(scale.cache_bytes())
}

/// Table 1: restart latencies of five CC-NUMA machines.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: latencies and remote-to-local ratios (measured on the simulator)",
        &[
            "machine",
            "local (ns)",
            "remote clean (ns)",
            "remote dirty (ns)",
            "clean ratio",
            "dirty ratio",
        ],
    );
    for profile in LatencyProfile::table1_machines() {
        let r = probes::measure_latencies(profile);
        t.row(vec![
            r.name.into(),
            r.local_ns.to_string(),
            r.remote_clean_ns.to_string(),
            r.remote_dirty_ns.to_string(),
            format!("{:.1}:1", r.clean_ratio()),
            format!("{:.1}:1", r.dirty_ratio()),
        ]);
    }
    t
}

/// Table 2: basic problem sizes and sequential execution times.
pub fn table2(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let mut t = Table::new(
        "Table 2: applications, basic problem sizes, sequential times (simulated)",
        &["application", "basic problem size", "sequential time"],
    );
    for (id, w) in all_basic(scale) {
        let cfg = runner.machine_for(1);
        let seq = runner.sequential_ns(w.as_ref(), &cfg)?;
        t.row(vec![
            id.into(),
            w.problem(),
            ccnuma_sim::time::Span(seq).to_string(),
        ]);
    }
    Ok(t)
}

/// Figure 2: speedups for the basic problem sizes across processor counts.
pub fn fig2(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let mut headers = vec!["application".to_string()];
    headers.extend(scale.procs().iter().map(|p| format!("{p}p speedup")));
    let mut t = Table::new(
        "Figure 2: application speedups for basic problem sizes",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (id, w) in all_basic(scale) {
        let mut row = vec![id.to_string()];
        for &np in scale.procs() {
            let rec = runner.run(w.as_ref(), np)?;
            row.push(f2(rec.speedup()));
        }
        t.row(row);
    }
    Ok(t)
}

/// Figure 3: average execution-time breakdown at the largest machine size.
pub fn fig3(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let np = scale.max_procs();
    let mut t = Table::new(
        format!("Figure 3: average breakdown, {np}-processor executions, basic sizes"),
        &["application", "busy", "memory", "sync"],
    );
    for (id, w) in all_basic(scale) {
        let rec = runner.run(w.as_ref(), np)?;
        let (b, m, s) = rec.stats.avg_breakdown_pct();
        t.row(vec![
            id.into(),
            format!("{b:.1}%"),
            format!("{m:.1}%"),
            format!("{s:.1}%"),
        ]);
    }
    Ok(t)
}

/// Figure 4: parallel efficiency vs problem size, one sub-table per
/// application, at three processor counts.
pub fn fig4(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    let procs: Vec<usize> = {
        // The paper plots 32/64/128 (omitting 96 for readability).
        let all = scale.procs();
        if all.len() >= 4 {
            vec![all[0], all[1], all[3]]
        } else {
            all.to_vec()
        }
    };
    let mut out = Vec::new();
    for &id in APP_IDS {
        let mut headers = vec!["problem".to_string()];
        headers.extend(procs.iter().map(|p| format!("{p}p eff")));
        let mut t = Table::new(
            format!("Figure 4 ({id}): parallel efficiency vs problem size"),
            &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for w in sweep(id, scale) {
            let mut row = vec![w.problem()];
            for &np in &procs {
                let rec = runner.run(w.as_ref(), np)?;
                row.push(pct(rec.efficiency()));
            }
            t.row(row);
        }
        out.push(t);
    }
    Ok(out)
}

/// A (label, small workload, large workload) comparison triple.
type SizePair = (&'static str, Box<dyn Workload>, Box<dyn Workload>);

/// Figures 5–8: per-processor breakdown continuums for Water-Spatial, FFT,
/// Shear-Warp and Raytrace, each at a small and a large problem size.
pub fn figs5to8(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    let np = scale.max_procs();
    let mut out = Vec::new();
    let pairs: Vec<SizePair> = vec![
        (
            "Figure 5 (water-sp)",
            first(sweep("water-sp", scale)),
            last(sweep("water-sp", scale)),
        ),
        (
            "Figure 6 (fft)",
            first(sweep("fft", scale)),
            last(sweep("fft", scale)),
        ),
        (
            "Figure 7 (shearwarp)",
            first(sweep("shearwarp", scale)),
            last(sweep("shearwarp", scale)),
        ),
        (
            "Figure 8 (raytrace)",
            first(sweep("raytrace", scale)),
            last(sweep("raytrace", scale)),
        ),
    ];
    for (fig, small, large) in pairs {
        for (tag, w) in [("small", small), ("large", large)] {
            let rec = runner.run(w.as_ref(), np)?;
            let mut t = breakdown_continuum(&rec.stats, 8);
            t.title = format!("{fig}, {tag} problem ({}): {}", w.problem(), t.title);
            out.push(t);
        }
    }
    Ok(out)
}

fn first(mut v: Vec<Box<dyn Workload>>) -> Box<dyn Workload> {
    v.remove(0)
}

fn last(mut v: Vec<Box<dyn Workload>>) -> Box<dyn Workload> {
    v.pop().expect("nonempty sweep")
}

/// Figure 9: original vs restructured parallel efficiency across processor
/// counts.
pub fn fig9(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let mut headers = vec!["application".to_string(), "version".to_string()];
    headers.extend(scale.procs().iter().map(|p| format!("{p}p eff")));
    let mut t = Table::new(
        "Figure 9: impact of application restructuring on parallel efficiency",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for r in restructurings(scale) {
        let mut versions: Vec<(&str, &dyn Workload)> = vec![("original", r.original.as_ref())];
        for w in &r.restructured {
            versions.push(("restructured", w.as_ref()));
        }
        for (tag, w) in versions {
            let mut row = vec![r.app.to_string(), format!("{tag}: {}", w.name())];
            for &np in scale.procs() {
                let rec = runner.run(w, np)?;
                row.push(pct(rec.efficiency()));
            }
            t.row(row);
        }
    }
    Ok(t)
}

/// Figure 10: normalized execution-time breakdowns of the Barnes-Hut and
/// Water-Nsquared versions at the largest machine size.
pub fn fig10(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let np = scale.max_procs();
    let mut t = Table::new(
        format!("Figure 10: breakdowns of original vs restructured versions, {np} processors"),
        &["version", "total (norm)", "busy", "memory", "sync"],
    );
    for r in restructurings(scale) {
        if r.app != "barnes" && r.app != "water-nsq" {
            continue;
        }
        let base = runner.run(r.original.as_ref(), np)?;
        let mut rows = vec![(r.original.name(), base.wall_ns, base.stats.clone())];
        for w in &r.restructured {
            let rec = runner.run(w.as_ref(), np)?;
            rows.push((w.name(), rec.wall_ns, rec.stats));
        }
        for (name, wall, stats) in rows {
            let (b, m, s) = stats.avg_breakdown_pct();
            t.row(vec![
                name,
                format!("{:.2}", wall as f64 / base.wall_ns as f64),
                format!("{b:.1}%"),
                format!("{m:.1}%"),
                format!("{s:.1}%"),
            ]);
        }
    }
    Ok(t)
}

/// Table 3: manual vs round-robin vs round-robin+migration placement.
///
/// Problem sizes are chosen so each processor's share of the data exceeds
/// its cache — placement only matters for capacity misses, which is
/// exactly the paper's point about these three regular applications.
pub fn table3(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    // The paper uses 64 processors and large problems.
    let np = scale.procs()[1.min(scale.procs().len() - 1)];
    let mut t = Table::new(
        format!("Table 3: speedup under data-distribution strategies, {np} processors"),
        &[
            "application",
            "problem",
            "manual",
            "round robin",
            "RR + migration",
        ],
    );
    let fft_log2n = if scale == Scale::Full { 18 } else { 12 };
    let radix_keys = if scale == Scale::Full {
        512 << 10
    } else {
        16 << 10
    };
    let ocean_dim = if scale == Scale::Full { 512 } else { 64 };
    let mk_fft = |manual| {
        let mut a = Fft::new(fft_log2n);
        a.manual_placement = manual;
        Box::new(a) as Box<dyn Workload>
    };
    let mk_radix = |manual| {
        let mut a = Radix::new(radix_keys);
        a.manual_placement = manual;
        Box::new(a) as Box<dyn Workload>
    };
    let mk_ocean = |manual| {
        let mut a = Ocean::new(ocean_dim);
        a.manual_placement = manual;
        a.vcycles = 1;
        Box::new(a) as Box<dyn Workload>
    };
    let apps: Vec<SizePair> = vec![
        ("fft", mk_fft(true), mk_fft(false)),
        ("radix", mk_radix(true), mk_radix(false)),
        ("ocean", mk_ocean(true), mk_ocean(false)),
    ];
    for (id, manual, auto) in apps {
        // Placement matters in the capacity-miss regime; run on the
        // full-latency machine (the paper's sizes are "quite large
        // compared to real usage" — memory-bound by construction).
        let mut cfg_manual = runner.machine_for(np);
        cfg_manual.latency = LatencyProfile::origin2000();
        let rec_manual = runner.run_on(manual.as_ref(), cfg_manual.clone())?;
        let mut cfg_rr = cfg_manual.clone();
        cfg_rr.placement = PagePlacement::RoundRobin;
        let rec_rr = runner.run_on(auto.as_ref(), cfg_rr.clone())?;
        let mut cfg_mig = cfg_rr;
        cfg_mig.migration = Some(MigrationConfig::default());
        let rec_mig = runner.run_on(auto.as_ref(), cfg_mig)?;
        t.row(vec![
            id.into(),
            manual.problem(),
            f2(rec_manual.speedup()),
            f2(rec_rr.speedup()),
            f2(rec_mig.speedup()),
        ]);
    }
    Ok(t)
}

/// §6.1: effect of prefetching remote data on FFT and Sample sort.
pub fn prefetch(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let mut headers = vec!["application".to_string(), "problem".to_string()];
    headers.extend(scale.procs().iter().map(|p| format!("{p}p gain")));
    let mut t = Table::new(
        "Section 6.1: execution-time improvement from software prefetch",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let apps: Vec<Box<dyn Workload>> = vec![
        Box::new(Fft::new(if scale == Scale::Full { 14 } else { 10 })),
        Box::new(SampleSort::new(if scale == Scale::Full {
            64 << 10
        } else {
            8 << 10
        })),
        Box::new(WaterSpatial::new(if scale == Scale::Full {
            1024
        } else {
            256
        })),
    ];
    for w in apps {
        let mut row = vec![w.name(), w.problem()];
        for &np in scale.procs() {
            let mut cfg_off = runner.machine_for(np);
            cfg_off.prefetch_enabled = false;
            let off = runner.run_on(w.as_ref(), cfg_off)?;
            let mut cfg_on = runner.machine_for(np);
            cfg_on.prefetch_enabled = true;
            let on = runner.run_on(w.as_ref(), cfg_on)?;
            let gain = 1.0 - on.wall_ns as f64 / off.wall_ns as f64;
            row.push(format!("{:+.1}%", 100.0 * gain));
        }
        t.row(row);
    }
    Ok(t)
}

/// §6.2: dynamic page migration with different thresholds, against manual
/// and plain round-robin placement.
pub fn migration(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let np = scale.procs()[scale.procs().len() / 2];
    let mut t = Table::new(
        format!("Section 6.2: page migration thresholds (FFT, {np} processors)"),
        &["placement", "speedup", "pages migrated"],
    );
    let manual = Fft::new(if scale == Scale::Full { 18 } else { 10 });
    let mut auto = manual.clone();
    auto.manual_placement = false;
    let mut cfg0 = runner.machine_for(np);
    cfg0.latency = LatencyProfile::origin2000();
    let rec = runner.run_on(&manual, cfg0.clone())?;
    t.row(vec!["manual".into(), f2(rec.speedup()), "0".into()]);
    let mut cfg = cfg0;
    cfg.placement = PagePlacement::RoundRobin;
    let rec = runner.run_on(&auto, cfg.clone())?;
    t.row(vec!["round robin".into(), f2(rec.speedup()), "0".into()]);
    for threshold in [16u32, 64, 256] {
        let mut cfg_m = cfg.clone();
        cfg_m.migration = Some(MigrationConfig {
            threshold,
            cooldown: threshold,
        });
        let rec = runner.run_on(&auto, cfg_m)?;
        t.row(vec![
            format!("RR + migration (threshold {threshold})"),
            f2(rec.speedup()),
            rec.stats.page_migrations.to_string(),
        ]);
    }
    Ok(t)
}

/// §6.3: synchronization primitives — microbenchmark costs and app-level
/// impact.
pub fn sync(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    let np = scale.max_procs().min(64);
    let mut micro = Table::new(
        format!("Section 6.3: synchronization microbenchmarks, {np} processors"),
        &["primitive", "op overhead/episode", "wait/episode"],
    );
    for imp in [LockImpl::TicketLlsc, LockImpl::TicketFetchOp] {
        let p = probes::lock_probe(imp, np, 10);
        micro.row(vec![
            p.name,
            format!("{:.0} ns", p.op_ns),
            format!("{:.0} ns", p.wait_ns),
        ]);
    }
    for imp in [
        BarrierImpl::TournamentLlsc,
        BarrierImpl::CentralLlsc,
        BarrierImpl::CentralFetchOp,
    ] {
        let p = probes::barrier_probe(imp, np, 10);
        micro.row(vec![
            p.name,
            format!("{:.0} ns", p.op_ns),
            format!("{:.0} ns", p.wait_ns),
        ]);
    }

    // Application level: the primitive choice barely matters (wait time
    // from imbalance dominates).
    let mut app = Table::new(
        "Section 6.3: app-level impact of the synchronization primitive",
        &[
            "application",
            "LL/SC ticket + tournament",
            "fetch&op + central",
        ],
    );
    let w = basic("water-nsq", scale);
    let a = runner.run_on(w.as_ref(), runner.machine_for(np))?;
    let mut cfg = runner.machine_for(np);
    cfg.lock_impl = LockImpl::TicketFetchOp;
    cfg.barrier_impl = BarrierImpl::CentralFetchOp;
    let b = runner.run_on(w.as_ref(), cfg)?;
    app.row(vec![
        "water-nsq".into(),
        ccnuma_sim::time::Span(a.wall_ns).to_string(),
        ccnuma_sim::time::Span(b.wall_ns).to_string(),
    ]);
    Ok(vec![micro, app])
}

/// §7.1: mapping processes to the network topology.
///
/// Run with the unscaled Origin network (50 ns per hop, 100 ns per
/// metarouter crossing): topology only matters when link costs are a
/// visible fraction of miss latency, which is the regime the paper
/// measured.
pub fn mapping(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let np = scale.max_procs();
    let mut t = Table::new(
        format!("Section 7.1: process-to-topology mapping, {np} processors"),
        &["application", "mapping", "wall time", "vs linear"],
    );
    let apps: Vec<(&str, Box<dyn Workload>)> = vec![
        ("barnes", basic("barnes", scale)),
        ("ocean", basic("ocean", scale)),
        ("fft", basic("fft", scale)),
        ("sor", Box::new(sor(scale))),
    ];
    for (id, w) in apps {
        let mut linear_ns = 0;
        for (tag, mapping) in [
            ("linear", ProcessMapping::Linear),
            ("random", ProcessMapping::Random { seed: 17 }),
            ("random pairs", ProcessMapping::RandomPairs { seed: 17 }),
        ] {
            let mut cfg = runner.machine_for(np);
            cfg.latency = LatencyProfile::origin2000();
            cfg.mapping = mapping;
            let rec = runner.run_on(w.as_ref(), cfg)?;
            if tag == "linear" {
                linear_ns = rec.wall_ns;
            }
            let rel = rec.wall_ns as f64 / linear_ns as f64;
            t.row(vec![
                id.into(),
                tag.into(),
                ccnuma_sim::time::Span(rec.wall_ns).to_string(),
                format!("{:+.1}%", 100.0 * (rel - 1.0)),
            ]);
        }
    }
    // Ocean's near-neighbour mapping: pair vertically-adjacent tiles of
    // the processor grid onto nodes so each node's two processors share a
    // tile boundary (the paper's "appropriate near-neighbor mapping of
    // process-pairs to nodes").
    {
        let pr = {
            let mut pr = (np as f64).sqrt() as usize;
            while pr > 1 && !np.is_multiple_of(pr) {
                pr -= 1;
            }
            pr.max(1)
        };
        let pc = np / pr;
        if pr % 2 == 0 {
            let mut perm = vec![0usize; np];
            for (p, slot) in perm.iter_mut().enumerate() {
                let (ti, tj) = (p / pc, p % pc);
                *slot = ((ti / 2) * pc + tj) * 2 + ti % 2;
            }
            let mut cfg = runner.machine_for(np);
            cfg.latency = LatencyProfile::origin2000();
            cfg.mapping = ProcessMapping::Explicit(perm);
            let w = basic("ocean", scale);
            let rec = runner.run_on(w.as_ref(), cfg.clone())?;
            let mut cfg_lin = cfg;
            cfg_lin.mapping = ProcessMapping::Linear;
            let lin = runner.run_on(w.as_ref(), cfg_lin)?;
            t.row(vec![
                "ocean".into(),
                "near-neighbor pairs".into(),
                ccnuma_sim::time::Span(rec.wall_ns).to_string(),
                format!(
                    "{:+.1}%",
                    100.0 * (rec.wall_ns as f64 / lin.wall_ns as f64 - 1.0)
                ),
            ]);
        }
    }

    // The FFT stagger interaction: offset 1 makes one processor per node
    // start on-node (bad); offset 2 makes both start off-node.
    let mut fft1 = Fft::new(if scale == Scale::Full { 14 } else { 10 });
    fft1.first_peer_offset = 1;
    let mut fft2 = fft1.clone();
    fft2.first_peer_offset = 2;
    let mut cfg_st = runner.machine_for(np);
    cfg_st.latency = LatencyProfile::origin2000();
    let a = runner.run_on(&fft1, cfg_st.clone())?;
    let b = runner.run_on(&fft2, cfg_st)?;
    t.row(vec![
        "fft".into(),
        "linear, stagger offset 2".into(),
        ccnuma_sim::time::Span(b.wall_ns).to_string(),
        format!(
            "{:+.1}%",
            100.0 * (b.wall_ns as f64 / a.wall_ns as f64 - 1.0)
        ),
    ]);
    Ok(t)
}

/// §7.2: one vs two processors per node.
pub fn nodeshare(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    let np = scale.max_procs() / 2; // keep node counts feasible at 1 ppn
    let mut t = Table::new(
        format!("Section 7.2: two processors per node vs one, {np} processors"),
        &[
            "application",
            "problem",
            "2 procs/node",
            "1 proc/node",
            "1ppn gain",
        ],
    );
    let apps: Vec<Box<dyn Workload>> = vec![
        first(sweep("fft", scale)),
        last(sweep("fft", scale)),
        first(sweep("radix", scale)),
        last(sweep("radix", scale)),
        Box::new(SampleSort::new(if scale == Scale::Full {
            256 << 10
        } else {
            16 << 10
        })),
        last(sweep("ocean", scale)),
        Box::new(Raytrace::new(if scale == Scale::Full { 64 } else { 24 })),
    ];
    for w in apps {
        let two = runner.run(w.as_ref(), np)?;
        let mut cfg = runner.machine_for(np);
        cfg.procs_per_node = 1;
        cfg.mem_per_node_bytes /= 2; // same total memory, twice the nodes
        let one = runner.run_on(w.as_ref(), cfg)?;
        let gain = 1.0 - one.wall_ns as f64 / two.wall_ns as f64;
        t.row(vec![
            w.name(),
            w.problem(),
            ccnuma_sim::time::Span(two.wall_ns).to_string(),
            ccnuma_sim::time::Span(one.wall_ns).to_string(),
            format!("{:+.1}%", 100.0 * gain),
        ]);
    }
    Ok(t)
}

/// §5.2: performance portability to SVM clusters. Runs the paper's
/// restructuring pairs on a simulated 16-processor page-grain
/// shared-virtual-memory cluster (software coherence handlers, expensive
/// locks) next to a 16-processor hardware-DSM machine, reproducing the
/// comparison with \[6\]: the same restructurings that help scaling on the
/// Origin help — usually far more dramatically — on SVM, and some (the
/// Raytrace statistics lock) only matter there.
pub fn svm(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    use ccnuma_sim::config::MachineConfig;
    use splash_apps::barnes::{Barnes, TreeBuild};
    use splash_apps::ocean::{Ocean, OceanPartition};
    use splash_apps::shearwarp::{ShearWarp, ShearWarpVariant};
    use splash_apps::volrend::Volrend;
    use splash_apps::water_nsq::{LoopOrder, WaterNsq};
    let np = 16;
    let big = scale == Scale::Full;
    // The SVM machine gets the same √(cache-scale) latency calibration as
    // the scaled hardware machine, so the two columns are comparable.
    let mut svm_cfg = MachineConfig::svm_cluster(np);
    svm_cfg.latency = svm_cfg.latency.scaled_by(8);
    let mut t = Table::new(
        format!("Section 5.2: restructurings on an SVM cluster vs hardware DSM, {np} processors"),
        &[
            "application",
            "version",
            "SVM speedup",
            "hardware DSM speedup",
        ],
    );
    let mut pairs: Vec<(&str, Vec<Box<dyn Workload>>)> = Vec::new();
    let bn = if big { 2048 } else { 256 };
    pairs.push((
        "barnes",
        vec![
            Box::new(Barnes::new(bn)),
            Box::new({
                let mut a = Barnes::new(bn);
                a.variant = TreeBuild::Merge;
                a
            }),
            Box::new({
                let mut a = Barnes::new(bn);
                a.variant = TreeBuild::Spatial;
                a
            }),
        ],
    ));
    let sw = if big { 48 } else { 24 };
    pairs.push((
        "shearwarp",
        vec![
            Box::new(ShearWarp::new(sw)),
            Box::new({
                let mut a = ShearWarp::new(sw);
                a.variant = ShearWarpVariant::Sweep;
                a
            }),
        ],
    ));
    let rt = if big { 64 } else { 24 };
    pairs.push((
        "raytrace",
        vec![
            Box::new({
                let mut a = Raytrace::new(rt);
                a.per_ray_stats_lock = true;
                a
            }),
            Box::new(Raytrace::new(rt)),
        ],
    ));
    let od = if big { 128 } else { 32 };
    pairs.push((
        "ocean",
        vec![
            Box::new(Ocean::new(od)),
            Box::new({
                let mut a = Ocean::new(od);
                a.partition = OceanPartition::Rowwise;
                a
            }),
        ],
    ));
    let vr = if big { 48 } else { 24 };
    pairs.push((
        "volrend",
        vec![
            Box::new(Volrend::new(vr)),
            Box::new({
                let mut a = Volrend::new(vr);
                a.static_partition = true;
                a
            }),
        ],
    ));
    let wn = if big { 512 } else { 128 };
    pairs.push((
        "water-nsq",
        vec![
            Box::new(WaterNsq::new(wn)),
            Box::new({
                let mut a = WaterNsq::new(wn);
                a.variant = LoopOrder::Interchanged;
                a
            }),
        ],
    ));
    for (app, versions) in pairs {
        for (i, w) in versions.iter().enumerate() {
            let svm_rec = runner.run_on(w.as_ref(), svm_cfg.clone())?;
            let hw_rec = runner.run(w.as_ref(), np)?;
            let tag = if i == 0 { "original" } else { "restructured" };
            t.row(vec![
                app.into(),
                format!("{tag}: {}", w.name()),
                f2(svm_rec.speedup()),
                f2(hw_rec.speedup()),
            ]);
        }
    }
    Ok(t)
}

/// Ablations of the simulator's model features on two contention-defined
/// kernels, quantifying which parts of the machine model carry the paper's
/// conclusions (DESIGN.md's design-choice catalog).
pub fn ablation(runner: &mut Runner, scale: Scale) -> Result<Table, StudyError> {
    use ccnuma_sim::topology::TopologyKind;
    use splash_apps::fft::TransposeKind;
    let np = scale.procs()[1.min(scale.procs().len() - 1)];
    let mut t = Table::new(
        format!("Model ablations, {np} processors"),
        &["application", "model variant", "wall time", "vs baseline"],
    );
    let apps: Vec<Box<dyn Workload>> = vec![
        Box::new(Fft::new(if scale == Scale::Full { 14 } else { 10 })),
        Box::new(Radix::new(if scale == Scale::Full {
            128 << 10
        } else {
            8 << 10
        })),
        Box::new({
            let mut a = Fft::new(if scale == Scale::Full { 14 } else { 10 });
            a.transpose = TransposeKind::Implicit;
            a
        }),
    ];
    for w in apps {
        let base = runner.run(w.as_ref(), np)?;
        let row = |label: &str, wall: u64| {
            let rel = 100.0 * (wall as f64 / base.wall_ns as f64 - 1.0);
            vec![
                w.name(),
                label.to_string(),
                ccnuma_sim::time::Span(wall).to_string(),
                format!("{rel:+.1}%"),
            ]
        };
        let baseline_row = row("baseline", base.wall_ns);
        t.row(baseline_row);

        // Contention off: zero every occupancy.
        let mut cfg = runner.machine_for(np);
        cfg.latency.hub_occ_ns = 0;
        cfg.latency.mem_occ_ns = 0;
        cfg.latency.router_occ_ns = 0;
        cfg.latency.metarouter_occ_ns = 0;
        cfg.latency.inval_ns = 0;
        let r = runner.run_on(w.as_ref(), cfg)?;
        let rr = row("no contention (occupancies = 0)", r.wall_ns);
        t.row(rr);

        // Uniform (topology-free) network.
        let mut cfg = runner.machine_for(np);
        cfg.topology = Some(TopologyKind::Ideal);
        let r = runner.run_on(w.as_ref(), cfg)?;
        let rr = row("ideal uniform network", r.wall_ns);
        t.row(rr);

        // Flat memory: remote costs the same as local.
        let mut cfg = runner.machine_for(np);
        cfg.latency.remote_clean_ns = cfg.latency.local_ns;
        cfg.latency.remote_dirty_ns = cfg.latency.local_ns;
        cfg.latency.link_ns = 0;
        cfg.latency.metarouter_ns = 0;
        let r = runner.run_on(w.as_ref(), cfg)?;
        let rr = row("UMA (remote = local latency)", r.wall_ns);
        t.row(rr);
    }
    Ok(t)
}

/// Data-structure-level profile of Barnes-Hut at the largest machine —
/// reproducing the paper's §5.1 diagnosis that the memory bottleneck sits
/// in the shared tree (31% of 128-processor time in tree building at
/// 512 K bodies), with the tooling the authors wished they had (§8).
pub fn profile(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    use scaling_study::report::range_profile_table;
    use splash_apps::barnes::{Barnes, TreeBuild};
    let np = scale.max_procs();
    let mut out = Vec::new();
    for variant in [TreeBuild::Locked, TreeBuild::Spatial] {
        let mut app = Barnes::new(if scale == Scale::Full { 2048 } else { 256 });
        app.variant = variant;
        let rec = runner.run(&app, np)?;
        let mut t = range_profile_table(&rec.stats);
        t.title = format!("{} ({}, {np} procs): {}", rec.app, rec.problem, t.title);
        out.push(t);
    }
    Ok(out)
}

/// Phase-resolved breakdowns (§8 tooling): runs Barnes-Hut and Ocean with
/// tracing on and reports, per program phase, where the time goes — busy,
/// memory stall split local/remote, and synchronization — plus each run's
/// machine-wide gauge series (miss rate, resource occupancies).
pub fn phases(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    use scaling_study::report::{gauge_table, phase_breakdown_table};
    let np = scale.max_procs().min(32);
    let mut out = Vec::new();
    let mut gauges = Vec::new();
    for w in [basic("barnes", scale), basic("ocean", scale)] {
        let mut cfg = runner.machine_for(np);
        cfg.trace = ccnuma_sim::trace::TraceConfig::on();
        let rec = runner.run_on(w.as_ref(), cfg)?;
        let mut t = phase_breakdown_table(&rec.stats);
        t.title = format!("{} ({}, {np} procs): {}", rec.app, rec.problem, t.title);
        out.push(t);
        let trace = rec.stats.trace.as_ref().expect("phases runs are traced");
        let mut t = gauge_table(trace);
        t.title = format!("{}: {}", rec.label(), t.title);
        gauges.push(t);
    }
    out.extend(gauges);
    Ok(out)
}

/// §8 tooling: miss-cause, stall-attribution, and sharing-pattern tables.
/// Runs Ocean at two machine sizes with miss classification on and reports
/// the cause mix, the per-resource service/queueing split of the memory
/// stall, and the per-phase attribution; then Barnes-Hut for the
/// sharing-hot lines of its labelled data structures.
pub fn attrib(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    use scaling_study::report::{
        miss_cause_table, phase_attribution_table, sharing_hot_table, stall_attribution_table,
    };
    use splash_apps::barnes::Barnes;
    let procs: Vec<usize> = if scale == Scale::Full {
        // The paper's §4 contention analysis contrasts a small and a large
        // machine; 16 and 64 processors bracket the interesting range.
        vec![16, 64]
    } else {
        let all = scale.procs();
        vec![all[0], all[all.len() - 1]]
    };
    let classified = |runner: &Runner, np| {
        let mut cfg = runner.machine_for(np);
        cfg.classify_misses = true;
        cfg
    };
    let mut out = Vec::new();
    for &np in &procs {
        let w = basic("ocean", scale);
        let rec = runner.run_on(w.as_ref(), classified(runner, np))?;
        for mut t in [
            miss_cause_table(&rec.stats),
            stall_attribution_table(&rec.stats),
            phase_attribution_table(&rec.stats),
        ] {
            t.title = format!("{} ({}, {np} procs): {}", rec.app, rec.problem, t.title);
            out.push(t);
        }
    }
    // Sharing hot spots need labelled allocations; Barnes-Hut labels its
    // shared tree and body arrays.
    let np = *procs.last().expect("nonempty procs");
    let app = Barnes::new(if scale == Scale::Full { 2048 } else { 256 });
    let rec = runner.run_on(&app, classified(runner, np))?;
    let mut t = sharing_hot_table(&rec.stats);
    t.title = format!("{} ({}, {np} procs): {}", rec.app, rec.problem, t.title);
    out.push(t);
    Ok(out)
}

/// §8 tooling: critical-path analysis with what-if projection. Runs
/// Ocean at a small and a large machine with critical-path profiling on
/// and reports each run's on-path busy/memory/sync shares (showing the
/// limiter shift as the machine grows) plus the projected speedup of
/// each re-weighted cost scenario.
pub fn critpath(runner: &mut Runner, scale: Scale) -> Result<Vec<Table>, StudyError> {
    use scaling_study::report::{critpath_table, whatif_table};
    let procs: Vec<usize> = if scale == Scale::Full {
        // Small vs large machine: the paper's limiter-shift regime.
        vec![16, 64]
    } else {
        let all = scale.procs();
        vec![all[0], all[all.len() - 1]]
    };
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for &np in &procs {
        let w = basic("ocean", scale);
        let mut cfg = runner.machine_for(np);
        cfg.critpath = true;
        let rec = runner.run_on(w.as_ref(), cfg)?;
        let label = rec.label();
        let rep = rec.stats.critpath.expect("critpath runs are profiled");
        out.push(whatif_table(&label, &rep));
        rows.push((label, rep));
    }
    out.insert(0, critpath_table(&rows));
    Ok(out)
}

/// §5.3: the programming-guideline catalog.
pub fn guidelines() -> Table {
    let mut t = Table::new(
        "Section 5.3: programming guidelines for scalability and portability",
        &["guideline", "exemplars"],
    );
    for g in scaling_study::guidelines::Guideline::ALL {
        t.row(vec![g.description().into(), g.exemplars().join(", ")]);
    }
    t
}

/// Every experiment `repro` can run, in `repro all` order. The names
/// `fig5` through `fig8` are accepted as aliases of `"fig5-8"` by
/// [`run_experiment`] but are not listed here.
pub const EXPERIMENT_NAMES: &[&str] = &[
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5-8",
    "fig9",
    "fig10",
    "table3",
    "prefetch",
    "migration",
    "sync",
    "mapping",
    "nodeshare",
    "svm",
    "profile",
    "phases",
    "attrib",
    "critpath",
    "ablation",
    "guidelines",
];

/// Whether `name` is a known experiment (including the `fig5`..`fig8`
/// aliases).
pub fn is_experiment(name: &str) -> bool {
    EXPERIMENT_NAMES.contains(&name) || matches!(name, "fig5" | "fig6" | "fig7" | "fig8")
}

/// Runs one named experiment and returns its tables, or `None` for an
/// unknown name — the single dispatch point shared by the `repro`
/// binary and the test suite, so the two cannot drift apart.
///
/// # Errors
///
/// Propagates any simulation or verification failure.
pub fn run_experiment(
    name: &str,
    runner: &mut Runner,
    scale: Scale,
) -> Option<Result<Vec<Table>, StudyError>> {
    let tables = match name {
        "table1" => Ok(vec![table1()]),
        "table2" => table2(runner, scale).map(|t| vec![t]),
        "fig2" => fig2(runner, scale).map(|t| vec![t]),
        "fig3" => fig3(runner, scale).map(|t| vec![t]),
        "fig4" => fig4(runner, scale),
        "fig5-8" | "fig5" | "fig6" | "fig7" | "fig8" => figs5to8(runner, scale),
        "fig9" => fig9(runner, scale).map(|t| vec![t]),
        "fig10" => fig10(runner, scale).map(|t| vec![t]),
        "table3" => table3(runner, scale).map(|t| vec![t]),
        "prefetch" => prefetch(runner, scale).map(|t| vec![t]),
        "migration" => migration(runner, scale).map(|t| vec![t]),
        "sync" => sync(runner, scale),
        "mapping" => mapping(runner, scale).map(|t| vec![t]),
        "nodeshare" => nodeshare(runner, scale).map(|t| vec![t]),
        "svm" => svm(runner, scale).map(|t| vec![t]),
        "ablation" => ablation(runner, scale).map(|t| vec![t]),
        "profile" => profile(runner, scale),
        "phases" => phases(runner, scale),
        "attrib" => attrib(runner, scale),
        "critpath" => critpath(runner, scale),
        "guidelines" => Ok(vec![guidelines()]),
        _ => return None,
    };
    Some(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_dispatches() {
        let mut r = runner_for(Scale::Quick);
        for name in EXPERIMENT_NAMES {
            assert!(is_experiment(name), "{name}");
            // table1/guidelines actually run here; the rest only need to
            // resolve — the full quick execution lives in the
            // experiments_all integration test.
            if matches!(*name, "table1" | "guidelines") {
                let tables = run_experiment(name, &mut r, Scale::Quick)
                    .expect("known name")
                    .expect("static experiment");
                assert!(!tables.is_empty());
            }
        }
        assert!(run_experiment("nope", &mut r, Scale::Quick).is_none());
        assert!(!is_experiment("nope"));
        assert!(is_experiment("fig7"), "aliases resolve");
    }

    #[test]
    fn table1_reports_five_machines() {
        let t = table1();
        assert_eq!(t.len(), 5);
        assert!(t.to_string().contains("Origin2000"));
    }

    #[test]
    fn guidelines_table_is_complete() {
        assert_eq!(guidelines().len(), 9);
    }

    #[test]
    fn quick_table2_and_fig2_run() {
        let mut r = runner_for(Scale::Quick);
        let t2 = table2(&mut r, Scale::Quick).unwrap();
        assert_eq!(t2.len(), 11);
        let f2t = fig2(&mut r, Scale::Quick).unwrap();
        assert_eq!(f2t.len(), 11);
    }
}
