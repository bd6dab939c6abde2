//! **E8 — Principle P2**: the communication abstraction and nameless
//! writes.
//!
//! Three quantities the block interface hides:
//!
//! 1. **Mapping RAM** — a page-mapped FTL burns 8 B of controller RAM per
//!    page; DFTL trades RAM for flash traffic; a nameless device needs
//!    none (the host's own index carries the names).
//! 2. **Double log-structuring** — a log-structured host (LFS, LSM, or a
//!    log-structured database file) on top of a log-structured FTL cleans
//!    twice: host cleaning traffic is also device traffic, multiplying
//!    write amplification. (*"the management of log-structured files …
//!    is today handled both at the database level and within the FTL"*.)
//! 3. **Migration upcalls** — the price of namelessness, measured.

use requiem_bench::{modern_unbuffered, note, precondition, section};
use requiem_iface::device::{tag_churn, ChurnReport};
use requiem_iface::nameless::{NamelessConfig, NamelessSsd};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::Table;
use requiem_ssd::{Lpn, Ssd, SsdConfig};

/// Host-side LFS over a block device at 75% live utilization, with greedy
/// host cleaning. Returns (host device-writes per user write, device WA).
fn run_lfs(cfg: &SsdConfig, use_trim: bool, seg_pages: u64) -> (f64, f64) {
    let mut ssd = Ssd::new(cfg.clone());
    let pages = ssd.capacity().exported_pages;
    let segments = pages / seg_pages;
    let live_target = (pages as f64 * 0.75) as u64;
    let mut seg_live = vec![0u64; segments as usize];
    let mut loc: std::collections::HashMap<u64, (u64, u64)> = Default::default();
    let mut where_is: std::collections::HashMap<(u64, u64), u64> = Default::default();
    let mut free_segs: std::collections::VecDeque<u64> = (0..segments).collect();
    let mut cur_seg = free_segs.pop_front().expect("segments");
    let mut cur_slot = 0u64;
    let mut t = SimTime::ZERO;
    let mut host_dev_writes = 0u64;
    let mut user = 0u64;
    let user_writes = 2 * pages;
    let append = |ssd: &mut Ssd,
                  t: &mut SimTime,
                  cur_seg: &mut u64,
                  cur_slot: &mut u64,
                  free_segs: &mut std::collections::VecDeque<u64>,
                  seg_live: &mut Vec<u64>,
                  loc: &mut std::collections::HashMap<u64, (u64, u64)>,
                  where_is: &mut std::collections::HashMap<(u64, u64), u64>,
                  host_dev_writes: &mut u64,
                  id: u64| {
        if let Some(prev) = loc.remove(&id) {
            seg_live[prev.0 as usize] -= 1;
            where_is.remove(&prev);
        }
        let lpn = *cur_seg * seg_pages + *cur_slot;
        let c = ssd.write(*t, Lpn(lpn)).expect("lfs write");
        *t = c.done;
        *host_dev_writes += 1;
        loc.insert(id, (*cur_seg, *cur_slot));
        where_is.insert((*cur_seg, *cur_slot), id);
        seg_live[*cur_seg as usize] += 1;
        *cur_slot += 1;
        if *cur_slot == seg_pages {
            *cur_seg = free_segs.pop_front().expect("host log out of segments");
            *cur_slot = 0;
        }
    };
    for id in 0..live_target {
        append(
            &mut ssd,
            &mut t,
            &mut cur_seg,
            &mut cur_slot,
            &mut free_segs,
            &mut seg_live,
            &mut loc,
            &mut where_is,
            &mut host_dev_writes,
            id,
        );
    }
    let fill_writes = host_dev_writes;
    let mut x = 3u64;
    while user < user_writes {
        while free_segs.len() < 4 {
            let victim = (0..segments)
                .filter(|&s| s != cur_seg && !free_segs.contains(&s))
                .min_by_key(|&s| seg_live[s as usize])
                .expect("victim");
            for slot in 0..seg_pages {
                if let Some(&id) = where_is.get(&(victim, slot)) {
                    let lpn = victim * seg_pages + slot;
                    let c = ssd.read(t, Lpn(lpn)).expect("lfs clean read");
                    t = c.done;
                    append(
                        &mut ssd,
                        &mut t,
                        &mut cur_seg,
                        &mut cur_slot,
                        &mut free_segs,
                        &mut seg_live,
                        &mut loc,
                        &mut where_is,
                        &mut host_dev_writes,
                        id,
                    );
                }
            }
            if use_trim {
                // coordinated layers: tell the FTL the segment is dead
                for slot in 0..seg_pages {
                    let c = ssd.trim(t, Lpn(victim * seg_pages + slot)).expect("trim");
                    t = c.done;
                }
            }
            seg_live[victim as usize] = 0;
            free_segs.push_back(victim);
        }
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        append(
            &mut ssd,
            &mut t,
            &mut cur_seg,
            &mut cur_slot,
            &mut free_segs,
            &mut seg_live,
            &mut loc,
            &mut where_is,
            &mut host_dev_writes,
            x % live_target,
        );
        user += 1;
    }
    let m = ssd.metrics();
    let host_per_user = (host_dev_writes - fill_writes) as f64 / user_writes as f64;
    (host_per_user, m.write_amplification())
}

fn main() {
    println!("# E8 — nameless writes and the double-log-structuring penalty");

    // ------------------------------------------------------------------
    section("Mapping-table controller RAM (computed from configuration)");
    let mut tbl = Table::new(["scheme", "mapping RAM", "per exported GiB"]).align(0, Align::Left);
    let mut ram = Vec::new();
    let base = SsdConfig::modern();
    let exported_gib = (base.total_luns() as u64 * base.flash.geometry.total_pages()) as f64
        * base.flash.geometry.page_size as f64
        / (1u64 << 30) as f64;
    for (name, cfg_bytes) in [
        ("page map", SsdConfig::modern().mapping_table_bytes()),
        (
            "block map",
            SsdConfig {
                ftl: requiem_ssd::FtlKind::BlockMap,
                ..SsdConfig::modern()
            }
            .mapping_table_bytes(),
        ),
        (
            "DFTL (64Ki CMT)",
            SsdConfig::modern_dftl(65536).mapping_table_bytes(),
        ),
        ("nameless", 0),
    ] {
        ram.push(format!("{{\"scheme\":\"{name}\",\"bytes\":{cfg_bytes}}}"));
        tbl.row([
            name.to_string(),
            format!("{} KiB", cfg_bytes / 1024),
            format!("{:.0} KiB/GiB", cfg_bytes as f64 / 1024.0 / exported_gib),
        ]);
    }
    println!("{tbl}");
    note("A real 512 GiB page-mapped drive needs ~512 MiB of mapping DRAM; the nameless interface moves naming into the index the database already maintains.");

    section("The other page-map cost DFTL attacks: the power-loss boot scan");
    let mut tbl = Table::new([
        "per-LUN blocks",
        "raw capacity",
        "pages scanned",
        "boot scan time",
    ]);
    let mut boot = Vec::new();
    for blocks in [64u32, 128, 256] {
        let mut cfg = modern_unbuffered();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 1;
        cfg.flash.geometry = requiem_flash::Geometry::new(2, blocks, 16, 4096);
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let mut t = SimTime::ZERO;
        for lpn in 0..pages {
            t = ssd.write(t, Lpn(lpn)).expect("fill").done;
        }
        let r = ssd.power_loss_rebuild(ssd.drain_time()).expect("rebuild");
        let raw = ssd.capacity().raw_pages * 4096 / (1 << 20);
        boot.push(format!(
            "{{\"blocks_per_lun\":{blocks},\"pages_scanned\":{},\"scan_ns\":{}}}",
            r.pages_scanned,
            r.duration.as_nanos()
        ));
        tbl.row([
            format!("{blocks}"),
            format!("{raw} MiB"),
            format!("{}", r.pages_scanned),
            format!("{}", r.duration),
        ]);
    }
    println!("{tbl}");
    note("The scan reads every programmed page's OOB area (LUN-parallel). Scaled to a 2012-era 256 GiB drive this is tens of seconds of boot time — the second reason (after RAM) vendors could not afford page maps, and another asymmetry the block interface cannot express.");

    // ------------------------------------------------------------------
    section("Random-overwrite churn: the same generic loop through each interface");
    note("One host loop (fill live set, rewrite random tags for 2 drive-fills, apply relocation upcalls) drives every device via the DeviceInterface trait — the interface is the only variable.");
    let mut tbl = Table::new([
        "device",
        "MB/s",
        "WA",
        "GC pages moved",
        "mapping RAM",
        "upcalls",
    ])
    .align(0, Align::Left);
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;

    fn churn_row(tbl: &mut Table, churn: &mut Vec<String>, label: &str, r: ChurnReport) {
        churn.push(format!(
            "{{\"device\":\"{label}\",\"mbs\":{:.3},\"wa\":{:.4},\"gc_pages_moved\":{},\"mapping_ram_bytes\":{},\"upcalls\":{}}}",
            r.throughput_mbs,
            r.delta.write_amplification(),
            r.delta.gc_pages_moved,
            r.delta.mapping_ram_bytes,
            r.delta.upcalls_delivered
        ));
        tbl.row([
            label.to_string(),
            format!("{:.1}", r.throughput_mbs),
            format!("{:.2}", r.delta.write_amplification()),
            format!("{}", r.delta.gc_pages_moved),
            format!("{} KiB", r.delta.mapping_ram_bytes / 1024),
            if r.delta.upcalls_delivered == 0 {
                "-".to_string()
            } else {
                format!(
                    "{} ({:.3}/write)",
                    r.delta.upcalls_delivered,
                    r.delta.upcalls_delivered as f64 / r.rewrites as f64
                )
            },
        ]);
    }

    let mut churn = Vec::new();
    {
        let mut dev = Ssd::new(cfg.clone());
        let r = tag_churn(&mut dev, 1.0, 2, 5);
        churn_row(&mut tbl, &mut churn, "page-mapped FTL", r);
    }
    {
        let mut dev = NamelessSsd::new(NamelessConfig::from(&cfg));
        let r = tag_churn(&mut dev, 1.0, 2, 5);
        churn_row(&mut tbl, &mut churn, "nameless", r);
    }
    println!("{tbl}");
    // literally one controller: `NamelessSsd` is the naming protocol over
    // `Ssd::nameless`, so both rows run requiem-ssd's placement, GC and
    // recovery; only least-loaded placement and the absent write buffer
    // are pinned on the nameless side (this config is unbuffered and
    // least-loaded already)
    note("Same flash, same GC machinery: throughput and WA match — the mapping table bought nothing this workload needed. The upcall rate is the entire protocol cost.");

    // ------------------------------------------------------------------
    section("Double log-structuring: host-side LFS over the FTL vs writing in place");
    note("Host LFS at 75% utilization: every user write appends to the host log; host cleaning copies live pages (each copy = device read + device write). The FTL underneath cleans too.");
    let mut tbl = Table::new([
        "design",
        "host writes to device / user write",
        "device WA",
        "end-to-end writes / user write",
    ])
    .align(0, Align::Left);
    let mut lfs = Vec::new();
    let mut lfs_row = |tbl: &mut Table, design: &str, host_per_user: f64, dev_wa: f64| {
        lfs.push(format!(
            "{{\"design\":\"{design}\",\"host_writes_per_user\":{host_per_user:.4},\"device_wa\":{dev_wa:.4}}}"
        ));
        tbl.row([
            design.to_string(),
            format!("{host_per_user:.2}"),
            format!("{dev_wa:.2}"),
            format!("{:.2}", host_per_user * dev_wa),
        ]);
    };

    // (a) in-place updates straight to the page-mapped FTL
    {
        let mut ssd = Ssd::new(cfg.clone());
        let pages = ssd.capacity().exported_pages;
        let t = precondition(&mut ssd, pages);
        let user_writes = 2 * pages;
        let mut x = 3u64;
        let mut t = t;
        for _ in 0..user_writes {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = ssd.write(t, Lpn(x % pages)).expect("write").done;
        }
        let m = ssd.metrics();
        let host_per_user = (m.host_writes - pages) as f64 / user_writes as f64;
        let dev_wa = m.write_amplification();
        lfs_row(&mut tbl, "in-place onto page FTL", host_per_user, dev_wa);
    }
    // (b) host LFS, segments aligned to flash blocks, layers coordinated
    // via TRIM: the FTL's cleaner goes idle — one log, one cleaner
    {
        let (host_per_user, dev_wa) = run_lfs(&cfg, true, 64);
        lfs_row(
            &mut tbl,
            "host LFS, block-aligned segments, TRIM",
            host_per_user,
            dev_wa,
        );
    }
    // (c) host LFS, aligned but no TRIM: sequential segment reuse still
    // lets the FTL infer death — alignment is an accidental protocol
    {
        let (host_per_user, dev_wa) = run_lfs(&cfg, false, 64);
        lfs_row(
            &mut tbl,
            "host LFS, block-aligned segments, no TRIM",
            host_per_user,
            dev_wa,
        );
    }
    // (d) host LFS with segments misaligned to flash blocks and no TRIM:
    // the two cleaners thrash each other — the multiplicative penalty
    {
        let (host_per_user, dev_wa) = run_lfs(&cfg, false, 24);
        lfs_row(
            &mut tbl,
            "host LFS, misaligned segments, no TRIM",
            host_per_user,
            dev_wa,
        );
    }
    println!("{tbl}");
    note("Expected shape: uncoordinated layers multiply — the host cleaner's traffic is amplified again by the FTL's cleaner. Coordination (TRIM, or one shared log via the communication abstraction) collapses the product: 'the management of log-structured files is today handled both at the database level and within the FTL'.");

    section("Summary (JSON)");
    println!("```json");
    println!("{{\"mapping_ram\":[{}],", ram.join(","));
    println!("\"boot_scan\":[{}],", boot.join(","));
    println!("\"churn\":[{}],", churn.join(","));
    println!("\"lfs\":[{}]}}", lfs.join(","));
    println!("```");
}
