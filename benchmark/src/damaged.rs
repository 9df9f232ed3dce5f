//! `damaged_shelf`: curation of the E15 RS(5, 3) shelf (6 content and 4
//! parity reels). Each cycle starts from a fresh copy of the pristine
//! scans, drops `k` in `0..=m` reels of one parity group, applies
//! scratch and blotch damage to a few seeded frames, then runs `scrub`,
//! `restore_table`, `restore_all`, `repair` and a second `scrub` that
//! must report the shelf clean.
//!
//! Damage stays inside the shelf's repair budget: at every frame offset
//! of a group, lost reels plus damaged frames number at most `m`, and at
//! most three frames are damaged per cycle (the data stream's outer
//! code absorbs three lost frames per group). Within that budget every
//! step must succeed, so any failure is the program's.

use ule_fault::{Blotch, BurstScratch, FaultPlan, Orientation};
use ule_vault::ReelScans;

use crate::report::{mb, same, Metrics, Samples};
use crate::rng::{mix, Rng};
use crate::shelf::{shelf_layer_metrics, OpCounts, Shelf, ShelfKind, SETUP_OP};
use crate::workload::{closed_loop, repeated_setup, Looper, Outcome, RunCfg};

/// Frames damaged per cycle.
pub const DAMAGED_FRAMES: usize = 3;

/// The severities E15 tries, highest first.
pub const SEVERITY_LADDER: [f64; 5] = [0.01, 0.005, 0.002, 0.001, 0.0005];

/// One curation cycle's inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Cycle {
    pub group: usize,
    pub lost: Vec<usize>,
    /// `(reel, offset)` of each damaged frame.
    pub damaged: Vec<(usize, usize)>,
    pub table: String,
    pub fault_seed: u64,
}

pub struct DamagedWorkload {
    pub scale: f64,
}

/// Every choice of `k` reels of one group (content and parity reels),
/// with the group.
fn lost_sets(layout: &ule_vault::layout::ReelLayout, k: usize) -> Vec<(usize, Vec<usize>)> {
    let mut out = Vec::new();
    for g in 0..layout.groups() {
        let reels: Vec<usize> = layout
            .group_members(g)
            .chain(layout.parity_reels_of(g))
            .collect();
        for mask in 0u32..1 << reels.len() {
            if mask.count_ones() as usize == k {
                let set = (0..reels.len())
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| reels[b])
                    .collect();
                out.push((g, set));
            }
        }
    }
    out
}

fn damage_plan() -> FaultPlan {
    FaultPlan::single(BurstScratch {
        orientation: Orientation::Vertical,
    })
    .with(Blotch)
}

impl DamagedWorkload {
    pub fn e15() -> Self {
        Self { scale: 0.0002 }
    }

    /// E15's rule: the highest severity of the ladder at which the shelf
    /// with every frame damaged still restores byte-identically.
    pub fn choose_severity(shelf: &Shelf) -> Result<f64, String> {
        let plan = damage_plan();
        SEVERITY_LADDER
            .into_iter()
            .find(|&sev| {
                let probe: ReelScans = shelf
                    .scans
                    .iter()
                    .map(|r| r.as_ref().map(|f| plan.apply(f, sev, 0xE15)))
                    .collect();
                matches!(
                    shelf.vault.restore_all(&shelf.archive.bootstrap, &probe),
                    Ok((dump, _)) if dump == shelf.dump
                )
            })
            .ok_or_else(|| "no severity of the E15 ladder restores".to_string())
    }

    /// Cycle `i` of the run with `seed`: `k = i mod (m + 1)` lost reels
    /// of one group, the `k`-reel sets of all groups visited in a seeded
    /// order, damaged frames drawn until the budget is used or
    /// [`DAMAGED_FRAMES`] are chosen, and the tables restored in a seeded
    /// order, each equally often.
    pub fn plan(seed: u64, i: u64, shelf: &Shelf) -> Cycle {
        let layout = &shelf.archive.layout;
        let m = layout.group_parity;
        let mut rng = Rng::new(mix(seed ^ 0xda3, i));
        let group_of = |r: usize| match layout.parity_role_of(r) {
            Some((g, _)) => g,
            None => layout.group_of(r),
        };
        let k = (i % (m as u64 + 1)) as usize;
        let (group, lost) = Rng::cycled(
            mix(seed, k as u64),
            i / (m as u64 + 1),
            &lost_sets(layout, k),
        );
        let frames: Vec<(usize, usize)> = shelf
            .scans
            .iter()
            .enumerate()
            .filter(|(r, _)| !lost.contains(r))
            .flat_map(|(r, reel)| {
                let n = reel.as_ref().map_or(0, |f| f.len());
                (0..n).map(move |j| (r, j))
            })
            .collect();
        let mut damaged: Vec<(usize, usize)> = Vec::new();
        for _ in 0..64 {
            if damaged.len() == DAMAGED_FRAMES {
                break;
            }
            let (r, j) = frames[rng.below(frames.len())];
            let g = group_of(r);
            let erased = lost.iter().filter(|&&l| group_of(l) == g).count()
                + damaged
                    .iter()
                    .filter(|&&(d, o)| o == j && group_of(d) == g)
                    .count();
            if erased < m && !damaged.contains(&(r, j)) {
                damaged.push((r, j));
            }
        }
        Cycle {
            group,
            lost,
            damaged,
            table: Rng::cycled(seed, i, &shelf.tables),
            fault_seed: rng.next_u64(),
        }
    }

    /// The damaged shelf of `cycle`: pristine scans minus the lost reels,
    /// with the chosen frames damaged at `severity`.
    pub fn damage(shelf: &Shelf, cycle: &Cycle, severity: f64) -> ReelScans {
        let plan = damage_plan();
        let mut scans = shelf.scans.clone();
        for &r in &cycle.lost {
            scans[r] = None;
        }
        for (n, &(r, j)) in cycle.damaged.iter().enumerate() {
            let reel = scans[r]
                .as_mut()
                .expect("damaged frames sit on present reels");
            let hit = plan.apply(
                std::slice::from_ref(&reel[j]),
                severity,
                mix(cycle.fault_seed, n as u64),
            );
            reel[j] = hit.into_iter().next().expect("one frame in, one out");
        }
        scans
    }

    pub fn run(&self, cfg: &RunCfg) -> Result<Outcome, String> {
        let mut lp = Looper::new(cfg.trace);
        let mut s = Samples::default();
        let ((shelf, severity), setup_s) = repeated_setup(cfg.setups, || {
            let shelf = Shelf::build(self.scale, cfg.seed, ShelfKind::Damaged);
            let severity = Self::choose_severity(&shelf)?;
            Ok((shelf, severity))
        })?;
        lp.probe(SETUP_OP, |tr| shelf.probe(tr, &mut s));
        let boot = &shelf.archive.bootstrap;
        let vault = &shelf.vault;
        closed_loop(cfg.seconds, |i| {
            let cycle = Self::plan(cfg.seed, i, &shelf);
            let res = lp.op(i, "damaged_shelf", |tr| {
                let (mut scans, apply) =
                    tr.time("fault.apply", || Self::damage(&shelf, &cycle, severity));
                let o = tr.begin("op");
                let (scrub1, t_scrub) = tr.time("vault.scrub", || vault.scrub(boot, &scans));
                let (table, t_table) = tr.time("vault.restore_table", || {
                    vault.restore_table(boot, &scans, &cycle.table)
                });
                let (all, t_all) = tr.time("vault.restore_all", || vault.restore_all(boot, &scans));
                let (repair, t_repair) = tr.time("vault.repair", || vault.repair(boot, &mut scans));
                let (scrub2, _) = tr.time("vault.scrub", || vault.scrub(boot, &scans));
                let wall = tr.end(o);
                let e = |step: &'static str| {
                    move |err: ule_vault::VaultError| format!("{step}: {err:?}")
                };
                let scrub1 = scrub1.map_err(e("scrub"))?;
                let mut lost_seen: Vec<usize> = scrub1
                    .reels
                    .iter()
                    .filter(|r| !r.present)
                    .map(|r| r.reel)
                    .collect();
                let mut lost_want = cycle.lost.clone();
                lost_seen.sort_unstable();
                lost_want.sort_unstable();
                same("scrub lost reels", &lost_seen, &lost_want)?;
                if !scrub1.groups.iter().all(|g| g.recoverable) {
                    return Err("scrub: damage within budget reported unrecoverable".into());
                }
                let (table, tstats) = table.map_err(e("restore_table"))?;
                same(
                    "restore_table",
                    table.as_slice(),
                    shelf.expected_table(&cycle.table)?,
                )?;
                let (all, astats) = all.map_err(e("restore_all"))?;
                same("restore_all", &all, &shelf.dump)?;
                let repair = repair.map_err(e("repair"))?;
                if !repair.unrepairable.is_empty() {
                    return Err(format!("repair left reels {:?}", repair.unrepairable));
                }
                if !scrub2.map_err(e("second scrub"))?.is_clean() {
                    return Err("second scrub: shelf not clean after repair".into());
                }
                let mut counts = OpCounts::default();
                counts.add(&tstats);
                counts.add(&astats);
                let steps = (apply, t_scrub, t_table, t_all, t_repair, wall);
                let work = (counts, scrub1.damaged_frames(), repair.frames_reencoded);
                Ok(((steps, work), wall))
            });
            let Some(((apply, t_scrub, t_table, t_all, t_repair, wall), work)) = res else {
                return;
            };
            let (counts, scrub_damaged, reencoded) = work;
            s.push_ms("fault.apply_ms", apply);
            s.push_ms("scrub_ms", t_scrub);
            s.push_ms("table_restore_ms", t_table);
            s.push_rate("restore", mb(shelf.dump.len()), t_all);
            s.push_ms("repair_ms", t_repair);
            s.push_ms("op_ms", wall);
            s.push_rate("op", 1.0, wall);
            counts.push(&mut s);
            s.push("vault.scrub_damaged_frames", scrub_damaged as f64);
            s.push("vault.repair_frames_reencoded", reencoded as f64);
        });
        let mut e2e = Metrics::default();
        e2e.put("setup_s", "s", setup_s);
        e2e.put("damage_severity", "fraction", severity);
        e2e.rate("restore_mb_s", "MB/s", &s, "restore");
        e2e.rate("ops_per_s", "1/s", &s, "op");
        e2e.latency("table_restore", s.get("table_restore_ms"));
        e2e.median("scrub_ms", "ms", s.get("scrub_ms"));
        e2e.median("repair_ms", "ms", s.get("repair_ms"));
        e2e.latency("op", s.get("op_ms"));
        e2e.put(
            "frames_per_mb",
            "frames/MB",
            shelf.frames() as f64 / mb(shelf.dump.len()),
        );
        let mut layers = Metrics::default();
        shelf_layer_metrics(&mut layers, &s);
        layers.median("fault.apply_ms", "ms", s.get("fault.apply_ms"));
        Ok(lp.finish(e2e, layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_seeded_and_stay_inside_the_repair_budget() {
        let shelf = Shelf::build(0.0001, 5, ShelfKind::Damaged);
        let layout = &shelf.archive.layout;
        let m = layout.group_parity;
        let group_of = |r: usize| {
            layout
                .parity_role_of(r)
                .map_or_else(|| layout.group_of(r), |(g, _)| g)
        };
        for i in 0..40 {
            let c = DamagedWorkload::plan(5, i, &shelf);
            assert_eq!(c, DamagedWorkload::plan(5, i, &shelf));
            assert_eq!(c.lost.len(), (i % (m as u64 + 1)) as usize);
            assert!(c.damaged.len() <= DAMAGED_FRAMES);
            for &(r, j) in &c.damaged {
                assert!(!c.lost.contains(&r));
                let g = group_of(r);
                let erased = c.lost.iter().filter(|&&l| group_of(l) == g).count()
                    + c.damaged
                        .iter()
                        .filter(|&&(d, o)| o == j && group_of(d) == g)
                        .count();
                assert!(erased <= m, "cycle {i}: {erased} erasures at offset {j}");
            }
        }
        assert_ne!(
            DamagedWorkload::plan(5, 1, &shelf),
            DamagedWorkload::plan(6, 1, &shelf)
        );
    }
}
