//! Baseline algorithms the paper compares against (§1, state of the art).
//!
//! * [`merged_lpt`] — Strusevich-style class merging: each class becomes one
//!   job (avoiding resource conflicts entirely), then LPT on `m` machines.
//! * [`hebrard_greedy`] — a reconstruction of the greedy insertion of Hebrard
//!   et al.: jobs are chosen by size plus the remaining load of their class
//!   and inserted at the earliest feasible time across machines.
//! * [`list_scheduler`] — resource-aware LPT list scheduling: whenever a
//!   machine is free, run the largest available job whose resource is idle.
//!
//! Both prior-work algorithms achieve a `2m/(m+1)`-flavoured worst case; the
//! E2 experiment reproduces the paper's remark that `Algorithm_5/3` and
//! `Algorithm_3/2` beat them from `m = 6` resp. `m = 4` machines on.

use msrs_core::{bounds::lower_bound, Assignment, Instance, JobId, Schedule, Time};

use crate::common::{trivial, ApproxResult};

/// Class-merging + LPT (Strusevich-style): schedule each class contiguously
/// on a single machine, assigning classes in non-increasing total load to the
/// least-loaded machine.
pub fn merged_lpt(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let mut classes: Vec<(Time, usize)> = inst
        .nonempty_classes()
        .map(|c| (inst.class_load(c), c))
        .collect();
    classes.sort_unstable_by(|a, b| b.cmp(a));

    let m = inst.machines();
    let mut loads: Vec<Time> = vec![0; m];
    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    for (_, c) in classes {
        let machine = (0..m).min_by_key(|&q| loads[q]).expect("m ≥ 1");
        let mut start = loads[machine];
        for &j in inst.class_jobs(c) {
            assignments[j] = Assignment { machine, start };
            start += inst.size(j);
        }
        loads[machine] = start;
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// Busy intervals per machine/class used by the insertion baselines.
#[derive(Debug, Default, Clone)]
struct Busy {
    /// Sorted, disjoint `[start, end)` intervals.
    iv: Vec<(Time, Time)>,
}

impl Busy {
    fn insert(&mut self, s: Time, e: Time) {
        if s == e {
            return;
        }
        let pos = self.iv.partition_point(|&(a, _)| a < s);
        self.iv.insert(pos, (s, e));
    }

    /// Earliest `t ≥ from` such that `[t, t+p)` avoids all intervals.
    #[cfg(test)]
    fn earliest_fit(&self, from: Time, p: Time) -> Time {
        let mut t = from;
        for &(s, e) in &self.iv {
            if t + p <= s {
                break;
            }
            if e > t {
                t = e;
            }
        }
        t
    }
}

/// Earliest `t ≥ from` such that `[t, t+p)` avoids every interval of both
/// lists. Equivalent to concatenating, sorting, and scanning (the scan only
/// needs intervals in ascending order, and ties commute through the
/// `max`-accumulation) — but walks the two already-sorted lists with two
/// cursors instead: no allocation, no sort. This sits in the innermost
/// (job × machine) loop of [`hebrard_greedy`], where the merge-and-sort
/// formulation dominated the whole portfolio's runtime.
fn earliest_fit_merged(a: &Busy, b: &Busy, from: Time, p: Time) -> Time {
    let (mut i, mut j) = (0, 0);
    let mut t = from;
    loop {
        let next = match (a.iv.get(i), b.iv.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => return t,
        };
        let (s, e) = next;
        if t + p <= s {
            return t;
        }
        if e > t {
            t = e;
        }
    }
}

/// Hebrard-style greedy insertion: repeatedly pick the unscheduled job with
/// the largest `p_j + p(remaining jobs of its class)` and insert it at the
/// earliest feasible start over all machines (ties: lower machine index).
pub fn hebrard_greedy(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let m = inst.machines();
    let mut machine_busy = vec![Busy::default(); m];
    let mut class_busy = vec![Busy::default(); inst.num_classes()];

    // Priority order: p_j + remaining class load only decreases as the
    // class drains, so a one-shot sort by (class load + size, size)
    // matches the intent closely and is O(n log n).
    let mut order: Vec<JobId> = (0..inst.num_jobs()).collect();
    order.sort_unstable_by_key(|&j| {
        let c = inst.class_of(j);
        std::cmp::Reverse((inst.class_load(c) + inst.size(j), inst.size(j)))
    });

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    for j in order {
        let c = inst.class_of(j);
        let p = inst.size(j);
        let mut best: Option<(Time, usize)> = None;
        for (q, busy) in machine_busy.iter().enumerate() {
            let s = earliest_fit_merged(busy, &class_busy[c], 0, p);
            if best.is_none_or(|(bs, _)| s < bs) {
                best = Some((s, q));
            }
        }
        let (s, q) = best.expect("m ≥ 1");
        assignments[j] = Assignment {
            machine: q,
            start: s,
        };
        machine_busy[q].insert(s, s + p);
        class_busy[c].insert(s, s + p);
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// Resource-aware LPT list scheduling: event-driven; whenever a machine
/// becomes idle, start the largest unscheduled job whose class is not
/// currently running; if none is available the machine idles until the next
/// class completion.
pub fn list_scheduler(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let m = inst.machines();
    let mut machine_free: Vec<Time> = vec![0; m];
    let mut class_free: Vec<Time> = vec![0; inst.num_classes()];
    // Per class: jobs sorted ascending by size (drained from the back,
    // largest first) plus the remaining class load for tie-breaking.
    let mut per_class: Vec<Vec<JobId>> = (0..inst.num_classes())
        .map(|c| {
            let mut v = inst.class_jobs(c).to_vec();
            v.sort_unstable_by_key(|&j| inst.size(j));
            v
        })
        .collect();
    let mut remaining: Vec<Time> = (0..inst.num_classes())
        .map(|c| inst.class_load(c))
        .collect();

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    let mut done = 0usize;
    while done < inst.num_jobs() {
        // Pick the machine that frees up first.
        let q = (0..m).min_by_key(|&q| machine_free[q]).expect("m ≥ 1");
        let now = machine_free[q];
        // Largest available job; ties broken towards the class with the most
        // remaining load (this is what interleaves the conflict classes).
        let pick = (0..inst.num_classes())
            .filter(|&c| class_free[c] <= now && !per_class[c].is_empty())
            .max_by_key(|&c| {
                (
                    inst.size(*per_class[c].last().expect("non-empty")),
                    remaining[c],
                )
            });
        match pick {
            Some(c) => {
                let j = per_class[c].pop().expect("non-empty checked");
                let p = inst.size(j);
                assignments[j] = Assignment {
                    machine: q,
                    start: now,
                };
                done += 1;
                remaining[c] -= p;
                machine_free[q] = now + p;
                class_free[c] = class_free[c].max(now + p);
            }
            None => {
                // Idle until the earliest class completion after `now`.
                let next = (0..inst.num_classes())
                    .filter(|&c| !per_class[c].is_empty())
                    .map(|c| class_free[c])
                    .filter(|&f| f > now)
                    .min()
                    .expect("some blocked class must free up");
                machine_free[q] = next;
            }
        }
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// The *naive* list scheduler: identical to [`list_scheduler`] but breaking
/// ties by job id instead of remaining class load. Kept as an ablation (E9):
/// on the adversarial `m+1`-unit-class family the naive rule starves the
/// last class and degrades from ~1.0 to the full `2m/(m+1)` ratio — the
/// interleaving tie-break is load-bearing.
pub fn list_scheduler_naive(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let m = inst.machines();
    let mut machine_free: Vec<Time> = vec![0; m];
    let mut class_free: Vec<Time> = vec![0; inst.num_classes()];
    let mut queue: Vec<JobId> = (0..inst.num_jobs()).collect();
    queue.sort_unstable_by_key(|&j| std::cmp::Reverse(inst.size(j)));

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    let mut scheduled = vec![false; inst.num_jobs()];
    let mut done = 0usize;
    while done < inst.num_jobs() {
        let q = (0..m).min_by_key(|&q| machine_free[q]).expect("m ≥ 1");
        let now = machine_free[q];
        let pick = queue
            .iter()
            .copied()
            .find(|&j| !scheduled[j] && class_free[inst.class_of(j)] <= now);
        match pick {
            Some(j) => {
                let c = inst.class_of(j);
                let p = inst.size(j);
                assignments[j] = Assignment {
                    machine: q,
                    start: now,
                };
                scheduled[j] = true;
                done += 1;
                machine_free[q] = now + p;
                class_free[c] = class_free[c].max(now + p);
            }
            None => {
                let next = (0..inst.num_jobs())
                    .filter(|&j| !scheduled[j])
                    .map(|j| class_free[inst.class_of(j)])
                    .filter(|&f| f > now)
                    .min()
                    .expect("some blocked class must free up");
                machine_free[q] = next;
            }
        }
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrs_core::validate;

    fn check_all(inst: &Instance) -> [ApproxResult; 3] {
        let rs = [merged_lpt(inst), hebrard_greedy(inst), list_scheduler(inst)];
        for r in &rs {
            assert_eq!(validate(inst, &r.schedule), Ok(()), "invalid schedule");
        }
        rs
    }

    #[test]
    fn merged_lpt_keeps_classes_contiguous() {
        let inst = Instance::from_classes(2, &[vec![4, 3], vec![5], vec![2, 2]]).unwrap();
        let r = merged_lpt(&inst);
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        // Each class on a single machine.
        for c in 0..inst.num_classes() {
            let machines: Vec<_> = inst
                .class_jobs(c)
                .iter()
                .map(|&j| r.schedule.assignment(j).machine)
                .collect();
            assert!(machines.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn all_baselines_valid_on_shapes() {
        let shapes: Vec<(usize, Vec<Vec<Time>>)> = vec![
            (2, vec![vec![10], vec![9, 1], vec![8, 2], vec![1, 1, 1]]),
            (
                3,
                vec![vec![7, 7], vec![14], vec![13, 1], vec![6, 6], vec![2; 10]],
            ),
            (
                4,
                vec![vec![3; 9], vec![5, 5, 5], vec![20], vec![11, 9], vec![1]],
            ),
            (2, vec![vec![1], vec![1], vec![1]]),
        ];
        for (m, classes) in shapes {
            let inst = Instance::from_classes(m, &classes).unwrap();
            check_all(&inst);
        }
    }

    #[test]
    fn adversarial_family_hits_two_m_over_m_plus_one() {
        // m+1 unit classes of load L on m machines: merged LPT stacks two
        // classes (makespan 2L) while OPT interleaves to (m+1)L/m — the exact
        // 2m/(m+1) gap the paper cites for the prior algorithms (1.6 at m=4).
        let inst = msrs_gen::adversarial_merged_lpt(4, 40);
        let [lpt, _heb, list] = check_all(&inst);
        let lb = lower_bound(&inst) as f64;
        let ratio = lpt.makespan(&inst) as f64 / lb;
        assert!(
            (1.58..=1.62).contains(&ratio),
            "merged LPT ratio {ratio} ≠ 2m/(m+1)"
        );
        assert!(
            list.makespan(&inst) as f64 / lb <= 1.2,
            "list scheduling interleaves unit jobs"
        );
    }

    #[test]
    fn list_scheduler_idles_for_class_conflicts() {
        // Two machines, one class of two long jobs: they must serialize.
        let inst = Instance::from_classes(2, &[vec![5, 5], vec![1]]).unwrap();
        let r = list_scheduler(&inst);
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        assert_eq!(r.makespan(&inst), 10);
    }

    #[test]
    fn hebrard_greedy_fills_gaps() {
        let inst = Instance::from_classes(2, &[vec![6, 6], vec![3, 3], vec![2]]).unwrap();
        let r = hebrard_greedy(&inst);
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        // Lower bound: ⌈20/2⌉ = 10; class 0 serializes to 12.
        assert!(r.makespan(&inst) <= 15);
    }

    #[test]
    fn naive_list_scheduler_starves_on_adversarial_family() {
        // The ablation story: job-id tie-breaking leaves the last class to
        // run serially, realizing 2m/(m+1), while the remaining-load rule
        // interleaves to ~1.0.
        let inst = msrs_gen::adversarial_merged_lpt(4, 40);
        let naive = list_scheduler_naive(&inst);
        let smart = list_scheduler(&inst);
        assert_eq!(validate(&inst, &naive.schedule), Ok(()));
        let lb = lower_bound(&inst) as f64;
        let naive_ratio = naive.makespan(&inst) as f64 / lb;
        let smart_ratio = smart.makespan(&inst) as f64 / lb;
        assert!(naive_ratio >= 1.55, "naive should starve: {naive_ratio}");
        assert!(smart_ratio <= 1.1, "smart should interleave: {smart_ratio}");
    }

    #[test]
    fn busy_earliest_fit() {
        let mut b = Busy::default();
        b.insert(2, 5);
        b.insert(8, 10);
        assert_eq!(b.earliest_fit(0, 2), 0);
        assert_eq!(b.earliest_fit(0, 3), 5);
        assert_eq!(b.earliest_fit(3, 2), 5);
        assert_eq!(b.earliest_fit(0, 4), 10);
        assert_eq!(b.earliest_fit(11, 7), 11);
    }

    #[test]
    fn merged_fit_matches_the_sort_based_reference() {
        // Pseudo-random interval pairs: the two-cursor merge walk must
        // agree with "concatenate, sort, scan" everywhere (including
        // touching/duplicate intervals and equal starts).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: u64| -> u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..500 {
            let mut a = Busy::default();
            let mut b = Busy::default();
            let mut cur = 0;
            for _ in 0..next(6) {
                let s = cur + next(4);
                let e = s + 1 + next(5);
                a.insert(s, e);
                cur = e + next(3);
            }
            cur = 0;
            for _ in 0..next(6) {
                let s = cur + next(4);
                let e = s + 1 + next(5);
                b.insert(s, e);
                cur = e + next(3);
            }
            let mut iv = a.iv.clone();
            iv.extend_from_slice(&b.iv);
            iv.sort_unstable();
            let reference = Busy { iv };
            for p in 1..6 {
                for from in 0..4 {
                    assert_eq!(
                        earliest_fit_merged(&a, &b, from, p),
                        reference.earliest_fit(from, p),
                        "a={:?} b={:?} from={from} p={p}",
                        a.iv,
                        b.iv
                    );
                }
            }
        }
    }
}
