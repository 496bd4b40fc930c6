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
//! Costs, for `n` jobs, `k` classes and `m` machines: [`merged_lpt`] is
//! O(n + k·(log k + m)); [`list_scheduler`] is O(n log n) to sort, then
//! O(m + log k) per event (a job start, or a machine idling until a class
//! frees up); [`hebrard_greedy`] is O(n log n) to sort, then per
//! job one walk per machine over the coalesced busy runs of that machine and
//! of the job's class, cut short at the best start found so far.
//!
//! Both prior-work algorithms achieve a `2m/(m+1)`-flavoured worst case; the
//! E2 experiment reproduces the paper's remark that `Algorithm_5/3` and
//! `Algorithm_3/2` beat them from `m = 6` resp. `m = 4` machines on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use msrs_core::{bounds::lower_bound, Assignment, ClassId, Instance, JobId, Schedule, Time};

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

/// Busy time of one machine or one class: sorted `[start, end)` runs that
/// neither overlap nor touch (touching intervals are coalesced on insert).
/// For `p > 0` an earliest-fit scan depends only on the union of the busy
/// intervals, so coalescing changes no fit — it only shortens the scan.
#[derive(Debug, Default, Clone)]
struct Busy {
    runs: Vec<(Time, Time)>,
}

impl Busy {
    /// Marks `[s, e)` busy. It must not overlap a run; it may touch one.
    fn insert(&mut self, s: Time, e: Time) {
        if s == e {
            return;
        }
        let pos = self.runs.partition_point(|&(a, _)| a < s);
        debug_assert!(pos == 0 || self.runs[pos - 1].1 <= s, "overlaps run");
        debug_assert!(
            pos == self.runs.len() || e <= self.runs[pos].0,
            "overlaps run"
        );
        let joins_prev = pos > 0 && self.runs[pos - 1].1 == s;
        let joins_next = pos < self.runs.len() && self.runs[pos].0 == e;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs[pos - 1].1 = self.runs.remove(pos).1;
            }
            (true, false) => self.runs[pos - 1].1 = e,
            (false, true) => self.runs[pos].0 = s,
            (false, false) => self.runs.insert(pos, (s, e)),
        }
    }
}

/// Earliest `t ≥ 0` such that `[t, t+p)` avoids every run of both lists,
/// found by one ascending walk over the two already-sorted lists (two
/// cursors, no allocation). The walk stops once `t ≥ limit`: the result
/// is exact when it is below `limit`, and otherwise only known to be
/// `≥ limit`. For `p = 0` the result is always 0.
///
/// This is the innermost (job × machine) loop of [`hebrard_greedy`], which
/// passes its incumbent start as `limit`.
fn earliest_fit(a: &Busy, b: &Busy, p: Time, limit: Time) -> Time {
    let (mut i, mut j) = (0, 0);
    let mut t = 0;
    while t < limit {
        let (s, e) = match (a.runs.get(i), b.runs.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => break,
        };
        if t + p <= s {
            break;
        }
        t = t.max(e);
    }
    t
}

/// Hebrard-style greedy insertion: repeatedly pick the unscheduled job with
/// the largest `p_j + p(remaining jobs of its class)` and insert it at the
/// earliest feasible start over all machines (ties: lower machine index).
///
/// Cost: an O(n log n) sort, then per job one `earliest_fit` walk per
/// machine over that machine's and the job's class's coalesced runs, each
/// cut short at the best start found so far.
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
    // matches the intent closely and is O(n log n). The key leaves out the
    // job id on purpose: adding it would reorder ties, and so change the
    // schedules.
    let loads: Vec<Time> = (0..inst.num_classes())
        .map(|c| inst.class_load(c))
        .collect();
    let mut order: Vec<JobId> = (0..inst.num_jobs()).collect();
    order.sort_unstable_by_key(|&j| {
        let p = inst.size(j);
        Reverse((loads[inst.class_of(j)] + p, p))
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
        // A later machine wins only with a strictly earlier start, so each
        // walk may stop once it reaches the incumbent.
        let (mut s, mut q) = (Time::MAX, 0);
        for (machine, busy) in machine_busy.iter().enumerate() {
            let fit = earliest_fit(busy, &class_busy[c], p, s);
            if fit < s {
                (s, q) = (fit, machine);
            }
        }
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
///
/// Cost per event: O(m) to find the machine that frees up first plus
/// O(log k) heap work over the `k` classes. The current time never
/// decreases, so a class whose resource is idle stays available until it is
/// picked, and the blocked classes can wait in a heap keyed by release time.
pub fn list_scheduler(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let m = inst.machines();
    let k = inst.num_classes();
    let mut machine_free: Vec<Time> = vec![0; m];
    // Each class's jobs, sorted ascending by size within the class's slot
    // range and drained from the back (largest first): class `c`'s
    // remaining jobs are `jobs[offsets[c]..end[c]]`. The remaining class
    // load breaks ties.
    let offsets = inst.class_offsets();
    let mut jobs: Vec<JobId> = inst.flat_job_ids().to_vec();
    for c in 0..k {
        jobs[inst.class_range(c)].sort_unstable_by_key(|&j| inst.size(j));
    }
    let mut end: Vec<usize> = offsets[1..].to_vec();
    let mut remaining: Vec<Time> = (0..k).map(|c| inst.class_load(c)).collect();
    // Classes with jobs left whose resource is idle, by (largest job,
    // remaining load, class): ties go to the higher class index.
    let mut ready: BinaryHeap<(Time, Time, ClassId)> = BinaryHeap::with_capacity(k);
    // Classes with jobs left whose resource is busy, by release time.
    let mut blocked: BinaryHeap<Reverse<(Time, ClassId)>> =
        inst.nonempty_classes().map(|c| Reverse((0, c))).collect();

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    let mut done = 0usize;
    while done < inst.num_jobs() {
        // Pick the machine that frees up first (ties: lower index).
        let q = (0..m).min_by_key(|&q| machine_free[q]).expect("m ≥ 1");
        let now = machine_free[q];
        while let Some(&Reverse((free, c))) = blocked.peek() {
            if free > now {
                break;
            }
            blocked.pop();
            ready.push((inst.size(jobs[end[c] - 1]), remaining[c], c));
        }
        // Largest available job; ties broken towards the class with the most
        // remaining load (this is what interleaves the conflict classes).
        match ready.pop() {
            Some((p, _, c)) => {
                end[c] -= 1;
                assignments[jobs[end[c]]] = Assignment {
                    machine: q,
                    start: now,
                };
                done += 1;
                remaining[c] -= p;
                machine_free[q] = now + p;
                if end[c] > offsets[c] {
                    blocked.push(Reverse((now + p, c)));
                }
            }
            None => {
                // Idle until the earliest class completion after `now`.
                let Reverse((next, _)) = *blocked.peek().expect("some blocked class must free up");
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
    queue.sort_unstable_by_key(|&j| Reverse(inst.size(j)));

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
    fn busy_coalesces_touching_runs() {
        let mut b = Busy::default();
        b.insert(2, 5);
        b.insert(8, 10);
        b.insert(4, 4);
        assert_eq!(b.runs, [(2, 5), (8, 10)]);
        let none = Busy::default();
        assert_eq!(earliest_fit(&b, &none, 2, Time::MAX), 0);
        assert_eq!(earliest_fit(&b, &none, 3, Time::MAX), 5);
        assert_eq!(earliest_fit(&b, &none, 4, Time::MAX), 10);
        assert_eq!(earliest_fit(&none, &b, 4, Time::MAX), 10);
        b.insert(5, 6);
        assert_eq!(b.runs, [(2, 6), (8, 10)]);
        b.insert(7, 8);
        assert_eq!(b.runs, [(2, 6), (7, 10)]);
        b.insert(6, 7);
        assert_eq!(b.runs, [(2, 10)]);
        b.insert(11, 12);
        b.insert(0, 2);
        assert_eq!(b.runs, [(0, 10), (11, 12)]);
    }

    /// The pre-coalescing formulation: concatenate both raw interval lists,
    /// sort, and scan from 0.
    fn reference_fit(raw: &[(Time, Time)], p: Time) -> Time {
        let mut iv = raw.to_vec();
        iv.sort_unstable();
        let mut t = 0;
        for (s, e) in iv {
            if t + p <= s {
                break;
            }
            t = t.max(e);
        }
        t
    }

    #[test]
    fn merged_fit_matches_the_sort_based_reference() {
        // Pseudo-random interval pairs, inserted out of order so that runs
        // coalesce from both sides: the two-cursor walk over coalesced runs
        // must agree with "concatenate the raw intervals, sort, scan"
        // everywhere (touching intervals, equal starts across the lists,
        // `p = 0`), and a `limit` may only cut results at or above it.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: u64| -> u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut coalesced = 0;
        for _ in 0..500 {
            let mut raw: Vec<(Time, Time)> = Vec::new();
            let mut lists = [Busy::default(), Busy::default()];
            for busy in &mut lists {
                let mut own = Vec::new();
                let mut cur = 0;
                for _ in 0..next(8) {
                    let s = cur + next(4);
                    let e = s + 1 + next(5);
                    own.push((s, e));
                    cur = e + next(3);
                }
                for i in (1..own.len()).rev() {
                    own.swap(i, next(i as u64 + 1) as usize);
                }
                for &(s, e) in &own {
                    busy.insert(s, e);
                }
                assert!(busy.runs.windows(2).all(|w| w[0].1 < w[1].0));
                coalesced += own.len() - busy.runs.len();
                raw.extend(own);
            }
            let [a, b] = &lists;
            for p in 0..6 {
                let want = reference_fit(&raw, p);
                if p == 0 {
                    assert_eq!(want, 0);
                }
                for limit in (0..=want + 2).chain([Time::MAX]) {
                    for got in [earliest_fit(a, b, p, limit), earliest_fit(b, a, p, limit)] {
                        if want < limit {
                            assert_eq!(got, want, "raw={raw:?} p={p} limit={limit}");
                        } else {
                            assert!(got >= limit, "raw={raw:?} p={p} limit={limit}");
                        }
                    }
                }
            }
        }
        assert!(coalesced > 100, "only {coalesced} intervals coalesced");
    }
}
