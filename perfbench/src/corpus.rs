//! Seeded corpora for the three workloads. The harness generates every
//! instance itself and hands the system under test only JSONL lines.

use msrs_core::Instance;
use msrs_engine::families::FAMILIES;
use msrs_engine::{family, jsonl, SolveRequest};

/// `gen` families' instances per family in `cold_mix`.
pub const COLD_PER_FAMILY: u64 = 1000;
/// Tiny-tier instances in `cold_mix` (m = 2–3, ≤ 9 jobs, ≤ 5 classes: the
/// planner races the exact solver).
pub const COLD_TINY: u64 = 1000;
/// Small-tier instances in `cold_mix` (≤ 28 jobs, m ≤ 4: the planner
/// races the EPTAS).
pub const COLD_SMALL: u64 = 1000;
/// Lines of the `traffic` corpus that `msrs serve` is driven with.
pub const SERVE_LINES: u64 = 20_000;
/// Lines of the `fleet_restart` corpus: 4096 distinct canonical forms
/// (the `traffic` family repeats each form ten times), four times the
/// default in-memory cache capacity of 1024.
pub const FLEET_LINES: u64 = 40_960;
/// Machines of every `gen` family instance and of the traffic corpora.
const MACHINES: usize = 4;

/// A generated corpus: its JSONL lines, without newlines.
pub struct Corpus {
    pub lines: Vec<String>,
}

/// `lines` decoded exactly as the system under test decodes them.
pub fn requests(lines: &[String]) -> Vec<SolveRequest> {
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| jsonl::read_instance_line(i + 1, line).expect("generated lines decode"))
        .collect()
}

impl Corpus {
    fn from_instances(items: Vec<(String, Instance)>) -> Corpus {
        Corpus {
            lines: items
                .iter()
                .map(|(id, inst)| jsonl::write_instance_line(Some(id), inst))
                .collect(),
        }
    }

    /// Each line as request bytes, newline-terminated.
    pub fn wire_lines(&self) -> Vec<Vec<u8>> {
        self.lines
            .iter()
            .map(|l| format!("{l}\n").into_bytes())
            .collect()
    }

    /// The corpus as a JSONL file body.
    pub fn text(&self) -> String {
        let mut out = String::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// SplitMix64: a small, stable, seedable generator for the slices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// `classes` non-empty classes over `jobs` jobs with sizes in 1..=100.
fn random_instance(rng: &mut SplitMix, machines: usize, jobs: usize, classes: usize) -> Instance {
    let mut sizes: Vec<Vec<u64>> = vec![Vec::new(); classes];
    for j in 0..jobs {
        let c = if j < classes {
            j
        } else {
            rng.range(0, classes as u64 - 1) as usize
        };
        sizes[c].push(rng.range(1, 100));
    }
    Instance::from_classes(machines, &sizes).expect("non-empty classes with positive sizes")
}

/// Base seed of block `block` for the workload seed `seed`: distinct
/// per block and a multiple of ten, so `traffic` buckets are whole.
fn block_seed(seed: u64, block: u64) -> u64 {
    seed.wrapping_mul(10_000_000).wrapping_add(block * 100_000)
}

/// `cold_mix`: every `gen` family at m = 4 with distinct seeds, then the
/// tiny-tier and small-tier slices.
pub fn cold_mix(seed: u64) -> Corpus {
    let mut items = Vec::new();
    for (f, spec) in FAMILIES.iter().enumerate() {
        let base = block_seed(seed, f as u64);
        for k in 0..COLD_PER_FAMILY {
            let s = base + k;
            items.push((format!("{}-{s}", spec.name), (spec.generate)(s, MACHINES)));
        }
    }
    let mut rng = SplitMix::new(block_seed(seed, 100));
    for k in 0..COLD_TINY {
        let m = rng.range(2, 3) as usize;
        let classes = rng.range(m as u64 + 1, 5) as usize;
        let jobs = rng.range(classes as u64, 9) as usize;
        items.push((
            format!("tiny-{k}"),
            random_instance(&mut rng, m, jobs, classes),
        ));
    }
    for k in 0..COLD_SMALL {
        let m = rng.range(2, 4) as usize;
        let jobs = rng.range(10, 28) as usize;
        let classes = rng.range(m as u64 + 1, 12) as usize;
        items.push((
            format!("small-{k}"),
            random_instance(&mut rng, m, jobs, classes),
        ));
    }
    Corpus::from_instances(items)
}

/// `count` consecutive seeds of the `traffic` family at m = 4 (each
/// canonical form appears ten times, relabelled), from block `block`.
pub fn traffic(seed: u64, block: u64, count: u64) -> Corpus {
    let spec = family("traffic").expect("the traffic family exists");
    let base = block_seed(seed, block);
    let items = (0..count)
        .map(|k| {
            let s = base + k;
            (format!("traffic-{s}"), (spec.generate)(s, MACHINES))
        })
        .collect();
    Corpus::from_instances(items)
}

/// The corpus `msrs serve` is driven with (the `hot_serve` workload, and
/// the serve probe of the other two).
pub fn serve(seed: u64) -> Corpus {
    traffic(seed, 200, SERVE_LINES)
}

/// The `fleet_restart` corpus.
pub fn fleet(seed: u64) -> Corpus {
    traffic(seed, 300, FLEET_LINES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrs_engine::{classify, SizeTier};

    #[test]
    fn slices_land_in_the_tiers_they_are_for() {
        let requests = requests(&cold_mix(3).lines);
        let tier_of = |prefix: &str| -> Vec<SizeTier> {
            requests
                .iter()
                .filter(|r| r.id.as_deref().unwrap().starts_with(prefix))
                .map(|r| classify(&r.instance).tier)
                .collect()
        };
        assert!(tier_of("tiny-").iter().all(|&t| t == SizeTier::Tiny));
        assert!(tier_of("small-").iter().all(|&t| t == SizeTier::Small));
    }

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        assert_eq!(traffic(5, 1, 50).lines, traffic(5, 1, 50).lines);
        assert_ne!(traffic(5, 1, 50).lines, traffic(6, 1, 50).lines);
    }
}
