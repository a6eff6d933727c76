//! Seeded input generation. The program under test only ever sees what
//! this module produces: DIMACS text for the batch workloads and the cold
//! service requests, and circuit sweeps whose clauses go on the wire.
//!
//! Every family has a known status by construction, which is what the
//! answer oracle checks UNSAT verdicts against.

use cnf::Cnf;
use logic_circuit::{Circuit, IncrementalUnroll, NodeId, RandomCircuitSpec, SequentialCircuit};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small conflict-heavy instances: search dominates.
    SolveHard,
    /// Large easy structured instances: GNN inference dominates.
    SelectLarge,
    /// Small UNSAT instances with DRAT proofs: the proof checker dominates.
    CertifyUnsat,
    /// Incremental BMC sessions and cold one-shots through `rsatd`.
    ServeIncremental,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveHard,
        Workload::SelectLarge,
        Workload::CertifyUnsat,
        Workload::ServeIncremental,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveHard => "solve-hard",
            Workload::SelectLarge => "select-large",
            Workload::CertifyUnsat => "certify-unsat",
            Workload::ServeIncremental => "serve-incremental",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Keeps the input streams of different workloads independent.
    fn stream(self) -> u64 {
        match self {
            Workload::SolveHard => 0x5348_0001,
            Workload::SelectLarge => 0x534C_0002,
            Workload::CertifyUnsat => 0x4355_0003,
            Workload::ServeIncremental => 0x5349_0004,
        }
    }
}

/// The sub-seed of the untimed warm-up requests, disjoint from `seed`'s.
pub fn warmup_seed(seed: u64) -> u64 {
    seed ^ 0x5741_524D_5550_0000
}

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// the seed alone and not on any crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The status a family has by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Satisfiable.
    Sat,
    /// Unsatisfiable.
    Unsat,
}

/// One generated request input.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family and parameters, e.g. `php-9-8`.
    pub name: String,
    /// The formula as DIMACS text.
    pub dimacs: String,
    /// Its status by construction.
    pub status: Status,
}

fn instance(name: String, cnf: &Cnf, status: Status) -> Instance {
    Instance {
        name,
        dimacs: cnf::to_dimacs_string(cnf),
        status,
    }
}

fn pigeonhole(holes: u32) -> Instance {
    let name = format!("php-{}-{holes}", holes + 1);
    instance(name, &sat_gen::pigeonhole(holes + 1, holes), Status::Unsat)
}

fn tseitin(vertices: u32, seed: u64) -> Instance {
    let cnf = sat_gen::tseitin_expander_unsat(vertices, seed);
    instance(format!("tseitin-{vertices}"), &cnf, Status::Unsat)
}

fn planted(vars: u32, ratio: f64, seed: u64) -> Instance {
    let clauses = (f64::from(vars) * ratio).round() as usize;
    let (cnf, _) = sat_gen::planted_ksat(vars, clauses, 3, seed);
    instance(format!("planted-{vars}-{clauses}"), &cnf, Status::Sat)
}

fn miter(gates: usize, seed: u64) -> Instance {
    let spec = RandomCircuitSpec {
        num_inputs: 16,
        num_gates: gates,
        num_outputs: 4,
    };
    let cnf = sat_gen::equivalence_miter_cnf(spec, seed);
    instance(format!("miter-{gates}"), &cnf, Status::Unsat)
}

fn counter_bmc(bits: usize) -> Instance {
    // The counter needs 2^b - 1 enabled steps, so 2^b - 1 frames are UNSAT.
    let steps = (1 << bits) - 1;
    let cnf = sat_gen::bmc_counter_cnf(bits, steps);
    instance(format!("bmc-counter-{bits}-{steps}"), &cnf, Status::Unsat)
}

/// The `k`-th value of a size grid, cycling.
fn grid<T: Copy>(values: &[T], k: usize) -> T {
    values[k % values.len()]
}

/// `count` batch-workload inputs for `seed`. Families interleave
/// round-robin and sizes cycle through a fixed grid, so any prefix keeps
/// the family and size mix; the seed draws the formulas themselves.
///
/// # Panics
///
/// Panics for [`Workload::ServeIncremental`], which has no batch pool.
pub fn batch_pool(workload: Workload, seed: u64, count: usize) -> Vec<Instance> {
    let mut rng = Rng::new(seed, workload.stream());
    (0..count)
        .map(|i| {
            let s = rng.next_u64();
            match workload {
                // Half of the requests are one fixed pigeonhole formula, so
                // the latency quantiles sit on a seed-independent instance
                // while the random families carry the seed.
                Workload::SolveHard => match i % 4 {
                    0 | 2 => pigeonhole(7),
                    1 => tseitin(grid(&[15, 16, 17], i / 4), s),
                    _ => planted(grid(&[180, 195, 210], i / 4), 4.26, s),
                },
                Workload::SelectLarge => {
                    let k = i / 3;
                    match i % 3 {
                        0 | 1 => {
                            planted(grid(&[2000, 2750, 3500, 4250, 5000], 2 * k + i % 3), 3.0, s)
                        }
                        _ => miter(grid(&[500, 625, 750, 875, 1000], k), s),
                    }
                }
                Workload::CertifyUnsat => {
                    let k = i / 4;
                    match (i % 4, k % 3) {
                        (0 | 2, _) => pigeonhole(6),
                        (1, _) => tseitin(grid(&[8, 9, 10, 11, 12, 13], k), s),
                        (_, 0) => miter(grid(&[100, 125, 150, 175, 200], k / 3), s),
                        (_, 1) => counter_bmc(grid(&[3, 4], k / 3)),
                        _ => pigeonhole(5),
                    }
                }
                Workload::ServeIncremental => panic!("serve-incremental has no batch pool"),
            }
        })
        .collect()
}

/// Small known-status instances shipped whole by the service workload's
/// cold one-shot requests.
pub fn cold_pool(seed: u64, count: usize) -> Vec<Instance> {
    let mut rng = Rng::new(seed, Workload::ServeIncremental.stream() ^ 0xC01D);
    (0..count)
        .map(|i| {
            let s = rng.next_u64();
            match i % 3 {
                0 => planted(grid(&[400, 800, 1200], i / 3), 3.0, s),
                1 => tseitin(grid(&[8, 9, 10], i / 3), s),
                _ => pigeonhole(4),
            }
        })
        .collect()
}

/// The gated-counter machine: `bits` state bits incremented while the
/// single enable input is high; the monitor fires when all bits are 1.
pub fn gated_counter(bits: usize) -> SequentialCircuit {
    let mut c = Circuit::new();
    let state: Vec<NodeId> = (0..bits).map(|_| c.input()).collect();
    let enable = c.input();
    let mut carry = enable;
    let mut next = Vec::with_capacity(bits);
    for &s in &state {
        next.push(c.xor(s, carry));
        carry = c.and_gate(s, carry);
    }
    let saturated = c.and_many(&state);
    next.push(saturated);
    c.set_outputs(next);
    SequentialCircuit::new(c, bits)
}

/// One BMC sweep of the service workload: a gated counter started from
/// `initial`, checked at bounds `1..=sat_bound`.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Counter width.
    pub bits: usize,
    /// Initial state, least significant bit first.
    pub initial: Vec<bool>,
    /// The first SAT bound: `2^bits - start value`. Every earlier bound is
    /// UNSAT (the counter cannot reach all-ones in fewer frames).
    pub sat_bound: usize,
    /// Variables the session needs for the deepest bound.
    pub vars: u32,
}

/// `count` sweeps: widths 5 and 6 bits crossed with start states in the
/// middle of the four quarters of `0..2^(bits-1)`, repeated, in an order
/// drawn from the seed. Every seed gets the same mix of sweep lengths.
pub fn sweeps(seed: u64, count: usize) -> Vec<Sweep> {
    let mut rng = Rng::new(seed, Workload::ServeIncremental.stream());
    let mut specs: Vec<(usize, usize)> = (0..count)
        .map(|j| {
            let bits = 5 + j % 2;
            let quarter = (1 << (bits - 1)) / 4;
            (bits, (j / 2 % 4) * quarter + quarter / 2)
        })
        .collect();
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.range(0, i as u64) as usize);
    }
    specs
        .into_iter()
        .map(|(bits, start)| {
            let initial: Vec<bool> = (0..bits).map(|i| (start >> i) & 1 == 1).collect();
            let sat_bound = (1 << bits) - start;
            let mut scratch = IncrementalUnroll::new(&gated_counter(bits), &initial);
            for _ in 0..sat_bound {
                scratch.push_frame();
            }
            Sweep {
                bits,
                initial,
                sat_bound,
                vars: scratch.circuit().len() as u32,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_dimacs() {
        for w in [
            Workload::SolveHard,
            Workload::SelectLarge,
            Workload::CertifyUnsat,
        ] {
            let a = batch_pool(w, 1, 4);
            let b = batch_pool(w, 1, 4);
            let c = batch_pool(w, 2, 4);
            let text = |p: &[Instance]| p.iter().map(|i| i.dimacs.clone()).collect::<Vec<_>>();
            assert_eq!(text(&a), text(&b), "{}", w.name());
            assert_ne!(text(&a), text(&c), "{}: seeds 1 and 2 collide", w.name());
        }
        let text = |p: Vec<Instance>| p.into_iter().map(|i| i.dimacs).collect::<Vec<_>>();
        assert_eq!(text(cold_pool(1, 3)), text(cold_pool(1, 3)));
        assert_ne!(text(cold_pool(1, 3)), text(cold_pool(2, 3)));
        let shape = |s: Vec<Sweep>| {
            s.iter()
                .map(|s| (s.bits, s.sat_bound, s.vars))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(sweeps(1, 8)), shape(sweeps(1, 8)));
        assert_ne!(shape(sweeps(1, 8)), shape(sweeps(2, 8)));
    }

    #[test]
    fn warmup_stream_differs_from_the_measured_one() {
        let measured = batch_pool(Workload::CertifyUnsat, 5, 4);
        let warm = batch_pool(Workload::CertifyUnsat, warmup_seed(5), 4);
        assert_ne!(measured[1].dimacs, warm[1].dimacs);
    }

    #[test]
    fn sweep_bounds_stay_within_the_counter_range() {
        for s in sweeps(3, 32) {
            assert!((5..=6).contains(&s.bits));
            assert!(s.sat_bound > 1 << (s.bits - 1) && s.sat_bound <= 1 << s.bits);
        }
    }
}
