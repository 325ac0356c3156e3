//! Byte-identity of the GA with and without its fitness memos.
//!
//! The whole-group and segment memos are only allowed to change *wall
//! clock*, never results: for any seed, a memo-off run
//! (`with_memo(false)`, every candidate recomputed from scratch) must
//! produce the same best chromosome, the same fitness bits, and the
//! same serialized trace as the memoized run. These tests pin that
//! contract for several seeds under both the makespan objective and
//! the `ServingSlo` tail objective.

use compass::fitness::{FitnessContext, FitnessKind, ServingSlo};
use compass::ga::{self, GaParams};
use compass::{decompose, UnitSequence, ValidityMap};
use pim_arch::ChipSpec;
use pim_model::{zoo, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    net: Network,
    seq: UnitSequence,
    validity: ValidityMap,
    chip: ChipSpec,
}

fn fixture() -> Fixture {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    Fixture { net, seq, validity, chip }
}

const SEEDS: [u64; 3] = [11, 12, 13];

fn objectives() -> [Option<ServingSlo>; 2] {
    [None, Some(ServingSlo::new(2_000.0, 8))]
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RunOutput {
    best_cuts: Vec<usize>,
    best_pgf_bits: u64,
    trace_json: String,
    memoized_groups: usize,
}

#[derive(Clone, Copy)]
enum Eval {
    Memo,
    NoMemo,
}

fn run_one(f: &Fixture, seed: u64, slo: Option<ServingSlo>, eval: Eval) -> RunOutput {
    let ctx = FitnessContext::new(&f.net, &f.seq, &f.validity, &f.chip, 8, FitnessKind::Latency)
        .with_serving_slo(slo)
        .with_memo(matches!(eval, Eval::Memo));
    let mut rng = StdRng::seed_from_u64(seed);
    let (best, trace) = ga::run(&ctx, &GaParams::fast(), &mut rng);
    RunOutput {
        best_cuts: best.group.cuts().to_vec(),
        best_pgf_bits: best.pgf.to_bits(),
        trace_json: serde_json::to_string(&trace).expect("trace serializes"),
        memoized_groups: ctx.cache_len(),
    }
}

fn assert_byte_identical(reference: &RunOutput, candidate: &RunOutput, what: &str) {
    assert_eq!(reference.best_cuts, candidate.best_cuts, "{what}: best chromosome diverged");
    assert_eq!(
        reference.best_pgf_bits, candidate.best_pgf_bits,
        "{what}: best fitness bits diverged"
    );
    assert_eq!(reference.trace_json, candidate.trace_json, "{what}: fitness trace diverged");
}

#[test]
fn memoized_evaluation_is_reproducible() {
    let f = fixture();
    for seed in SEEDS {
        for slo in objectives() {
            let a = run_one(&f, seed, slo, Eval::Memo);
            let b = run_one(&f, seed, slo, Eval::Memo);
            assert_byte_identical(&a, &b, "memoized rerun");
            assert_eq!(a, b, "same seed, same memoized run");
        }
    }
}

#[test]
fn memo_off_matches_memo_on_per_seed_and_objective() {
    let f = fixture();
    for seed in SEEDS {
        for slo in objectives() {
            let memo = run_one(&f, seed, slo, Eval::Memo);
            let bare = run_one(&f, seed, slo, Eval::NoMemo);
            assert_byte_identical(&memo, &bare, "memo-off vs memo-on");
            assert!(memo.memoized_groups > 0, "the memoized run must fill its memo");
            assert_eq!(bare.memoized_groups, 0, "a disabled memo stores nothing");
        }
    }
}
