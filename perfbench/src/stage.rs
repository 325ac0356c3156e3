//! `Compiler::compile` replayed stage by stage through the compiler's
//! public functions, each stage under its own span, plus the output
//! checks every compiled model must pass.

use crate::measure;
use crate::outcome::Outcome;
use crate::trace::Tracer;
use compass::estimate::Estimator;
use compass::fitness::FitnessContext;
use compass::scheduler::{schedule_group, SchedulerOptions};
use compass::{
    baselines, decompose, ga, replication, CompileOptions, CompiledModel, GaTrace, GroupEstimate,
    GroupPlan, PartitionGroup, Strategy, ValidityMap,
};
use pim_arch::ChipSpec;
use pim_isa::ChipProgram;
use pim_model::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the staged compile produced, plus the counters the compiler's
/// own entry point does not expose.
#[derive(Debug)]
pub struct Staged {
    /// The chosen partition group.
    pub group: PartitionGroup,
    /// Replication-optimized partition plans.
    pub plans: GroupPlan,
    /// Per-partition core programs.
    pub programs: Vec<ChipProgram>,
    /// Analytical estimate of the plans.
    pub estimate: GroupEstimate,
    /// The GA trace (COMPASS strategy only).
    pub ga_trace: Option<GaTrace>,
    /// Whole-chromosome memo entries left after the GA.
    pub memo_entries: usize,
    /// Per-segment memo entries left after the GA.
    pub segment_entries: usize,
    /// Valid share of the validity map.
    pub valid_fraction: f64,
}

/// Compiles `network` for `chip` the way `Compiler::compile` does,
/// calling each stage's public function in the same order under spans
/// named after its module: `core.decompose`, `core.validity`,
/// `core.partition` (`FitnessContext::new` + `ga::run`, or the
/// baseline partitioner), `core.plan` (`GroupPlan::build` +
/// `replication::optimize_group`), `core.estimate` and
/// `core.scheduler`, all inside one `core.compile` span.
fn staged_compile(
    t: &mut Tracer,
    detail: &str,
    network: &Network,
    chip: &ChipSpec,
    options: &CompileOptions,
) -> Result<Staged, String> {
    t.span("core.compile", detail, |t| {
        chip.validate().map_err(|e| format!("invalid chip: {}", e.detail()))?;
        let seq = t.span("core.decompose", detail, |_| decompose(network, chip));
        if seq.is_empty() {
            return Err("no weighted layers".into());
        }
        if let Some(unit) = seq.units().iter().find(|u| u.crossbars > chip.crossbars_per_core) {
            return Err(format!("partition unit {} does not fit one core", unit.index));
        }
        let validity = t.span("core.validity", detail, |_| ValidityMap::build(&seq, chip));
        let (group, ga_trace, memo_entries, segment_entries) =
            t.span("core.partition", detail, |_| match options.strategy {
                Strategy::Greedy => (baselines::greedy(&validity), None, 0, 0),
                Strategy::Layerwise => (baselines::layerwise(&seq, &validity), None, 0, 0),
                Strategy::Compass => {
                    let ctx = FitnessContext::new(
                        network,
                        &seq,
                        &validity,
                        chip,
                        options.batch_size,
                        options.fitness,
                    )
                    .with_timing_mode(options.timing_mode)
                    .with_schedule_mode(options.schedule_mode)
                    .with_system_target(options.system.clone());
                    let mut rng = StdRng::seed_from_u64(options.seed);
                    let (best, trace) = ga::run(&ctx, &options.ga, &mut rng);
                    (best.group, Some(trace), ctx.cache_len(), ctx.segment_cache_len())
                }
            });
        let plans = t.span("core.plan", detail, |_| {
            let mut plans = GroupPlan::build(network, &seq, &group);
            replication::optimize_group(&mut plans, chip);
            plans
        });
        let estimate = t.span("core.estimate", detail, |_| {
            let mut estimator = Estimator::new(chip)
                .with_timing_mode(options.timing_mode)
                .with_schedule_mode(options.schedule_mode);
            if let Some(target) = &options.system {
                estimator = estimator.with_system(target);
            }
            estimator.estimate_group(&plans, options.batch_size)
        });
        let programs = t.span("core.scheduler", detail, |_| {
            let scheduler_options = SchedulerOptions {
                batch: options.batch_size,
                chunks_per_sample: options.chunks_per_sample,
                schedule: options.schedule_mode,
            };
            schedule_group(network, plans.plans(), chip, &scheduler_options)
        });
        Ok(Staged {
            group,
            plans,
            programs,
            estimate,
            ga_trace,
            memo_entries,
            segment_entries,
            valid_fraction: validity.valid_fraction(),
        })
    })
}

/// [`staged_compile`], checked against `reference`, what
/// `Compiler::compile` produced for the same network, chip and
/// options: the partition group, partitions and per-core programs must
/// be equal.
pub fn replay_compile(
    t: &mut Tracer,
    detail: &str,
    network: &Network,
    chip: &ChipSpec,
    options: &CompileOptions,
    reference: &CompiledModel,
) -> Result<Staged, String> {
    let staged = staged_compile(t, detail, network, chip, options)?;
    if &staged.group == reference.group()
        && staged.plans.plans() == reference.partitions()
        && staged.programs.as_slice() == reference.programs()
    {
        Ok(staged)
    } else {
        Err("the staged compile differs from Compiler::compile".into())
    }
}

/// The validity map `Compiler::compile` builds internally, rebuilt for
/// the output checks.
pub fn validity_map(network: &Network, chip: &ChipSpec) -> ValidityMap {
    ValidityMap::build(&decompose(network, chip), chip)
}

/// Output checks of one compile: every partition is a valid span of
/// the validity map, the partitions tile all units in order, and there
/// is one program per partition.
pub fn check_compiled(compiled: &CompiledModel, validity: &ValidityMap) -> Result<(), String> {
    let mut next = 0;
    for plan in compiled.partitions() {
        let p = plan.partition;
        if p.start != next {
            return Err(format!("partition {p} does not start at unit {next}"));
        }
        if !validity.is_valid(p.start, p.end) {
            return Err(format!("partition {p} is not a valid span"));
        }
        next = p.end;
    }
    if next != validity.len() || next != compiled.unit_count() {
        return Err(format!("partitions cover {next} of {} units", validity.len()));
    }
    if compiled.programs().len() != compiled.partitions().len() {
        return Err(format!(
            "{} programs for {} partitions",
            compiled.programs().len(),
            compiled.partitions().len()
        ));
    }
    Ok(())
}

/// Per-layer metrics of a set of staged compiles: the mean time of each
/// stage span, and over `staged` (one pass of the workload's compiles)
/// the GA, memo and scheduler counts, with the estimator's predicted
/// throughput over the simulated one (`over_sim`, one ratio per plan)
/// as a geomean. `population` is the GA's initial population.
pub fn report_compiles(
    out: &mut Outcome,
    t: &Tracer,
    staged: &[Staged],
    population: usize,
    over_sim: &[f64],
) {
    for stage in ["decompose", "validity", "partition", "plan", "estimate", "scheduler"] {
        let name = format!("core.{stage}");
        out.layer(&format!("{name}.ms"), t.mean_ms(&name, None), "ms");
    }
    let fractions: Vec<f64> = staged.iter().map(|s| s.valid_fraction).collect();
    out.layer("core.validity.valid_fraction", measure::mean(&fractions), "ratio");

    let traces: Vec<&GaTrace> = staged.iter().filter_map(|s| s.ga_trace.as_ref()).collect();
    let generations: usize = traces.iter().map(|tr| tr.generations.len()).sum();
    let successes: usize = traces.iter().flat_map(|tr| tr.mutation_successes).sum();
    let failures: usize = traces.iter().flat_map(|tr| tr.mutation_failures).sum();
    // Every offspring is one mutation attempt (a failed one falls back
    // to a fresh random individual), so the GA scored its initial
    // population plus one child per attempt.
    let evaluations = traces.len() * population + successes + failures;
    let entries: usize = staged.iter().map(|s| s.memo_entries).sum();
    let segment_entries: usize = staged.iter().map(|s| s.segment_entries).sum();
    out.layer("core.ga.generations", generations as f64, "count");
    out.layer("core.ga.evaluations", evaluations as f64, "count");
    out.layer("core.memo.entries", entries as f64, "count");
    out.layer("core.memo.segment_entries", segment_entries as f64, "count");
    let hit_ratio = if evaluations > 0 { 1.0 - entries as f64 / evaluations as f64 } else { 0.0 };
    out.layer("core.memo.hit_ratio", hit_ratio, "ratio");
    let attempts = successes + failures;
    let success_ratio = if attempts > 0 { successes as f64 / attempts as f64 } else { 0.0 };
    out.layer("core.mutation.success_ratio", success_ratio, "ratio");

    out.layer("core.estimate.over_sim", measure::geomean(over_sim), "ratio");
    let stats: Vec<_> =
        staged.iter().flat_map(|s| s.programs.iter().map(ChipProgram::stats)).collect();
    let instructions: usize = stats.iter().map(|s| s.total()).sum();
    out.layer("core.scheduler.instructions", instructions as f64, "count");
    let writes: usize = stats.iter().map(|s| s.write_weight).sum();
    out.layer("core.scheduler.weight_writes", writes as f64, "count");
    let bits: usize = stats.iter().map(|s| s.weight_write_bits).sum();
    out.layer("core.scheduler.weight_write_bits", bits as f64, "bits");
}
