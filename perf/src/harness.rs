//! The run shape every workload shares: set-up blocks of a fixed number of
//! rounds, verification, and the report.
//!
//! A **round** executes the workload's whole seeded decision list once, in
//! order, one caller, closed loop. A run is [`Workload::SETUPS`] **blocks**:
//! each block builds the set-up afresh (one `setup_s` sample) and then
//! executes the same number of rounds. `--seconds` is converted into that
//! number with the workload's frozen [`Workload::ROUND_MS`], so the time
//! budget decides how many samples a run has, never what a round contains,
//! and never depends on how fast the build under test is: every count and
//! every virtual-clock number is a property of one round and repeats
//! exactly, and every timing is a minimum over the same number of samples on
//! both sides of a comparison. Each later round must reproduce the first
//! round's fingerprints.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, supported_tail};
use crate::trace::{TraceTotals, DECISION_SPAN, LAYERS, WHATIF_CALLS, WHATIF_QUERIES};
use dbvirt_calibrate::json::Json;
use dbvirt_telemetry as telemetry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Parsed command line of one workload process.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a decision returns: enough to recompute and compare it.
pub trait Outcome {
    /// Hash of everything the decision decided (allocations, objectives,
    /// completion times — bit-exact), never of how long it took.
    fn fingerprint(&self) -> u64;
}

/// One workload, as the harness drives it: the seeded inputs implement this.
pub trait Workload {
    /// What set-up builds and the workload treats as given (data, grids,
    /// profiles).
    type Env;
    type Answer: Outcome;
    /// Decisions per round.
    const DECISIONS: usize;
    /// Set-ups built per run, one at the head of each block (even, so a
    /// traced run has as many traced blocks as untraced ones). Cheap
    /// set-ups are built more often.
    const SETUPS: usize;
    /// Wall clock of one round on the machine `baseline.json` was taken on,
    /// frozen: what turns `--seconds` into a round count.
    const ROUND_MS: f64;

    fn build(&self) -> Self::Env;
    fn decide(&self, env: &mut Self::Env, i: usize) -> Result<Self::Answer, String>;
}

/// Rounds per block that fill `seconds` at `W::ROUND_MS` per round (at
/// least one).
fn rounds_per_block<W: Workload>(seconds: f64) -> usize {
    ((seconds * 1e3 / W::ROUND_MS / W::SETUPS as f64).round() as usize).max(1)
}

/// Wall-clock samples of a sequence of rounds.
#[derive(Debug, Default)]
pub struct Timing {
    /// Decisions per round: `decision_ms` holds that many samples per round.
    pub per_round: usize,
    pub round_secs: Vec<f64>,
    pub decision_ms: Vec<f64>,
}

impl Timing {
    /// The undisturbed latency of each decision of the round, in ms: its
    /// fastest execution over all rounds.
    ///
    /// Every round runs the identical decision list, so the rounds are
    /// repeated measurements of the same computations. A shared sandbox
    /// slows down and speeds up by tens of percent over seconds to minutes,
    /// and only ever slows a computation down; the minimum over a fixed
    /// number of rounds is the estimate of what a decision costs that such
    /// episodes disturb least, where a mean or any quantile would mostly
    /// measure how many rounds they hit.
    fn best_ms(&self) -> Vec<f64> {
        (0..self.per_round)
            .map(|i| {
                self.decision_ms
                    .iter()
                    .skip(i)
                    .step_by(self.per_round)
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Decisions per second with every decision at its undisturbed latency.
    fn decisions_per_s(&self) -> f64 {
        self.per_round as f64 / (self.best_ms().iter().sum::<f64>() / 1e3)
    }

    /// Decisions completed over the wall clock the rounds actually took,
    /// slow episodes included.
    fn wall_decisions_per_s(&self) -> f64 {
        self.decision_ms.len() as f64 / self.round_secs.iter().sum::<f64>()
    }
}

/// Correctness bookkeeping: every decision and every check is one attempt.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Ground-truth cost of the user's workloads under the advice and under the
/// do-nothing default, summed over the verified decisions (virtual seconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub advised_cost_s: f64,
    pub default_cost_s: f64,
}

/// One workload process.
pub struct Harness {
    pub args: Args,
    inputs_hash: u64,
    checks: Checks,
    setup_secs: Vec<f64>,
    untraced: Timing,
    traced: Timing,
    trace: TraceTotals,
    verify_s: f64,
    quality: Quality,
    /// Workload-specific per-layer values (exact counts from the first
    /// round's outcomes, model errors from verification).
    layer: BTreeMap<&'static str, f64>,
}

impl Harness {
    /// A harness for one run over the seeded `inputs`.
    pub fn new(args: &Args, inputs: &impl std::fmt::Debug) -> Harness {
        Harness {
            args: args.clone(),
            inputs_hash: crate::gen::input_hash(inputs),
            checks: Checks::default(),
            setup_secs: Vec::new(),
            untraced: Timing::default(),
            traced: Timing::default(),
            trace: TraceTotals::default(),
            verify_s: 0.0,
            quality: Quality::default(),
            layer: BTreeMap::new(),
        }
    }

    /// Sets a workload-specific per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Runs the set-up blocks and their timed rounds; returns the last
    /// set-up and the first round's answers (`None` where the decision
    /// failed).
    ///
    /// Each block builds the set-up afresh — untimed by the decision clock,
    /// one `setup_s` sample — and runs the same number of rounds with
    /// telemetry disabled; the first block starts with one unmeasured
    /// warm-up round (allocator, caches and clocks take more than one
    /// decision to settle). Spreading the set-ups over the run instead of
    /// building them back to back lets them sample as many of the host's
    /// speed episodes as the rounds do. In a traced run every other block
    /// runs with `dbvirt_telemetry` enabled and is drained into
    /// [`Harness::trace`] after every round, so traced and untraced rounds
    /// are equally many and interleaved.
    pub fn measure<W: Workload>(&mut self, w: &W) -> (W::Env, Vec<Option<W::Answer>>) {
        telemetry::disable();
        let per_block = rounds_per_block::<W>(self.args.seconds);
        self.untraced.per_round = W::DECISIONS;
        self.traced.per_round = W::DECISIONS;
        let mut first = Vec::new();
        let mut env = None;
        for block in 0..W::SETUPS {
            drop(env.take());
            let t0 = Instant::now();
            let mut built = w.build();
            self.setup_secs.push(t0.elapsed().as_secs_f64());
            if block == 0 {
                for i in 0..W::DECISIONS {
                    let _warm_up = guarded(w, &mut built, i);
                }
            }
            let traced = self.args.trace && block % 2 == 1;
            if traced {
                telemetry::reset();
                telemetry::enable();
            }
            for _ in 0..per_block {
                self.round(w, &mut built, &mut first, traced);
            }
            telemetry::disable();
            env = Some(built);
        }
        (env.expect("SETUPS is at least 1"), first)
    }

    fn round<W: Workload>(
        &mut self,
        w: &W,
        env: &mut W::Env,
        first: &mut Vec<Option<W::Answer>>,
        traced: bool,
    ) {
        let recording = first.is_empty();
        let timing = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        let round_start = Instant::now();
        for i in 0..W::DECISIONS {
            let t0 = Instant::now();
            let out = guarded(w, env, i);
            timing.decision_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if recording {
                self.checks
                    .check(out.is_some(), || format!("decision {i} returned no answer"));
                first.push(out);
            } else {
                let want = first[i].as_ref().map(Outcome::fingerprint);
                let got = out.as_ref().map(Outcome::fingerprint);
                self.checks.check(got.is_some() && got == want, || {
                    format!("decision {i} recomputed to {got:x?}, first round gave {want:x?}")
                });
            }
        }
        timing.round_secs.push(round_start.elapsed().as_secs_f64());
        if traced {
            let drained = self.trace.drain_round();
            self.checks
                .check(drained.is_ok(), || format!("trace invalid: {drained:?}"));
        }
    }

    /// Runs the untimed verification (ground-truth execution of the advice
    /// and of the default, plus the correctness checks) and records what it
    /// cost.
    pub fn verify(&mut self, body: impl FnOnce(&mut Checks) -> Quality) {
        let t0 = Instant::now();
        self.quality = body(&mut self.checks);
        self.verify_s = t0.elapsed().as_secs_f64();
        let q = self.quality;
        self.checks.check(
            q.advised_cost_s > 0.0 && q.default_cost_s > 0.0 && q.advised_cost_s.is_finite(),
            || format!("ground-truth costs must be positive and finite, got {q:?}"),
        );
    }

    /// The ground-truth costs verification measured.
    pub fn quality(&self) -> Quality {
        self.quality
    }

    /// Assembles the report. `whatif_host` is the layer whose spans enclose
    /// this workload's `TimedCostModel` calls (see [`TraceTotals`]).
    pub fn finish(mut self, whatif_host: &'static str) -> Report {
        let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut derived = Vec::new();
        if !self.args.trace {
            let vs_default = self.quality.advised_cost_s / self.quality.default_cost_s;
            // Set-ups are repeated measurements of one computation too, and
            // get the same estimator as the decisions.
            let setup_s = self
                .setup_secs
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            metrics.insert("setup_s", setup_s);
            metrics.insert("decisions_per_s", self.untraced.decisions_per_s());
            metrics.insert("decision_p50_ms", median(&self.untraced.best_ms()));
            metrics.insert("advised_cost_s", self.quality.advised_cost_s);
            metrics.insert("advised_vs_default", vs_default);
            metrics.insert("peak_rss_mb", peak_rss_mib());
            derived = vec![
                ("gain_vs_default_pct", "%", 100.0 * (1.0 - vs_default)),
                (
                    "wall_decisions_per_s",
                    "1/s",
                    self.untraced.wall_decisions_per_s(),
                ),
            ];
        } else {
            self.fill_per_layer(whatif_host);
            for &(name, _, _) in PER_LAYER {
                metrics.insert(name, self.layer.get(name).copied().unwrap_or(0.0));
            }
        }
        let spans = self.trace.spans_json();
        Report {
            args: self.args,
            inputs_hash: self.inputs_hash,
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            metrics,
            derived,
            samples: self.untraced.decision_ms.len(),
            round_secs: self.untraced.round_secs,
            setup_secs: self.setup_secs,
            spans,
            chrome_trace: self.trace.chrome_trace,
        }
    }

    /// Per-layer metrics every workload derives the same way: from the
    /// drained trace, the telemetry counters of the first traced round, and
    /// the timing samples.
    fn fill_per_layer(&mut self, whatif_host: &'static str) {
        let t = &self.trace;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut v: Vec<(&'static str, f64)> = Vec::new();

        let layers = t.layer_self_s(whatif_host);
        let busy: f64 = layers.values().sum();
        for (layer, share) in LAYERS {
            v.push((share, 100.0 * ratio(layers[layer], busy)));
        }

        let statements = t.counter("perf.sql_statements");
        v.push(("sql.statements", statements));
        v.push((
            "sql.parse_bind_us_per_stmt",
            ratio(layers["sql"] * 1e6, statements),
        ));
        v.push(("sql.errors", t.counter("perf.sql_errors")));

        let whatif_calls = t.counter(WHATIF_CALLS);
        v.push(("optimizer.whatif_calls", whatif_calls));
        v.push(("optimizer.whatif_busy_s", t.whatif_busy_s()));
        v.push((
            "optimizer.whatif_us_per_call",
            ratio(t.whatif_busy_s() * 1e6, whatif_calls),
        ));
        v.push((
            "optimizer.plan_us_per_query",
            ratio(t.whatif_busy_s() * 1e6, t.counter(WHATIF_QUERIES)),
        ));

        let cells = t.count("calibrate.cell");
        v.push(("calibrate.cells", cells));
        v.push(("calibrate.probe_runs", t.counter("calibrate.probe_runs")));
        v.push(("calibrate.retries", t.counter("calibrate.retries")));
        v.push(("calibrate.busy_s", layers["calibrate"]));
        v.push((
            "calibrate.ms_per_cell",
            ratio(t.total_s("calibrate.cell") * 1e3, cells),
        ));
        // A grid worker does nothing itself but build and validate its
        // probe database; the cells are its children.
        v.push((
            "calibrate.probedb_build_s",
            t.self_s("calibrate.grid_worker"),
        ));

        v.push(("engine.query_runs", t.count("engine.run_plan")));
        v.push(("engine.busy_s", layers["engine"]));
        v.push((
            "engine.pages_per_s",
            ratio(
                t.counter("bufpool.hits") + t.counter("bufpool.misses"),
                layers["engine"],
            ),
        ));
        v.push((
            "storage.bufpool_hit_ratio",
            ratio(
                t.counter("bufpool.hits"),
                t.counter("bufpool.hits") + t.counter("bufpool.misses"),
            ),
        ));
        v.push(("storage.bufpool_evictions", t.counter("bufpool.evictions")));

        v.push(("core.search_busy_s", layers["core"]));
        v.push((
            "core.cache_hit_ratio",
            ratio(
                t.counter("search.cache.hits"),
                t.counter("search.cache.hits") + t.counter("search.cache.misses"),
            ),
        ));

        let events = t.counter("sched.events");
        v.push(("vmm.sched_busy_s", layers["vmm"]));
        v.push(("vmm.sched_runs", t.count("sched.co_schedule")));
        v.push(("vmm.sched_events", events));
        v.push(("vmm.sched_events_per_s", ratio(events, layers["vmm"])));
        v.push((
            "vmm.sched_vms_touched_per_event",
            ratio(t.counter("sched.vms_touched"), events),
        ));
        v.push((
            "vmm.sched_heap_peak",
            t.gauges.get("sched.heap_peak").copied().unwrap_or(0.0),
        ));

        v.push(("fleet.place_cold_busy_s", t.total_s("fleet.place_cold")));
        v.push(("fleet.place_warm_busy_s", t.total_s("fleet.place_warm")));
        v.push(("fleet.sim_busy_s", t.total_s("fleet.sim")));
        v.push(("fleet.prewarm_cells", t.counter("fleet.prewarm_cells")));
        let solves = t.counter("fleet.solves");
        let memo_hits = t.counter("fleet.solve_memo_hits");
        v.push(("fleet.solves", solves));
        v.push(("fleet.memo_hit_ratio", ratio(memo_hits, solves + memo_hits)));
        v.push((
            "fleet.ls_moves",
            t.counter("fleet.moves_applied") + t.counter("fleet.swaps_applied"),
        ));

        let run_s = t.total_s("controller.loop");
        v.push(("controller.run_busy_s", run_s));
        v.push(("controller.regret_busy_s", t.total_s("controller.regret")));
        v.push((
            "controller.epochs_per_s",
            ratio(t.counter("controller.epochs"), run_s),
        ));
        v.push(("controller.resolves", t.counter("controller.decisions")));
        v.push(("controller.switches", t.counter("controller.switches")));
        v.push((
            "controller.drift_detections",
            t.counter("controller.drift_detections"),
        ));
        v.push((
            "controller.dropped_observations",
            t.counter("controller.dropped_observations"),
        ));

        let design_calls = t.counter("design.whatif_calls");
        v.push(("design.advise_busy_s", layers["design"]));
        v.push(("design.whatif_calls", design_calls));
        v.push((
            "design.cache_hit_ratio",
            ratio(
                t.counter("design.cache_hits"),
                t.counter("design.cache_hits") + design_calls,
            ),
        ));
        v.push(("design.candidates", t.counter("design.candidates")));
        v.push(("design.alternations", t.counter("design.alternations")));

        let untraced_dps = self.untraced.decisions_per_s();
        let traced_dps = self.traced.decisions_per_s();
        v.push((
            "telemetry.overhead_pct",
            100.0 * (untraced_dps / traced_dps - 1.0),
        ));
        v.push(("telemetry.spans_recorded", t.spans_recorded as f64));

        let (tail_ms, tail_rank) = supported_tail(&self.untraced.decision_ms);
        v.push(("perf.decisions", self.untraced.per_round as f64));
        v.push((
            "perf.rounds",
            (self.untraced.round_secs.len() + self.traced.round_secs.len()) as f64,
        ));
        v.push(("perf.decision_tail_ms", tail_ms));
        v.push(("perf.decision_tail_rank", tail_rank));
        v.push(("perf.verify_s", self.verify_s));
        v.push(("perf.coverage_pct", t.coverage_pct()));
        v.push((
            "perf.wall_decisions_per_s",
            self.untraced.wall_decisions_per_s(),
        ));

        for (name, value) in v {
            // Workload-specific values (set before `finish`) win.
            self.layer.entry(name).or_insert(value);
        }
        let coverage = self.layer["perf.coverage_pct"];
        self.checks.check(coverage >= 90.0, || {
            format!("layer spans cover only {coverage:.1}% of decision wall clock (need >= 90%)")
        });
    }
}

/// One decision under its root span; an `Err` or a panic is reported and
/// becomes `None`.
fn guarded<W: Workload>(w: &W, env: &mut W::Env, i: usize) -> Option<W::Answer> {
    let _root = telemetry::span(DECISION_SPAN);
    match catch_unwind(AssertUnwindSafe(|| w.decide(env, i))) {
        Ok(Ok(d)) => Some(d),
        Ok(Err(e)) => {
            eprintln!("decision {i} failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("decision {i} panicked");
            None
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload process reports.
pub struct Report {
    pub args: Args,
    pub inputs_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// What the untraced table prints beside the schema's metrics, as
    /// `(name, unit, value)`: other views of numbers already reported.
    pub derived: Vec<(&'static str, &'static str, f64)>,
    /// Untraced decision samples and round times behind the timing metrics.
    pub samples: usize,
    pub round_secs: Vec<f64>,
    pub setup_secs: Vec<f64>,
    /// Per-span-name totals of the traced rounds (empty when untraced).
    pub spans: Json,
    pub chrome_trace: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The reported metrics with their units, in schema order.
    fn schema(&self) -> Vec<(&'static str, &'static str)> {
        let schema = if self.args.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        schema.iter().map(|&(name, unit, _)| (name, unit)).collect()
    }

    /// The metrics as `{"name": {"value": v, "unit": u}}`.
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.schema()
                .into_iter()
                .map(|(name, unit)| {
                    let value = Json::obj([
                        ("value", Json::Num(self.metrics[name])),
                        ("unit", Json::Str(unit.to_string())),
                    ]);
                    (name.to_string(), value)
                })
                .collect(),
        )
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> String {
        let json = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ]);
        compact(&json)
    }

    /// The per-workload file written to `perf/out/`.
    pub fn file_json(&self) -> Json {
        let secs = |v: &[f64]| Json::Arr(v.iter().map(|&s| Json::Num(s)).collect());
        Json::obj([
            ("workload", Json::Str(self.args.workload.clone())),
            ("seed", Json::Num(self.args.seed as f64)),
            (
                "inputs_hash",
                Json::Str(format!("{:016x}", self.inputs_hash)),
            ),
            ("seconds", Json::Num(self.args.seconds)),
            ("trace", Json::Bool(self.args.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("round_secs", secs(&self.round_secs)),
            ("setup_secs", secs(&self.setup_secs)),
            ("decision_samples", Json::Num(self.samples as f64)),
            ("metrics", self.metrics_json()),
            (
                "derived",
                Json::Obj(
                    self.derived
                        .iter()
                        .map(|&(name, _, value)| (name.to_string(), Json::Num(value)))
                        .collect(),
                ),
            ),
            ("spans", self.spans.clone()),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} run, {} rounds, {} decision samples) ==",
            self.args.workload,
            self.args.seed,
            if self.args.trace {
                "traced"
            } else {
                "untraced"
            },
            self.round_secs.len(),
            self.samples,
        );
        for (name, unit) in self.schema() {
            println!("  {name:<36} {:>16.6} {unit}", self.metrics[name]);
        }
        for (name, unit, value) in &self.derived {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        println!(
            "  {:<36} {:>16.6} failed/attempted ({}/{})",
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

/// `Json::pretty` on one line (string contents are escaped, so stripping
/// the layout newlines and indentation is safe).
pub fn compact(json: &Json) -> String {
    json.pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn compact_json_is_one_line_and_round_trips() {
        let json = Json::obj([
            ("a", Json::Num(1.5)),
            ("s", Json::Str("two\nlines  and spaces".to_string())),
            (
                "o",
                Json::obj([("k", Json::Arr(vec![Json::Bool(true), Json::Null]))]),
            ),
        ]);
        let line = compact(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), json);
    }

    #[test]
    fn best_of_rounds_ignores_slow_episodes() {
        // Three rounds of two decisions; round 1 was hit by a slowdown.
        let timing = Timing {
            per_round: 2,
            round_secs: vec![0.011, 0.029, 0.012],
            decision_ms: vec![4.0, 7.0, 9.0, 20.0, 4.5, 6.5],
        };
        assert_eq!(timing.best_ms(), [4.0, 6.5]);
        assert!((timing.decisions_per_s() - 2.0 / 0.0105).abs() < 1e-9);
        assert!((timing.wall_decisions_per_s() - 6.0 / 0.052).abs() < 1e-9);
    }

    struct Fixed(u64);
    impl Outcome for Fixed {
        fn fingerprint(&self) -> u64 {
            self.0
        }
    }

    fn args(seconds: f64, trace: bool) -> Args {
        Args {
            workload: "test".to_string(),
            seed: 1,
            seconds,
            trace,
        }
    }

    /// Three decisions: 0 answers, 1 always fails, 2 changes its answer
    /// from its third execution on. The set-up counts the builds.
    struct Flaky {
        builds: Cell<u32>,
    }
    impl Workload for Flaky {
        type Env = u64;
        type Answer = Fixed;
        const DECISIONS: usize = 3;
        const SETUPS: usize = 2;
        const ROUND_MS: f64 = 1000.0;
        fn build(&self) -> u64 {
            self.builds.set(self.builds.get() + 1);
            0
        }
        fn decide(&self, executions_of_2: &mut u64, i: usize) -> Result<Fixed, String> {
            match i {
                1 => Err("boom".to_string()),
                2 => {
                    *executions_of_2 += 1;
                    Ok(Fixed(if *executions_of_2 <= 2 { 7 } else { 8 }))
                }
                _ => Ok(Fixed(i as u64)),
            }
        }
    }

    #[test]
    fn seconds_become_a_fixed_round_count() {
        assert_eq!(rounds_per_block::<Flaky>(0.0), 1);
        assert_eq!(rounds_per_block::<Flaky>(4.0), 2);
        assert_eq!(rounds_per_block::<Flaky>(5.2), 3);
    }

    #[test]
    fn blocks_rebuild_and_rounds_count_failures_and_changed_answers() {
        let w = Flaky {
            builds: Cell::new(0),
        };
        let mut h = Harness::new(&args(4.0, false), &());
        let (_, first) = h.measure(&w);
        assert_eq!(w.builds.get(), 2);
        assert_eq!(h.setup_secs.len(), 2);
        assert_eq!(first.len(), 3);
        assert!(first[1].is_none());
        // Two blocks of two rounds.
        assert_eq!(h.untraced.round_secs.len(), 4);
        assert_eq!(h.untraced.decision_ms.len(), 12);
        assert_eq!(h.checks.attempted, 12);
        // Decision 1 fails in every round. Decision 2: the first block's
        // set-up sees the warm-up (7), round 0 (7, recorded) and round 1
        // (8, a mismatch); the second block's fresh set-up gives 7, 7.
        assert_eq!(h.checks.failed, 4 + 1);
    }

    struct Panics;
    impl Workload for Panics {
        type Env = ();
        type Answer = Fixed;
        const DECISIONS: usize = 1;
        const SETUPS: usize = 2;
        const ROUND_MS: f64 = 1.0;
        fn build(&self) {}
        fn decide(&self, _: &mut (), _: usize) -> Result<Fixed, String> {
            panic!("caught")
        }
    }

    #[test]
    fn a_panicking_decision_is_a_failure_not_a_crash() {
        let mut h = Harness::new(&args(0.0, false), &());
        let (_, first) = h.measure(&Panics);
        assert!(first[0].is_none());
        assert_eq!(h.checks.failed, 2);
    }
}
