//! Golden control-loop bits: what `run_controller` and `account_regret`
//! answer, to the bit, on the eighteen scenarios `perf/`'s `control_loop`
//! workload runs (nine kinds, each through clean and through degraded
//! sensors, eight VMs, twelve share units), on two seeds.
//!
//! `tests/golden/controller_bits.txt` was captured from the commit *before*
//! capped co-scheduling became a per-VM walk and the regret replays a
//! reuse of the controller's own epochs, then cut by its last health field
//! (a quiet-epoch hill climb's move count, 0 on every line) when that
//! climb was deleted (`GOLDEN_REGENERATE=1` rewrites it). `CONTROLLER_REGRET`
//! lines carry four decimals; here the oracle and never-reconfigure costs
//! are pinned to the bit, next to the decision-trace fingerprint and every
//! health counter.

mod common;

use dbvirt::sql::parse_query;
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::fault::{FaultInjector, NoiseModel};
use dbvirt::vmm::MachineSpec;
use dbvirt_controller::{
    account_regret, profile_from_queries, run_controller, ControllerConfig, ProblemTemplate,
    Scenario, VmTemplate, WorkloadProfile,
};
use dbvirt_core::SearchConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/controller_bits.txt";

const KINDS: usize = 9;
const DECISIONS: usize = 2 * KINDS;
const SCALE: f64 = 0.005;
const VMS: usize = 8;
const UNITS: u32 = 12;
const STRETCH: usize = 8;
const SIZE: [f64; VMS] = [1.0, 0.8, 1.3, 1.1, 0.7, 1.2, 0.9, 1.0];

/// `perf/`'s machine for this scale: `dbvirt-bench`'s experiment machine
/// with its memory cut to a quarter.
fn machine() -> MachineSpec {
    MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// The round `perf/src/workloads/control_loop.rs` generates for `seed`.
fn scenarios(seed: u64, cpu: WorkloadProfile, io: WorkloadProfile) -> Vec<Scenario> {
    let mut r = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 4);
    let crowd_vm = r.gen_range(0..VMS);
    let seeds: [u64; DECISIONS] = std::array::from_fn(|_| r.gen_range(0..u64::MAX));
    let sized = |even: WorkloadProfile, odd: WorkloadProfile| -> Vec<WorkloadProfile> {
        (0..VMS)
            .map(|i| if i % 2 == 0 { even } else { odd }.scaled(SIZE[i]))
            .collect()
    };
    let (fwd, rev) = (sized(cpu, io), sized(io, cpu));
    let (m, e) = (machine(), STRETCH);
    let kind = |k: usize, seed: u64| -> Scenario {
        let (fwd, rev) = (fwd.clone(), rev.clone());
        match k {
            0 => Scenario::stationary("stationary", m, fwd, 16 * e, seed),
            1 => Scenario::drifting("drifting", m, fwd, 12 * e, rev, 12 * e, seed),
            2 => Scenario::bursty("bursty", m, fwd, rev, 8 * e, 3 * e, 2, seed),
            3 => Scenario::adversarial("adversarial", m, fwd, rev, 2, 4 * e, seed),
            4 => Scenario::diurnal("diurnal", m, fwd, rev, 6 * e, 2, seed),
            5 => Scenario::flash_crowd(
                "flash-crowd",
                m,
                fwd,
                crowd_vm,
                2.5,
                6 * e,
                4 * e,
                2,
                2 * e,
                seed,
            ),
            6 => Scenario::noisy_neighbor(
                "noisy-neighbor",
                m,
                fwd[1],
                fwd[0],
                fwd[2..].to_vec(),
                8 * e,
                2,
                seed,
            ),
            7 => Scenario::correlated_drift("correlated-drift", m, fwd, rev, 8 * e, seed),
            _ => Scenario::slow_ramp("slow-ramp", m, fwd, rev, 4, 4 * e, seed),
        }
    };
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let sc = kind(i % KINDS, seed);
            if i % 2 == 1 {
                sc.with_variability(0.05).with_noise(FaultInjector::new(
                    NoiseModel::sensor_degraded(0.05, 0.05, 2, 0.02),
                    seed,
                ))
            } else {
                sc
            }
        })
        .collect()
}

fn render_seed(out: &mut String, seed: u64) {
    let t = TpchDb::generate(TpchConfig {
        scale: SCALE,
        seed,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    let plans = |t: &TpchDb, queries: &[TpchQuery]| {
        queries
            .iter()
            .map(|q| parse_query(q.sql(), &t.db).expect("mix SQL"))
            .collect::<Vec<_>>()
    };
    let cpu_mix = plans(&t, &[TpchQuery::Q13, TpchQuery::Q13]);
    let io_mix = plans(&t, &[TpchQuery::Q4, TpchQuery::Q6]);
    let cpu = profile_from_queries(&t.db, &cpu_mix, machine(), 4.0, 2.0).expect("cpu profile");
    let io = profile_from_queries(&t.db, &io_mix, machine(), 2.0, 3.0).expect("io profile");
    let template = ProblemTemplate {
        machine: machine(),
        vms: (0..VMS)
            .map(|i| VmTemplate {
                name: format!("vm{i}"),
                db: &t.db,
                base_query: if i % 2 == 0 { &cpu_mix[0] } else { &io_mix[0] }.clone(),
            })
            .collect(),
    };
    let config = ControllerConfig::new(SearchConfig::for_workloads(UNITS, VMS));
    for (i, scenario) in scenarios(seed, cpu, io).iter().enumerate() {
        let o = run_controller(scenario, &template, &config).expect("controller run");
        let r = account_regret(scenario, &template, &config, &o).expect("regret");
        let h = &o.health;
        writeln!(
            out,
            "seed={seed} i={i} {} trace={:016x} total={:016x} final_us={} oracle={:016x} \
             never={:016x} oracle_switches={} suboptimal_epochs={} suboptimal_s={:016x} \
             health={}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
            scenario.name,
            o.trace_fingerprint(),
            o.total_cost.to_bits(),
            o.final_time.as_micros(),
            r.oracle_cost.to_bits(),
            r.never_cost.to_bits(),
            r.oracle_switches,
            r.suboptimal_epochs,
            r.suboptimal_seconds.to_bits(),
            h.epochs,
            h.observations,
            h.dropped_observations,
            h.dropout_vm_epochs,
            h.max_staleness,
            h.drift_detections,
            h.decisions,
            h.switches,
            h.governor_vetoes,
            h.prescheduled_switches,
            h.prediction_hits,
            h.prediction_misses,
            h.localized_solves,
        )
        .expect("write to string");
    }
}

pub fn render() -> String {
    let mut out = String::new();
    for seed in [11, 12] {
        render_seed(&mut out, seed);
    }
    out
}

#[test]
fn every_scenario_answers_the_committed_bits() {
    common::assert_golden(GOLDEN, &render());
}
