//! Cross-crate integration: workflow → streaming hub → {keeper → database,
//! context manager → agent} → agent self-provenance back through the hub.

use provagent::agent_core::ContextFeeder;
use provagent::prelude::*;
use provagent::prov_keeper;
use provagent::prov_model::MessageType;
use provagent::prov_stream::topics;
use provagent::workflows::{run_bde_workflow, run_sweep};
use std::time::Duration;

#[test]
fn synthetic_pipeline_end_to_end() {
    let hub = StreamingHub::in_memory();
    let db = ProvenanceDatabase::shared();
    let keeper = prov_keeper::start(&hub, db.clone(), prov_keeper::KeeperConfig::default());
    let ctx = ContextManager::default_sized();
    let feeder = ContextFeeder::start(&hub, ctx.clone());

    let sweep = run_sweep(&hub, sim_clock(), 42, 10).expect("sweep");
    assert_eq!(sweep.tasks, 80);

    assert!(keeper.wait_for(80, Duration::from_secs(10)));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ctx.len() < 80 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(feeder);
    assert_eq!(ctx.len(), 80);
    assert_eq!(db.documents().len(), 80);

    // The database answers a point lookup and lineage traversal.
    let some_task = db.find(&provagent::prov_db::DocQuery::new().limit(1));
    assert_eq!(some_task.len(), 1);
    // average_results depends on four upstream tasks transitively.
    let avg_docs = db.find(
        &provagent::prov_db::DocQuery::new()
            .filter("activity_id", provagent::prov_db::Op::Eq, "average_results")
            .limit(1),
    );
    let avg_id = avg_docs[0].get("task_id").unwrap().display_plain();
    let lineage = db.graph().upstream_lineage(&avg_id, 10);
    assert!(
        lineage.len() >= 7,
        "fan-in lineage spans the whole instance"
    );

    // Live agent over the same context.
    let agent = ProvenanceAgent::new(
        ctx,
        hub.clone(),
        Box::new(SimLlmServer::new(ModelId::Gpt)),
        Some(db.clone()),
        sim_clock(),
        AgentConfig::default(),
    );
    let agent_sub = hub.subscribe(topics::AGENT);
    let reply = agent.chat("How many tasks have finished so far?");
    assert!(reply.error.is_none());
    assert!(reply.text.contains("80"), "{}", reply.text);

    // §4.2: the interaction itself became provenance.
    let recorded = agent_sub.drain();
    assert!(recorded
        .iter()
        .any(|m| m.msg_type == MessageType::LlmInteraction));
    assert!(recorded
        .iter()
        .any(|m| m.msg_type == MessageType::ToolExecution));
    keeper.stop();
}

#[test]
fn chemistry_pipeline_preserves_listing1_schema() {
    let hub = StreamingHub::in_memory();
    let db = ProvenanceDatabase::shared();
    let keeper = prov_keeper::start(&hub, db.clone(), prov_keeper::KeeperConfig::default());

    let run = run_bde_workflow(&hub, sim_clock(), 7, "CCO", 2).expect("bde workflow");
    assert!(keeper.wait_for(run.tasks as u64, Duration::from_secs(10)));
    keeper.stop();

    // A run_individual_bde document has the Listing-1 shape after the full
    // broker → keeper → database round trip.
    let bde_docs = db.find(
        &provagent::prov_db::DocQuery::new()
            .filter(
                "activity_id",
                provagent::prov_db::Op::Eq,
                "run_individual_bde",
            )
            .limit(1),
    );
    let doc = &bde_docs[0];
    assert!(doc.get_path("used.frags.label").is_some());
    assert!(doc.get_path("used.outdir").is_some());
    assert!(doc.get_path("generated.bd_energy").is_some());
    assert!(doc.get_path("generated.bd_enthalpy").is_some());
    assert!(doc
        .get_path("hostname")
        .and_then(Value::as_str)
        .is_some_and(|h| h.contains("frontier")));
}

#[test]
fn historical_queries_use_the_database() {
    // Populate only the database; the live buffer stays empty, so the
    // historical route must hit the persistent store.
    let hub = StreamingHub::in_memory();
    let db = ProvenanceDatabase::shared();
    for i in 0..12 {
        db.insert(
            &TaskMessageBuilder::new(format!("old-{i}"), "previous-wf", "run_dft")
                .generates("e0", -155.0)
                .span(i as f64, i as f64 + 2.0)
                .build(),
        );
    }
    let ctx = ContextManager::default_sized();
    // Some live context so the prompt has a schema (mirrors reality:
    // schema inferred live, history in the DB).
    ctx.ingest(
        TaskMessageBuilder::new("live-0", "wf", "run_dft")
            .generates("e0", -155.0)
            .build(),
    );
    let agent = ProvenanceAgent::new(
        ctx,
        hub,
        Box::new(SimLlmServer::new(ModelId::Gpt)),
        Some(db),
        sim_clock(),
        AgentConfig::default(),
    );
    let reply = agent.chat("How many dft tasks ran in the previous campaign?");
    assert_eq!(reply.route, provagent::llm_sim::Route::HistoricalQuery);
    if reply.error.is_none() {
        assert!(
            reply.text.contains("12"),
            "expected the DB count, got: {}",
            reply.text
        );
    }
}

#[test]
fn federated_hub_separates_agent_traffic() {
    let tasks_hub = StreamingHub::new(provagent::prov_stream::PartitionedBroker::shared());
    let agent_hub = StreamingHub::in_memory();
    let fed = provagent::prov_stream::FederatedHub::new(tasks_hub.clone())
        .route("provenance.agent", agent_hub.clone());
    fed.publish(
        topics::AGENT,
        TaskMessageBuilder::new("tool-0", "agent-session", "in_memory_query").build(),
    )
    .unwrap();
    fed.publish(
        topics::TASKS,
        TaskMessageBuilder::new("t0", "wf", "a").build(),
    )
    .unwrap();
    assert_eq!(agent_hub.stats().published, 1);
    assert_eq!(tasks_hub.stats().published, 1);
}

/// Use Case 3 (§5.4): the additive-manufacturing fleet streams through the
/// full pipeline and the *generic* agent answers AM-specific questions via
/// the dynamic dataflow schema — no domain tuning anywhere.
#[test]
fn am_pipeline_generalizes_without_domain_tuning() {
    use provagent::workflows::{run_am_fleet, AmParams, ProspectivePlan};

    let hub = StreamingHub::in_memory();
    let db = ProvenanceDatabase::shared();
    let keeper = prov_keeper::start(&hub, db.clone(), prov_keeper::KeeperConfig::default());
    let ctx = ContextManager::default_sized();
    let feeder = ContextFeeder::start(&hub, ctx.clone());
    let plan_sub = hub.subscribe_tasks();

    let runs = run_am_fleet(&hub, sim_clock(), 42, 8).expect("fleet");
    let total: usize = runs.iter().map(|r| r.run.outputs.len()).sum();
    assert!(keeper.wait_for(total as u64, Duration::from_secs(10)));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ctx.len() < total && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(feeder);
    assert_eq!(ctx.len(), total);

    // The dynamic schema picked up the AM-only fields.
    let columns = ctx.columns();
    for field in ["melt_pool_temp_c", "energy_density_j_mm3", "porosity_pct"] {
        assert!(
            columns.iter().any(|c| c == field),
            "schema missing {field}: {columns:?}"
        );
    }

    // The same generic agent answers AM process questions.
    let agent = ProvenanceAgent::new(
        ctx,
        hub,
        Box::new(SimLlmServer::new(ModelId::Gpt)),
        Some(db),
        sim_clock(),
        AgentConfig::default(),
    );
    let reply = agent.chat("How many laser_scan tasks have finished so far?");
    assert!(reply.error.is_none(), "{:?}", reply.error);
    let scans: usize = runs.iter().map(|r| r.n_layers).sum();
    assert!(
        reply.text.contains(&scans.to_string()),
        "expected {scans} scans in: {}",
        reply.text
    );

    let reply = agent.chat("Which task produced the largest melt_pool_temp_c?");
    assert!(reply.error.is_none(), "{:?}", reply.error);
    assert!(
        reply
            .code
            .as_deref()
            .unwrap_or("")
            .contains("melt_pool_temp_c"),
        "{:?}",
        reply.code
    );

    // Retrospective stream conforms to the prospective plan, per instance.
    let msgs: Vec<TaskMessage> = plan_sub.drain().iter().map(|m| (**m).clone()).collect();
    let params = AmParams::fleet_config(3);
    let dag = provagent::workflows::build_am_dag(
        &params,
        &provagent::workflows::am::ProcessModel::new(42u64.wrapping_add(3)),
    );
    let plan = ProspectivePlan::from_dag("am", &dag);
    let one: Vec<TaskMessage> = msgs
        .iter()
        .filter(|m| m.workflow_id.as_str() == "am-wf-part-003")
        .cloned()
        .collect();
    let report = plan.check(&one);
    assert!(report.conforms(), "{}", report.render());
    keeper.stop();
}

/// Reliability: an at-least-once transport (duplicates + reordering) with a
/// deduplicating keeper yields exactly-once persistence, and the agent's
/// answers are unaffected.
#[test]
fn chaotic_transport_with_dedup_keeper_is_exactly_once() {
    use provagent::prov_stream::{ChaosBroker, ChaosConfig, MemoryBroker};
    use std::sync::Arc;

    let chaos = Arc::new(ChaosBroker::new(
        Arc::new(MemoryBroker::new()),
        ChaosConfig::at_least_once(7),
    ));
    let hub = StreamingHub::new(chaos.clone());
    let db = ProvenanceDatabase::shared();
    let keeper = prov_keeper::start(
        &hub,
        db.clone(),
        prov_keeper::KeeperConfig {
            dedup: true,
            ..prov_keeper::KeeperConfig::default()
        },
    );

    let sweep = run_sweep(&hub, sim_clock(), 42, 10).expect("sweep");
    chaos.flush_held().expect("flush");
    assert!(keeper.wait_for(sweep.tasks as u64, Duration::from_secs(10)));
    keeper.stop();

    let (dropped, duplicated, reordered) = chaos.fault_counts();
    assert_eq!(dropped, 0);
    assert!(duplicated + reordered > 0, "chaos must have fired");
    assert_eq!(
        db.documents().len(),
        sweep.tasks,
        "exactly-once persistence despite {duplicated} duplicates"
    );
}
