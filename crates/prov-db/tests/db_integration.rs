//! Cross-backend integration tests for the provenance database: the same
//! chemistry-shaped corpus queried through the document store (filters /
//! projections / sorts / aggregation pipeline) and the PROV graph
//! (traversals) — the backends the paper names MongoDB and Neo4j for
//! (§2.3).

use prov_db::{AggOp, Aggregate, DocQuery, GroupSpec, Op, ProvenanceDatabase};
use prov_model::{obj, TaskMessageBuilder, Value};

/// A small BDE-shaped corpus: 8 bond tasks + 2 setup tasks, chained.
fn seeded_db() -> ProvenanceDatabase {
    let db = ProvenanceDatabase::new();
    db.insert(
        &TaskMessageBuilder::new("conf-0", "chem-wf", "generate_conformer")
            .uses("smiles", "CCO")
            .span(0.0, 1.0)
            .host("frontier00001")
            .build(),
    );
    db.insert(
        &TaskMessageBuilder::new("min-0", "chem-wf", "geometry_minimization")
            .depends_on("conf-0")
            .span(1.0, 3.0)
            .host("frontier00001")
            .build(),
    );
    let bonds = [
        ("C-H_1", 98.2),
        ("C-H_2", 98.9),
        ("C-H_3", 98.6),
        ("C-H_4", 99.4),
        ("C-H_5", 99.1),
        ("C-C_1", 87.3),
        ("C-O_1", 94.2),
        ("O-H_1", 105.1),
    ];
    for (i, (bond, e)) in bonds.iter().enumerate() {
        db.insert(
            &TaskMessageBuilder::new(format!("bde-{i}"), "chem-wf", "run_individual_bde")
                .depends_on("min-0")
                .used(obj! {"frags" => obj! {"label" => *bond}})
                .generated(obj! {"bond_id" => *bond, "bd_energy" => *e})
                .span(3.0 + i as f64, 4.0 + i as f64)
                .host(format!("frontier0000{}", 1 + i % 3))
                .build(),
        );
    }
    db
}

#[test]
fn every_operator_filters_correctly() {
    let db = seeded_db();
    let count = |q: DocQuery| db.count(&q);
    assert_eq!(count(DocQuery::new()), 10);
    assert_eq!(
        count(DocQuery::new().filter("activity_id", Op::Eq, "run_individual_bde")),
        8
    );
    assert_eq!(
        count(DocQuery::new().filter("activity_id", Op::Ne, "run_individual_bde")),
        2
    );
    assert_eq!(
        count(DocQuery::new().filter("generated.bd_energy", Op::Gt, 99.0)),
        3 // C-H_4, C-H_5, O-H_1
    );
    assert_eq!(
        count(DocQuery::new().filter("generated.bd_energy", Op::Gte, 99.1)),
        3
    );
    assert_eq!(
        count(DocQuery::new().filter("generated.bd_energy", Op::Lt, 90.0)),
        1 // the C-C bond
    );
    assert_eq!(
        count(DocQuery::new().filter("generated.bd_energy", Op::Lte, 87.3)),
        1
    );
    assert_eq!(
        count(DocQuery::new().filter("generated.bond_id", Op::Contains, "C-H")),
        5
    );
    assert_eq!(
        count(DocQuery::new().filter("generated.bd_energy", Op::Exists, Value::Null)),
        8
    );
    // Conjunction.
    assert_eq!(
        count(
            DocQuery::new()
                .filter("generated.bond_id", Op::Contains, "C-H")
                .filter("generated.bd_energy", Op::Gt, 99.0)
        ),
        2
    );
}

#[test]
fn nested_projection_sort_and_limit() {
    let db = seeded_db();
    let rows = db.find(
        &DocQuery::new()
            .filter("activity_id", Op::Eq, "run_individual_bde")
            .project(&["generated.bond_id", "generated.bd_energy"])
            .sort_by("generated.bd_energy", false)
            .limit(3),
    );
    assert_eq!(rows.len(), 3);
    // Strongest bond first (O-H), projection keeps only the asked paths.
    // Projections key the output by the full dotted path.
    assert_eq!(
        rows[0].get("generated.bond_id").and_then(Value::as_str),
        Some("O-H_1")
    );
    assert!(rows[0].get("task_id").is_none(), "projected out");
    // Descending order holds across the page.
    let energies: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.get("generated.bd_energy").and_then(Value::as_f64))
        .collect();
    assert!(energies.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn aggregation_pipeline_matches_manual_math() {
    let db = seeded_db();
    let groups = db.aggregate(
        &DocQuery::new().filter("activity_id", Op::Eq, "run_individual_bde"),
        &GroupSpec {
            key: "hostname".to_string(),
            aggs: vec![
                Aggregate {
                    path: "generated.bd_energy".into(),
                    op: AggOp::Count,
                },
                Aggregate {
                    path: "generated.bd_energy".into(),
                    op: AggOp::Mean,
                },
                Aggregate {
                    path: "generated.bd_energy".into(),
                    op: AggOp::Max,
                },
            ],
        },
    );
    // Bond tasks round-robin over three hosts: 3 + 3 + 2.
    assert_eq!(groups.len(), 3);
    let counts: i64 = groups
        .iter()
        .filter_map(|g| g.get("generated.bd_energy_count").and_then(Value::as_i64))
        .sum();
    assert_eq!(counts, 8);
    // Every group's max is within the global range.
    for g in &groups {
        let max = g
            .get("generated.bd_energy_max")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((87.0..=105.2).contains(&max));
        let mean = g
            .get("generated.bd_energy_mean")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(mean <= max);
    }
}

#[test]
fn index_does_not_change_results() {
    // The same query against an indexed and an unindexed store must agree
    // (ProvenanceDatabase::new indexes task_id/activity_id/workflow_id).
    let indexed = seeded_db();
    let plain = prov_db::DocumentStore::new();
    for i in 0..indexed.documents().len() {
        plain.insert(indexed.documents().get(i).unwrap());
    }
    for q in [
        DocQuery::new().filter("activity_id", Op::Eq, "run_individual_bde"),
        DocQuery::new().filter("task_id", Op::Eq, "bde-3"),
        DocQuery::new()
            .filter("workflow_id", Op::Eq, "chem-wf")
            .limit(4),
    ] {
        assert_eq!(indexed.documents().find(&q), plain.find(&q));
    }
}

#[test]
fn graph_traversals_bound_depth_and_direction() {
    let db = seeded_db();
    // bde-0 ← min-0 ← conf-0 (upstream chain).
    let up = db.graph().upstream_lineage("bde-0", 10);
    let ids: Vec<&str> = up.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids, ["min-0", "conf-0"]);
    assert_eq!(up[0].1, 1);
    assert_eq!(up[1].1, 2);
    // Depth bound trims the chain.
    assert_eq!(db.graph().upstream_lineage("bde-0", 1).len(), 1);
    // Downstream impact of the conformer reaches every bond task.
    let down = db.graph().downstream_impact("conf-0", 10);
    assert_eq!(down.len(), 9); // min-0 + 8 bde tasks
                               // Directed shortest path and its absence in the other direction.
    let path = db.graph().shortest_path("bde-7", "conf-0").expect("path");
    assert_eq!(path.len(), 3);
    assert!(db.graph().shortest_path("bde-0", "bde-7").is_none());
    // Property lookup (Neo4j-style).
    let on_host = db
        .graph()
        .nodes_with_prop("hostname", &Value::from("frontier00001"));
    assert!(on_host.len() >= 2);
}

#[test]
fn unified_facade_counts_and_lineage_agree_with_backends() {
    let db = seeded_db();
    assert_eq!(db.insert_count(), 10);
    assert_eq!(db.documents().len(), 10);
    assert_eq!(db.graph().node_count(), 10);
    // The CSR compaction's lineage agrees with the graph backend's.
    let csr: Vec<(String, usize)> = prov_db::CsrGraph::build(db.graph())
        .upstream("bde-0", 10)
        .into_iter()
        .map(|(id, d)| (id.to_string(), d))
        .collect();
    assert_eq!(csr, db.graph().upstream_lineage("bde-0", 10));
    // workflow_tasks pulls everything for the workflow.
    assert_eq!(db.workflow_tasks("chem-wf").len(), 10);
}
