//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --bin repro --release            # everything
//! cargo run -p bench --bin repro --release -- --fig8  # one artifact
//! ```
//!
//! Writes CSVs next to the textual output under `target/repro/`.

use agent_core::RagStrategy;
use eval::{
    evaluate_routing, fig6, fig7, fig8, fig9, latency_deep_dive, latency_report, render_demo,
    run_chem_demo, run_paper_evaluation, scoring_agreement, table1, table2, to_csv, Experiment,
};
use llm_sim::count_tokens;
use prov_model::sim_clock;
use prov_stream::StreamingHub;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Hidden child mode for `--provdb`: measure exactly one entry in a
    // fresh process (its fixtures built once, its two sides interleaved)
    // and print the reference and engine medians, in seconds, to stdout.
    if let Some(pos) = args.iter().position(|a| a == "--provdb-measure") {
        let which = args.get(pos + 1).cloned().unwrap_or_default();
        if which == "pin-stall" {
            pin_stall();
        } else {
            let entry = ENTRIES
                .iter()
                .find(|e| e.name == which)
                .unwrap_or_else(|| panic!("unknown provdb entry `{which}`"));
            let (reference, engine) = measure_entry(entry);
            println!("{reference} {engine}");
        }
        return;
    }

    // Bench-regression gate: `repro --check-bench <committed.json>
    // <fresh.json> [tolerance] [--summary]` exits non-zero when any
    // entry's ratio (reference / engine, both measured in one child) in
    // the fresh report falls more than `tolerance` (default 0.20) below
    // the committed one. CI runs this after regenerating
    // `BENCH_provdb.json`; with `--summary` the comparison is printed as
    // a markdown table (appended to `$GITHUB_STEP_SUMMARY` by the bench
    // job, so regressions are readable without downloading the artifact).
    if let Some(pos) = args.iter().position(|a| a == "--check-bench") {
        let committed = args
            .get(pos + 1)
            .expect("--check-bench <committed> <fresh>");
        let fresh = args
            .get(pos + 2)
            .expect("--check-bench <committed> <fresh>");
        let tolerance = args
            .get(pos + 3)
            .and_then(|t| t.parse::<f64>().ok())
            .unwrap_or(0.20);
        let summary = args.iter().any(|a| a == "--summary");
        std::process::exit(check_bench_regression(committed, fresh, tolerance, summary));
    }

    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag);

    let experiment = Experiment::default();
    println!(
        "provagent repro — seed {}, {} synthetic inputs, {} runs/query\n",
        experiment.seed, experiment.n_inputs, experiment.runs_per_query
    );

    if want("--table1") {
        println!("{}", table1());
    }
    if want("--table2") {
        println!("{}", table2());
    }

    let needs_matrix = want("--fig6")
        || want("--fig7")
        || want("--fig8")
        || want("--fig9")
        || want("--latency")
        || want("--csv");
    if needs_matrix {
        eprintln!("running evaluation matrix (5 models × configs × 20 queries × 3 runs)…");
        let results = run_paper_evaluation(&experiment);
        if want("--fig6") {
            println!("{}", fig6(&results));
        }
        if want("--fig7") {
            println!("{}", fig7(&results));
        }
        if want("--fig8") {
            println!("{}", fig8(&results));
        }
        if want("--fig9") {
            println!("{}", fig9(&results));
        }
        if want("--latency") {
            println!("{}", latency_report(&results));
        }
        if want("--latency-deep") {
            println!("{}", latency_deep_dive(&results));
        }
        let dir = std::path::Path::new("target/repro");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join("records.csv");
            if let Ok(mut f) = std::fs::File::create(&path) {
                let _ = f.write_all(to_csv(&results).as_bytes());
                eprintln!("wrote {}", path.display());
            }
        }
    }

    if want("--chem") {
        eprintln!("running §5.3 chemistry live-interaction demo (ethanol)…");
        let observations = run_chem_demo(7);
        println!("{}", render_demo(&observations));
    }

    if want("--am") {
        eprintln!("running the additive-manufacturing live-interaction study (§5.4 third domain)…");
        let observations = eval::run_am_demo(42, 8);
        println!("{}", eval::render_am_demo(&observations));
    }

    if want("--scale") {
        println!("{}", scale_independence());
    }

    if want("--scoring") {
        eprintln!("comparing the three §3 scoring methods on GPT generations…");
        let report = scoring_agreement(&experiment, llm_sim::ModelId::Gpt, llm_sim::JudgeId::Gpt);
        println!("{}", report.render());
    }

    if want("--provdb") {
        eprintln!("benchmarking the provenance database: reference vs engine path per entry…");
        let report = provdb_benchmark();
        println!("{}", report.render());
        let path = std::path::Path::new("BENCH_provdb.json");
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    if want("--routing") {
        eprintln!("training + evaluating the per-class LLM router (two seeds)…");
        let train = Experiment::default();
        let test = Experiment {
            seed: 1337,
            ..Experiment::default()
        };
        let outcome = evaluate_routing(&train, &test, llm_sim::JudgeId::Gpt);
        println!("{}", outcome.policy.render());
        println!("{}", outcome.render());
    }
}

/// Compare two `BENCH_provdb.json` reports: exit code 0 when every
/// entry's `speedup` (reference / engine) in `fresh` is at least
/// `(1 - tolerance) ×` the committed one, 1 on regression or a missing
/// entry, 2 on unreadable/malformed input. Keys without a `speedup` are
/// metadata and skipped; entries only `fresh` has are not checked. The
/// tolerance absorbs runner noise; the committed file is the floor the
/// perf work locked in. The gate compares ratios, not absolute times,
/// because the committed file and a CI run come from different machines.
/// With `summary` the comparison is rendered as a markdown table (for CI
/// step summaries) instead of plain log lines.
fn check_bench_regression(
    committed_path: &str,
    fresh_path: &str,
    tolerance: f64,
    summary: bool,
) -> i32 {
    use prov_model::{json, Value};

    fn load(path: &str) -> Option<Value> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("check-bench: cannot read {path}: {e}"))
            .ok()?;
        json::from_str(&text)
            .map_err(|e| eprintln!("check-bench: cannot parse {path}: {e}"))
            .ok()
    }

    let (Some(committed_report), Some(fresh)) = (load(committed_path), load(fresh_path)) else {
        return 2;
    };
    let Some(committed) = committed_report.as_object() else {
        eprintln!("check-bench: {committed_path} is not a JSON object");
        return 2;
    };

    // Ratios are only comparable between like runners: a committed
    // 2-core ratio replayed on another core count shifts every
    // parallel-sensitive one, so say what each run saw.
    fn runner_line(report: &Value) -> String {
        let Some(r) = report.get("runner") else {
            return "unrecorded (pre-PR5 report)".to_string();
        };
        let count = |key: &str| {
            r.get(key)
                .and_then(Value::as_i64)
                .map(|n| n.to_string())
                .unwrap_or_else(|| "?".to_string())
        };
        let with_override = |key: &str| match r.get(key).and_then(Value::as_str) {
            Some(v) => format!(" (override {v})"),
            None => String::new(),
        };
        format!(
            "{} core(s), {} shard(s){}",
            count("cores_detected"),
            count("document_store_shards"),
            with_override("shards_override"),
        )
    }

    if summary {
        println!(
            "### prov-db bench: committed vs fresh (tolerance {:.0}%)\n",
            tolerance * 100.0
        );
        println!("- committed runner: {}", runner_line(&committed_report));
        println!("- fresh runner: {}\n", runner_line(&fresh));
        println!("| metric | committed | fresh | floor | status |");
        println!("|---|---:|---:|---:|:---:|");
    }
    let mut checked = 0;
    let mut failures = 0;
    for (metric, entry) in committed {
        let Some(want) = entry.get("speedup").and_then(Value::as_f64) else {
            continue; // metadata keys (generated_by, notes, …)
        };
        let got = fresh
            .get_path(&format!("{metric}.speedup"))
            .and_then(Value::as_f64);
        checked += 1;
        // Parity entries assert "both sides coincide" (speedup ≈ 1.0, e.g.
        // the disk-bound durability tax) rather than a locked-in win;
        // around 1.0x the ratio is pure scheduler noise in both
        // directions, so the gate triples its tolerance there — a genuine
        // regression still trips it, random jitter cannot.
        let parity = entry
            .get("parity")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let tol = if parity {
            (tolerance * 3.0).min(0.9)
        } else {
            tolerance
        };
        let floor = want * (1.0 - tol);
        let status_ok = if parity { "ok (parity)" } else { "ok" };
        match got {
            Some(got) if got >= floor => {
                if summary {
                    println!("| {metric} | {want:.1}x | {got:.1}x | {floor:.1}x | {status_ok} |");
                } else {
                    println!("check-bench: ok   {metric}: {got:.1}x (floor {floor:.1}x)");
                }
            }
            Some(got) => {
                if summary {
                    println!("| {metric} | {want:.1}x | {got:.1}x | {floor:.1}x | **REGRESSED** |");
                }
                eprintln!(
                    "check-bench: FAIL {metric}: fresh {got:.2}x is more than {:.0}% below committed {want:.2}x",
                    tol * 100.0
                );
                failures += 1;
            }
            None => {
                if summary {
                    println!("| {metric} | {want:.1}x | — | {floor:.1}x | **MISSING** |");
                }
                eprintln!("check-bench: FAIL {metric}: missing from {fresh_path}");
                failures += 1;
            }
        }
    }
    if checked == 0 {
        eprintln!("check-bench: no speedup metrics found in {committed_path}");
        return 2;
    }
    if summary {
        println!();
    }
    if failures > 0 {
        1
    } else {
        println!("check-bench: {checked} metrics within tolerance");
        0
    }
}

/// One `BENCH_provdb.json` entry: one job done two ways by today's
/// engine, a reference path and the engine path the entry locks in. Both
/// sides run in one child process, alternating round by round, so drift
/// on the machine moves both alike and cancels out of their ratio.
struct Entry {
    name: &'static str,
    /// `ms` or `µs`: the unit both sides are reported in.
    unit: &'static str,
    /// Timed runs per side.
    rounds: usize,
    /// Parity entries assert both sides coincide (ratio ≈ 1.0x) rather
    /// than lock in a win; the check-bench gate widens its tolerance for
    /// them so scheduler noise around 1.0x cannot fail CI.
    parity: bool,
    /// What the reference side runs.
    reference: &'static str,
    /// What the engine side runs.
    engine: &'static str,
}

const MS: &str = "ms";
const US: &str = "\u{b5}s";

/// Every entry, in report order. `rounds` is sized so that each entry's
/// timed window spans seconds: a window of a tenth of a second samples
/// one moment of a shared machine's contention, which slows the two
/// sides unequally. An entry whose ratio flakes between runs of one
/// commit gets more rounds, never more tolerance.
const ENTRIES: &[Entry] = &[
    Entry {
        name: "batch_ingest_100k_ms",
        unit: MS,
        rounds: 9,
        parity: false,
        reference: "eager insert_batch of the 100k messages into a fresh in-memory store \
                    (serialize and install every view)",
        engine: "the streaming accept path: insert_batch_shared of the broker's Arc handles \
                 into a fresh in-memory store (views materialize later, batched)",
    },
    Entry {
        name: "batch_ingest_100k_materialized_ms",
        unit: MS,
        rounds: 15,
        parity: false,
        reference: "DataFrame::from_messages over the same 100k messages",
        engine: "accept plus flush_views: every view of a fresh in-memory store built",
    },
    Entry {
        name: "indexed_find_p50_us",
        unit: US,
        rounds: 601,
        parity: false,
        reference: "the DocQuery workflow_id == wf-7 (2,000 hits) on an unindexed \
                    DocumentStore holding the same 100k documents",
        engine: "the same DocQuery through db.find, answered from the hash index",
    },
    Entry {
        name: "groupby_aggregate_100k_ms",
        unit: MS,
        rounds: 41,
        parity: false,
        reference: "group-by activity_id, mean and count of y, by the frame's GroupBy over \
                    the pre-built oracle frame",
        engine: "db.aggregate with the same GroupSpec over the document store",
    },
    Entry {
        name: "query_pushdown_vs_scan",
        unit: MS,
        rounds: 7,
        parity: false,
        reference: "a selective find and a filtered group-by, each on a fresh snapshot's \
                    oracle frame (the whole corpus built into a frame per query)",
        engine: "the same two queries planned and run through execute_plan (hash-index \
                 probes, projected frame over the surviving documents only)",
    },
    Entry {
        name: "columnar_find",
        unit: US,
        rounds: 201,
        parity: false,
        reference: "a selective two-column find run by the stage machine over the \
                    snapshot's pre-built oracle frame",
        engine: "the pushed scan, which builds the frame straight from the column vectors",
    },
    Entry {
        name: "columnar_aggregate",
        unit: MS,
        rounds: 601,
        parity: false,
        reference: "an unselective corpus-wide group-by over the pre-built oracle frame",
        engine: "the pushed scan over the column vectors",
    },
    Entry {
        name: "topk_find",
        unit: MS,
        rounds: 201,
        parity: false,
        reference: "sort_values(started_at).head(5): the whole pre-built oracle frame sorted \
                    per call",
        engine: "the pushed top-k scan (sorted-index cursor or bounded per-shard selection \
                 over the column vectors, zero document decodes)",
    },
    Entry {
        name: "dict_filter",
        unit: MS,
        rounds: 201,
        parity: false,
        reference: "an unindexed hostname isin filter evaluated row by row over the \
                    pre-built oracle frame",
        engine: "the dictionary kernel (literals compiled to shard-local codes, zone maps \
                 skipping chunks, selection vectors)",
    },
    Entry {
        name: "vectorized_groupby",
        unit: MS,
        rounds: 201,
        parity: false,
        reference: "mean duration by hostname over the pre-built oracle frame (per-row \
                    Vec<Value> hash keys)",
        engine: "the code-based group-by over dictionary codes",
    },
    Entry {
        name: "mixed_load",
        unit: MS,
        rounds: 5,
        parity: false,
        reference: "12 ingest bursts of 256 messages, each followed by a 48-query dashboard \
                    storm, on one thread: pin and try pushdown per query, otherwise re-run \
                    the stages over a generation-keyed whole-frame cache",
        engine: "the same workload with each storm submitted to the QueryServer pool \
                 (generation-pinned snapshots, plan-keyed result cache)",
    },
    Entry {
        name: "graph_traverse",
        unit: MS,
        rounds: 9,
        parity: false,
        reference: "the upstream closure of the deepest task of a million-edge layered \
                    lineage DAG by the locking adjacency-map traversal (the differential \
                    oracle)",
        engine: "the same closure by the CSR kernels (built once, outside the timed region)",
    },
    Entry {
        name: "graph_khop",
        unit: MS,
        rounds: 4001,
        parity: false,
        reference: "the 4-hop any-relation neighborhood of a mid-graph task by the \
                    adjacency-map traversal",
        engine: "the same neighborhood by the CSR kernels",
    },
    Entry {
        name: "wal_ingest",
        unit: MS,
        rounds: 7,
        parity: true,
        reference: "accept plus flush_views of the 100k messages into an in-memory store",
        engine: "the same into a fresh durable store (every drained batch in the WAL under \
                 PROVDB_WAL_SYNC, chunks sealed into segments, the sealer joined)",
    },
    Entry {
        name: "recovery_replay",
        unit: MS,
        rounds: 31,
        parity: false,
        reference: "rebuild by re-ingesting the 100k source messages (eager insert_batch)",
        engine: "ProvenanceDatabase::open of the durable directory they were flushed to \
                 (segment footers plus the WAL tail)",
    },
    Entry {
        name: "cold_open",
        unit: MS,
        rounds: 21,
        parity: false,
        reference: "ProvenanceDatabase::open_replayed of an explicitly sealed directory \
                    (every sealed row replayed into RAM)",
        engine: "the lazy open of the same directory",
    },
    Entry {
        name: "out_of_core_scan",
        unit: MS,
        rounds: 201,
        parity: true,
        reference: "the dict_filter scan on the sealed directory opened resident \
                    (open_replayed)",
        engine: "the same scan on the same directory opened lazily under a 4 MiB resident \
                 budget, re-paging chunks on every probe",
    },
];

/// Both sides of one entry, in the entry's unit.
struct Measurement {
    entry: &'static Entry,
    reference: f64,
    engine: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        if self.engine > 0.0 {
            self.reference / self.engine
        } else {
            f64::INFINITY
        }
    }
}

/// Observability numbers from one mixed-load run through the serving
/// stack (committed as the `mixed_load_profile` metadata object — no
/// `speedup` key, so the regression gate reads past it).
struct MixedLoadProfile {
    workers: usize,
    ingest_msgs_per_s: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The `--provdb` report backing `BENCH_provdb.json`.
struct ProvDbReport {
    messages: usize,
    shards: usize,
    /// Cores the runner actually reported: ratios from runners with
    /// different core counts must be distinguishable, not silently
    /// compared.
    cores: usize,
    shards_override: Option<String>,
    /// Rows per column chunk (zone-map granule) the stores ran with.
    chunk: usize,
    chunk_override: Option<String>,
    /// Resident-set budget (MiB) lazily opened stores page within.
    resident_mb: usize,
    resident_override: Option<String>,
    measurements: Vec<Measurement>,
    mixed: MixedLoadProfile,
}

impl ProvDbReport {
    fn render(&self) -> String {
        let override_note = |raw: &Option<String>| match raw {
            Some(v) => format!(" (override {v})"),
            None => String::new(),
        };
        let mut out = format!(
            "Provenance DB: reference vs engine path of today's engine, interleaved in one \
             child per entry ({} task messages, {} shards).\nrunner: {} core(s), {} shard(s){}, {}-row chunks{}, {} MiB resident budget{}\n{:<34} {:>14} {:>14} {:>10}\n",
            self.messages,
            self.shards,
            self.cores,
            self.shards,
            override_note(&self.shards_override),
            self.chunk,
            override_note(&self.chunk_override),
            self.resident_mb,
            override_note(&self.resident_override),
            "entry",
            "reference",
            "engine",
            "ratio"
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "{:<34} {:>11.3} {} {:>11.3} {} {:>9.1}x\n",
                m.entry.name,
                m.reference,
                m.entry.unit,
                m.engine,
                m.entry.unit,
                m.speedup()
            ));
        }
        out.push_str(&format!(
            "mixed-load profile ({} workers): ingest {:.0} msg/s, query p50 {:.0} \u{b5}s, \
             p99 {:.0} \u{b5}s over {} queries ({} cache hits / {} misses)\n",
            self.mixed.workers,
            self.mixed.ingest_msgs_per_s,
            self.mixed.query_p50_us,
            self.mixed.query_p99_us,
            self.mixed.queries,
            self.mixed.cache_hits,
            self.mixed.cache_misses,
        ));
        out
    }

    fn to_json(&self) -> String {
        use prov_model::{json, Map, Value};
        let mut root = Map::new();
        root.insert("generated_by".into(), Value::from("repro --provdb"));
        root.insert("corpus_messages".into(), Value::from(self.messages));
        root.insert("document_store_shards".into(), Value::from(self.shards));
        let mut runner = Map::new();
        runner.insert("cores_detected".into(), Value::from(self.cores));
        runner.insert("document_store_shards".into(), Value::from(self.shards));
        let or_null = |raw: &Option<String>| raw.as_deref().map(Value::from).unwrap_or(Value::Null);
        runner.insert("shards_override".into(), or_null(&self.shards_override));
        runner.insert("chunk_rows".into(), Value::from(self.chunk));
        runner.insert("chunk_override".into(), or_null(&self.chunk_override));
        runner.insert("resident_mb".into(), Value::from(self.resident_mb));
        runner.insert("resident_override".into(), or_null(&self.resident_override));
        root.insert("runner".into(), Value::object(runner));
        root.insert(
            "method".into(),
            Value::from(
                "Every entry compares two paths of today's engine for one job: a reference \
                 path and the engine path the entry locks in. Each entry runs in its own \
                 child process, which builds its fixtures once and then times the two \
                 sides alternately for `rounds` rounds, reference then engine. \
                 `reference` and `engine` are the medians of each side (in \
                 `unit`), and `speedup` is reference / engine. Drift on the machine moves \
                 both sides of one entry alike, so it cancels out of the ratio; the \
                 check-bench gate compares these ratios, not absolute times, because the \
                 committed file and a CI run come from different machines. Each entry's \
                 `notes` names its two sides.",
            ),
        );
        root.insert(
            "notes".into(),
            Value::from(
                "parity: true marks a contrast expected near or below 1.0x (the durability \
                 tax, the paged-read tax under a 4 MiB budget); the gate triples its \
                 tolerance there and only guards against collapse. mixed_load_profile \
                 carries the observability numbers of one serving run (ingest throughput, \
                 query p50/p99, cache hit/miss counts) and has no speedup key, so the gate \
                 skips it. The runner object records the detected core count, shard \
                 count, chunk size and resident budget, with any PROVDB_SHARDS, \
                 PROVDB_CHUNK or PROVDB_RESIDENT_MB override in effect. The \
                 crash-consistency contract is enforced by the recovery and out-of-core \
                 differential suites and the crash_harness binary, not by these timings \
                 (see docs/durability.md).",
            ),
        );
        let mut profile = Map::new();
        profile.insert("workers".into(), Value::from(self.mixed.workers));
        profile.insert(
            "ingest_msgs_per_s".into(),
            Value::from(self.mixed.ingest_msgs_per_s),
        );
        profile.insert("query_p50_us".into(), Value::from(self.mixed.query_p50_us));
        profile.insert("query_p99_us".into(), Value::from(self.mixed.query_p99_us));
        profile.insert("queries".into(), Value::from(self.mixed.queries as i64));
        profile.insert(
            "cache_hits".into(),
            Value::from(self.mixed.cache_hits as i64),
        );
        profile.insert(
            "cache_misses".into(),
            Value::from(self.mixed.cache_misses as i64),
        );
        root.insert("mixed_load_profile".into(), Value::object(profile));
        for m in &self.measurements {
            let mut entry = Map::new();
            entry.insert("reference".into(), Value::from(m.reference));
            entry.insert("engine".into(), Value::from(m.engine));
            entry.insert("unit".into(), Value::from(m.entry.unit));
            entry.insert("speedup".into(), Value::from(m.speedup()));
            entry.insert("rounds".into(), Value::from(m.entry.rounds));
            entry.insert(
                "notes".into(),
                Value::from(format!(
                    "reference: {}. engine: {}.",
                    m.entry.reference, m.entry.engine
                )),
            );
            if m.entry.parity {
                entry.insert("parity".into(), Value::Bool(true));
            }
            root.insert(m.entry.name.into(), Value::object(entry));
        }
        json::to_string_pretty(&Value::object(root))
    }
}

/// Build the 100k-message benchmark corpus (PROV-AGENT-shaped task
/// messages: payloads, spans, hosts, 50 workflows, 8 activities).
fn provdb_corpus() -> Vec<prov_model::TaskMessage> {
    const N: usize = 100_000;
    (0..N)
        .map(|i| {
            prov_model::TaskMessageBuilder::new(
                format!("t{i}"),
                format!("wf-{}", i % 50),
                format!("act{}", i % 8),
            )
            .host(format!("node{:03}", i % 64))
            .uses("x", i as f64)
            .generates("y", (i * 2) as f64)
            .span(i as f64, i as f64 + 1.0)
            .build()
        })
        .collect()
}

/// `--provdb-measure pin-stall`: how long a snapshot pin and an ingest
/// flush wait while the store seals. A durable store at the default
/// `Config` takes 80,000 messages of the bench corpus in 64-message
/// `flush_views` batches (two or more seals at the default geometry)
/// while a reader pins a snapshot every 2 ms; prints p50, p99 and max of
/// both, in ms.
fn pin_stall() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    let msgs: Vec<std::sync::Arc<prov_model::TaskMessage>> = provdb_corpus()
        .into_iter()
        .take(80_000)
        .map(std::sync::Arc::new)
        .collect();
    let dir = std::env::temp_dir().join(format!("provdb-bench-pin-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = prov_db::ProvenanceDatabase::open_with(&dir, prov_db::Config::default())
        .expect("open the pin-stall store");
    let done = AtomicBool::new(false);
    let (mut pins, mut flushes) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut pins = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let t = Instant::now();
                let snap = db.snapshot();
                pins.push(t.elapsed());
                drop(snap);
                std::thread::sleep(Duration::from_millis(2));
            }
            pins
        });
        let flushes: Vec<Duration> = msgs
            .chunks(64)
            .map(|batch| {
                let t = Instant::now();
                db.insert_batch_shared(batch.iter().cloned());
                db.flush_views().expect("flush");
                t.elapsed()
            })
            .collect();
        done.store(true, Ordering::Relaxed);
        (reader.join().expect("reader"), flushes)
    });
    db.wait_for_seal().expect("seal");
    let stats = db.durable_stats().expect("durable");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let summary = |v: &mut Vec<Duration>| {
        v.sort();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let at = |q: usize| ms(v[(v.len() * q / 100).min(v.len() - 1)]);
        format!(
            "n {} p50 {:.3} ms p99 {:.3} ms max {:.3} ms",
            v.len(),
            at(50),
            at(99),
            ms(*v.last().expect("samples"))
        )
    };
    println!("pin-stall pin:   {}", summary(&mut pins));
    println!("pin-stall flush: {}", summary(&mut flushes));
    println!(
        "pin-stall store: sealed_slots {} segments {} compactions {}",
        stats.sealed_slots, stats.segments, stats.compactions
    );
}

/// Seed `root` with the benchmark corpus as a durable store and seal
/// every complete chunk into columnar segments, so a reopen finds sealed
/// coverage with only the chunk-unaligned remainder left in the WAL tail
/// — the store shape the cold-open and out-of-core measurements contrast.
fn seed_sealed_store(root: &std::path::Path, msgs: &[prov_model::TaskMessage]) {
    let _ = std::fs::remove_dir_all(root);
    let shared: Vec<std::sync::Arc<prov_model::TaskMessage>> =
        msgs.iter().cloned().map(std::sync::Arc::new).collect();
    let db = prov_db::ProvenanceDatabase::open(root).expect("seed sealed bench store");
    db.insert_batch_shared(shared);
    db.flush_views().expect("flush");
    db.seal_now().expect("seal bench store");
}

fn provdb_find_query() -> prov_db::DocQuery {
    use prov_db::Op;
    prov_db::DocQuery::new().filter("workflow_id", Op::Eq, "wf-7")
}

/// The selective agent queries behind `query_pushdown_vs_scan`: a
/// filtered find with a projection, and a filtered group-by aggregate —
/// the §5.2 interactive shapes. Both are plannable (equality conjunct on
/// the indexed `workflow_id`, bounded output columns), so the pushdown
/// path touches ~2k of the 100k documents where the scan path
/// materializes every one into a frame per query.
fn pushdown_queries() -> Vec<provql::Query> {
    [
        r#"df[df["workflow_id"] == "wf-7"][["task_id", "y"]]"#,
        r#"df[df["workflow_id"] == "wf-7"].groupby("activity_id")["y"].mean()"#,
    ]
    .iter()
    .map(|t| provql::parse(t).expect("bench query parses"))
    .collect()
}

/// The queries behind `columnar_find` and `columnar_aggregate`: a
/// selective projected find over columnar columns only, and an unselective
/// corpus-wide group-by aggregate over columnar columns. Both are measured
/// on the *current* engine — the stage machine over the snapshot's
/// pre-built oracle frame vs the pushed scan on the same snapshot, which
/// materializes the frame straight from the column vectors.
fn columnar_queries() -> (provql::Query, provql::Query) {
    (
        provql::parse(r#"df[df["workflow_id"] == "wf-7"][["task_id", "duration"]]"#)
            .expect("bench query parses"),
        provql::parse(r#"df.groupby("activity_id")["duration"].mean()"#)
            .expect("bench query parses"),
    )
}

/// The query behind `dict_filter`: an unindexed membership filter over a
/// 64-symbol dictionary column. Neither engine path gets index help here
/// (hostname carries no hash index), so the contrast is pure scan
/// machinery: evaluate the isin predicate row by row over the pre-built
/// oracle frame vs the dictionary kernel — the literal list is
/// compiled to shard-local code sets once, chunked zone maps skip
/// granules whose code range misses the set, and the survivors come out
/// of a branch-light selection-vector pass with zero decodes.
fn dict_filter_query() -> provql::Query {
    provql::parse(r#"df[df["hostname"].isin(["node007", "node011", "node023"])][["task_id"]]"#)
        .expect("bench query parses")
}

/// The query behind `vectorized_groupby`: the single-key grouped
/// aggregate shape the agent asks constantly ("mean duration by host").
/// The frame side hashes a per-row `Vec<Value>` key for each of the 100k
/// rows; the code side groups directly over dictionary codes (one
/// unification per distinct symbol per shard) and aggregates gathered
/// cells.
fn vectorized_groupby_query() -> provql::Query {
    provql::parse(r#"df.groupby("hostname")["duration"].mean()"#).expect("bench query parses")
}

/// The query behind `topk_find`: "latest N tasks" — the interactive
/// drill-down shape the paper's agent answers over and over. Pre-PR5 the
/// leading sort blocked limit pushdown, so the agent sorted the whole
/// materialized frame per call; now the pair executes as a streaming
/// top-k scan (sorted-index cursor / bounded per-shard selection), with
/// zero document decodes.
fn topk_query() -> provql::Query {
    provql::parse(
        r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(5)"#,
    )
    .expect("bench query parses")
}

/// The mixed-load workload shape: a seed corpus, then `MIXED_BURSTS`
/// ingest bursts of `MIXED_BURST_SIZE` streaming messages, each followed
/// by a storm of `MIXED_STORM` dashboard queries cycling through a small
/// repeated set — the §5.2 interactive pattern (ingest never stops,
/// monitoring queries repeat).
const MIXED_SEED: usize = 2_048;
const MIXED_BURSTS: usize = 12;
const MIXED_BURST_SIZE: usize = 256;
const MIXED_STORM: usize = 48;

fn mixed_corpus() -> Vec<std::sync::Arc<prov_model::TaskMessage>> {
    (0..MIXED_SEED + MIXED_BURSTS * MIXED_BURST_SIZE)
        .map(|i| {
            std::sync::Arc::new(
                prov_model::TaskMessageBuilder::new(
                    format!("t{i}"),
                    format!("wf-{}", i % 50),
                    format!("act{}", i % 8),
                )
                .host(format!("node{:03}", i % 64))
                .uses("x", i as f64)
                .generates("y", (i * 2) as f64)
                .span(i as f64, i as f64 + 1.0)
                .build(),
            )
        })
        .collect()
}

/// The repeated dashboard set: a pushed selective find, a columnar
/// group-by, a pushed top-k, and a column distinct — the shapes a
/// monitoring loop reissues verbatim (which is what makes the plan-keyed
/// result cache earn its keep).
fn mixed_query_texts() -> [&'static str; 4] {
    [
        r#"df[df["workflow_id"] == "wf-7"][["task_id", "y"]].head(20)"#,
        r#"df.groupby("activity_id")["duration"].mean()"#,
        r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(5)"#,
        r#"df["y"].unique()"#,
    ]
}

/// Pin a snapshot, plan `q` against it and run the pushed scan; the
/// answer's length. Panics when the plan falls back to the oracle.
fn run_columnar_query(
    db: &std::sync::Arc<prov_db::ProvenanceDatabase>,
    q: &provql::Query,
) -> usize {
    let snap = db.snapshot();
    match prov_db::execute_plan(&snap, &provql::plan(q, &*snap)) {
        prov_db::Pushdown::Executed(out) => out.expect("query runs").len(),
        prov_db::Pushdown::NeedsFullFrame(reason) => {
            panic!("bench query was not served by the scan: {reason}")
        }
    }
}

fn provdb_group() -> prov_db::GroupSpec {
    use prov_db::{AggOp, Aggregate};
    prov_db::GroupSpec {
        key: "activity_id".into(),
        aggs: vec![
            Aggregate {
                path: "generated.y".into(),
                op: AggOp::Mean,
            },
            Aggregate {
                path: "generated.y".into(),
                op: AggOp::Count,
            },
        ],
    }
}

/// Time `reference` and `engine` alternately, `rounds` runs each, and
/// return the median seconds of each side. Strict alternation puts every
/// run in the same place, right after a run of the other side, so each
/// side's samples are one population (a side that ran right after itself
/// would find its data in cache and form a second mode, which the median
/// then straddles). What a side returns is dropped outside its timed
/// region.
fn interleave<A, B>(
    rounds: usize,
    mut reference: impl FnMut() -> A,
    mut engine: impl FnMut() -> B,
) -> (f64, f64) {
    fn timed<T>(side: &mut impl FnMut() -> T) -> f64 {
        let t = std::time::Instant::now();
        let out = side();
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(out);
        secs
    }
    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
    let mut r = Vec::with_capacity(rounds);
    let mut e = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        r.push(timed(&mut reference));
        e.push(timed(&mut engine));
    }
    (median(r), median(e))
}

/// A bench directory, removed when dropped.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("provdb-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One entry's child measurement: build its fixtures once, then time the
/// reference and engine sides interleaved; (reference, engine) medians in
/// seconds.
fn measure_entry(entry: &Entry) -> (f64, f64) {
    use prov_db::{DocQuery, ProvenanceDatabase};
    use std::sync::Arc;

    let rounds = entry.rounds;
    let msgs = provdb_corpus();
    let shared =
        || -> Vec<Arc<prov_model::TaskMessage>> { msgs.iter().cloned().map(Arc::new).collect() };
    // The frame-side entries: the same query over the snapshot's
    // pre-built oracle frame vs the pushed scan.
    let frame_vs_scan = |q: provql::Query| {
        let db = ProvenanceDatabase::shared();
        db.insert_batch(&msgs);
        let frame = db.snapshot().oracle_frame();
        interleave(
            rounds,
            || provql::execute(&q, &frame).expect("query runs"),
            || run_columnar_query(&db, &q),
        )
    };
    match entry.name {
        "batch_ingest_100k_ms" => {
            let shared = shared();
            interleave(
                rounds,
                || {
                    let db = ProvenanceDatabase::new();
                    db.insert_batch(&msgs);
                    db
                },
                || {
                    let db = ProvenanceDatabase::new();
                    db.insert_batch_shared(shared.iter().cloned());
                    db
                },
            )
        }
        "batch_ingest_100k_materialized_ms" => {
            let shared = shared();
            interleave(
                rounds,
                || dataframe::DataFrame::from_messages(&msgs),
                || {
                    let db = ProvenanceDatabase::new();
                    db.insert_batch_shared(shared.iter().cloned());
                    db.flush_views().expect("flush");
                    db
                },
            )
        }
        "indexed_find_p50_us" => {
            let db = ProvenanceDatabase::new();
            db.insert_batch(&msgs);
            let unindexed = prov_db::DocumentStore::new();
            unindexed.insert_many(msgs.iter().map(prov_model::TaskMessage::to_value).collect());
            let q = provdb_find_query();
            assert_eq!(unindexed.find(&q).len(), db.find(&q).len(), "same hits");
            interleave(rounds, || unindexed.find(&q), || db.find(&q))
        }
        "groupby_aggregate_100k_ms" => {
            use dataframe::AggFunc;
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let frame = db.snapshot().oracle_frame();
            let g = provdb_group();
            interleave(
                rounds,
                || {
                    frame
                        .groupby(&["activity_id"])
                        .and_then(|by| by.agg(&[("y", AggFunc::Mean), ("y", AggFunc::Count)]))
                        .expect("group-by runs")
                },
                || db.aggregate(&DocQuery::new(), &g),
            )
        }
        "query_pushdown_vs_scan" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let queries = pushdown_queries();
            interleave(
                rounds,
                || {
                    // A fresh snapshot builds its own oracle frame.
                    for q in &queries {
                        let frame = db.snapshot().oracle_frame();
                        std::hint::black_box(provql::execute(q, &frame).expect("query runs"));
                    }
                },
                || {
                    for q in &queries {
                        std::hint::black_box(run_columnar_query(&db, q));
                    }
                },
            )
        }
        "columnar_find" => frame_vs_scan(columnar_queries().0),
        "columnar_aggregate" => frame_vs_scan(columnar_queries().1),
        "topk_find" => frame_vs_scan(topk_query()),
        "dict_filter" => frame_vs_scan(dict_filter_query()),
        "vectorized_groupby" => frame_vs_scan(vectorized_groupby_query()),
        "mixed_load" => {
            let msgs = mixed_corpus();
            let texts = mixed_query_texts();
            let queries: Vec<provql::Query> = texts
                .iter()
                .map(|t| provql::parse(t).expect("bench query parses"))
                .collect();
            interleave(
                rounds,
                || {
                    let db = ProvenanceDatabase::shared();
                    let (seed, rest) = msgs.split_at(MIXED_SEED);
                    db.insert_batch_shared(seed.iter().cloned());
                    let mut cached: Option<(u64, Arc<dataframe::DataFrame>)> = None;
                    for burst in rest.chunks(MIXED_BURST_SIZE) {
                        db.insert_batch_shared(burst.iter().cloned());
                        for i in 0..MIXED_STORM {
                            let q = &queries[i % queries.len()];
                            let snap = db.snapshot();
                            match prov_db::execute_plan(&snap, &provql::plan(q, &*snap)) {
                                prov_db::Pushdown::Executed(out) => {
                                    std::hint::black_box(out.expect("query runs"));
                                }
                                prov_db::Pushdown::NeedsFullFrame(_) => {
                                    let generation = snap.generation();
                                    if cached.as_ref().map(|(g, _)| *g) != Some(generation) {
                                        cached = Some((generation, snap.oracle_frame()));
                                    }
                                    let frame = &cached.as_ref().expect("just filled").1;
                                    std::hint::black_box(
                                        provql::execute(q, frame).expect("query runs"),
                                    );
                                }
                            }
                        }
                    }
                    db
                },
                || {
                    let db = ProvenanceDatabase::shared();
                    let server = prov_db::QueryServer::start(
                        db.clone(),
                        prov_db::ServeConfig {
                            workers: prov_db::ServeConfig::default().workers,
                            queue_depth: MIXED_STORM,
                        },
                    );
                    let (seed, rest) = msgs.split_at(MIXED_SEED);
                    db.insert_batch_shared(seed.iter().cloned());
                    for burst in rest.chunks(MIXED_BURST_SIZE) {
                        db.insert_batch_shared(burst.iter().cloned());
                        let pending: Vec<_> = (0..MIXED_STORM)
                            .map(|i| {
                                server
                                    .submit(texts[i % texts.len()])
                                    .expect("queue sized for the storm")
                            })
                            .collect();
                        for rx in pending {
                            let resp = rx.recv().expect("worker replies");
                            std::hint::black_box(resp.result.expect("query runs"));
                        }
                    }
                    (server, db)
                },
            )
        }
        "graph_traverse" | "graph_khop" => {
            let store = graph_lineage_store();
            let csr = prov_db::CsrGraph::build(&store);
            if entry.name == "graph_traverse" {
                interleave(
                    rounds,
                    || store.upstream_lineage(GRAPH_DEEP_TASK, usize::MAX).len(),
                    || csr.upstream(GRAPH_DEEP_TASK, usize::MAX).len(),
                )
            } else {
                interleave(
                    rounds,
                    || store.khop(GRAPH_MID_TASK, 4).len(),
                    || csr.khop(GRAPH_MID_TASK, 4).len(),
                )
            }
        }
        "wal_ingest" => {
            let shared = shared();
            interleave(
                rounds,
                || {
                    let db = ProvenanceDatabase::new();
                    db.insert_batch_shared(shared.iter().cloned());
                    db.flush_views().expect("flush");
                    db
                },
                || {
                    // The directory goes after the store (tuple fields
                    // drop in order), outside the timed region.
                    let dir = ScratchDir::new("wal");
                    let db = ProvenanceDatabase::open(&dir.0).expect("open durable bench store");
                    db.insert_batch_shared(shared.iter().cloned());
                    db.flush_views().expect("flush");
                    db.wait_for_seal().expect("seal");
                    (db, dir)
                },
            )
        }
        "recovery_replay" => {
            let dir = ScratchDir::new("replay");
            {
                let db = ProvenanceDatabase::open(&dir.0).expect("open durable bench store");
                db.insert_batch_shared(shared());
                db.flush_views().expect("flush");
            }
            interleave(
                rounds,
                || {
                    let db = ProvenanceDatabase::new();
                    db.insert_batch(&msgs);
                    db
                },
                || ProvenanceDatabase::open(&dir.0).expect("recover bench store"),
            )
        }
        "cold_open" => {
            let dir = ScratchDir::new("cold-open");
            seed_sealed_store(&dir.0, &msgs);
            let config = prov_db::Config::from_env();
            interleave(
                rounds,
                || ProvenanceDatabase::open_replayed(&dir.0, config).expect("replay sealed store"),
                || ProvenanceDatabase::open_with(&dir.0, config).expect("open sealed store"),
            )
        }
        "out_of_core_scan" => {
            let dir = ScratchDir::new("ooc");
            seed_sealed_store(&dir.0, &msgs);
            let config = prov_db::Config {
                resident_bytes: 4 << 20,
                ..prov_db::Config::from_env()
            };
            // Two read-only handles on one sealed directory: neither
            // writes, so neither sees the other.
            let resident =
                ProvenanceDatabase::open_replayed(&dir.0, config).expect("replay sealed store");
            let paged = ProvenanceDatabase::open_with(&dir.0, config).expect("open sealed store");
            let q = dict_filter_query();
            assert_eq!(
                run_columnar_query(&resident, &q),
                run_columnar_query(&paged, &q),
                "same hits"
            );
            interleave(
                rounds,
                || run_columnar_query(&resident, &q),
                || run_columnar_query(&paged, &q),
            )
        }
        other => panic!("unknown provdb entry `{other}`"),
    }
}

/// Deepest task of the graph bench corpus (last node of the last layer).
const GRAPH_DEEP_TASK: &str = "t249999";
/// A mid-graph task for the k-hop measurement.
const GRAPH_MID_TASK: &str = "t125000";

/// Million-edge layered lineage DAG for the graph kernels: 250 layers ×
/// 1000 tasks, each task `prov:wasInformedBy` 4 tasks of the previous
/// layer (deterministic LCG picks), ids `t{i}`. ~996k edges; the
/// transitive upstream closure from [`GRAPH_DEEP_TASK`] touches nearly
/// every layer below it.
fn graph_lineage_store() -> prov_db::GraphStore {
    const LAYERS: usize = 250;
    const WIDTH: usize = 1000;
    let store = prov_db::GraphStore::new();
    let mut batch = prov_db::GraphBatch::new();
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    for layer in 0..LAYERS {
        for j in 0..WIDTH {
            let id = layer * WIDTH + j;
            batch.upsert_node(format!("t{id}"), "prov:Activity", prov_model::Map::new());
            if layer > 0 {
                for _ in 0..4 {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let parent = (layer - 1) * WIDTH + (rng >> 33) as usize % WIDTH;
                    batch.add_edge(format!("t{id}"), format!("t{parent}"), "prov:wasInformedBy");
                }
            }
        }
    }
    store.apply_batch(batch);
    store
}

/// Measure one entry in a fresh child process (`--provdb-measure
/// <name>`, which prints the two medians in seconds); falls back to
/// in-process when re-spawning the binary is not possible.
fn measure_in_child(entry: &Entry) -> (f64, f64) {
    let child = std::env::current_exe().ok().and_then(|exe| {
        let out = std::process::Command::new(exe)
            .args(["--provdb-measure", entry.name])
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8(out.stdout).ok()?;
        let mut sides = text.split_whitespace().map(str::parse::<f64>);
        Some((sides.next()?.ok()?, sides.next()?.ok()?))
    });
    child.unwrap_or_else(|| measure_entry(entry))
}

/// Measure every entry, each in its own child with its two sides
/// interleaved, on the 100k-message corpus.
fn provdb_benchmark() -> ProvDbReport {
    let measurements = ENTRIES
        .iter()
        .map(|entry| {
            eprintln!("  {} ({} rounds per side)…", entry.name, entry.rounds);
            let (reference, engine) = measure_in_child(entry);
            let scale = if entry.unit == MS { 1e3 } else { 1e6 };
            Measurement {
                entry,
                reference: reference * scale,
                engine: engine * scale,
            }
        })
        .collect();
    let config = prov_db::Config::from_env();
    ProvDbReport {
        messages: 100_000,
        shards: config.shards,
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        shards_override: std::env::var("PROVDB_SHARDS").ok(),
        chunk: config.chunk_rows,
        chunk_override: std::env::var("PROVDB_CHUNK").ok(),
        resident_mb: config.resident_bytes >> 20,
        resident_override: std::env::var("PROVDB_RESIDENT_MB").ok(),
        measurements,
        mixed: mixed_load_profile(),
    }
}

/// One observed mixed-load run through the serving stack, for the
/// `mixed_load_profile` metadata object: ingest throughput of the burst
/// path and the serve layer's own latency/cache ledger.
fn mixed_load_profile() -> MixedLoadProfile {
    use prov_db::{ProvenanceDatabase, QueryServer, ServeConfig};
    let msgs = mixed_corpus();
    let texts = mixed_query_texts();
    let db = ProvenanceDatabase::shared();
    let config = ServeConfig {
        workers: ServeConfig::default().workers,
        queue_depth: MIXED_STORM,
    };
    let workers = config.workers;
    let server = QueryServer::start(db.clone(), config);
    let (seed, rest) = msgs.split_at(MIXED_SEED);
    db.insert_batch_shared(seed.iter().cloned());
    let mut ingest_secs = 0.0f64;
    for burst in rest.chunks(MIXED_BURST_SIZE) {
        let t = std::time::Instant::now();
        db.insert_batch_shared(burst.iter().cloned());
        ingest_secs += t.elapsed().as_secs_f64();
        let pending: Vec<_> = (0..MIXED_STORM)
            .map(|i| {
                server
                    .submit(texts[i % texts.len()])
                    .expect("queue sized for the storm")
            })
            .collect();
        for rx in pending {
            let resp = rx.recv().expect("worker replies");
            std::hint::black_box(resp.result.expect("query runs"));
        }
    }
    let stats = server.stats();
    MixedLoadProfile {
        workers,
        ingest_msgs_per_s: (MIXED_BURSTS * MIXED_BURST_SIZE) as f64 / ingest_secs.max(1e-9),
        query_p50_us: stats.p50_micros as f64,
        query_p99_us: stats.p99_micros as f64,
        queries: stats.completed,
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
    }
}

/// The scale-independence claim (§5.2, §5.4): prompt size depends on
/// workflow complexity, not on the number of workflow inputs or tasks.
fn scale_independence() -> String {
    let mut out = String::from(
        "Scale independence: dynamic-schema prompt size vs number of workflow inputs.\n",
    );
    out.push_str(&format!(
        "{:>8} {:>8} {:>12} {:>14} {:>14}\n",
        "inputs", "tasks", "activities", "schema fields", "prompt tokens"
    ));
    for n in [1usize, 10, 100, 1000] {
        let hub = StreamingHub::in_memory();
        let sub = hub.subscribe_tasks();
        workflows::run_sweep(&hub, sim_clock(), 42, n).expect("sweep");
        let msgs: Vec<prov_model::TaskMessage> =
            sub.drain().iter().map(|m| (**m).clone()).collect();
        let tasks = msgs.len();
        let ctx = agent_core::ContextManager::default_sized();
        ctx.ingest_all(&msgs);
        let system = agent_core::PromptBuilder::system(RagStrategy::Full, &ctx);
        let schema = ctx.schema();
        out.push_str(&format!(
            "{:>8} {:>8} {:>12} {:>14} {:>14}\n",
            n,
            tasks,
            schema.activity_count(),
            schema.field_count(),
            count_tokens(&system)
        ));
    }
    out.push_str(
        "(tokens stay flat as inputs scale 1 -> 1000: the metadata-driven design is\n\
         independent of provenance volume, as claimed in §5.4.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::check_bench_regression;

    /// Gate `fresh` against `committed` (report texts) at the CI's 20%
    /// tolerance; the exit code.
    fn gate(case: &str, committed: &str, fresh: &str) -> i32 {
        let dir =
            std::env::temp_dir().join(format!("repro-check-bench-{case}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (c, f) = (dir.join("committed.json"), dir.join("fresh.json"));
        std::fs::write(&c, committed).expect("write committed");
        std::fs::write(&f, fresh).expect("write fresh");
        let code = check_bench_regression(
            c.to_str().expect("utf-8"),
            f.to_str().expect("utf-8"),
            0.20,
            false,
        );
        let _ = std::fs::remove_dir_all(&dir);
        code
    }

    #[test]
    fn an_entry_below_its_floor_fails() {
        let committed = r#"{"a": {"speedup": 10.0}, "b": {"speedup": 2.0}}"#;
        let above = r#"{"a": {"speedup": 8.1}, "b": {"speedup": 1.7}}"#;
        let below = r#"{"a": {"speedup": 7.9}, "b": {"speedup": 2.5}}"#;
        assert_eq!(gate("above", committed, above), 0);
        assert_eq!(gate("below", committed, below), 1);
    }

    #[test]
    fn a_parity_entry_gets_three_times_the_tolerance() {
        // Floor 1.0 × (1 - 0.60) = 0.40 with the flag, 0.80 without.
        let parity = r#"{"p": {"speedup": 1.0, "parity": true}}"#;
        let gated = r#"{"p": {"speedup": 1.0}}"#;
        let at = |ratio: f64| format!(r#"{{"p": {{"speedup": {ratio}}}}}"#);
        assert_eq!(gate("parity-in", parity, &at(0.45)), 0);
        assert_eq!(gate("parity-out", parity, &at(0.35)), 1);
        assert_eq!(gate("gated", gated, &at(0.45)), 1);
    }

    #[test]
    fn an_entry_missing_from_the_fresh_file_fails() {
        let committed = r#"{"a": {"speedup": 3.0}, "b": {"speedup": 3.0}}"#;
        let fresh = r#"{"a": {"speedup": 3.0}}"#;
        assert_eq!(gate("missing", committed, fresh), 1);
    }

    #[test]
    fn metadata_keys_are_skipped() {
        let committed = r#"{
            "generated_by": "repro --provdb",
            "corpus_messages": 100000,
            "runner": {"cores_detected": 2},
            "notes": "free text",
            "mixed_load_profile": {"queries": 576, "cache_hits": 516},
            "a": {"reference": 4.0, "engine": 2.0, "speedup": 2.0, "unit": "ms"}
        }"#;
        let fresh = r#"{"a": {"speedup": 2.0}}"#;
        assert_eq!(gate("metadata", committed, fresh), 0);
    }

    #[test]
    fn a_fresh_file_with_an_extra_entry_passes() {
        let committed = r#"{"a": {"speedup": 3.0}}"#;
        let fresh = r#"{"a": {"speedup": 3.0}, "z": {"speedup": 0.1}}"#;
        assert_eq!(gate("extra", committed, fresh), 0);
    }
}
