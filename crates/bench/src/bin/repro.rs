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

    // Hidden child mode for `--provdb`: run exactly one measurement in a
    // fresh process (heap isolation — on a single shared core, allocator
    // aging from a previous measurement otherwise skews the next one) and
    // print the metric to stdout.
    if let Some(pos) = args.iter().position(|a| a == "--provdb-measure") {
        let which = args.get(pos + 1).cloned().unwrap_or_default();
        if which == "pin-stall" {
            pin_stall();
        } else {
            println!("{}", provdb_measure(&which));
        }
        return;
    }

    // Bench-regression gate: `repro --check-bench <committed.json>
    // <fresh.json> [tolerance] [--summary]` exits non-zero when any
    // speedup in the fresh report falls more than `tolerance` (default
    // 0.20) below the committed one. CI runs this after regenerating
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
        eprintln!("benchmarking the sharded provenance database against the seed baseline…");
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
/// speedup in `fresh` is at least `(1 - tolerance) ×` the committed one,
/// 1 on regression, 2 on unreadable/malformed input. The tolerance absorbs
/// runner noise; the committed file is the floor the perf work locked in.
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

    // Speedups are only comparable between like runners: a committed
    // 1-core number replayed on a multi-core class (or vice versa) shifts
    // every parallel-sensitive ratio, so say what each run saw.
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

/// One measured hot path: the seed baseline vs the sharded engine.
struct ProvDbMeasurement {
    name: &'static str,
    unit: &'static str,
    baseline: f64,
    sharded: f64,
    /// Parity entries assert both sides coincide (speedup ≈ 1.0x) rather
    /// than lock in a win; the check-bench gate widens its tolerance for
    /// them so scheduler noise around 1.0x cannot fail CI.
    parity: bool,
}

impl ProvDbMeasurement {
    fn speedup(&self) -> f64 {
        if self.sharded > 0.0 {
            self.baseline / self.sharded
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
    /// Cores the runner actually reported — committed numbers from a
    /// 1-core container and a multi-core rerun must be distinguishable,
    /// not silently compared.
    cores: usize,
    shards_override: Option<String>,
    /// Rows per column chunk (zone-map granule) the stores ran with.
    chunk: usize,
    chunk_override: Option<String>,
    /// Resident-set budget (MiB) lazily opened stores page within.
    resident_mb: usize,
    resident_override: Option<String>,
    measurements: Vec<ProvDbMeasurement>,
    mixed: MixedLoadProfile,
}

impl ProvDbReport {
    fn render(&self) -> String {
        let override_note = |raw: &Option<String>| match raw {
            Some(v) => format!(" (override {v})"),
            None => String::new(),
        };
        let mut out = format!(
            "Provenance DB: sharded clone-free engine vs seed baseline \
             ({} task messages, {} shards).\nrunner: {} core(s), {} shard(s){}, {}-row chunks{}, {} MiB resident budget{}\n{:<28} {:>14} {:>14} {:>9}\n",
            self.messages,
            self.shards,
            self.cores,
            self.shards,
            override_note(&self.shards_override),
            self.chunk,
            override_note(&self.chunk_override),
            self.resident_mb,
            override_note(&self.resident_override),
            "hot path",
            "baseline",
            "sharded",
            "speedup"
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "{:<28} {:>11.3} {} {:>11.3} {} {:>8.1}x\n",
                m.name,
                m.baseline,
                m.unit,
                m.sharded,
                m.unit,
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
        runner.insert(
            "shards_override".into(),
            self.shards_override
                .as_deref()
                .map(Value::from)
                .unwrap_or(Value::Null),
        );
        runner.insert("chunk_rows".into(), Value::from(self.chunk));
        runner.insert(
            "chunk_override".into(),
            self.chunk_override
                .as_deref()
                .map(Value::from)
                .unwrap_or(Value::Null),
        );
        runner.insert("resident_mb".into(), Value::from(self.resident_mb));
        runner.insert(
            "resident_override".into(),
            self.resident_override
                .as_deref()
                .map(Value::from)
                .unwrap_or(Value::Null),
        );
        root.insert("runner".into(), Value::object(runner));
        root.insert(
            "baseline".into(),
            Value::from(
                "pre-refactor engine (single RwLock<Vec<Value>> store, String index keys, \
                 deep-clone find, per-message backend fan-out); preserved in \
                 crates/bench/src/baseline.rs; every number is the best of repeated runs \
                 in an isolated child process",
            ),
        );
        root.insert(
            "notes".into(),
            Value::from(
                "batch_ingest_100k_ms measures the streaming accept path \
                 (insert_batch_shared: the keeper hands over the broker's Arc handles; \
                 views materialize lazily, batched, at the next query). \
                 batch_ingest_100k_materialized_ms additionally includes flush_views(), \
                 i.e. the full deferred cost of building all three views. \
                 indexed_find_p50_us probes a 100k-doc store after materialization. \
                 query_pushdown_vs_scan compares the agent's provdb_query paths on the \
                 current engine: full-materialize-then-row-scan (a selective find plus a \
                 filtered group-by aggregate, whole corpus rebuilt into a DataFrame per \
                 query) vs plan-then-push (hash-index probes, projected frame over the \
                 surviving documents only). columnar_find and columnar_aggregate compare \
                 the two agent paths of the current engine: the stage machine over the \
                 snapshot's pre-built oracle frame (built outside the timed loop) vs \
                 the columnar sidecar (filters evaluated over typed column vectors, \
                 frame built straight from them; columnar_find is a selective \
                 two-column find, columnar_aggregate an unselective corpus-wide \
                 group-by). topk_find \
                 compares the agent paths for a sort_values(...).head(5) \"latest N \
                 tasks\" query on the current engine: sort the whole pre-built frame \
                 per call (the cached-oracle path this shape used before sort/limit \
                 pushdown) vs the pushed top-k scan (sorted-index cursor / bounded \
                 per-shard selection over the column vectors, zero document decodes). \
                 The runner object records the detected core count, shard count, \
                 chunk size, and any PROVDB_SHARDS/PROVDB_CHUNK overrides in effect. \
                 dict_filter compares the two engine paths for an unindexed membership \
                 filter (hostname isin list, task_id projection): evaluate the \
                 predicate row by row over the pre-built oracle frame vs the \
                 dictionary kernel (literals compiled to shard-local codes once, \
                 chunked zone maps skipping non-matching granules, selection vectors \
                 instead of per-row branches). vectorized_groupby compares a \
                 single-key group-by aggregate (mean duration by hostname) on the \
                 cached full frame (hash per-row Vec<Value> keys) vs the code-based \
                 fast path (group directly over dictionary codes, unify symbols \
                 across shards by cached content hash, aggregate gathered cells). \
                 mixed_load interleaves 12 streaming ingest bursts of 256 messages \
                 with 48-query dashboard storms cycling a 4-query repeated set, and \
                 compares the pre-serving agent path (pin + try-pushdown per query, \
                 otherwise re-execute stages over a generation-keyed whole-frame \
                 cache, all on one thread) against the serving stack (storms \
                 submitted to the bounded QueryServer pool, answered from \
                 generation-pinned snapshots through the plan-keyed result cache). \
                 mixed_load_profile carries the observability numbers from one \
                 serving run — ingest throughput, query p50/p99, cache hit/miss \
                 counts — and has no speedup key, so the regression gate skips it. \
                 graph_traverse compares the transitive upstream closure from the \
                 deepest task of a million-edge layered lineage DAG (250 layers of \
                 1000 tasks, each prov:wasInformedBy 4 tasks of the previous layer) \
                 on the locking adjacency-map traversal — kept as the differential \
                 oracle — vs the CSR kernels (dense u32 adjacency, visited bitset, \
                 level-synchronous frontiers). graph_khop is the 4-hop any-relation \
                 neighborhood from a mid-graph task on the same corpus. Both sides \
                 run on the current engine; the CSR build runs outside the timed \
                 region because it is paid once per store generation and memoized \
                 (see docs/lineage.md). wal_ingest compares the accept + materialize \
                 workload on an in-memory store vs a durable one (every drained batch \
                 serialized into the checksummed WAL under the env-selected \
                 PROVDB_WAL_SYNC policy, complete chunks sealed into columnar \
                 segments) — the durability tax; a disk-bound near-1x contrast, so \
                 it carries parity: true. recovery_replay compares rebuilding the \
                 store by re-ingesting the 100k source messages vs \
                 ProvenanceDatabase::open's recovery path, which since the \
                 out-of-core work loads only the segment directory + zone-map \
                 footers and replays the WAL tail — sealed rows page in on first \
                 touch and the graph backend hydrates on first access, so replay \
                 now beats re-ingest by the sealed fraction of history and the \
                 entry is a real (non-parity) speedup. cold_open isolates the \
                 open-time contrast on an explicitly sealed corpus: the same \
                 directory opened with ProvenanceDatabase::open_replayed (replay \
                 every sealed row into RAM, the pre-out-of-core behaviour) vs \
                 lazily. \
                 out_of_core_scan is the steady-state paged-read tax: the \
                 dict_filter columnar scan on a fully resident store vs the same \
                 scan re-paging every chunk through a deliberately tiny 4 MiB \
                 resident budget (the bounded-memory worst case); the paged side is \
                 expected to trail, so the entry carries parity: true and the gate \
                 only guards against collapse. The runner object records the \
                 resident budget in effect (resident_mb, with any \
                 PROVDB_RESIDENT_MB override) alongside the core/shard/chunk \
                 geometry. The crash-consistency contract itself is enforced by the \
                 recovery and out-of-core differential suites and the crash_harness \
                 binary, not by these timings (see docs/durability.md).",
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
            entry.insert("baseline".into(), Value::from(m.baseline));
            entry.insert("sharded".into(), Value::from(m.sharded));
            entry.insert("unit".into(), Value::from(m.unit));
            entry.insert("speedup".into(), Value::from(m.speedup()));
            if m.parity {
                entry.insert("parity".into(), Value::Bool(true));
            }
            root.insert(m.name.into(), Value::object(entry));
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

fn best_of(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn p50(mut probe: impl FnMut() -> usize) -> f64 {
    let mut times: Vec<f64> = (0..101)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(probe());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One isolated measurement (child-process mode); returns seconds.
fn provdb_measure(which: &str) -> f64 {
    use bench::baseline::BaselineDatabase;
    use prov_db::{DocQuery, ProvenanceDatabase};

    let msgs = provdb_corpus();
    match which {
        "ingest-baseline" => best_of(5, || {
            let db = BaselineDatabase::new();
            std::hint::black_box(db.insert_batch(&msgs));
        }),
        // The streaming ingest path: accept the broker's shared handles
        // (what a keeper holds when its flush fires). Milliseconds per
        // run, so take the best of many — the CI regression gate compares
        // against this number and must not ride scheduler noise.
        "ingest-sharded" => {
            let shared: Vec<std::sync::Arc<prov_model::TaskMessage>> =
                msgs.iter().cloned().map(std::sync::Arc::new).collect();
            best_of(10, || {
                let db = ProvenanceDatabase::new();
                std::hint::black_box(db.insert_batch_shared(shared.iter().cloned()));
            })
        }
        // Accept + materialize all three views (the full deferred cost, for
        // transparency next to the accept-path number).
        "ingest-sharded-materialized" => {
            let shared: Vec<std::sync::Arc<prov_model::TaskMessage>> =
                msgs.iter().cloned().map(std::sync::Arc::new).collect();
            best_of(5, || {
                let db = ProvenanceDatabase::new();
                db.insert_batch_shared(shared.iter().cloned());
                db.flush_views().expect("flush");
                std::hint::black_box(db.insert_count());
            })
        }
        "find-baseline" => {
            let db = BaselineDatabase::new();
            db.insert_batch(&msgs);
            let q = provdb_find_query();
            p50(|| db.documents.find(&q).len())
        }
        "find-sharded" => {
            let db = ProvenanceDatabase::new();
            db.insert_batch(&msgs);
            let q = provdb_find_query();
            p50(|| db.find(&q).len())
        }
        // The pre-pushdown agent path: every query materializes the whole
        // corpus into a DataFrame (docs → TaskMessages → from_messages)
        // and row-scans it. This is what `provdb_query` did before plans.
        "query-scan" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let queries = pushdown_queries();
            // Same rep count as query-pushdown: best-of-N favors the side
            // with more samples, so an asymmetric N would bias the ratio.
            // Each fresh snapshot builds its own oracle frame.
            best_of(5, || {
                for q in &queries {
                    let frame = db.snapshot().oracle_frame();
                    std::hint::black_box(provql::execute(q, &frame).expect("query runs"));
                }
            })
        }
        // Plan-then-push: equality conjuncts probe the hash indexes and
        // only the surviving documents' referenced columns become a frame.
        "query-pushdown" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let queries = pushdown_queries();
            best_of(5, || {
                for q in &queries {
                    std::hint::black_box(run_columnar_query(&db, q));
                }
            })
        }
        // Selective find through both agent paths of the current engine:
        // row-scan filter over the pre-built oracle frame vs index probe +
        // column-vector gather (no decode at all).
        "columnar-find-scan" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let frame = db.snapshot().oracle_frame();
            let (find, _) = columnar_queries();
            p50(|| provql::execute(&find, &frame).expect("query runs").len())
        }
        "columnar-find" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let (find, _) = columnar_queries();
            p50(|| run_columnar_query(&db, &find))
        }
        // Unselective corpus-wide aggregate: the frame group-by over the
        // pre-built oracle frame vs building the two referenced columns
        // straight from the vectors.
        "columnar-agg-scan" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let frame = db.snapshot().oracle_frame();
            let (_, agg) = columnar_queries();
            best_of(5, || {
                std::hint::black_box(provql::execute(&agg, &frame).expect("query runs"));
            })
        }
        "columnar-agg" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let (_, agg) = columnar_queries();
            best_of(5, || {
                std::hint::black_box(run_columnar_query(&db, &agg));
            })
        }
        // Top-k through both agent paths on the current engine: sort the
        // whole (pre-built, cached-oracle-style) frame per query vs the
        // pushed sort+limit scan. The frame side is what `provdb_query`
        // did for this shape before sort pushdown existed.
        "topk-frame" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let frame = db.snapshot().oracle_frame();
            let q = topk_query();
            p50(|| provql::execute(&q, &frame).expect("query runs").len())
        }
        "topk-push" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let q = topk_query();
            p50(|| run_columnar_query(&db, &q))
        }
        // Unindexed membership filter through both agent paths of the
        // current engine: row-by-row isin over the pre-built oracle frame
        // vs the dictionary kernel (code-compiled literals, zone-map chunk
        // skipping, selection vectors).
        "dict-filter-scan" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let frame = db.snapshot().oracle_frame();
            let q = dict_filter_query();
            best_of(5, || {
                std::hint::black_box(provql::execute(&q, &frame).expect("query runs"));
            })
        }
        "dict-filter" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let q = dict_filter_query();
            best_of(5, || {
                std::hint::black_box(run_columnar_query(&db, &q));
            })
        }
        // Single-key grouped aggregate through both agent paths on the
        // current engine: hash per-row Vec<Value> keys over the cached
        // full frame vs grouping directly over dictionary codes.
        "vec-groupby-frame" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let frame = db.snapshot().oracle_frame();
            let q = vectorized_groupby_query();
            best_of(5, || {
                std::hint::black_box(provql::execute(&q, &frame).expect("query runs"));
            })
        }
        "vec-groupby-codes" => {
            let db = ProvenanceDatabase::shared();
            db.insert_batch(&msgs);
            let q = vectorized_groupby_query();
            best_of(5, || {
                std::hint::black_box(run_columnar_query(&db, &q));
            })
        }
        // Concurrent ingest bursts interleaved with dashboard query
        // storms, through the pre-serving agent path: each query pins a
        // snapshot, tries pushdown and otherwise re-executes its stages
        // over a generation-keyed whole-frame cache (what `provdb_query`
        // did before the plan cache and the worker pool), all on the
        // caller's thread.
        "mixed-load-baseline" => {
            let msgs = mixed_corpus();
            let queries: Vec<provql::Query> = mixed_query_texts()
                .iter()
                .map(|t| provql::parse(t).expect("bench query parses"))
                .collect();
            best_of(3, || {
                let db = ProvenanceDatabase::shared();
                let (seed, rest) = msgs.split_at(MIXED_SEED);
                db.insert_batch_shared(seed.iter().cloned());
                let mut cached: Option<(u64, std::sync::Arc<dataframe::DataFrame>)> = None;
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
            })
        }
        // The same workload through the serving stack: storms submitted
        // to the bounded worker pool, answered from generation-pinned
        // snapshots through the plan-keyed result cache.
        "mixed-load-serve" => {
            let msgs = mixed_corpus();
            let texts = mixed_query_texts();
            best_of(3, || {
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
            })
        }
        "aggregate-baseline" => {
            let db = BaselineDatabase::new();
            db.insert_batch(&msgs);
            let g = provdb_group();
            best_of(5, || {
                std::hint::black_box(db.documents.aggregate(&DocQuery::new(), &g).len());
            })
        }
        "aggregate-sharded" => {
            let db = ProvenanceDatabase::new();
            db.insert_batch(&msgs);
            let g = provdb_group();
            best_of(5, || {
                std::hint::black_box(db.aggregate(&DocQuery::new(), &g).len());
            })
        }
        // Million-edge lineage closure through both graph read paths of
        // the current engine: the locking adjacency-map traversal (the
        // differential oracle) vs the CSR kernels. The CSR build runs
        // outside the timed region — it is paid once per store generation
        // and memoized (see docs/lineage.md).
        "graph-traverse-oracle" => {
            let store = graph_lineage_store();
            best_of(5, || {
                std::hint::black_box(store.upstream_lineage(GRAPH_DEEP_TASK, usize::MAX).len());
            })
        }
        "graph-traverse-csr" => {
            let store = graph_lineage_store();
            let csr = prov_db::CsrGraph::build(&store);
            best_of(5, || {
                std::hint::black_box(csr.upstream(GRAPH_DEEP_TASK, usize::MAX).len());
            })
        }
        // 4-hop any-relation neighborhood from a mid-graph task.
        "graph-khop-oracle" => {
            let store = graph_lineage_store();
            best_of(5, || {
                std::hint::black_box(store.khop(GRAPH_MID_TASK, 4).len());
            })
        }
        "graph-khop-csr" => {
            let store = graph_lineage_store();
            let csr = prov_db::CsrGraph::build(&store);
            best_of(5, || {
                std::hint::black_box(csr.khop(GRAPH_MID_TASK, 4).len());
            })
        }
        // Durability tax on the streaming path: the same
        // accept + materialize workload with no disk vs WAL-logged (and
        // chunk-sealed) through a durable store. Disk-bound, so fewer
        // repetitions and a parity-flagged entry.
        "wal-ingest-memory" => {
            let shared: Vec<std::sync::Arc<prov_model::TaskMessage>> =
                msgs.iter().cloned().map(std::sync::Arc::new).collect();
            best_of(3, || {
                let db = ProvenanceDatabase::new();
                db.insert_batch_shared(shared.iter().cloned());
                db.flush_views().expect("flush");
                std::hint::black_box(db.insert_count());
            })
        }
        "wal-ingest-durable" => {
            let shared: Vec<std::sync::Arc<prov_model::TaskMessage>> =
                msgs.iter().cloned().map(std::sync::Arc::new).collect();
            let root =
                std::env::temp_dir().join(format!("provdb-bench-wal-{}", std::process::id()));
            let t = best_of(3, || {
                let _ = std::fs::remove_dir_all(&root);
                let db = ProvenanceDatabase::open(&root).expect("open durable bench store");
                db.insert_batch_shared(shared.iter().cloned());
                db.flush_views().expect("flush");
                std::hint::black_box(db.insert_count());
            });
            let _ = std::fs::remove_dir_all(&root);
            t
        }
        // Recovery speed: rebuild the store by re-ingesting the source
        // messages (the only option without durability) vs
        // recovery-by-replay from sealed segments + the WAL tail.
        "recovery-reingest" => best_of(3, || {
            let db = ProvenanceDatabase::new();
            db.insert_batch(&msgs);
            std::hint::black_box(db.insert_count());
        }),
        "recovery-replay" => {
            let root =
                std::env::temp_dir().join(format!("provdb-bench-replay-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            {
                let shared: Vec<std::sync::Arc<prov_model::TaskMessage>> =
                    msgs.iter().cloned().map(std::sync::Arc::new).collect();
                let db = ProvenanceDatabase::open(&root).expect("open durable bench store");
                db.insert_batch_shared(shared.iter().cloned());
                db.flush_views().expect("flush");
            }
            let t = best_of(3, || {
                let db = ProvenanceDatabase::open(&root).expect("recover bench store");
                std::hint::black_box(db.insert_count());
            });
            let _ = std::fs::remove_dir_all(&root);
            t
        }
        // Cold open over an explicitly sealed corpus: replay of every
        // sealed row into RAM (the pre-out-of-core behaviour, kept as
        // `open_replayed`) vs the lazy path that loads only the
        // segment directory + zone-map footers and replays the WAL tail.
        // Seeding runs once outside the timed region; both sides open
        // the same files.
        "cold-open-eager" | "cold-open-lazy" => {
            let root =
                std::env::temp_dir().join(format!("provdb-bench-{which}-{}", std::process::id()));
            seed_sealed_store(&root, &msgs);
            let t = best_of(3, || {
                let config = prov_db::Config::from_env();
                let db = if which == "cold-open-eager" {
                    ProvenanceDatabase::open_replayed(&root, config)
                } else {
                    ProvenanceDatabase::open_with(&root, config)
                };
                std::hint::black_box(db.expect("open sealed bench store").insert_count());
            });
            let _ = std::fs::remove_dir_all(&root);
            t
        }
        // Steady-state paged-read tax: the dict-filter columnar scan on
        // a fully resident (eager-opened) store vs the same scan through
        // the chunk pager under a deliberately tiny 4 MiB budget — small
        // enough that every probe re-pages cold chunks from the segment
        // files, the bounded-memory worst case rather than a warm-cache
        // best case.
        "ooc-scan-resident" | "ooc-scan-paged" => {
            let root =
                std::env::temp_dir().join(format!("provdb-bench-{which}-{}", std::process::id()));
            seed_sealed_store(&root, &msgs);
            let config = prov_db::Config {
                resident_bytes: 4 << 20,
                ..prov_db::Config::from_env()
            };
            let db = if which == "ooc-scan-resident" {
                ProvenanceDatabase::open_replayed(&root, config)
            } else {
                ProvenanceDatabase::open_with(&root, config)
            }
            .expect("open sealed bench store");
            let q = dict_filter_query();
            let t = best_of(5, || {
                std::hint::black_box(run_columnar_query(&db, &q));
            });
            drop(db);
            let _ = std::fs::remove_dir_all(&root);
            t
        }
        other => panic!("unknown provdb measurement `{other}`"),
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

/// Run one measurement in a fresh child process; falls back to in-process
/// when re-spawning the binary is not possible.
fn provdb_measure_isolated(which: &str) -> f64 {
    let child = std::env::current_exe().ok().and_then(|exe| {
        let out = std::process::Command::new(exe)
            .args(["--provdb-measure", which])
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        String::from_utf8(out.stdout)
            .ok()?
            .trim()
            .parse::<f64>()
            .ok()
    });
    child.unwrap_or_else(|| provdb_measure(which))
}

/// Measure batch ingest, indexed find (p50), and group-by aggregation on a
/// 100k-message corpus for both engines, each in its own process.
fn provdb_benchmark() -> ProvDbReport {
    let ingest_baseline = provdb_measure_isolated("ingest-baseline") * 1e3;
    let measurements = vec![
        ProvDbMeasurement {
            name: "batch_ingest_100k_ms",
            unit: "ms",
            baseline: ingest_baseline,
            sharded: provdb_measure_isolated("ingest-sharded") * 1e3,
            parity: false,
        },
        ProvDbMeasurement {
            name: "batch_ingest_100k_materialized_ms",
            unit: "ms",
            baseline: ingest_baseline,
            sharded: provdb_measure_isolated("ingest-sharded-materialized") * 1e3,
            parity: false,
        },
        ProvDbMeasurement {
            name: "indexed_find_p50_us",
            unit: "\u{b5}s",
            baseline: provdb_measure_isolated("find-baseline") * 1e6,
            sharded: provdb_measure_isolated("find-sharded") * 1e6,
            parity: false,
        },
        ProvDbMeasurement {
            name: "groupby_aggregate_100k_ms",
            unit: "ms",
            baseline: provdb_measure_isolated("aggregate-baseline") * 1e3,
            sharded: provdb_measure_isolated("aggregate-sharded") * 1e3,
            parity: false,
        },
        // Unlike the rows above, both sides here run on the *current*
        // engine: the contrast is the agent's query path (materialize the
        // whole corpus per query vs plan-then-push into the indexes).
        ProvDbMeasurement {
            name: "query_pushdown_vs_scan",
            unit: "ms",
            baseline: provdb_measure_isolated("query-scan") * 1e3,
            sharded: provdb_measure_isolated("query-pushdown") * 1e3,
            parity: false,
        },
        // Current engine on both sides again: the pre-built oracle frame
        // vs the columnar scan, on a selective find and on an unselective
        // corpus-wide aggregate.
        ProvDbMeasurement {
            name: "columnar_find",
            unit: "\u{b5}s",
            baseline: provdb_measure_isolated("columnar-find-scan") * 1e6,
            sharded: provdb_measure_isolated("columnar-find") * 1e6,
            parity: false,
        },
        ProvDbMeasurement {
            name: "columnar_aggregate",
            unit: "ms",
            baseline: provdb_measure_isolated("columnar-agg-scan") * 1e3,
            sharded: provdb_measure_isolated("columnar-agg") * 1e3,
            parity: false,
        },
        // Current engine on both sides: sort-the-full-frame vs the pushed
        // top-k scan.
        ProvDbMeasurement {
            name: "topk_find",
            unit: "ms",
            baseline: provdb_measure_isolated("topk-frame") * 1e3,
            sharded: provdb_measure_isolated("topk-push") * 1e3,
            parity: false,
        },
        // Current engine on both sides: the dictionary/zone-map kernels
        // vs their frame-based equivalents.
        ProvDbMeasurement {
            name: "dict_filter",
            unit: "ms",
            baseline: provdb_measure_isolated("dict-filter-scan") * 1e3,
            sharded: provdb_measure_isolated("dict-filter") * 1e3,
            parity: false,
        },
        ProvDbMeasurement {
            name: "vectorized_groupby",
            unit: "ms",
            baseline: provdb_measure_isolated("vec-groupby-frame") * 1e3,
            sharded: provdb_measure_isolated("vec-groupby-codes") * 1e3,
            parity: false,
        },
        // Both sides run the same ingest-bursts + query-storms workload
        // on the current engine: the pre-serving single-threaded agent
        // path vs the QueryServer pool with snapshots + the plan cache.
        ProvDbMeasurement {
            name: "mixed_load",
            unit: "ms",
            baseline: provdb_measure_isolated("mixed-load-baseline") * 1e3,
            sharded: provdb_measure_isolated("mixed-load-serve") * 1e3,
            parity: false,
        },
        // Both sides run on the current engine's graph backend: the
        // locking adjacency-map traversal (kept as the differential
        // oracle) vs the CSR kernels, over a million-edge lineage DAG.
        ProvDbMeasurement {
            name: "graph_traverse",
            unit: "ms",
            baseline: provdb_measure_isolated("graph-traverse-oracle") * 1e3,
            sharded: provdb_measure_isolated("graph-traverse-csr") * 1e3,
            parity: false,
        },
        ProvDbMeasurement {
            name: "graph_khop",
            unit: "ms",
            baseline: provdb_measure_isolated("graph-khop-oracle") * 1e3,
            sharded: provdb_measure_isolated("graph-khop-csr") * 1e3,
            parity: false,
        },
        // Durability entries, both sides on the current engine. Ratios
        // near 1.0x on both (the tax of logging, and replay vs rebuild)
        // and disk-bound, so parity-flagged: the gate guards against a
        // durable path collapsing, not scheduler/disk jitter.
        ProvDbMeasurement {
            name: "wal_ingest",
            unit: "ms",
            baseline: provdb_measure_isolated("wal-ingest-memory") * 1e3,
            sharded: provdb_measure_isolated("wal-ingest-durable") * 1e3,
            parity: true,
        },
        // Recovery is no longer a near-1x parity contrast: since the
        // out-of-core work, open loads only the segment directory +
        // footers and the WAL tail, so replay beats re-ingest by the
        // sealed fraction of history.
        ProvDbMeasurement {
            name: "recovery_replay",
            unit: "ms",
            baseline: provdb_measure_isolated("recovery-reingest") * 1e3,
            sharded: provdb_measure_isolated("recovery-replay") * 1e3,
            parity: false,
        },
        // Both sides open the same sealed files; the contrast is eager
        // replay of sealed rows vs the lazy out-of-core open.
        ProvDbMeasurement {
            name: "cold_open",
            unit: "ms",
            baseline: provdb_measure_isolated("cold-open-eager") * 1e3,
            sharded: provdb_measure_isolated("cold-open-lazy") * 1e3,
            parity: false,
        },
        // The paged side deliberately runs under a 4 MiB resident budget
        // (the bounded-memory worst case, re-paging every chunk per
        // probe), so it is expected to trail the resident side — parity
        // keeps the gate guarding against collapse, not the ratio.
        ProvDbMeasurement {
            name: "out_of_core_scan",
            unit: "ms",
            baseline: provdb_measure_isolated("ooc-scan-resident") * 1e3,
            sharded: provdb_measure_isolated("ooc-scan-paged") * 1e3,
            parity: true,
        },
    ];
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
