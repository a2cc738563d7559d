//! Differential suite for the live context's eviction-in-place window:
//! after every ingest, `ContextManager::frame` must equal
//! `DataFrame::from_messages` over the buffered messages — same column
//! names in the same order, and the same cells (compared through `Debug`,
//! which is NaN-safe) — at every capacity, while keys appear and vanish.
//! The prompt sections the window's incremental dtype and example state
//! render must be byte-equal to the same sections rendered from scratch
//! over that rebuilt frame.

use agent_core::{ContextConfig, ContextManager};
use dataframe::DataFrame;
use prov_model::{obj, TaskMessage, TaskMessageBuilder, TelemetrySynth, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Column names plus the `Debug` form of each column's cells.
fn layout(df: &DataFrame) -> (usize, Vec<(String, String)>) {
    let cols = df
        .column_names()
        .into_iter()
        .map(|name| {
            let values = df.column(name).expect("listed column").values();
            (name.to_string(), format!("{values:?}"))
        })
        .collect();
    (df.len(), cols)
}

/// Deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A message whose flattened keys come and go with `rng`: optional and
/// null-valued dataflow keys, a `used.x`/`generated.x` clash, nested
/// objects, NaN cells, telemetry toggled on and off, tags and lineage.
fn message(i: usize, rng: &mut Rng, synth: &TelemetrySynth) -> TaskMessage {
    let mut b = TaskMessageBuilder::new(format!("t{i}"), "wf", format!("act{}", rng.next() % 3));
    if rng.chance(50) {
        b = b.uses("x", i as i64);
    }
    if rng.chance(30) {
        b = b.uses("z", Value::Null);
    }
    if rng.chance(40) {
        b = b.generates("x", i as f64 * 0.5);
    }
    if rng.chance(25) {
        b = b.uses(format!("k{}", rng.next() % 5), f64::NAN);
    }
    if rng.chance(20) {
        b = b.uses("frags", obj! {"label" => format!("C-H_{}", i % 4)});
    }
    if rng.chance(35) {
        b = b.generates(format!("out{}", rng.next() % 3), "v");
    }
    if rng.chance(30) {
        b = b.telemetry(
            synth.snapshot(i as u64, 0, 0.5),
            synth.snapshot(i as u64, 1, 0.5),
        );
    }
    if i > 0 && rng.chance(20) {
        b = b.depends_on(format!("t{}", i - 1));
    }
    let mut m = b.span(i as f64, i as f64 + 1.0).build();
    if rng.chance(25) {
        m.tags
            .insert(format!("tag{}", rng.next() % 3).into(), Value::Bool(true));
    }
    m
}

#[test]
fn frame_matches_rebuild_after_every_ingest() {
    let synth = TelemetrySynth::frontier(3);
    // 70 spans two bitset words, so the ring wraps inside a word too.
    for capacity in [1, 2, 3, 5, 8, 17, 70] {
        let ctx = ContextManager::new(ContextConfig { max_rows: capacity });
        let mut window: VecDeque<TaskMessage> = VecDeque::new();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ capacity as u64);
        for i in 0..400 {
            let m = message(i, &mut rng, &synth);
            ctx.ingest(m.clone());
            if window.len() == capacity {
                window.pop_front();
            }
            window.push_back(m);
            assert_eq!(
                layout(&ctx.frame()),
                layout(&DataFrame::from_messages(&window)),
                "capacity {capacity}, after message {i}"
            );
        }
        assert_eq!(ctx.len(), capacity);
    }
}

/// Rows `{A,B}`, `{B,C}`, `{A}`: evicting the first keeps the column set
/// but moves `A`'s first holder behind `B` and `C`.
#[test]
fn eviction_reorders_columns_without_changing_the_set() {
    let rows = [
        TaskMessageBuilder::new("t0", "wf", "act")
            .uses("A", 1)
            .uses("B", 1)
            .build(),
        TaskMessageBuilder::new("t1", "wf", "act")
            .uses("B", 2)
            .uses("C", 2)
            .build(),
        TaskMessageBuilder::new("t2", "wf", "act")
            .uses("A", 3)
            .build(),
        TaskMessageBuilder::new("t3", "wf", "act").build(),
    ];
    let ctx = ContextManager::new(ContextConfig { max_rows: 3 });
    for m in &rows[..3] {
        ctx.ingest(m.clone());
    }
    let dataflow = |cols: Vec<String>| -> Vec<String> {
        cols.into_iter()
            .filter(|c| ["A", "B", "C"].contains(&c.as_str()))
            .collect()
    };
    assert_eq!(dataflow(ctx.columns()), ["A", "B", "C"]);
    ctx.ingest(rows[3].clone());
    assert_eq!(dataflow(ctx.columns()), ["B", "C", "A"]);
    assert_eq!(
        layout(&ctx.frame()),
        layout(&DataFrame::from_messages(&rows[1..]))
    );
}

/// A zero capacity is clamped to one row: the newest message.
#[test]
fn zero_capacity_keeps_the_newest_message() {
    let ctx = ContextManager::new(ContextConfig { max_rows: 0 });
    let rows: Vec<TaskMessage> = (0..3)
        .map(|i| {
            TaskMessageBuilder::new(format!("t{i}"), "wf", "act")
                .uses(format!("k{i}"), i as i64)
                .build()
        })
        .collect();
    for m in &rows {
        ctx.ingest(m.clone());
        assert_eq!(ctx.len(), 1);
        assert_eq!(layout(&ctx.frame()), layout(&DataFrame::from_messages([m])));
    }
}

/// The frame and the messages handed to the anomaly scan come from one
/// read: row `i` of the frame is message `i`, even under a racing feeder.
#[test]
fn frame_with_messages_agree_row_for_row_under_ingest() {
    let ctx = ContextManager::new(ContextConfig { max_rows: 16 });
    let msg = |i: usize| {
        TaskMessageBuilder::new(format!("t{i}"), "wf", "act")
            .uses("x", i as i64)
            .build()
    };
    ctx.ingest(msg(0));
    let feeder = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            for i in 1..2_000 {
                ctx.ingest(msg(i));
            }
        })
    };
    let mut reads = 0;
    while !feeder.is_finished() || reads == 0 {
        let (frame, messages) = ctx.frame_with_messages();
        let ids: Vec<&str> = frame
            .column("task_id")
            .expect("task_id column")
            .values()
            .iter()
            .map(|v| v.as_str().expect("string id"))
            .collect();
        let want: Vec<&str> = messages.iter().map(|m| m.task_id.as_str()).collect();
        assert_eq!(ids, want);
        reads += 1;
    }
    feeder.join().expect("feeder");
}

/// `message` plus adversarial prompt-section cells in `generated`:
/// - `close`: unequal floats that agree to four decimals, and `0.0`
///   beside `-0.0` (equal values, different renderings);
/// - `long`: strings over 40 chars sharing their first 40;
/// - `shape`: kinds that go Int → Float → Str → Mixed (an object) and
///   back, in phases of 9 rows, with nulls between;
/// - `rare`: a common value beside two rare ones, so an evicted example's
///   next occurrence is far off, inside or beyond the scanned rows;
/// - `phaseN`: a key that exists for 11 rows in 33 and then vanishes.
fn prompt_message(i: usize, rng: &mut Rng, synth: &TelemetrySynth) -> TaskMessage {
    let mut m = message(i, rng, synth);
    let g = &mut m.generated;
    if rng.chance(70) {
        g.insert("close", 1.0 + (rng.next() % 4) as f64 * 1e-6);
    }
    if rng.chance(50) {
        g.insert("zero", if rng.chance(50) { 0.0 } else { -0.0 });
    }
    if rng.chance(60) {
        let prefix = "p".repeat(40);
        let tail = ["", "a", "b", "-longer-tail"][(rng.next() % 4) as usize];
        g.insert("long", format!("{prefix}{tail}"));
    }
    let shape = match (i / 9) % 5 {
        0 => Value::Int(i as i64 % 3),
        1 => Value::Float(i as f64 % 3.0 + 0.5),
        2 => Value::from(format!("s{}", i % 3)),
        3 => obj! {"k" => (i % 2) as i64},
        _ => Value::Null,
    };
    if !rng.chance(15) {
        g.insert("shape", shape);
    }
    let rare = if i.is_multiple_of(29) {
        Value::from("A")
    } else if i.is_multiple_of(31) {
        Value::from("C")
    } else if i.is_multiple_of(5) {
        Value::Null
    } else {
        Value::from("B")
    };
    g.insert("rare", rare);
    if (i / 11).is_multiple_of(3) {
        g.insert(format!("phase{}", (i / 33) % 2), f64::NAN);
    }
    m
}

#[test]
fn prompt_sections_match_a_from_scratch_render_after_every_ingest() {
    let synth = TelemetrySynth::frontier(5);
    // The head-offset columns compact their dead prefix once it passes
    // half the live rows; over 4x capacity that fires again and again.
    for capacity in [1, 7, 64] {
        let ctx = ContextManager::new(ContextConfig { max_rows: capacity });
        let mut window: VecDeque<TaskMessage> = VecDeque::new();
        let mut rng = Rng(0xD1B5_4A32_D192_ED03 ^ capacity as u64);
        for i in 0..(4 * capacity).max(120) + capacity {
            let m = prompt_message(i, &mut rng, &synth);
            ctx.ingest(m.clone());
            if window.len() == capacity {
                window.pop_front();
            }
            window.push_back(m);
            let frame = DataFrame::from_messages(&window);
            let schema = ctx.schema();
            assert_eq!(
                ctx.render_schema_section(),
                schema.render_schema(frame.dtypes()),
                "schema section, capacity {capacity}, after message {i}"
            );
            assert_eq!(
                ctx.render_values_section(),
                schema.render_values(frame.examples()),
                "values section, capacity {capacity}, after message {i}"
            );
        }
    }
}
