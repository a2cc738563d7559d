//! Telemetry snapshots captured at task start/end.
//!
//! Mirrors the paper's `telemetry_at_start`/`telemetry_at_end` payloads:
//! CPU utilization, memory, GPU, disk and network counters. A deterministic
//! synthesizer generates plausible node telemetry for simulated runs.

use crate::value::Value;

/// One telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// Per-core CPU utilization percentages.
    pub cpu_percent: Vec<f64>,
    /// Resident memory in megabytes.
    pub mem_used_mb: f64,
    /// Total node memory in megabytes.
    pub mem_total_mb: f64,
    /// Per-GPU utilization percentages (empty on CPU-only nodes).
    pub gpu_percent: Vec<f64>,
    /// Cumulative disk bytes read.
    pub disk_read_bytes: u64,
    /// Cumulative disk bytes written.
    pub disk_write_bytes: u64,
    /// Cumulative network bytes sent.
    pub net_sent_bytes: u64,
    /// Cumulative network bytes received.
    pub net_recv_bytes: u64,
}

impl Telemetry {
    /// Mean CPU utilization across cores.
    pub fn cpu_mean(&self) -> f64 {
        if self.cpu_percent.is_empty() {
            0.0
        } else {
            self.cpu_percent.iter().sum::<f64>() / self.cpu_percent.len() as f64
        }
    }

    /// Mean GPU utilization across devices (0 when no GPUs).
    pub fn gpu_mean(&self) -> f64 {
        if self.gpu_percent.is_empty() {
            0.0
        } else {
            self.gpu_percent.iter().sum::<f64>() / self.gpu_percent.len() as f64
        }
    }

    /// Memory utilization fraction in `[0, 1]`.
    pub fn mem_fraction(&self) -> f64 {
        if self.mem_total_mb <= 0.0 {
            0.0
        } else {
            (self.mem_used_mb / self.mem_total_mb).clamp(0.0, 1.0)
        }
    }

    /// Encode as the JSON shape used in provenance messages.
    ///
    /// Every key comes from the pre-seeded hot-symbol accessors
    /// ([`crate::sym::keys`]): on the ingest hot path this runs with zero
    /// interner lookups and zero key allocations, like
    /// `TaskMessage::to_value`.
    pub fn to_value(&self) -> Value {
        use crate::value::{keys, Map, Sym};
        let section = |pairs: [(Sym, Value); 2]| Value::object(Map::from_iter(pairs));
        let mut m = Map::new();
        m.insert(
            keys::cpu(),
            Value::object(Map::from_iter([(
                keys::percent(),
                Value::from(self.cpu_percent.clone()),
            )])),
        );
        m.insert(
            keys::disk(),
            section([
                (keys::read_bytes(), Value::Int(self.disk_read_bytes as i64)),
                (
                    keys::write_bytes(),
                    Value::Int(self.disk_write_bytes as i64),
                ),
            ]),
        );
        m.insert(
            keys::gpu(),
            Value::object(Map::from_iter([(
                keys::percent(),
                Value::from(self.gpu_percent.clone()),
            )])),
        );
        m.insert(
            keys::memory(),
            section([
                (keys::total_mb(), Value::Float(self.mem_total_mb)),
                (keys::used_mb(), Value::Float(self.mem_used_mb)),
            ]),
        );
        m.insert(
            keys::network(),
            section([
                (keys::recv_bytes(), Value::Int(self.net_recv_bytes as i64)),
                (keys::sent_bytes(), Value::Int(self.net_sent_bytes as i64)),
            ]),
        );
        Value::object(m)
    }

    /// Decode from the JSON shape; a missing or non-object section, or a
    /// missing or mistyped field, decodes as zero (an empty list for the
    /// percentages). Each section object is looked up once.
    pub fn from_value(v: &Value) -> Self {
        let floats = |section: Option<&Value>| -> Vec<f64> {
            section
                .and_then(|s| s.get("percent"))
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default()
        };
        let num = |section: Option<&Value>, field: &str| {
            section
                .and_then(|s| s.get(field))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let (memory, disk, network) = (v.get("memory"), v.get("disk"), v.get("network"));
        Self {
            cpu_percent: floats(v.get("cpu")),
            mem_used_mb: num(memory, "used_mb"),
            mem_total_mb: num(memory, "total_mb"),
            gpu_percent: floats(v.get("gpu")),
            disk_read_bytes: num(disk, "read_bytes") as u64,
            disk_write_bytes: num(disk, "write_bytes") as u64,
            net_sent_bytes: num(network, "sent_bytes") as u64,
            net_recv_bytes: num(network, "recv_bytes") as u64,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self {
            cpu_percent: vec![0.0],
            mem_used_mb: 0.0,
            mem_total_mb: 512_000.0, // Frontier node: 512 GB DDR4
            gpu_percent: Vec::new(),
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            net_sent_bytes: 0,
            net_recv_bytes: 0,
        }
    }
}

/// Deterministic telemetry synthesizer for simulated workloads.
///
/// Produces per-task load shaped by a SplitMix64 stream keyed on
/// `(seed, task_ordinal)`, so reruns are identical. Load levels scale with
/// the `intensity` hint supplied by the workflow (DFT tasks run hot, data
/// prep runs cold).
#[derive(Debug, Clone)]
pub struct TelemetrySynth {
    seed: u64,
    /// Number of CPU cores per simulated node.
    pub cores: usize,
    /// Number of GPUs per simulated node.
    pub gpus: usize,
}

impl TelemetrySynth {
    /// A synthesizer shaped like a Frontier compute node (64 cores, 8 GCDs).
    pub fn frontier(seed: u64) -> Self {
        Self {
            seed,
            cores: 64,
            gpus: 8,
        }
    }

    /// A small edge-node synthesizer (4 cores, no GPU).
    pub fn edge(seed: u64) -> Self {
        Self {
            seed,
            cores: 4,
            gpus: 0,
        }
    }

    fn unit(&self, task_ordinal: u64, salt: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(task_ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Snapshot at a given phase (0 = start, 1 = end) for a task.
    ///
    /// `intensity` in `[0,1]` scales the expected utilization.
    pub fn snapshot(&self, task_ordinal: u64, phase: u64, intensity: f64) -> Telemetry {
        let base = 10.0 + 75.0 * intensity.clamp(0.0, 1.0);
        let cpu: Vec<f64> = (0..self.cores)
            .map(|c| {
                let jitter = self.unit(task_ordinal, phase * 1000 + c as u64) * 20.0 - 10.0;
                (base + jitter + phase as f64 * 8.0).clamp(0.0, 100.0)
            })
            .collect();
        let gpu: Vec<f64> = (0..self.gpus)
            .map(|g| {
                let jitter = self.unit(task_ordinal, 7_000 + phase * 1000 + g as u64) * 30.0 - 15.0;
                (base * intensity + jitter).clamp(0.0, 100.0)
            })
            .collect();
        let mem_total = if self.gpus > 0 { 512_000.0 } else { 16_000.0 };
        let mem = mem_total * (0.08 + 0.5 * intensity * self.unit(task_ordinal, 31 + phase));
        let io_scale = (1.0 + intensity * 50.0) * 1e6;
        Telemetry {
            cpu_percent: cpu,
            mem_used_mb: mem,
            mem_total_mb: mem_total,
            gpu_percent: gpu,
            disk_read_bytes: (io_scale * self.unit(task_ordinal, 41 + phase)) as u64,
            disk_write_bytes: (io_scale * self.unit(task_ordinal, 43 + phase)) as u64,
            net_sent_bytes: (io_scale * self.unit(task_ordinal, 47 + phase)) as u64,
            net_recv_bytes: (io_scale * self.unit(task_ordinal, 53 + phase)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value() {
        let t = TelemetrySynth::frontier(1).snapshot(3, 0, 0.7);
        let v = t.to_value();
        let back = Telemetry::from_value(&v);
        assert_eq!(t, back);
    }

    /// Missing and non-object sections, and missing or mistyped fields,
    /// decode as zeros and empty lists; present fields still decode.
    #[test]
    fn missing_and_malformed_sections_decode_as_zero() {
        use crate::{arr, obj};
        let zero = Telemetry {
            cpu_percent: Vec::new(),
            mem_used_mb: 0.0,
            mem_total_mb: 0.0,
            gpu_percent: Vec::new(),
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            net_sent_bytes: 0,
            net_recv_bytes: 0,
        };
        let malformed = [
            Value::Null,
            Value::Int(3),
            arr![1, 2],
            obj! {},
            obj! {
                "cpu" => arr![1.0, 2.0],
                "memory" => 5,
                "gpu" => "x",
                "disk" => Value::Null,
                "network" => arr![obj! {"sent_bytes" => 1}],
            },
            obj! {
                "cpu" => obj! {"percent" => 5},
                "memory" => obj! {"used" => 1.0},
                "gpu" => obj! {"percent" => obj! {"0" => 1.0}},
                "disk" => obj! {"read_bytes" => "7"},
                "network" => obj! {},
            },
        ];
        for v in &malformed {
            assert_eq!(Telemetry::from_value(v), zero, "{v}");
        }
        let partial = obj! {
            "cpu" => obj! {"percent" => arr![10.0, "busy", 30]},
            "memory" => obj! {"used_mb" => 64.5},
            "network" => obj! {"recv_bytes" => 9},
        };
        let want = Telemetry {
            cpu_percent: vec![10.0, 30.0],
            mem_used_mb: 64.5,
            net_recv_bytes: 9,
            ..zero
        };
        assert_eq!(Telemetry::from_value(&partial), want);
    }

    #[test]
    fn synth_is_deterministic() {
        let a = TelemetrySynth::frontier(5).snapshot(10, 1, 0.5);
        let b = TelemetrySynth::frontier(5).snapshot(10, 1, 0.5);
        assert_eq!(a, b);
        let c = TelemetrySynth::frontier(6).snapshot(10, 1, 0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn intensity_scales_load() {
        let s = TelemetrySynth::frontier(2);
        let hot = s.snapshot(1, 0, 1.0);
        let cold = s.snapshot(1, 0, 0.05);
        assert!(hot.cpu_mean() > cold.cpu_mean());
    }

    #[test]
    fn bounds_hold() {
        let s = TelemetrySynth::frontier(3);
        for t in 0..50 {
            let snap = s.snapshot(t, t % 2, (t as f64) / 50.0);
            assert!(snap.cpu_percent.iter().all(|p| (0.0..=100.0).contains(p)));
            assert!(snap.gpu_percent.iter().all(|p| (0.0..=100.0).contains(p)));
            assert!(snap.mem_fraction() <= 1.0);
        }
    }

    #[test]
    fn edge_nodes_have_no_gpu() {
        let t = TelemetrySynth::edge(1).snapshot(0, 0, 0.9);
        assert!(t.gpu_percent.is_empty());
        assert_eq!(t.gpu_mean(), 0.0);
        assert_eq!(t.cpu_percent.len(), 4);
    }
}
