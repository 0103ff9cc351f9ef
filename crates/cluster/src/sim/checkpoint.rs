//! Engine checkpoints by replay: a snapshot records *where* a run stopped,
//! not the state it stopped in.
//!
//! The simulator is bit-deterministic, so its inputs plus an event count
//! fix the whole run state at any cut. A snapshot is therefore two words:
//! a fingerprint of the inputs the run depends on and the number of
//! events it had processed. Resuming builds a fresh run and drives it,
//! unobserved, to that cut (`Simulator::restore`); from there the
//! resumed run emits exactly the straight run's events and ends in its
//! report (the golden fixtures and the kill-and-resume differential
//! harness pin this). A snapshot's size is constant; resuming costs the
//! replayed prefix.
//!
//! ## Format (`sapred-ckpt/v5`)
//!
//! ```text
//! magic    b"sapred-ckpt/v5\n"          15 bytes
//! length   payload byte count (16)      u64 LE
//! checksum FNV-1a 64 of the payload     u64 LE
//! payload  context fingerprint, cut     two u64 LE
//! ```
//!
//! The context fingerprint covers everything the replay depends on:
//! cluster config, cost model, scheduler name, fault plan, and the full
//! workload shape (task specs included). Whether the run is
//! [crosschecked](Simulator::crosschecked) is left out, so a blob written
//! by a plain run resumes under a crosschecked one and the other way
//! round. Resuming against a different context fails with
//! [`CheckpointError::ContextMismatch`] instead of silently diverging.
//! Every single-byte corruption of a blob is caught: payload flips break
//! the checksum, header flips break the magic, the length, or the
//! checksum itself. A re-checksummed blob whose cut is not inside the run
//! is refused as [`CheckpointError::Corrupt`]. Blobs of an older format
//! version fail with [`CheckpointError::BadMagic`].

use std::fmt;

use crate::job::{SimQuery, TaskKind};
use crate::sched::Scheduler;
use sapred_obs::fnv1a;
use sapred_plan::JobCategory;

use super::engine::Simulator;

/// Magic header of a `sapred-ckpt/v5` checkpoint blob.
const MAGIC: &[u8] = b"sapred-ckpt/v5\n";

/// Payload bytes: the context fingerprint and the cut, one `u64` each.
const PAYLOAD: usize = 16;

/// Why a checkpoint blob could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with the `sapred-ckpt/v5` magic header —
    /// not a checkpoint, or a different format version.
    BadMagic,
    /// The blob ends before the declared payload does.
    Truncated,
    /// The payload's FNV-1a checksum does not match the header — the blob
    /// was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The snapshot was taken under a different configuration (cluster
    /// config, cost model, scheduler, fault plan, or workload)
    /// than the one restoring it.
    ContextMismatch {
        /// Fingerprint of the restoring simulator's context.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The blob checksummed clean but does not name a cut of this run
    /// (bytes past the payload, a payload of the wrong size, or a cut at
    /// event 0 or at or past the run's end).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a sapred-ckpt/v5 checkpoint (bad magic header)")
            }
            CheckpointError::Truncated => {
                write!(f, "checkpoint truncated: payload ends before its declared length")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: header declares {expected:#018x}, \
                 payload hashes to {found:#018x}"
            ),
            CheckpointError::ContextMismatch { expected, found } => write!(
                f,
                "checkpoint context mismatch: snapshot was taken under fingerprint \
                 {found:#018x}, restoring simulator has {expected:#018x} \
                 (different config, scheduler, fault plan, or workload)"
            ),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Little-endian byte writer the context fingerprint hashes.
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// The string's bytes, then `0xff` (no UTF-8 byte), so `"ab","c"` and
    /// `"a","bc"` write different bytes.
    fn str(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
        self.u8(0xff);
    }
}

// ---------------------------------------------------------------------
// Context fingerprint.

fn category_u8(c: JobCategory) -> u8 {
    match c {
        JobCategory::Extract => 0,
        JobCategory::Groupby => 1,
        JobCategory::Join => 2,
    }
}

fn kind_u8(k: TaskKind) -> u8 {
    match k {
        TaskKind::Map => 0,
        TaskKind::Reduce => 1,
    }
}

/// Fingerprint everything the replay depends on: if any of it differs at
/// restore time, driving to the recorded cut would build a different run
/// state (different events, RNG consumption, task durations), so restore
/// must be refused.
fn context_fingerprint<S: Scheduler>(sim: &Simulator<S>, queries: &[SimQuery]) -> u64 {
    let mut h = Writer { out: Vec::new() };
    // Cluster config.
    h.usize(sim.config.nodes);
    h.usize(sim.config.containers_per_node);
    h.f64(sim.config.bytes_per_reducer);
    h.usize(sim.config.max_reducers);
    h.f64(sim.config.submit_overhead);
    h.u64(sim.config.seed);
    // Ground-truth cost model.
    h.f64(sim.cost.task_base);
    h.f64(sim.cost.read_rate);
    h.f64(sim.cost.map_cpu_rate);
    h.f64(sim.cost.write_rate);
    h.f64(sim.cost.shuffle_rate);
    h.f64(sim.cost.reduce_cpu_rate);
    h.f64(sim.cost.sort_coeff);
    h.f64(sim.cost.join_out_surcharge);
    h.f64(sim.cost.noise_sigma);
    h.f64(sim.cost.contention_coeff);
    h.f64(sim.cost.straggler_prob);
    h.f64(sim.cost.straggler_factor);
    // Policy.
    h.str(sim.scheduler.name());
    // Fault plan.
    h.f64(sim.faults.task_fail_prob);
    h.usize(sim.faults.max_attempts);
    h.f64(sim.faults.backoff_base);
    h.f64(sim.faults.backoff_cap);
    h.usize(sim.faults.node_crashes.len());
    for nc in &sim.faults.node_crashes {
        h.usize(nc.node.0);
        h.f64(nc.at);
        h.f64(nc.down_for);
    }
    h.usize(sim.faults.blacklist_after);
    h.bool(sim.faults.speculative);
    h.f64(sim.faults.spec_fraction);
    h.u64(sim.faults.seed);
    // Workload: names, arrivals, DAG shape, task specs, frozen predictions.
    h.usize(queries.len());
    for q in queries {
        h.str(&q.name);
        h.f64(q.arrival);
        h.usize(q.jobs.len());
        for j in &q.jobs {
            h.usize(j.id.0);
            h.usize(j.deps.len());
            for d in &j.deps {
                h.usize(d.0);
            }
            h.u8(category_u8(j.category));
            h.f64(j.prediction.map_task_time);
            h.f64(j.prediction.reduce_task_time);
            for list in [&j.maps, &j.reduces] {
                h.usize(list.len());
                for t in list {
                    h.f64(t.bytes_in);
                    h.f64(t.bytes_out);
                    h.u8(category_u8(t.category));
                    h.u8(kind_u8(t.kind));
                    h.f64(t.p);
                }
            }
        }
    }
    fnv1a(&h.out)
}

// ---------------------------------------------------------------------
// Frame.

/// A framed `sapred-ckpt/v5` blob recording a cut after `events_processed`
/// events of the run of `sim` over `queries`.
pub(super) fn encode<S: Scheduler>(
    sim: &Simulator<S>,
    queries: &[SimQuery],
    events_processed: u64,
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD);
    payload.extend_from_slice(&context_fingerprint(sim, queries).to_le_bytes());
    payload.extend_from_slice(&events_processed.to_le_bytes());
    let mut out = Vec::with_capacity(MAGIC.len() + 16 + PAYLOAD);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(PAYLOAD as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The cut a framed `sapred-ckpt/v5` blob records, once its frame,
/// checksum and context check out. Whether the cut lies inside the run
/// only the replay can tell.
pub(super) fn decode<S: Scheduler>(
    sim: &Simulator<S>,
    queries: &[SimQuery],
    bytes: &[u8],
) -> Result<u64, CheckpointError> {
    let rest = bytes.strip_prefix(MAGIC).ok_or(CheckpointError::BadMagic)?;
    if rest.len() < 16 {
        return Err(CheckpointError::Truncated);
    }
    let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let (declared_len, declared_sum) = (word(&rest[..8]), word(&rest[8..16]));
    let payload = &rest[16..];
    if (payload.len() as u64) < declared_len {
        return Err(CheckpointError::Truncated);
    }
    if payload.len() as u64 > declared_len {
        return Err(CheckpointError::Corrupt(format!(
            "{} bytes after the declared payload end",
            payload.len() as u64 - declared_len
        )));
    }
    let found_sum = fnv1a(payload);
    if found_sum != declared_sum {
        return Err(CheckpointError::ChecksumMismatch { expected: declared_sum, found: found_sum });
    }
    if payload.len() != PAYLOAD {
        return Err(CheckpointError::Corrupt(format!(
            "payload holds {} bytes, expected {PAYLOAD}",
            payload.len()
        )));
    }
    let (found_ctx, cut) = (word(&payload[..8]), word(&payload[8..]));
    let expected_ctx = context_fingerprint(sim, queries);
    if found_ctx != expected_ctx {
        return Err(CheckpointError::ContextMismatch { expected: expected_ctx, found: found_ctx });
    }
    if cut == 0 {
        return Err(CheckpointError::Corrupt(
            "cut at event 0 precedes the run's first event".into(),
        ));
    }
    Ok(cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_problem() {
        let cases: [(CheckpointError, &str); 5] = [
            (CheckpointError::BadMagic, "magic"),
            (CheckpointError::Truncated, "truncated"),
            (CheckpointError::ChecksumMismatch { expected: 1, found: 2 }, "checksum"),
            (CheckpointError::ContextMismatch { expected: 1, found: 2 }, "context"),
            (CheckpointError::Corrupt("cut at event 0".into()), "cut at event 0"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} should mention {needle}");
        }
    }
}
