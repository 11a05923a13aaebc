//! Checkpoint/restore of the tracing engine — the `core`-layer half of
//! the snapshot subsystem.
//!
//! The codec itself (writer/reader, envelope, version policy) lives in
//! [`tasksim::snapshot`] and is re-exported here; this module adds the
//! [`Config`] codec — every field a deployment sets, nothing a test
//! baseline selects (the frozen reference pipeline is chosen by
//! construction, so a restored engine always takes the fast paths) — and
//! documents how the front-ends compose the layers:
//!
//! * [`tasksim::Runtime`](tasksim::runtime::Runtime) serializes the
//!   region forest, analyzer frontiers, template store (with the shared
//!   utility hints), tracing state machine, operation log (with its
//!   digest), and the attached `SimPipeline`;
//! * [`crate::replayer::TraceReplayer`] serializes the candidate trie
//!   (via [`substrings::trie::TrieSnapshot`], free lists and tombstones
//!   included), the per-candidate meta table, live cursors, the pending
//!   buffer, completed matches, retired trace ids, and its counters;
//! * [`crate::finder::TraceFinder`] quiesces its mining pipeline (blocks
//!   until in-flight jobs land), then serializes the rolling history
//!   buffer, sampler counters, completed-but-unpolled batches, and
//!   pipeline health;
//! * [`crate::engine::AutoTracer`] stitches those together with its
//!   Figure 9/10 metrics and its agreement queue behind
//!   [`TaskIssuer::checkpoint`](tasksim::issuer::TaskIssuer::checkpoint);
//!   [`crate::distributed::DistributedAutoTracer`] writes a node count
//!   followed by one engine payload per node, all cut at the same
//!   issued-task barrier;
//! * [`Session::resume_from`](crate::session::Session::resume_from)
//!   dispatches on the envelope's front-end tag and rebuilds the right
//!   front-end.
//!
//! The contract throughout: a run checkpointed at a task boundary and
//! restored in a fresh process continues **bit-identically** to the
//! uninterrupted run — same `SimReport`, same op digest, same eviction
//! decisions — because every serialized quantity is either exact state
//! (f64s move via `to_bits`) or derived deterministically from it.

use crate::config::{
    CapacityConfig, Config, DelayModel, FinderPolicy, IdentifierAlgorithm, IngestSchedule,
    MiningMode, RepeatsAlgorithm, ScoringConfig,
};
pub use tasksim::snapshot::{
    read_envelope, write_envelope, CheckpointMeta, Restore, Snapshot, SnapshotError,
    SnapshotReader, SnapshotWriter, FORMAT_VERSION, FRONT_END_AUTO, FRONT_END_DISTRIBUTED,
    FRONT_END_RUNTIME,
};

/// Writes a [`Config`] into a payload.
pub fn put_config(w: &mut SnapshotWriter, c: &Config) {
    w.put_len(c.min_trace_length);
    w.put_opt_len(c.max_trace_length);
    w.put_len(c.batch_size);
    w.put_len(c.multi_scale_factor);
    w.put_u8(match c.identifier {
        IdentifierAlgorithm::MultiScale => 0,
        IdentifierAlgorithm::FixedBatch => 1,
    });
    w.put_u8(match c.repeats {
        RepeatsAlgorithm::QuickMatching => 0,
        RepeatsAlgorithm::TandemRepeats => 1,
        RepeatsAlgorithm::Lzw => 2,
    });
    w.put_u8(match c.mining {
        MiningMode::Sync => 0,
        MiningMode::Async => 1,
    });
    w.put_len(c.mining_threads);
    w.put_u32(c.scoring.count_cap);
    w.put_f64(c.scoring.staleness_half_life);
    w.put_f64(c.scoring.replay_bonus);
    w.put_opt_len(c.capacity.max_candidates);
    w.put_opt_len(c.capacity.max_trie_nodes);
    w.put_opt_len(c.capacity.max_trie_bytes);
    w.put_opt_len(c.capacity.max_template_bytes);
    w.put_u8(match c.finder_policy {
        FinderPolicy::DegradeUntraced => 0,
        FinderPolicy::FailStop => 1,
    });
    match c.ingest {
        IngestSchedule::Opportunistic => w.put_u8(0),
        IngestSchedule::Gated => w.put_u8(1),
        IngestSchedule::Agreed { interval, delay } => {
            w.put_u8(2);
            w.put_u64(interval);
            w.put_u64(delay.seed);
            w.put_u64(delay.max_delay);
        }
    }
}

/// Reads a [`Config`] written by [`put_config`].
///
/// # Errors
///
/// [`SnapshotError`] on truncated input or invalid enum tags.
pub fn get_config(r: &mut SnapshotReader<'_>) -> Result<Config, SnapshotError> {
    let bad = |what: &str, t: u8| SnapshotError::Corrupt(format!("invalid {what} tag {t}"));
    Ok(Config {
        min_trace_length: r.get_len()?,
        max_trace_length: r.get_opt_len()?,
        batch_size: r.get_len()?,
        multi_scale_factor: r.get_len()?,
        identifier: match r.get_u8()? {
            0 => IdentifierAlgorithm::MultiScale,
            1 => IdentifierAlgorithm::FixedBatch,
            t => return Err(bad("identifier", t)),
        },
        repeats: match r.get_u8()? {
            0 => RepeatsAlgorithm::QuickMatching,
            1 => RepeatsAlgorithm::TandemRepeats,
            2 => RepeatsAlgorithm::Lzw,
            t => return Err(bad("repeats", t)),
        },
        mining: match r.get_u8()? {
            0 => MiningMode::Sync,
            1 => MiningMode::Async,
            t => return Err(bad("mining", t)),
        },
        mining_threads: r.get_len()?,
        scoring: ScoringConfig {
            count_cap: r.get_u32()?,
            staleness_half_life: r.get_f64()?,
            replay_bonus: r.get_f64()?,
        },
        capacity: CapacityConfig {
            max_candidates: r.get_opt_len()?,
            max_trie_nodes: r.get_opt_len()?,
            max_trie_bytes: r.get_opt_len()?,
            max_template_bytes: r.get_opt_len()?,
        },
        finder_policy: match r.get_u8()? {
            0 => FinderPolicy::DegradeUntraced,
            1 => FinderPolicy::FailStop,
            t => return Err(bad("finder policy", t)),
        },
        ingest: match r.get_u8()? {
            0 => IngestSchedule::Opportunistic,
            1 => IngestSchedule::Gated,
            2 => IngestSchedule::Agreed {
                interval: r.get_u64()?,
                delay: DelayModel { seed: r.get_u64()?, max_delay: r.get_u64()? },
            },
            t => return Err(bad("ingest schedule", t)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_every_knob() {
        // Every field differs from `Config::standard()`, so a field the
        // codec dropped or misordered could not round-trip.
        let mut c = Config::standard()
            .with_max_trace_length(200)
            .with_min_trace_length(7)
            .with_batch_size(512)
            .with_multi_scale_factor(64)
            .with_async_mining()
            .with_mining_threads(3)
            .with_gated_ingest()
            .with_max_candidates(9)
            .with_max_trie_nodes(99)
            .with_max_trie_bytes(4096)
            .with_max_template_bytes(8192)
            .with_finder_policy(FinderPolicy::FailStop);
        c.identifier = IdentifierAlgorithm::FixedBatch;
        c.repeats = RepeatsAlgorithm::Lzw;
        c.scoring.count_cap = 5;
        c.scoring.staleness_half_life = 100.0;
        c.scoring.replay_bonus = 0.5;
        // Exhaustive, so a new field fails to compile here until it is
        // set off its default above and round-trips below.
        let Config {
            min_trace_length,
            max_trace_length,
            batch_size,
            multi_scale_factor,
            identifier,
            repeats,
            mining,
            mining_threads,
            ingest,
            scoring,
            capacity,
            finder_policy,
        } = Config::standard();
        let differs = [
            c.min_trace_length != min_trace_length,
            c.max_trace_length != max_trace_length,
            c.batch_size != batch_size,
            c.multi_scale_factor != multi_scale_factor,
            c.identifier != identifier,
            c.repeats != repeats,
            c.mining != mining,
            c.mining_threads != mining_threads,
            c.ingest != ingest,
            c.scoring.count_cap != scoring.count_cap,
            c.scoring.staleness_half_life != scoring.staleness_half_life,
            c.scoring.replay_bonus != scoring.replay_bonus,
            c.capacity.max_candidates != capacity.max_candidates,
            c.capacity.max_trie_nodes != capacity.max_trie_nodes,
            c.capacity.max_trie_bytes != capacity.max_trie_bytes,
            c.capacity.max_template_bytes != capacity.max_template_bytes,
            c.finder_policy != finder_policy,
        ];
        assert!(differs.iter().all(|&d| d), "every knob set off its default: {differs:?}");
        let round_trip = |c: &Config| {
            let mut w = SnapshotWriter::new();
            put_config(&mut w, c);
            let payload = w.into_payload();
            let mut r = SnapshotReader::new(&payload);
            assert_eq!(&get_config(&mut r).unwrap(), c);
            r.expect_end().unwrap();
        };
        round_trip(&c);
        round_trip(&c.with_agreed_ingest(12, DelayModel::new(2024, 25)));
    }

    #[test]
    fn config_rejects_invalid_tags() {
        let mut w = SnapshotWriter::new();
        put_config(&mut w, &Config::standard());
        let mut payload = w.into_payload();
        // The identifier tag sits after three u64 lengths and the absent
        // max_trace_length's presence byte: 8 + 1 + 8 + 8 = 25.
        payload[25] = 9;
        let mut r = SnapshotReader::new(&payload);
        let err = get_config(&mut r).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(ref m) if m.contains("identifier")), "{err}");
    }
}
