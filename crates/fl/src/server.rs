//! The federation server: weighted parameter aggregation, plus the service
//! runtime that multiplexes whole federations.
//!
//! The bottom half of this module is the original server primitive —
//! [`aggregate`] / [`aggregate_into`], FedAvg's data-size-weighted mean.
//! On top of it sits the service layer:
//!
//! * [`JobQueue`] — a bounded registry of self-contained seeded
//!   [`JobSpec`]s keyed by *client-chosen* job id. Every job carries its own
//!   seed, so queue position never influences results, and the registry
//!   remembers finished jobs: re-submitting an id with the same spec bytes
//!   is an idempotent replay ([`Submission::Replay`]), re-submitting with
//!   different bytes a typed [`QueueReject::DuplicateJob`], and polling an
//!   id that aged out of the bounded store a typed
//!   [`QueueReject::ExpiredJob`] — graceful degradation, never a panic.
//! * [`SessionStore`] — the cross-connection service state: the job
//!   registry plus aggregation sessions that *survive disconnects*. Share
//!   one store ([`SessionStore::shared`]) across connections and a client
//!   that reconnects can resume an open session
//!   ([`Message::ResumeSession`] → [`Message::SessionStatus`]) or fetch a
//!   completed round / job result it never saw the reply for.
//! * [`FederationService`] — executes jobs through
//!   [`crate::engine::FederationEngine`] sessions, either serially
//!   ([`FederationService::execute_job`]) or multiplexed over a
//!   scoped-thread worker pool ([`FederationService::run_queue`]), with
//!   bit-identical results either way: engines share no mutable state, and
//!   each result lands in its job's own slot regardless of which worker ran
//!   it or in what order they finished.
//! * Wire dispatch — [`FederationService::handle_message`] maps each
//!   decoded [`Message`] to its reply, and
//!   [`FederationService::serve_summary`] pumps frames over any
//!   `Read`/`Write` transport until shutdown, clean EOF, or an idle read
//!   deadline ([`ServeEnd::IdleReaped`] — how `ctfl-server` sheds half-open
//!   connections). Corrupt frames get a typed
//!   [`crate::wire::RejectCode::BadFrame`] reply; the connection survives.

use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl_core::error::{CoreError, Result};
use ctfl_nn::net::LogicalNetConfig;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::adversary::{AdversaryPlan, AttackKind};
use crate::aggregate::{Aggregator, CoordinateMedian, MultiKrum, TrimmedMean, WeightedFedAvg};
use crate::engine::FederationEngine;
use crate::faults::{CorruptionKind, FaultPlan, FaultSpec};
use crate::fedavg::{ByzantineSetup, FlConfig};
use crate::guard::GuardConfig;
use crate::schedule::Schedule;
use crate::topology::Topology;
use crate::wire::{self, JobSpec, Message, RejectCode, WireError, WireResult};

/// Aggregates client parameter vectors by FedAvg's data-size-weighted mean:
/// `θ = Σ_i (n_i / Σ_j n_j) · θ_i`.
///
/// Every vector must be entirely finite: a single NaN or infinity would
/// silently poison the global model, so non-finite inputs are rejected with
/// [`CoreError::NonFinite`] naming the offending client index. (The round
/// guard filters these earlier; this is the server's last line of defence.)
///
/// Returns the aggregated vector.
pub fn aggregate(client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>> {
    let mut out = Vec::new();
    aggregate_into(client_params, weights, &mut out)?;
    Ok(out)
}

/// [`aggregate`] into a caller-owned buffer (cleared first), so the FedAvg
/// round loop reuses one output vector across rounds. Accumulation stays in
/// `f64` — results are bit-identical to [`aggregate`].
pub fn aggregate_into(
    client_params: &[Vec<f32>],
    weights: &[usize],
    out: &mut Vec<f32>,
) -> Result<()> {
    let dim = crate::aggregate::validate_updates(client_params, weights)?;
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    if total <= 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "weights",
            message: "total weight must be positive".into(),
        });
    }
    let mut acc = vec![0.0f64; dim];
    for (params, &w) in client_params.iter().zip(weights) {
        let frac = w as f64 / total;
        for (o, &p) in acc.iter_mut().zip(params) {
            *o += frac * f64::from(p);
        }
    }
    out.clear();
    out.extend(acc.into_iter().map(|v| v as f32));
    Ok(())
}

// ---- service fingerprints ----------------------------------------------

/// FNV-1a over raw bytes — the service's result fingerprint.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the little-endian bit patterns of a parameter vector.
pub fn fnv1a_bits(values: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---- job queue ---------------------------------------------------------

/// A finished job's deterministic fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Id of the job.
    pub job: u32,
    /// FNV-1a over the trained global parameter bits.
    pub params_hash: u64,
    /// FNV-1a over the rendered federation log.
    pub log_hash: u64,
    /// Rounds the federation committed.
    pub rounds: u32,
    /// Training accuracy of the final global model on the job's pooled
    /// workload.
    pub accuracy: f64,
}

/// Where a registered job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Submitted but not yet executed (queued or running).
    Pending,
    /// Finished; the recorded fingerprints are replayed on re-submission
    /// and served to [`Message::PollJob`].
    Done(JobResult),
    /// Execution failed with this rendered error; replayed likewise.
    Failed(String),
}

/// What [`JobQueue::submit`] decided about a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// A fresh id: the job was registered and enqueued — run it.
    Accepted,
    /// The same id + spec is already queued or running; poll later.
    Pending,
    /// The same id + spec already finished: here is the recorded result.
    /// The federation is **not** re-run — this is what makes a retry after
    /// a lost reply safe.
    Replay(JobResult),
    /// The same id + spec already failed with this rendered error.
    ReplayFailed(String),
}

/// Typed refusals from the job registry, rendered onto the wire as
/// [`Message::Reject`] with a matching [`RejectCode`] so idempotent
/// resubmission is observable by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueReject {
    /// The id was submitted before with a *different* spec.
    DuplicateJob {
        /// The contested id.
        job: u32,
    },
    /// The id was never submitted.
    UnknownJob {
        /// The unknown id.
        job: u32,
    },
    /// The id's record aged out of the bounded result store.
    ExpiredJob {
        /// The expired id.
        job: u32,
    },
    /// The pending backlog is full; retry after the server drains.
    Backlog {
        /// The refused id.
        job: u32,
        /// Jobs already pending.
        pending: usize,
    },
}

impl QueueReject {
    /// The wire-level rejection category for this refusal.
    pub fn code(&self) -> RejectCode {
        match self {
            QueueReject::DuplicateJob { .. } => RejectCode::DuplicateJob,
            QueueReject::UnknownJob { .. } => RejectCode::UnknownJob,
            QueueReject::ExpiredJob { .. } => RejectCode::Expired,
            QueueReject::Backlog { .. } => RejectCode::Busy,
        }
    }
}

impl fmt::Display for QueueReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueReject::DuplicateJob { job } => {
                write!(f, "job {job} was already submitted with a different spec")
            }
            QueueReject::UnknownJob { job } => write!(f, "job {job} was never submitted"),
            QueueReject::ExpiredJob { job } => {
                write!(f, "job {job} aged out of the bounded result store")
            }
            QueueReject::Backlog { job, pending } => {
                write!(f, "job {job} refused: backlog of {pending} pending jobs is full")
            }
        }
    }
}

impl std::error::Error for QueueReject {}

/// Fixed-capacity ring remembering ids evicted from a bounded store, so a
/// lookup can answer "expired" instead of "never existed".
#[derive(Debug)]
struct EvictRing {
    ids: VecDeque<u32>,
    cap: usize,
}

impl EvictRing {
    fn new(cap: usize) -> Self {
        EvictRing { ids: VecDeque::new(), cap }
    }

    fn push(&mut self, id: u32) {
        if self.cap == 0 {
            return;
        }
        if self.ids.len() == self.cap {
            self.ids.pop_front();
        }
        self.ids.push_back(id);
    }

    fn contains(&self, id: u32) -> bool {
        self.ids.contains(&id)
    }
}

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    /// The spec's canonical wire bytes — the idempotency identity (bit-exact
    /// even for NaN fields that defeat `PartialEq`).
    spec_bytes: Vec<u8>,
    state: JobState,
}

/// A bounded registry + FIFO of federation jobs keyed by job id.
///
/// The FIFO face ([`JobQueue::push`] / [`JobQueue::pop`] /
/// [`JobQueue::drain`]) serves batch drivers; the registry face
/// ([`JobQueue::submit`] / [`JobQueue::poll`] / [`JobQueue::complete`] /
/// [`JobQueue::fail`]) serves the wire dispatcher's idempotency contract.
/// Finished records are retained (bounded by `max_finished`) so a retrying
/// or reconnecting client can recover a result it never saw; evicted ids
/// are remembered in a ring so they poll as *expired*, not unknown.
#[derive(Debug)]
pub struct JobQueue {
    records: HashMap<u32, JobRecord>,
    pending: VecDeque<u32>,
    finished: VecDeque<u32>,
    evicted: EvictRing,
    next_auto: u32,
    max_pending: usize,
    max_finished: usize,
}

impl Default for JobQueue {
    fn default() -> Self {
        let cfg = StoreConfig::default();
        Self::bounded(cfg.max_pending_jobs, cfg.max_finished_jobs, cfg.max_evicted)
    }
}

impl JobQueue {
    /// An empty queue with the default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with explicit bounds: at most `max_pending` queued
    /// jobs, `max_finished` retained results, and `max_evicted` remembered
    /// evictions.
    pub fn bounded(max_pending: usize, max_finished: usize, max_evicted: usize) -> Self {
        JobQueue {
            records: HashMap::new(),
            pending: VecDeque::new(),
            finished: VecDeque::new(),
            evicted: EvictRing::new(max_evicted),
            next_auto: 0,
            max_pending,
            max_finished,
        }
    }

    /// Enqueues a job under the next free auto-assigned id, returning it.
    /// This legacy batch-driver face is infallible: it skips ids already in
    /// use and bypasses the backlog bound.
    pub fn push(&mut self, spec: JobSpec) -> u32 {
        loop {
            let id = self.next_auto;
            self.next_auto = self.next_auto.wrapping_add(1);
            if !self.records.contains_key(&id) && !self.evicted.contains(id) {
                let spec_bytes = spec.canonical_bytes();
                self.records.insert(id, JobRecord { spec, spec_bytes, state: JobState::Pending });
                self.pending.push_back(id);
                return id;
            }
        }
    }

    /// Registers a job under a *client-chosen* id — the wire dispatcher's
    /// idempotent entry point. Spec identity is the canonical wire byte
    /// encoding, so a bit-exact re-submission replays and anything else is
    /// a typed refusal.
    pub fn submit(
        &mut self,
        job: u32,
        spec: &JobSpec,
    ) -> std::result::Result<Submission, QueueReject> {
        let spec_bytes = spec.canonical_bytes();
        if let Some(rec) = self.records.get(&job) {
            if rec.spec_bytes != spec_bytes {
                return Err(QueueReject::DuplicateJob { job });
            }
            return Ok(match &rec.state {
                JobState::Pending => Submission::Pending,
                JobState::Done(r) => Submission::Replay(r.clone()),
                JobState::Failed(d) => Submission::ReplayFailed(d.clone()),
            });
        }
        if self.evicted.contains(job) {
            return Err(QueueReject::ExpiredJob { job });
        }
        if self.pending.len() >= self.max_pending {
            return Err(QueueReject::Backlog { job, pending: self.pending.len() });
        }
        self.records
            .insert(job, JobRecord { spec: spec.clone(), spec_bytes, state: JobState::Pending });
        self.pending.push_back(job);
        Ok(Submission::Accepted)
    }

    /// Records a job's result; the id leaves the pending FIFO and its
    /// record answers future polls and replays. Overflow beyond the
    /// finished bound evicts the oldest result into the expired ring.
    /// Completing an id that was never registered is a no-op.
    pub fn complete(&mut self, job: u32, result: JobResult) {
        self.finish(job, JobState::Done(result));
    }

    /// Records a job's failure (rendered error); same retention and
    /// eviction contract as [`JobQueue::complete`].
    pub fn fail(&mut self, job: u32, detail: String) {
        self.finish(job, JobState::Failed(detail));
    }

    fn finish(&mut self, job: u32, state: JobState) {
        self.pending.retain(|&id| id != job);
        let Some(rec) = self.records.get_mut(&job) else { return };
        let was_pending = matches!(rec.state, JobState::Pending);
        rec.state = state;
        if !was_pending {
            return;
        }
        self.finished.push_back(job);
        if self.finished.len() > self.max_finished {
            if let Some(old) = self.finished.pop_front() {
                self.records.remove(&old);
                self.evicted.push(old);
            }
        }
    }

    /// Looks up a job's lifecycle state, or a typed refusal distinguishing
    /// "never submitted" from "aged out".
    pub fn poll(&self, job: u32) -> std::result::Result<&JobState, QueueReject> {
        if let Some(rec) = self.records.get(&job) {
            return Ok(&rec.state);
        }
        if self.evicted.contains(job) {
            return Err(QueueReject::ExpiredJob { job });
        }
        Err(QueueReject::UnknownJob { job })
    }

    /// Dequeues the oldest pending job (its record stays registered so the
    /// result can be recorded with [`JobQueue::complete`]).
    pub fn pop(&mut self) -> Option<(u32, JobSpec)> {
        let id = self.pending.pop_front()?;
        let spec = self.records.get(&id)?.spec.clone();
        Some((id, spec))
    }

    /// Jobs currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drains every pending job in FIFO order (records stay registered).
    pub fn drain(&mut self) -> Vec<(u32, JobSpec)> {
        let mut out = Vec::with_capacity(self.pending.len());
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }
}

// ---- session store -----------------------------------------------------

/// Bounds on the cross-connection service state. Everything the store
/// retains is capped, so a hostile or forgetful client degrades service
/// into typed `Busy`/`Expired` rejections instead of unbounded memory.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Most jobs queued-but-unfinished at once.
    pub max_pending_jobs: usize,
    /// Finished job results retained for poll/replay.
    pub max_finished_jobs: usize,
    /// Most aggregation sessions (open + completed) retained at once.
    pub max_sessions: usize,
    /// Evicted ids remembered so they answer as expired, not unknown.
    pub max_evicted: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_pending_jobs: 64,
            max_finished_jobs: 256,
            max_sessions: 64,
            max_evicted: 1024,
        }
    }
}

/// One wire-level aggregation round: raw parameter uploads collected per
/// client until every expected participant has reported, then the fused
/// result cached for replay and resumption.
#[derive(Debug)]
struct AggregationSession {
    n_clients: u32,
    dim: usize,
    /// The uploads received so far, by client id. Only reported clients
    /// take space, so the declared `n_clients` allocates nothing. A
    /// conflicting second upload is rejected rather than silently
    /// replaced, a bit-identical one replayed.
    updates: BTreeMap<u32, (Vec<f32>, u32)>,
    /// `Some` once every client reported: the fused vector, or the
    /// rendered aggregation error.
    fused: Option<std::result::Result<Vec<f32>, String>>,
}

/// Session-level acknowledgements ([`Message::OpenSession`] replies) use
/// this in [`Message::Ack`]'s `client` field — no real client id can
/// collide with it because a client id is below its session's `u32`
/// client count.
pub const SESSION_ACK: u32 = u32::MAX;

/// The service state that must *survive disconnects*: the job registry and
/// the aggregation sessions. `ctfl-server` builds one
/// [`SessionStore::shared`] store and hands every connection a
/// [`FederationService::with_store`] dispatcher over it, so a client that
/// reconnects can resume its session or poll a result by job id.
#[derive(Debug)]
pub struct SessionStore {
    jobs: JobQueue,
    sessions: HashMap<u32, AggregationSession>,
    completed_order: VecDeque<u32>,
    evicted_sessions: EvictRing,
    config: StoreConfig,
}

impl Default for SessionStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl SessionStore {
    /// An empty store with the given bounds.
    pub fn new(config: StoreConfig) -> Self {
        SessionStore {
            jobs: JobQueue::bounded(
                config.max_pending_jobs,
                config.max_finished_jobs,
                config.max_evicted,
            ),
            sessions: HashMap::new(),
            completed_order: VecDeque::new(),
            evicted_sessions: EvictRing::new(config.max_evicted),
            config,
        }
    }

    /// An empty store behind the `Arc<Mutex<…>>` every connection shares.
    pub fn shared(config: StoreConfig) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Self::new(config)))
    }

    /// The job registry.
    pub fn jobs(&self) -> &JobQueue {
        &self.jobs
    }

    /// The job registry, mutably (batch drivers record results here).
    pub fn jobs_mut(&mut self) -> &mut JobQueue {
        &mut self.jobs
    }

    /// Aggregation sessions currently retained (open + completed).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles [`Message::OpenSession`]: registers the round, idempotently
    /// re-acknowledges an existing session of the same shape, and degrades
    /// into typed `Busy` when the bounded table is full of open sessions.
    pub fn open_session(&mut self, session: u32, n_clients: u32, dim: u32) -> Message {
        if n_clients == 0 || dim == 0 {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!("session {session}: need at least one client and one parameter"),
            };
        }
        if let Some(existing) = self.sessions.get(&session) {
            if existing.n_clients == n_clients && existing.dim == dim as usize {
                // Idempotent replay: the original ack was likely lost.
                return Message::Ack { session, client: SESSION_ACK };
            }
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!(
                    "session {session} already open with a different shape \
                     ({} clients × {} params)",
                    existing.n_clients, existing.dim
                ),
            };
        }
        if self.evicted_sessions.contains(session) {
            return Message::Reject {
                code: RejectCode::Expired,
                detail: format!("session {session} aged out of the bounded session store"),
            };
        }
        if self.sessions.len() >= self.config.max_sessions {
            // Prefer evicting the oldest *completed* round over refusing.
            if let Some(old) = self.completed_order.pop_front() {
                self.sessions.remove(&old);
                self.evicted_sessions.push(old);
            } else {
                return Message::Reject {
                    code: RejectCode::Busy,
                    detail: format!(
                        "session table full with {} open sessions",
                        self.sessions.len()
                    ),
                };
            }
        }
        self.sessions.insert(
            session,
            AggregationSession {
                n_clients,
                dim: dim as usize,
                updates: BTreeMap::new(),
                fused: None,
            },
        );
        Message::Ack { session, client: SESSION_ACK }
    }

    /// Handles [`Message::SubmitUpdate`]: records an upload, replays the
    /// original reply for a bit-identical re-submission (open *or*
    /// completed session — a retry after a lost ack or a lost
    /// round-complete), and types every refusal.
    pub fn submit_update(
        &mut self,
        session: u32,
        client: u32,
        weight: u32,
        params: Vec<f32>,
    ) -> Message {
        let Some(open) = self.sessions.get_mut(&session) else {
            return if self.evicted_sessions.contains(session) {
                Message::Reject {
                    code: RejectCode::Expired,
                    detail: format!("session {session} aged out of the bounded session store"),
                }
            } else {
                Message::Reject {
                    code: RejectCode::UnknownSession,
                    detail: format!("session {session} is not open"),
                }
            };
        };
        if client >= open.n_clients {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!("client {client} outside session of {}", open.n_clients),
            };
        }
        if let Some(fused) = &open.fused {
            // The round already completed. A bit-identical re-submission is
            // a retry of a reply the client lost: replay the completion.
            let Some((stored, stored_w)) = open.updates.get(&client) else {
                return Message::Reject {
                    code: RejectCode::Invalid,
                    detail: format!("client {client} never reported in completed session {session}"),
                };
            };
            if *stored_w == weight && bits_equal(stored, &params) {
                return match fused {
                    Ok(p) => Message::RoundComplete { session, params: p.clone() },
                    Err(d) => Message::Reject { code: RejectCode::Invalid, detail: d.clone() },
                };
            }
            return Message::Reject {
                code: RejectCode::DuplicateUpdate,
                detail: format!(
                    "client {client} already reported different bytes in completed session \
                     {session}"
                ),
            };
        }
        if params.len() != open.dim {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: CoreError::LengthMismatch {
                    what: "update parameters",
                    expected: open.dim,
                    actual: params.len(),
                }
                .to_string(),
            };
        }
        if params.iter().any(|p| !p.is_finite()) {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: CoreError::NonFinite { what: "client parameter vector", index: client as usize }
                    .to_string(),
            };
        }
        if let Some((stored, stored_w)) = open.updates.get(&client) {
            if *stored_w == weight && bits_equal(stored, &params) {
                // Idempotent replay of a recorded (non-completing) upload.
                return Message::Ack { session, client };
            }
            return Message::Reject {
                code: RejectCode::DuplicateUpdate,
                detail: format!("client {client} already reported in session {session}"),
            };
        }
        open.updates.insert(client, (params, weight));
        if open.updates.len() < open.n_clients as usize {
            return Message::Ack { session, client };
        }
        // Final update: fuse in ascending client id, cache for
        // replay/resumption, keep the session.
        let mut vectors = Vec::with_capacity(open.updates.len());
        let mut weights = Vec::with_capacity(open.updates.len());
        for (p, w) in open.updates.values() {
            vectors.push(p.clone());
            weights.push(*w as usize);
        }
        let fused = aggregate(&vectors, &weights).map_err(|e| e.to_string());
        let reply = match &fused {
            Ok(p) => Message::RoundComplete { session, params: p.clone() },
            Err(d) => Message::Reject { code: RejectCode::Invalid, detail: d.clone() },
        };
        open.fused = Some(fused);
        self.completed_order.push_back(session);
        reply
    }

    /// Handles [`Message::ResumeSession`]: an open session answers with its
    /// progress ([`Message::SessionStatus`]), a completed one replays the
    /// fused round, and a missing one types out as unknown or expired.
    pub fn resume_session(&self, session: u32) -> Message {
        match self.sessions.get(&session) {
            Some(s) => match &s.fused {
                None => Message::SessionStatus {
                    session,
                    n_clients: s.n_clients,
                    dim: s.dim as u32,
                    received: s.updates.keys().copied().collect(),
                },
                Some(Ok(p)) => Message::RoundComplete { session, params: p.clone() },
                Some(Err(d)) => {
                    Message::Reject { code: RejectCode::Invalid, detail: d.clone() }
                }
            },
            None if self.evicted_sessions.contains(session) => Message::Reject {
                code: RejectCode::Expired,
                detail: format!("session {session} aged out of the bounded session store"),
            },
            None => Message::Reject {
                code: RejectCode::UnknownSession,
                detail: format!("session {session} is not open"),
            },
        }
    }

    /// Handles [`Message::PollJob`]: a finished job answers with its
    /// recorded fingerprints, a pending one with `Busy`, and a missing one
    /// types out as unknown or expired.
    pub fn poll_job(&self, job: u32) -> Message {
        match self.jobs.poll(job) {
            Ok(JobState::Pending) => Message::Reject {
                code: RejectCode::Busy,
                detail: format!("job {job} is still pending"),
            },
            Ok(JobState::Done(r)) => job_done(r),
            Ok(JobState::Failed(d)) => {
                Message::Reject { code: RejectCode::Invalid, detail: d.clone() }
            }
            Err(qr) => reject_for(&qr),
        }
    }
}

fn job_done(r: &JobResult) -> Message {
    Message::JobDone {
        job: r.job,
        params_hash: r.params_hash,
        log_hash: r.log_hash,
        rounds: r.rounds,
        accuracy: r.accuracy,
    }
}

fn reject_for(qr: &QueueReject) -> Message {
    Message::Reject { code: qr.code(), detail: qr.to_string() }
}

// ---- the service -------------------------------------------------------

/// How a [`FederationService::serve_summary`] connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The peer closed cleanly at a frame boundary.
    CleanEof,
    /// The peer sent [`Message::Shutdown`].
    Shutdown,
    /// The transport's read deadline expired with no frame in flight —
    /// a half-open or silent peer, reaped instead of leaked.
    IdleReaped,
}

impl fmt::Display for ServeEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServeEnd::CleanEof => "clean eof",
            ServeEnd::Shutdown => "shutdown",
            ServeEnd::IdleReaped => "idle peer reaped",
        })
    }
}

/// What a served connection amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including typed rejections).
    pub served: usize,
    /// Why the loop ended.
    pub end: ServeEnd,
}

/// The federation service: a worker pool for queued jobs plus the wire
/// dispatcher over a (shareable) [`SessionStore`].
#[derive(Debug)]
pub struct FederationService {
    workers: usize,
    store: Arc<Mutex<SessionStore>>,
}

impl FederationService {
    /// A service running at most `workers` federations concurrently
    /// (clamped to at least one), over its own fresh store.
    pub fn new(workers: usize) -> Self {
        Self::with_store(workers, SessionStore::shared(StoreConfig::default()))
    }

    /// A service dispatching into a shared store — how `ctfl-server` makes
    /// jobs and sessions survive disconnects: every connection gets its own
    /// `FederationService`, all over one store.
    pub fn with_store(workers: usize, store: Arc<Mutex<SessionStore>>) -> Self {
        FederationService { workers: workers.max(1), store }
    }

    /// A handle to the service's store.
    pub fn store(&self) -> Arc<Mutex<SessionStore>> {
        Arc::clone(&self.store)
    }

    /// Builds the deterministic synthetic workload of a job: `n_clients`
    /// shards over one continuous feature, a pure function of
    /// `(seed, n_clients, rows_per_client)`.
    pub fn workload(spec: &JobSpec) -> Vec<Dataset> {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let n = spec.n_clients as usize;
        let offset = (spec.seed % 101) as usize;
        (0..n)
            .map(|c| {
                let mut d = Dataset::empty(Arc::clone(&schema), 2);
                for i in 0..spec.rows_per_client as usize {
                    let v = ((i * n + c + offset) % 120) as f32 / 120.0;
                    d.push_row(&[v.into()], (v > 0.5) as u32).expect("row matches schema");
                }
                d
            })
            .collect()
    }

    /// Resolves a job's attack code into a plan, or a typed error for
    /// unknown codes. Code `0` is the honest federation.
    fn adversary_plan(spec: &JobSpec) -> Result<AdversaryPlan> {
        let n = spec.n_clients as usize;
        let kind = match spec.attack {
            0 => return Ok(AdversaryPlan::none(n)),
            1 => AttackKind::SignFlip { scale: 1.0 },
            2 => AttackKind::ScaleGradient { factor: 4.0 },
            3 => AttackKind::Collude { leader: 0 },
            4 => AttackKind::FreeRideZero,
            5 => AttackKind::FreeRideStale,
            6 => AttackKind::ClassBias { class: 0, boost: 2.0 },
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "attack",
                    message: format!("unknown attack code {code}"),
                })
            }
        };
        AdversaryPlan::try_generate(n, spec.adversary_frac, kind, spec.seed ^ 0xAD5E)
    }

    /// Resolves a job's aggregation-rule code, or a typed error for unknown
    /// codes.
    fn rule(spec: &JobSpec) -> Result<Box<dyn Aggregator>> {
        Ok(match spec.rule {
            0 => Box::new(WeightedFedAvg),
            1 => Box::new(CoordinateMedian),
            2 => Box::new(TrimmedMean::new(0.25)),
            3 => Box::new(MultiKrum::krum(0)),
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "rule",
                    message: format!("unknown aggregation-rule code {code}"),
                })
            }
        })
    }

    /// Resolves a job's schedule code into a policy, or a typed error for
    /// unknown codes or out-of-range parameters. Code `0` is the legacy
    /// full-participation federation.
    fn schedule(spec: &JobSpec) -> Result<Schedule> {
        let schedule = match spec.schedule {
            0 => Schedule::Full,
            1 => Schedule::UniformSample { frac: spec.sample_frac, seed: spec.seed ^ 0x5C8D },
            2 => Schedule::WeightedSample { frac: spec.sample_frac, seed: spec.seed ^ 0x5C8D },
            3 => Schedule::Async {
                max_staleness: spec.max_staleness as usize,
                staleness_decay: spec.stale_decay,
                seed: spec.seed ^ 0xA5F2,
            },
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "schedule",
                    message: format!("unknown schedule code {code}"),
                })
            }
        };
        schedule.validate()?;
        Ok(schedule)
    }

    /// Resolves a job's topology code, or a typed error for unknown codes.
    /// Code `0` is the legacy star topology.
    fn topology(spec: &JobSpec) -> Result<Topology> {
        Ok(match spec.topology {
            0 => Topology::Star,
            1 => Topology::Gossip {
                degree: spec.gossip_degree as usize,
                seed: spec.seed ^ 0x70B0,
            },
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "topology",
                    message: format!("unknown topology code {code}"),
                })
            }
        })
    }

    /// Runs one job to completion through a [`FederationEngine`] session.
    ///
    /// Every invalid spec is a typed [`CoreError`] (bad probabilities, bad
    /// fractions, unknown codes, empty federations) — the wire path renders
    /// it into a [`Message::Reject`] instead of dying.
    pub fn execute_job(job: u32, spec: &JobSpec) -> Result<JobResult> {
        if spec.n_clients == 0 {
            return Err(CoreError::Empty { what: "job federation" });
        }
        if spec.rows_per_client == 0 {
            return Err(CoreError::Empty { what: "job client shard" });
        }
        let fault_spec = FaultSpec {
            dropout: spec.dropout,
            straggler: spec.straggler,
            corrupt: spec.corrupt,
            corruption: CorruptionKind::NaN,
            ..FaultSpec::default()
        };
        let n = spec.n_clients as usize;
        let rounds = spec.rounds as usize;
        let plan = FaultPlan::try_generate(n, rounds, &fault_spec, spec.seed ^ 0xFA17)?;
        let adversary = Self::adversary_plan(spec)?;
        let rule = Self::rule(spec)?;
        let guard = GuardConfig::default();
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &*rule,
        };
        let fl = FlConfig {
            rounds,
            local_epochs: spec.local_epochs as usize,
            parallel: spec.parallel,
        };
        let net_config = LogicalNetConfig {
            tau_d: 6,
            layer_sizes: vec![8],
            epochs: 5,
            batch_size: 16,
            seed: spec.seed,
            ..LogicalNetConfig::default()
        };
        let shards = Self::workload(spec);
        let mut engine = FederationEngine::from_datasets(&shards, 2, &net_config, &fl, &setup)?
            .with_schedule(Self::schedule(spec)?)?
            .with_topology(Self::topology(spec)?)?;
        engine.run_to_completion()?;
        let run = engine.finish();
        let pooled = Dataset::concat(shards.iter())?;
        let encoded = run.net.encode(&pooled)?;
        let accuracy = run.net.accuracy_encoded(&encoded);
        Ok(JobResult {
            job,
            params_hash: fnv1a_bits(&run.net.params()),
            log_hash: fnv1a_bytes(run.log.render().as_bytes()),
            rounds: run.log.rounds.len() as u32,
            accuracy,
        })
    }

    /// Runs a batch of jobs over the worker pool. Results come back in job
    /// order — position `i` of the output is job `i` of the input — and are
    /// bit-identical to running [`FederationService::execute_job`] over the
    /// slice serially: each engine session is self-contained, each worker
    /// claims the next unclaimed index, and each result is written to its
    /// own pre-allocated slot.
    pub fn run_jobs(&self, jobs: &[(u32, JobSpec)]) -> Vec<Result<JobResult>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let n_workers = self.workers.min(jobs.len());
        if n_workers <= 1 {
            return jobs.iter().map(|(id, spec)| Self::execute_job(*id, spec)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<JobResult>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..n_workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((id, spec)) = jobs.get(i) else { break };
                    let result = Self::execute_job(*id, spec);
                    *slots[i].lock().expect("job slot lock") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("job slot lock").expect("every job slot is filled")
            })
            .collect()
    }

    /// Drains the queue through the worker pool (FIFO submission order in,
    /// job-ordered results out) and records every outcome back into the
    /// queue's registry, so drained jobs stay pollable by id.
    pub fn run_queue(&self, queue: &mut JobQueue) -> Vec<Result<JobResult>> {
        let jobs = queue.drain();
        let results = self.run_jobs(&jobs);
        for ((id, _), res) in jobs.iter().zip(&results) {
            match res {
                Ok(r) => queue.complete(*id, r.clone()),
                Err(e) => queue.fail(*id, e.to_string()),
            }
        }
        results
    }

    /// Maps one request to its reply — the transport-free core of the
    /// dispatcher. Invalid requests come back as [`Message::Reject`] with a
    /// typed [`RejectCode`] rendering the cause; the connection survives.
    ///
    /// The store lock is *not* held while a submitted federation executes:
    /// the job is registered first (so concurrent connections observe it as
    /// pending and get `Busy`, never a double run), released, run, then
    /// re-locked to record the result.
    pub fn handle_message(&mut self, msg: Message) -> Message {
        match msg {
            Message::SubmitJob { job, spec } => {
                let submission = {
                    let mut store = self.store.lock().expect("session store lock");
                    store.jobs.submit(job, &spec)
                };
                match submission {
                    Err(qr) => reject_for(&qr),
                    Ok(Submission::Replay(r)) => job_done(&r),
                    Ok(Submission::ReplayFailed(detail)) => {
                        Message::Reject { code: RejectCode::Invalid, detail }
                    }
                    Ok(Submission::Pending) => Message::Reject {
                        code: RejectCode::Busy,
                        detail: format!("job {job} is still pending"),
                    },
                    Ok(Submission::Accepted) => {
                        let result = Self::execute_job(job, &spec);
                        let mut store = self.store.lock().expect("session store lock");
                        match result {
                            Ok(r) => {
                                store.jobs.complete(job, r.clone());
                                job_done(&r)
                            }
                            Err(e) => {
                                let detail = e.to_string();
                                store.jobs.fail(job, detail.clone());
                                Message::Reject { code: RejectCode::Invalid, detail }
                            }
                        }
                    }
                }
            }
            Message::PollJob { job } => {
                self.store.lock().expect("session store lock").poll_job(job)
            }
            Message::OpenSession { session, n_clients, dim } => self
                .store
                .lock()
                .expect("session store lock")
                .open_session(session, n_clients, dim),
            Message::SubmitUpdate { session, client, weight, params } => self
                .store
                .lock()
                .expect("session store lock")
                .submit_update(session, client, weight, params),
            Message::ResumeSession { session } => {
                self.store.lock().expect("session store lock").resume_session(session)
            }
            Message::Ping { nonce } => Message::Pong { nonce },
            Message::Shutdown => Message::Shutdown,
            // Server-to-client messages arriving as requests are protocol
            // violations, not crashes.
            other @ (Message::JobDone { .. }
            | Message::Ack { .. }
            | Message::RoundComplete { .. }
            | Message::Reject { .. }
            | Message::Pong { .. }
            | Message::SessionStatus { .. }) => Message::Reject {
                code: RejectCode::Protocol,
                detail: format!("unexpected server-to-client message: {other:?}"),
            },
        }
    }

    /// Pumps frames on a transport until [`Message::Shutdown`], a clean EOF
    /// at a frame boundary, or an expired read deadline (the transport
    /// returning `WouldBlock`/`TimedOut`, reported as
    /// [`ServeEnd::IdleReaped`] so the caller can log the reaped peer).
    ///
    /// Malformed frames that leave the stream decodable — unknown tags, bad
    /// values, trailing bytes, checksum mismatches — get a typed
    /// [`RejectCode::BadFrame`] reply and the loop continues. Transport
    /// failures and mid-frame peer death end the connection with the typed
    /// error.
    pub fn serve_summary(
        &mut self,
        r: &mut impl Read,
        w: &mut impl Write,
    ) -> WireResult<ServeSummary> {
        let mut served = 0usize;
        loop {
            let msg = match wire::read_frame_opt(r) {
                Ok(Some(msg)) => msg,
                // EOF before the next frame's first byte is a clean close.
                Ok(None) => return Ok(ServeSummary { served, end: ServeEnd::CleanEof }),
                // A read deadline fired with no frame in flight: reap the
                // idle peer instead of blocking forever.
                Err(WireError::Io {
                    kind: std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut,
                }) => return Ok(ServeSummary { served, end: ServeEnd::IdleReaped }),
                // Payload-level decode errors leave the frame boundary
                // intact: reject and keep serving. (After a checksum
                // mismatch the boundary is best-effort — a corrupted length
                // prefix desyncs the stream — but the client treats
                // BadFrame as a reconnect signal, so the connection winds
                // down either way.)
                Err(e @ (WireError::UnknownTag { .. }
                | WireError::BadValue { .. }
                | WireError::Trailing { .. }
                | WireError::ChecksumMismatch { .. })) => {
                    wire::write_frame(
                        w,
                        &Message::Reject { code: RejectCode::BadFrame, detail: e.to_string() },
                    )?;
                    served += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let reply = self.handle_message(msg);
            let done = reply == Message::Shutdown;
            wire::write_frame(w, &reply)?;
            served += 1;
            if done {
                return Ok(ServeSummary { served, end: ServeEnd::Shutdown });
            }
        }
    }

    /// [`FederationService::serve_summary`], reduced to the served-request
    /// count for callers that don't care how the connection ended.
    pub fn serve(&mut self, r: &mut impl Read, w: &mut impl Write) -> WireResult<usize> {
        Ok(self.serve_summary(r, w)?.served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_mean() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        // Weights 3:1 -> (0.75, 0.25).
        let agg = aggregate(&a, &[3, 1]).unwrap();
        assert!((agg[0] - 0.75).abs() < 1e-6);
        assert!((agg[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn single_client_is_identity() {
        let a = vec![vec![0.5, -0.25, 3.0]];
        assert_eq!(aggregate(&a, &[7]).unwrap(), vec![0.5, -0.25, 3.0]);
    }

    #[test]
    fn equal_weights_is_plain_mean() {
        let a = vec![vec![2.0], vec![4.0], vec![6.0]];
        let agg = aggregate(&a, &[5, 5, 5]).unwrap();
        assert!((agg[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn validation() {
        // An empty client slice is a typed error, never a panic or a silent
        // zero-length result.
        assert_eq!(
            aggregate(&[], &[]).unwrap_err(),
            CoreError::Empty { what: "client parameter list" }
        );
        // Mismatched weights are a typed error naming both lengths.
        assert_eq!(
            aggregate(&[vec![1.0]], &[1, 2]).unwrap_err(),
            CoreError::LengthMismatch { what: "aggregation weights", expected: 1, actual: 2 }
        );
        assert_eq!(
            aggregate(&[vec![1.0], vec![1.0, 2.0]], &[1, 1]).unwrap_err(),
            CoreError::LengthMismatch {
                what: "client parameter vector",
                expected: 1,
                actual: 2
            }
        );
        assert_eq!(
            aggregate(&[vec![1.0]], &[0]).unwrap_err(),
            CoreError::InvalidParameter {
                name: "weights",
                message: "total weight must be positive".into()
            }
        );
    }

    #[test]
    fn non_finite_vectors_are_rejected_with_typed_error() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = aggregate(&[vec![1.0, 1.0], vec![1.0, bad]], &[1, 1]).unwrap_err();
            assert_eq!(
                err,
                CoreError::NonFinite { what: "client parameter vector", index: 1 },
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn queue_is_fifo_with_stable_ids() {
        let mut q = JobQueue::new();
        let a = q.push(JobSpec::clean(1, 2, 1));
        let b = q.push(JobSpec::clean(2, 2, 1));
        assert_eq!((a, b), (0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().0, 0);
        assert_eq!(q.pop().unwrap().0, 1);
        assert!(q.is_empty());
        // Popped jobs stay registered as pending until a result is recorded.
        assert_eq!(q.poll(0).unwrap(), &JobState::Pending);
    }

    #[test]
    fn submission_is_idempotent_by_spec_bytes() {
        let mut q = JobQueue::new();
        let spec = JobSpec::clean(5, 3, 2);
        assert_eq!(q.submit(9, &spec).unwrap(), Submission::Accepted);
        // Same id + same bytes while pending: no double-enqueue.
        assert_eq!(q.submit(9, &spec).unwrap(), Submission::Pending);
        assert_eq!(q.len(), 1);
        // Same id, different bytes: typed duplicate.
        let other = JobSpec { dropout: 0.5, ..spec.clone() };
        assert_eq!(q.submit(9, &other).unwrap_err(), QueueReject::DuplicateJob { job: 9 });
        // Record a result: re-submission replays it without re-running.
        let result = JobResult { job: 9, params_hash: 1, log_hash: 2, rounds: 2, accuracy: 0.5 };
        q.complete(9, result.clone());
        assert!(q.is_empty());
        assert_eq!(q.submit(9, &spec).unwrap(), Submission::Replay(result.clone()));
        assert_eq!(q.poll(9).unwrap(), &JobState::Done(result));
        // Unknown ids are typed, not generic.
        assert_eq!(q.poll(77).unwrap_err(), QueueReject::UnknownJob { job: 77 });
    }

    #[test]
    fn bounded_queue_degrades_into_typed_rejections() {
        let mut q = JobQueue::bounded(1, 2, 8);
        let spec = JobSpec::clean(1, 2, 1);
        assert_eq!(q.submit(0, &spec).unwrap(), Submission::Accepted);
        // Backlog full: typed Busy-style refusal, not a hang.
        assert_eq!(
            q.submit(1, &spec).unwrap_err(),
            QueueReject::Backlog { job: 1, pending: 1 }
        );
        // Finish jobs past the retention bound: the oldest result expires.
        let done = |j| JobResult { job: j, params_hash: 0, log_hash: 0, rounds: 1, accuracy: 0.0 };
        q.complete(0, done(0));
        for j in [1u32, 2] {
            assert_eq!(q.submit(j, &spec).unwrap(), Submission::Accepted);
            q.complete(j, done(j));
        }
        assert_eq!(q.poll(0).unwrap_err(), QueueReject::ExpiredJob { job: 0 });
        assert_eq!(q.submit(0, &spec).unwrap_err(), QueueReject::ExpiredJob { job: 0 });
        assert!(matches!(q.poll(2).unwrap(), JobState::Done(_)));
    }

    #[test]
    fn pooled_jobs_match_serial_execution() {
        let service = FederationService::new(4);
        let jobs: Vec<(u32, JobSpec)> = (0..6)
            .map(|i| {
                let mut spec = JobSpec::clean(100 + i as u64, 3, 2);
                if i % 2 == 0 {
                    spec.dropout = 0.3;
                }
                (i, spec)
            })
            .collect();
        let pooled = service.run_jobs(&jobs);
        let serial: Vec<_> =
            jobs.iter().map(|(id, spec)| FederationService::execute_job(*id, spec)).collect();
        assert_eq!(pooled, serial, "worker pool must not change results");
    }

    #[test]
    fn run_queue_records_results_for_polling() {
        let service = FederationService::new(2);
        let mut q = JobQueue::new();
        let a = q.push(JobSpec::clean(11, 2, 1));
        let b = q.push(JobSpec { rule: 9, ..JobSpec::clean(12, 2, 1) });
        let results = service.run_queue(&mut q);
        assert!(q.is_empty());
        assert_eq!(q.poll(a).unwrap(), &JobState::Done(results[0].clone().unwrap()));
        assert!(matches!(q.poll(b).unwrap(), JobState::Failed(_)));
    }

    #[test]
    fn bad_jobs_are_typed_errors_not_panics() {
        let bad_prob = JobSpec { dropout: 1.5, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_prob).unwrap_err(),
            CoreError::InvalidParameter { name: "fault spec", .. }
        ));
        let bad_frac = JobSpec { adversary_frac: -0.1, attack: 1, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_frac).unwrap_err(),
            CoreError::InvalidParameter { name: "adversary plan", .. }
        ));
        let bad_attack = JobSpec { attack: 200, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_attack).unwrap_err(),
            CoreError::InvalidParameter { name: "attack", .. }
        ));
        let bad_rule = JobSpec { rule: 9, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_rule).unwrap_err(),
            CoreError::InvalidParameter { name: "rule", .. }
        ));
        let empty = JobSpec { n_clients: 0, ..JobSpec::clean(1, 3, 2) };
        assert_eq!(
            FederationService::execute_job(0, &empty).unwrap_err(),
            CoreError::Empty { what: "job federation" }
        );
    }

    fn reject_code(msg: &Message) -> RejectCode {
        match msg {
            Message::Reject { code, .. } => *code,
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn huge_declared_session_allocates_nothing_up_front() {
        // A session may declare up to u32::MAX clients; only received
        // uploads take space, so opening it must not abort the server.
        let mut service = FederationService::new(1);
        let open = service.handle_message(Message::OpenSession { session: 9, n_clients: u32::MAX, dim: 1 });
        assert_eq!(open, Message::Ack { session: 9, client: SESSION_ACK });
        let client = u32::MAX - 1;
        assert_eq!(
            service.handle_message(Message::SubmitUpdate { session: 9, client, weight: 1, params: vec![0.5] }),
            Message::Ack { session: 9, client }
        );
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 9,
                client: u32::MAX,
                weight: 1,
                params: vec![0.5],
            })),
            RejectCode::Invalid
        );
        assert_eq!(
            service.handle_message(Message::ResumeSession { session: 9 }),
            Message::SessionStatus { session: 9, n_clients: u32::MAX, dim: 1, received: vec![client] }
        );
    }

    #[test]
    fn out_of_order_uploads_fuse_in_client_order() {
        let mut service = FederationService::new(1);
        service.handle_message(Message::OpenSession { session: 4, n_clients: 3, dim: 1 });
        for client in [2u32, 0] {
            let params = vec![client as f32];
            service.handle_message(Message::SubmitUpdate { session: 4, client, weight: 1, params });
        }
        assert_eq!(
            service.handle_message(Message::ResumeSession { session: 4 }),
            Message::SessionStatus { session: 4, n_clients: 3, dim: 1, received: vec![0, 2] }
        );
        let done =
            service.handle_message(Message::SubmitUpdate { session: 4, client: 1, weight: 1, params: vec![1.0] });
        let expect = aggregate(&[vec![0.0], vec![1.0], vec![2.0]], &[1, 1, 1]).unwrap();
        assert_eq!(done, Message::RoundComplete { session: 4, params: expect });
    }

    #[test]
    fn aggregation_session_over_the_dispatcher() {
        let mut service = FederationService::new(1);
        let open = service.handle_message(Message::OpenSession { session: 7, n_clients: 2, dim: 2 });
        assert_eq!(open, Message::Ack { session: 7, client: SESSION_ACK });
        // Reopening with the same shape is an idempotent replay of the ack.
        assert_eq!(
            service.handle_message(Message::OpenSession { session: 7, n_clients: 2, dim: 2 }),
            Message::Ack { session: 7, client: SESSION_ACK }
        );
        // Reopening with a different shape is a typed refusal.
        assert_eq!(
            reject_code(&service.handle_message(Message::OpenSession {
                session: 7,
                n_clients: 3,
                dim: 2
            })),
            RejectCode::Invalid
        );
        let first = service.handle_message(Message::SubmitUpdate {
            session: 7,
            client: 0,
            weight: 3,
            params: vec![1.0, 0.0],
        });
        assert_eq!(first, Message::Ack { session: 7, client: 0 });
        // A bit-identical re-submission replays the ack (lost-reply retry)…
        assert_eq!(
            service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 0,
                weight: 3,
                params: vec![1.0, 0.0],
            }),
            Message::Ack { session: 7, client: 0 }
        );
        // …but different bytes are a typed duplicate, never replaced.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 0,
                weight: 3,
                params: vec![9.0, 9.0],
            })),
            RejectCode::DuplicateUpdate
        );
        // NaNs never reach aggregation.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 1,
                weight: 1,
                params: vec![f32::NAN, 0.0],
            })),
            RejectCode::Invalid
        );
        // Mid-round progress is observable by a reconnecting client.
        assert_eq!(
            service.handle_message(Message::ResumeSession { session: 7 }),
            Message::SessionStatus { session: 7, n_clients: 2, dim: 2, received: vec![0] }
        );
        let done = service.handle_message(Message::SubmitUpdate {
            session: 7,
            client: 1,
            weight: 1,
            params: vec![0.0, 1.0],
        });
        let Message::RoundComplete { session, params } = done else {
            panic!("expected RoundComplete, got {done:?}");
        };
        assert_eq!(session, 7);
        assert!((params[0] - 0.75).abs() < 1e-6);
        assert!((params[1] - 0.25).abs() < 1e-6);
        // The completed round survives for replay: the same closing update
        // re-submitted (a lost RoundComplete) fuses to the same bytes…
        assert_eq!(
            service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 1,
                weight: 1,
                params: vec![0.0, 1.0],
            }),
            Message::RoundComplete { session: 7, params: params.clone() }
        );
        // …resumption replays the fused round…
        assert_eq!(
            service.handle_message(Message::ResumeSession { session: 7 }),
            Message::RoundComplete { session: 7, params },
        );
        // …and a *different* post-completion upload is a typed duplicate.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 0,
                weight: 1,
                params: vec![0.0, 0.0],
            })),
            RejectCode::DuplicateUpdate
        );
        // Sessions never opened are typed as unknown.
        assert_eq!(
            reject_code(&service.handle_message(Message::ResumeSession { session: 99 })),
            RejectCode::UnknownSession
        );
    }

    #[test]
    fn sessions_survive_across_connections_through_a_shared_store() {
        let store = SessionStore::shared(StoreConfig::default());
        // Connection one opens a session and uploads one of two updates.
        let mut conn1 = FederationService::with_store(1, Arc::clone(&store));
        conn1.handle_message(Message::OpenSession { session: 3, n_clients: 2, dim: 1 });
        conn1.handle_message(Message::SubmitUpdate {
            session: 3,
            client: 0,
            weight: 1,
            params: vec![2.0],
        });
        drop(conn1); // the connection dies…
        // …and a reconnecting client resumes where it left off.
        let mut conn2 = FederationService::with_store(1, Arc::clone(&store));
        assert_eq!(
            conn2.handle_message(Message::ResumeSession { session: 3 }),
            Message::SessionStatus { session: 3, n_clients: 2, dim: 1, received: vec![0] }
        );
        let done = conn2.handle_message(Message::SubmitUpdate {
            session: 3,
            client: 1,
            weight: 1,
            params: vec![4.0],
        });
        assert_eq!(done, Message::RoundComplete { session: 3, params: vec![3.0] });
    }

    #[test]
    fn session_table_full_degrades_into_busy_then_evicts_completed() {
        let config = StoreConfig { max_sessions: 2, ..StoreConfig::default() };
        let mut store = SessionStore::new(config);
        assert!(matches!(store.open_session(0, 1, 1), Message::Ack { .. }));
        assert!(matches!(store.open_session(1, 1, 1), Message::Ack { .. }));
        // Both open, table full: typed Busy, never a hang or a panic.
        assert_eq!(reject_code(&store.open_session(2, 1, 1)), RejectCode::Busy);
        // Complete session 0; the next open evicts it to make room.
        assert!(matches!(
            store.submit_update(0, 0, 1, vec![1.0]),
            Message::RoundComplete { .. }
        ));
        assert!(matches!(store.open_session(2, 1, 1), Message::Ack { .. }));
        // The evicted session now answers as expired, not unknown.
        assert_eq!(reject_code(&store.resume_session(0)), RejectCode::Expired);
        assert_eq!(reject_code(&store.submit_update(0, 0, 1, vec![1.0])), RejectCode::Expired);
        assert_eq!(reject_code(&store.open_session(0, 1, 1)), RejectCode::Expired);
    }

    #[test]
    fn heartbeats_echo_the_nonce() {
        let mut service = FederationService::new(1);
        assert_eq!(
            service.handle_message(Message::Ping { nonce: 0xFEED_F00D }),
            Message::Pong { nonce: 0xFEED_F00D }
        );
        // A Pong arriving as a request is a protocol violation, typed.
        assert_eq!(
            reject_code(&service.handle_message(Message::Pong { nonce: 1 })),
            RejectCode::Protocol
        );
    }

    #[test]
    fn serve_pumps_a_full_conversation_in_memory() {
        let mut requests = Vec::new();
        wire::write_frame(&mut requests, &Message::OpenSession { session: 1, n_clients: 1, dim: 1 })
            .unwrap();
        wire::write_frame(
            &mut requests,
            &Message::SubmitUpdate { session: 1, client: 0, weight: 1, params: vec![0.5] },
        )
        .unwrap();
        // A malformed payload in a well-checksummed frame gets a typed
        // BadFrame Reject, not a dropped connection.
        let mut bogus = wire::encode(&Message::Shutdown);
        bogus[0] = 0xEE;
        requests.extend_from_slice(&wire::frame_payload(&bogus).unwrap());
        // A bit-flipped frame (checksum mismatch) likewise.
        let mut flipped = wire::frame(&Message::Ping { nonce: 5 }).unwrap();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        requests.extend_from_slice(&flipped);
        wire::write_frame(&mut requests, &Message::Shutdown).unwrap();

        let mut service = FederationService::new(1);
        let mut replies = Vec::new();
        let summary = service.serve_summary(&mut requests.as_slice(), &mut replies).unwrap();
        assert_eq!(summary, ServeSummary { served: 5, end: ServeEnd::Shutdown });
        let mut r = replies.as_slice();
        assert_eq!(
            wire::read_frame(&mut r).unwrap(),
            Message::Ack { session: 1, client: SESSION_ACK }
        );
        assert_eq!(
            wire::read_frame(&mut r).unwrap(),
            Message::RoundComplete { session: 1, params: vec![0.5] }
        );
        assert_eq!(reject_code(&wire::read_frame(&mut r).unwrap()), RejectCode::BadFrame);
        assert_eq!(reject_code(&wire::read_frame(&mut r).unwrap()), RejectCode::BadFrame);
        assert_eq!(wire::read_frame(&mut r).unwrap(), Message::Shutdown);
    }

    /// A reader that never produces a byte: its deadline always fires.
    struct SilentPeer;
    impl Read for SilentPeer {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "read deadline expired"))
        }
    }

    #[test]
    fn silent_peers_are_reaped_not_leaked() {
        let mut service = FederationService::new(1);
        let mut replies = Vec::new();
        let summary = service.serve_summary(&mut SilentPeer, &mut replies).unwrap();
        assert_eq!(summary, ServeSummary { served: 0, end: ServeEnd::IdleReaped });
        assert!(replies.is_empty(), "a reaped peer gets no parting frame");
    }

    #[test]
    fn submit_job_over_the_wire_matches_direct_execution() {
        let spec = JobSpec { dropout: 0.3, ..JobSpec::clean(42, 3, 2) };
        let direct = FederationService::execute_job(8, &spec).unwrap();
        let mut service = FederationService::new(1);
        let reply = service.handle_message(Message::SubmitJob { job: 8, spec: spec.clone() });
        let expected = Message::JobDone {
            job: direct.job,
            params_hash: direct.params_hash,
            log_hash: direct.log_hash,
            rounds: direct.rounds,
            accuracy: direct.accuracy,
        };
        assert_eq!(reply, expected);
        // Retrying the identical submission replays the recorded result…
        assert_eq!(
            service.handle_message(Message::SubmitJob { job: 8, spec: spec.clone() }),
            expected
        );
        // …polling recovers it from any later connection over the store…
        let mut reconnect = FederationService::with_store(1, service.store());
        assert_eq!(reconnect.handle_message(Message::PollJob { job: 8 }), expected);
        // …and the same id with a different spec is a typed duplicate.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitJob {
                job: 8,
                spec: JobSpec { dropout: 0.6, ..spec }
            })),
            RejectCode::DuplicateJob
        );
        // Unknown poll ids are typed too.
        assert_eq!(
            reject_code(&service.handle_message(Message::PollJob { job: 99 })),
            RejectCode::UnknownJob
        );
        // A bad spec is a Reject, not a dead service — and the failure is
        // recorded, so polling it replays the rendered error.
        let bad = JobSpec { rule: 77, ..JobSpec::clean(1, 2, 1) };
        let reply =
            service.handle_message(Message::SubmitJob { job: 13, spec: bad });
        assert_eq!(reject_code(&reply), RejectCode::Invalid);
        assert_eq!(
            reject_code(&service.handle_message(Message::PollJob { job: 13 })),
            RejectCode::Invalid
        );
    }
}
