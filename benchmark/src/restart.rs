//! `recover_restart`: build a data directory, then kill and restart the
//! server against it, timing each restart to its first correct answer.
//!
//! An `INGEST` ack means "enqueued", and a key is durable once its batch
//! is logged, which happens before it is applied. The driver therefore
//! waits until every acked key is applied before each SIGKILL, and then
//! demands that the restarted server accounts for exactly the keys acked
//! so far: the mass check is exact, not "at most the in-flight tail".

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cots_core::ServiceReport;

use crate::block::Block;
use crate::reduce::Slice;
use crate::server::{msg, DataDir, Env, Result, Server};
use crate::spec::{self, Workload};
use crate::window::{self, Session, Stop, WindowLog};

/// The probe after a restart runs at least this long, however long the
/// recovery took.
const MIN_PROBE: Duration = Duration::from_millis(250);

/// A data directory holding one checkpoint and a WAL tail, left behind
/// by a killed server. Removed on drop.
pub struct DataDirState {
    /// The directory.
    pub dir: PathBuf,
    /// Keys acked (and durable) so far.
    pub sent: u64,
}

impl Drop for DataDirState {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Spawn a durable server on `dir` with the background checkpointer off,
/// so the WAL tail only ever grows between restarts.
fn spawn(env: &Env, dir: &Path, sent: u64) -> Result<Session> {
    let server = Server::spawn(env, DataDir::Keep(dir), 0)?;
    window::connect(server, sent)
}

/// Build the data directory, timed (this workload's `setup_s`): ingest
/// `warmup_keys`, `CHECKPOINT`, ingest `tail_keys`, SIGKILL.
pub fn build(env: &Env, wl: &Workload, block: &Block, n: usize) -> Result<(DataDirState, f64)> {
    let started = Instant::now();
    let state_dir = env.run_dir.join(format!("restart-data-{n}"));
    fs::create_dir_all(&state_dir).map_err(msg("create data dir"))?;
    let mut state = DataDirState {
        dir: state_dir,
        sent: 0,
    };
    let mut sess = spawn(env, &state.dir, 0)?;
    window::warm_up(&mut sess, block, wl.warmup_keys as u64)?;
    sess.query
        .checkpoint()
        .map_err(msg("CHECKPOINT while building the data dir"))?;
    window::warm_up(&mut sess, block, wl.tail_keys as u64)?;
    state.sent = sess.sent;
    drop(sess); // SIGKILL: every acked key is applied, hence logged.
    Ok((state, started.elapsed().as_secs_f64()))
}

/// What one restart cycle measured.
pub struct Cycle {
    /// The cycle as a slice: `secs` is spawn → first correct answer,
    /// `keys` the items the server replayed, `cpu_secs` what that cost;
    /// the SLO counts and query latencies come from the probe.
    pub slice: Slice,
    /// The probe's log (frames, queries, spans).
    pub probe: WindowLog,
    /// STATS after the probe's keys were applied, just before the kill.
    pub stats: ServiceReport,
}

/// One cycle: spawn on the directory, wait for the first correct answer
/// (exact total, no staleness, envelope held against exact truth), probe
/// for the rest of `budget`, wait until the probe's keys are applied,
/// SIGKILL.
pub fn cycle(
    env: &Env,
    wl: &Workload,
    block: &Block,
    state: &mut DataDirState,
    budget: Duration,
    seed: u64,
    trace: bool,
) -> Result<Cycle> {
    // Exact truth at this stream position, computed before the clock runs.
    let truth = block.frequent(spec::CHECK_PHI, state.sent);
    let started = Instant::now();
    let mut sess = spawn(env, &state.dir, state.sent)?;
    sess.checked_query(block, &truth)
        .map_err(|e| format!("after restart, {e}"))?;
    let recover_secs = started.elapsed().as_secs_f64();
    let cpu_secs = sess
        .server
        .sample()
        .map_err(msg("sample server"))?
        .cpu_secs();
    let stats = sess.query.stats().map_err(msg("STATS after restart"))?;
    let replayed = stats
        .recovery
        .as_ref()
        .map(|r| r.replayed_items)
        .ok_or("restarted server reports no recovery")?;

    let probe_for = budget.saturating_sub(started.elapsed()).max(MIN_PROBE);
    let probe = sess.run_window(block, wl, Stop::After(probe_for), 1, seed, trace)?;
    let stats = sess.quiesce()?;
    state.sent = sess.sent;
    drop(sess); // SIGKILL

    let mut slice = window::slices(&probe, &wl.limits).remove(0);
    slice.secs = recover_secs;
    slice.keys = replayed;
    slice.cpu_secs = cpu_secs;
    Ok(Cycle {
        slice,
        probe,
        stats,
    })
}

/// After the last kill: restart once more, untimed, so the caller can
/// check `Frequent(CHECK_PHI)` against exact truth for every key ever
/// acked.
pub fn reopen(env: &Env, state: &DataDirState) -> Result<Session> {
    spawn(env, &state.dir, state.sent)
}
