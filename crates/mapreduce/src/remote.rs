//! Process-isolated task execution: the driver side of
//! [`BackendKind::Process`](crate::BackendKind::Process) and the worker
//! program it talks to.
//!
//! The driver re-spawns **its own executable** as worker processes (the
//! way Hadoop's TaskTracker forks task JVMs from the same job jar) and
//! frames task assignments over the workers' stdin/stdout pipes using the
//! crate's own varint [`Codec`]. Closures cannot cross a process
//! boundary, so a remote-capable [`Job`](crate::Job) is built from a
//! [`JobSpec`] and carries its bytes as a
//! [`RemoteJobSpec`](crate::RemoteJobSpec): the name of a factory
//! registered on both sides (see [`register_job_spec`]) plus the encoded
//! spec, from which the worker rebuilds the *entire* job — mapper,
//! reducer, policies, and inputs — against the shared disk-backed
//! [`Dfs`]. Both sides derive input splits from the same on-disk
//! filesystem state, so task ids line up by construction and the driver
//! never ships split data at all.
//!
//! # Protocol
//!
//! ```text
//! driver                                worker (spawned: current_exe,
//!   |                                     MR_PROCESS_WORKER=1)
//!   |--- handshake frame --------------->|
//!   |<-- "MR_WORKER_READY" banner line --|   (past the libtest preamble)
//!   |<-- handshake ok/err frame ---------|
//!   |--- Task{map, task, attempt} ------>|
//!   |<-- MapTaskOut<RunRef> + metrics ---|   (spill runs live on disk)
//!   |--- Task{reduce, task, attempt, refs}>|
//!   |<-- ReduceTaskOut + metrics --------|   (part committed worker-side)
//!   |--- Shutdown ---------------------->|
//! ```
//!
//! Every frame is a varint length prefix (capped at [`MAX_FRAME`]) plus a
//! `Codec`-encoded payload; responses are a tag byte (`0` ok / `1` err)
//! followed by the body or a fully-classified [`MrError`]. The bodies are
//! the engine's own task results ([`MapTaskOut`], [`ReduceTaskOut`]) plus
//! the request's counter and histogram deltas — frames are private to one
//! executable, so no separate wire schema exists. Map output stays out of
//! the pipes: workers write each spill run to a checksummed `*.run` file
//! under the DFS root's `shuffle/` directory and return [`RunRef`]s; the
//! reduce request routes those refs back to a worker, which re-reads them
//! under CRC and commits its part through the shared DFS — the existing
//! rename/manifest commit protocol, unchanged. That is the whole
//! [`Transport`] of this backend: [`park_run_files`] / [`fetch_run_files`],
//! called by the worker for its own attempts and by the driver for attempts
//! that run in-process once every worker slot is quarantined.
//!
//! # Failure classification
//!
//! A task-level error frame leaves the worker healthy: it is returned to
//! the pool and the error propagates with its original class (transient
//! errors retry through the same machinery as the in-process backends).
//! A *transport* failure — the pipe breaking, a truncated or undecodable
//! frame, a worker killed with `SIGKILL` — is classified as
//! [`MrError::NodeLost`]: the driver kills the handle, the retry runs on
//! a freshly spawned worker, and the job survives exactly like a lost
//! node in the simulated fault model.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::backend::{ExecParams, Transport};
use crate::cluster::ClusterConfig;
use crate::codec::{write_varint, ByteReader, Codec};
use crate::codec_struct;
use crate::counters::Counters;
use crate::dfs::{Crc32, Dfs};
use crate::engine::{
    catch_task_panic, run_map_task, run_reduce_task, Cluster, MapItem, MapShared, MapTaskOut,
    ReduceShared, ReduceTaskOut,
};
use crate::error::{MrError, Result};
use crate::faults::{Fault, FaultPlan};
use crate::input::SplitSource;
use crate::job::{Job, JobSpec};
use crate::mapper::Mapper;
use crate::reducer::Reducer;
use crate::run::Run;
use crate::supervise::Watchdog;
use crate::task::Phase;
use crate::trace::{EventKind, HistogramSnapshot, Histograms, TraceEvent, TraceSink};

/// Environment variable that turns a spawned copy of this executable into
/// a worker process.
pub const WORKER_ENV: &str = "MR_PROCESS_WORKER";

/// Line a worker prints on stdout once it is ready to speak frames —
/// everything before it (the libtest preamble, for test binaries) is
/// skipped by the driver.
pub const WORKER_BANNER: &str = "MR_WORKER_READY";

/// Chaos knob: a worker with this environment variable set responds to
/// map task 0, attempt 0 with a deliberately undecodable frame — the
/// corrupted-pipe cell of the chaos suite.
pub const CORRUPT_FRAME_ENV: &str = "MR_CHAOS_CORRUPT_FRAME";

/// Chaos knob: a worker with this environment variable set hangs forever
/// (a real `sleep` loop, heartbeats suppressed) on map task 0, attempt 0 —
/// the hung-worker cell of the supervision suite. Only survivable with
/// [`ClusterConfig::task_timeout_secs`] set.
pub const HANG_ENV: &str = "MR_CHAOS_HANG";

/// Upper bound on a single frame's declared length. A corrupt length
/// prefix must fail here, not in an allocation.
const MAX_FRAME: u64 = 1 << 30;

/// Magic prefix of an on-disk spill-run file.
const RUN_MAGIC: &[u8; 8] = b"MRRUNv1\0";

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// Pointer to one spill run parked on disk: file name (relative to the
/// job's shuffle directory), record count, and payload length in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RunRef {
    file: String,
    records: u64,
    len: u64,
}
codec_struct!(RunRef { file, records, len });

/// First frame the driver sends: everything a worker needs to rebuild the
/// job and a matching single-threaded cluster over the shared disk DFS.
struct HandshakeReq {
    job_name: String,
    factory: String,
    payload: Vec<u8>,
    nodes: usize,
    block_size: usize,
    dfs_root: String,
    num_reducers: usize,
    spill_buffer: usize,
    merge_factor: usize,
    task_memory: Option<u64>,
    shuffle_tag: String,
    /// The driver's plan minus its storage keys (see [`FaultPlan`]'s
    /// `Codec`): the worker must reach the *exact* same pure `decide()`
    /// outcomes as the driver would in-process.
    faults: Option<FaultPlan>,
    /// Milliseconds between worker heartbeat frames while a task runs;
    /// `0` disables the heartbeat thread entirely (supervision off).
    heartbeat_interval_ms: u64,
    /// Mirror of [`crate::ClusterConfig::durable_commits`]: workers must
    /// follow the same write→sync→rename→dir-sync discipline as the driver
    /// or task-level part commits would be weaker than job-level ones.
    durable: bool,
}
codec_struct!(HandshakeReq {
    job_name,
    factory,
    payload,
    nodes,
    block_size,
    dfs_root,
    num_reducers,
    spill_buffer,
    merge_factor,
    task_memory,
    shuffle_tag,
    faults,
    heartbeat_interval_ms,
    durable,
});

/// What a worker answers a task request with: the engine's own task result
/// plus the counter and histogram deltas the request produced, which the
/// driver merges into the job's.
type Reply<T> = (T, Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>);

enum Request {
    /// Run one task attempt. `refs` are a reduce task's parked runs in
    /// canonical run presentation order, (map task, spill index); a map
    /// task has none.
    Task {
        phase: Phase,
        task_id: usize,
        attempt: usize,
        refs: Vec<RunRef>,
    },
    Shutdown,
}

impl Codec for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Task {
                phase,
                task_id,
                attempt,
                refs,
            } => {
                buf.push(match phase {
                    Phase::Map => 1,
                    Phase::Reduce => 2,
                });
                (*task_id, *attempt).encode(buf);
                refs.encode(buf);
            }
            Request::Shutdown => buf.push(3),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let phase = match r.take_u8()? {
            1 => Phase::Map,
            2 => Phase::Reduce,
            3 => return Ok(Request::Shutdown),
            t => return Err(MrError::Codec(format!("invalid request tag {t}"))),
        };
        let (task_id, attempt) = Codec::decode(r)?;
        Ok(Request::Task {
            phase,
            task_id,
            attempt,
            refs: Codec::decode(r)?,
        })
    }
}

impl Codec for MrError {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MrError::FileNotFound(s) => {
                buf.push(0);
                s.encode(buf);
            }
            MrError::FileExists(s) => {
                buf.push(1);
                s.encode(buf);
            }
            MrError::Codec(s) => {
                buf.push(2);
                s.encode(buf);
            }
            MrError::OutOfMemory {
                task,
                requested,
                budget,
                transient,
            } => {
                buf.push(3);
                task.encode(buf);
                requested.encode(buf);
                budget.encode(buf);
                transient.encode(buf);
            }
            MrError::TaskFailed(s) => {
                buf.push(4);
                s.encode(buf);
            }
            MrError::TaskPanicked(s) => {
                buf.push(5);
                s.encode(buf);
            }
            MrError::NodeLost { node, task } => {
                buf.push(6);
                (*node as u64).encode(buf);
                task.encode(buf);
            }
            MrError::InvalidConfig(s) => {
                buf.push(7);
                s.encode(buf);
            }
            MrError::ChecksumMismatch {
                path,
                expected,
                found,
            } => {
                buf.push(8);
                path.encode(buf);
                expected.encode(buf);
                found.encode(buf);
            }
            MrError::DriverCrash(s) => {
                buf.push(9);
                s.encode(buf);
            }
            MrError::StorageFull { path } => {
                buf.push(10);
                path.encode(buf);
            }
            MrError::StorageIo { path, op } => {
                buf.push(11);
                path.encode(buf);
                op.encode(buf);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => MrError::FileNotFound(String::decode(r)?),
            1 => MrError::FileExists(String::decode(r)?),
            2 => MrError::Codec(String::decode(r)?),
            3 => MrError::OutOfMemory {
                task: String::decode(r)?,
                requested: u64::decode(r)?,
                budget: u64::decode(r)?,
                transient: bool::decode(r)?,
            },
            4 => MrError::TaskFailed(String::decode(r)?),
            5 => MrError::TaskPanicked(String::decode(r)?),
            6 => MrError::NodeLost {
                node: u64::decode(r)? as usize,
                task: String::decode(r)?,
            },
            7 => MrError::InvalidConfig(String::decode(r)?),
            8 => MrError::ChecksumMismatch {
                path: String::decode(r)?,
                expected: u32::decode(r)?,
                found: u32::decode(r)?,
            },
            9 => MrError::DriverCrash(String::decode(r)?),
            10 => MrError::StorageFull {
                path: String::decode(r)?,
            },
            11 => MrError::StorageIo {
                path: String::decode(r)?,
                op: String::decode(r)?,
            },
            t => return Err(MrError::Codec(format!("invalid error tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

fn pipe_err(what: &str, e: &io::Error) -> MrError {
    MrError::Codec(format!("worker pipe {what}: {e}"))
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut head = Vec::with_capacity(10);
    write_varint(payload.len() as u64, &mut head);
    w.write_all(&head)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| pipe_err("write", &e))
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// pipe cleanly at a frame boundary; anything malformed — an overlong or
/// overflowing varint, a length beyond [`MAX_FRAME`], a mid-frame EOF —
/// is a transport error.
fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && shift == 0 => return Ok(None),
            Err(e) => return Err(pipe_err("read length", &e)),
        }
        let b = byte[0];
        let bits = u64::from(b & 0x7F);
        if shift == 63 && bits > 1 {
            return Err(MrError::Codec("frame length varint overflows u64".into()));
        }
        len |= bits << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(MrError::Codec("frame length varint too long".into()));
        }
    }
    if len > MAX_FRAME {
        return Err(MrError::Codec(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)
        .map_err(|e| pipe_err("read body", &e))?;
    Ok(Some(buf))
}

/// Worker→driver response envelope: tag `0` + body, tag `1` + a
/// classified [`MrError`] from a failed (but cleanly handled) task, or a
/// bare tag `2` — a heartbeat interleaved with task execution, consumed
/// by the driver's read loop without ending the request.
const RESP_OK: u8 = 0;
const RESP_ERR: u8 = 1;
const RESP_HEARTBEAT: u8 = 2;

fn write_ok_frame<T: Codec>(w: &mut impl Write, body: &T) -> Result<()> {
    let mut buf = Vec::with_capacity(64);
    buf.push(RESP_OK);
    body.encode(&mut buf);
    write_frame(w, &buf)
}

fn write_err_frame(w: &mut impl Write, e: &MrError) -> Result<()> {
    let mut buf = Vec::with_capacity(64);
    buf.push(RESP_ERR);
    e.encode(&mut buf);
    write_frame(w, &buf)
}

/// Driver side: read a response, invoking `on_heartbeat` for every
/// interleaved heartbeat frame. Outer `Err` is a transport failure (the
/// worker is unusable); inner `Err` is a task-level error from a healthy
/// worker.
fn read_response<T: Codec>(
    r: &mut impl Read,
    mut on_heartbeat: impl FnMut(),
) -> Result<std::result::Result<T, MrError>> {
    loop {
        let Some(frame) = read_frame(r)? else {
            return Err(MrError::Codec("worker closed pipe mid-conversation".into()));
        };
        let mut rd = ByteReader::new(&frame);
        match rd.take_u8()? {
            RESP_OK => {
                let body = T::decode(&mut rd)?;
                if !rd.is_empty() {
                    return Err(MrError::Codec(format!(
                        "{} trailing bytes in response frame",
                        rd.remaining()
                    )));
                }
                return Ok(Ok(body));
            }
            RESP_ERR => return Ok(Err(MrError::decode(&mut rd)?)),
            RESP_HEARTBEAT if rd.is_empty() => on_heartbeat(),
            t => return Err(MrError::Codec(format!("invalid response tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Spill-run files
// ---------------------------------------------------------------------------

/// Write one spill run to `dir/name`: magic, record count, payload CRC,
/// payload length, payload.
fn write_run_file(dir: &Path, name: &str, run: &Run) -> Result<RunRef> {
    let mut buf = Vec::with_capacity(run.data.len() + 32);
    buf.extend_from_slice(RUN_MAGIC);
    write_varint(run.records as u64, &mut buf);
    let mut crc = Crc32::new();
    crc.update(&run.data);
    crc.finish().encode(&mut buf);
    write_varint(run.data.len() as u64, &mut buf);
    buf.extend_from_slice(&run.data);
    let path = dir.join(name);
    std::fs::write(&path, &buf)
        .map_err(|e| MrError::Codec(format!("write spill run {}: {e}", path.display())))?;
    Ok(RunRef {
        file: name.to_string(),
        records: run.records as u64,
        len: run.data.len() as u64,
    })
}

/// Re-read a spill run under CRC. Structural damage decodes to a
/// [`MrError::Codec`]; payload damage to [`MrError::ChecksumMismatch`] —
/// both permanent, so a corrupt shuffle file fails the job cleanly
/// instead of committing wrong bytes.
fn read_run_file(dir: &Path, rref: &RunRef) -> Result<Run> {
    let path = dir.join(&rref.file);
    let bytes = std::fs::read(&path).map_err(|e| match e.kind() {
        io::ErrorKind::NotFound => MrError::FileNotFound(path.display().to_string()),
        _ => MrError::Codec(format!("read spill run {}: {e}", path.display())),
    })?;
    let bad = |why: &str| MrError::Codec(format!("corrupt spill run {}: {why}", path.display()));
    if bytes.len() < RUN_MAGIC.len() || &bytes[..RUN_MAGIC.len()] != RUN_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut r = ByteReader::new(&bytes[RUN_MAGIC.len()..]);
    let records = usize::decode(&mut r).map_err(|_| bad("bad record count"))?;
    let expected = u32::decode(&mut r).map_err(|_| bad("bad crc field"))?;
    let len = usize::decode(&mut r).map_err(|_| bad("bad length field"))?;
    if len != r.remaining() {
        return Err(bad("length does not match payload"));
    }
    let payload = r.take(len)?;
    let mut crc = Crc32::new();
    crc.update(payload);
    let found = crc.finish();
    if found != expected {
        return Err(MrError::ChecksumMismatch {
            path: path.display().to_string(),
            expected,
            found,
        });
    }
    Ok(Run {
        data: bytes::Bytes::copy_from_slice(payload),
        records,
    })
}

/// The process backend's [`Transport::park`]: write a winning map attempt's
/// runs into the job's spill directory under names derived from their
/// coordinates, and return the refs in the same shape.
fn park_run_files(
    dir: &Path,
    task_id: usize,
    attempt: usize,
    runs: Vec<Vec<Run>>,
) -> Result<Vec<Vec<RunRef>>> {
    let park_partition = |(p, part): (usize, Vec<Run>)| {
        let park = |(s, run): (usize, &Run)| {
            let name = format!("map-{task_id:05}-a{attempt}-p{p:03}-s{s:03}.run");
            write_run_file(dir, &name, run)
        };
        part.iter().enumerate().map(park).collect()
    };
    runs.into_iter().enumerate().map(park_partition).collect()
}

/// The process backend's [`Transport::fetch`]: re-read parked runs under
/// CRC, in the order given.
fn fetch_run_files(dir: &Path, refs: &[RunRef]) -> Result<Vec<Run>> {
    refs.iter().map(|rref| read_run_file(dir, rref)).collect()
}

// ---------------------------------------------------------------------------
// Job factory registry (worker side)
// ---------------------------------------------------------------------------

/// What the worker loop needs from a rebuilt job, type-erased so the
/// registry can hold factories for jobs of any key/value types.
trait WorkerJob: Send {
    fn set_num_reducers(&mut self, n: usize);
    fn run_map(
        &mut self,
        cluster: &Cluster,
        task_id: usize,
        attempt: usize,
        spill_dir: &Path,
    ) -> Result<Reply<MapTaskOut<RunRef>>>;
    fn run_reduce(
        &mut self,
        cluster: &Cluster,
        at: (usize, usize),
        refs: &[RunRef],
        spill_dir: &Path,
    ) -> Result<Reply<ReduceTaskOut>>;
}

type FactoryFn = Arc<dyn Fn(&[u8], &Dfs) -> Result<Box<dyn WorkerJob>> + Send + Sync>;

fn registry() -> &'static RwLock<BTreeMap<String, FactoryFn>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<String, FactoryFn>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Register `S` under the factory name `factory`: a worker handed that
/// name decodes the payload as an `S` and builds the job with
/// [`JobSpec::build`], the function the driver built its own copy with
/// ([`Job::from_spec`]). Call it in every executable that drives or works
/// for such jobs, before [`process_worker_main`]: the driver sends a job to
/// worker processes only when its factory is registered. Split derivation is
/// deterministic (sorted file resolution, blocks in file order), so the
/// worker's task ids match the driver's. Registering a name again replaces
/// the old factory.
pub fn register_job_spec<S: JobSpec>(factory: &str) {
    let build: FactoryFn = Arc::new(|payload, dfs| {
        let job = S::from_bytes(payload)?.build(dfs)?;
        Ok(Box::new(JobWorker {
            num_reducers: job.num_reducers.unwrap_or(1),
            job,
        }) as Box<dyn WorkerJob>)
    });
    registry().write().insert(factory.to_string(), build);
}

/// Whether [`register_job_spec`] registered `factory` in this executable.
pub(crate) fn is_registered(factory: &str) -> bool {
    registry().read().contains_key(factory)
}

/// A rebuilt job plus the resolved reducer count, executing one request
/// at a time against the worker's local single-threaded cluster.
struct JobWorker<M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    job: Job<M, R>,
    num_reducers: usize,
}

impl<M, R> WorkerJob for JobWorker<M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue> + Clone,
{
    fn set_num_reducers(&mut self, n: usize) {
        self.num_reducers = n;
        self.job.num_reducers = Some(n);
    }

    fn run_map(
        &mut self,
        cluster: &Cluster,
        task_id: usize,
        attempt: usize,
        spill_dir: &Path,
    ) -> Result<Reply<MapTaskOut<RunRef>>> {
        if task_id >= self.job.inputs.len() {
            return Err(MrError::InvalidConfig(format!(
                "map task {task_id} out of range: job {} has {} input splits",
                self.job.name,
                self.job.inputs.len()
            )));
        }
        let counters = Counters::new();
        let histograms = Histograms::new();
        counters.get("mr.process.worker_map_tasks").incr();
        // Move the split out of the job for the borrow `MapItem` needs,
        // and put it back even if the attempt panics — the next attempt
        // of this task may land on this same worker.
        let split = std::mem::replace(
            &mut self.job.inputs[task_id],
            SplitSource::from_records("swapped-out", Vec::new()),
        );
        let item = MapItem {
            task_id,
            split,
            mapper: self.job.mapper.clone(),
        };
        let shared = MapShared {
            partitioner: &self.job.partitioner,
            sort_cmp: &self.job.sort_cmp,
            combiner: self.job.combiner.as_ref(),
            counters: &counters,
            histograms: &histograms,
            cache: &self.job.cache,
            dfs: cluster.dfs(),
            cluster,
            num_reducers: self.num_reducers,
            job_name: &self.job.name,
        };
        let park = |runs| park_run_files(spill_dir, task_id, attempt, runs);
        let result = catch_task_panic(|| run_map_task(&item, attempt, &shared, park));
        self.job.inputs[task_id] = item.split;
        Ok((result?, counters.snapshot(), histograms.snapshot()))
    }

    fn run_reduce(
        &mut self,
        cluster: &Cluster,
        (task_id, attempt): (usize, usize),
        refs: &[RunRef],
        spill_dir: &Path,
    ) -> Result<Reply<ReduceTaskOut>> {
        if task_id >= self.num_reducers {
            return Err(MrError::InvalidConfig(format!(
                "reduce task {task_id} out of range: job {} has {} reducers",
                self.job.name, self.num_reducers
            )));
        }
        let counters = Counters::new();
        let histograms = Histograms::new();
        counters.get("mr.process.worker_reduce_tasks").incr();
        let shared = ReduceShared::<M, R> {
            sort_cmp: &self.job.sort_cmp,
            group_eq: &self.job.group_eq,
            counters: &counters,
            histograms: &histograms,
            cache: &self.job.cache,
            dfs: cluster.dfs(),
            cluster,
            num_reducers: self.num_reducers,
            output: &self.job.output,
            job_name: &self.job.name,
            key_label: self.job.key_label.as_ref(),
        };
        let fetch = || fetch_run_files(spill_dir, refs);
        let out = catch_task_panic(|| {
            run_reduce_task(task_id, &self.job.reducer, attempt, &shared, fetch)
        })?;
        Ok((out, counters.snapshot(), histograms.snapshot()))
    }
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// Worker entry point. Call this from your executable — first thing in a
/// CLI `main`, or from a `#[test] fn process_worker_entry()` in a test
/// binary — **after** registering the job factories the driver will name.
///
/// When [`WORKER_ENV`] is unset this returns immediately (so the test
/// passes trivially in a normal run); when set, it speaks the worker
/// protocol on stdin/stdout until shutdown or EOF and then exits the
/// process.
pub fn process_worker_main() {
    if std::env::var_os(WORKER_ENV).is_none() {
        return;
    }
    // Injected user-code panics are routine under fault plans; the driver
    // gets them as classified error frames, so the default hook's
    // stack-trace noise on stderr helps no one.
    std::panic::set_hook(Box::new(|_| {}));
    let code = match worker_serve() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("[mr-worker] fatal: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Shared heartbeat state between the worker's serve loop and its
/// heartbeat thread.
#[derive(Default)]
struct Pulse {
    /// A task is in flight (heartbeats are only meaningful — and only
    /// read — while the driver blocks on a response).
    busy: AtomicBool,
    /// Chaos: suppress heartbeats even while busy (the slow-heartbeat
    /// and hang cells).
    suppress: AtomicBool,
    /// Worker is shutting down; the heartbeat thread exits.
    stop: AtomicBool,
}

/// Write one frame to stdout under a fresh lock and flush it. Stdout is a
/// `LineWriter`: binary frames rarely contain b'\n', so every frame must
/// be flushed explicitly or it sits in the worker's userspace buffer
/// while the driver blocks reading the pipe — a deadlock, not an error.
/// Locking per frame (instead of for the serve loop's lifetime) is what
/// lets the heartbeat thread interleave whole frames safely.
fn send_stdout_frame(payload: &[u8]) -> Result<()> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    write_frame(&mut out, payload)
}

/// Answer one request: the body, or the classified error of a failed (but
/// cleanly handled) task.
fn send_response<T: Codec>(resp: Result<T>) -> Result<()> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    match resp {
        Ok(body) => write_ok_frame(&mut out, &body),
        Err(e) => write_err_frame(&mut out, &e),
    }
}

/// The task is over (the reply was computed before this call): quiet the
/// pulse, then answer.
fn answer<T: Codec>(pulse: &Pulse, reply: Result<T>) -> Result<()> {
    pulse.busy.store(false, Ordering::Relaxed);
    pulse.suppress.store(false, Ordering::Relaxed);
    send_response(reply)
}

/// Stall this worker forever: the driver's supervisor is the only way
/// out. Heartbeats are suppressed so both expiry paths can catch it.
fn hang_forever(pulse: &Pulse) -> ! {
    pulse.suppress.store(true, Ordering::Relaxed);
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

fn worker_serve() -> Result<()> {
    {
        let stdout = io::stdout();
        let mut out = stdout.lock();
        writeln!(out, "{WORKER_BANNER}").map_err(|e| pipe_err("banner", &e))?;
        out.flush().map_err(|e| pipe_err("banner flush", &e))?;
    }
    let stdin = io::stdin();
    let mut inp = stdin.lock();

    let Some(frame) = read_frame(&mut inp)? else {
        return Ok(()); // driver went away before the handshake
    };
    let req = HandshakeReq::from_bytes(&frame)?;
    let (cluster, mut job, spill_dir) = match worker_setup(&req) {
        Ok(state) => {
            send_response(Ok(()))?;
            state
        }
        Err(e) => {
            send_response::<()>(Err(e))?;
            return Ok(());
        }
    };
    let corrupt_once = std::env::var_os(CORRUPT_FRAME_ENV).is_some();
    let hang_once = std::env::var_os(HANG_ENV).is_some();
    let faults = cluster.config().faults.clone();

    // Heartbeat thread: while a task runs, emit a bare heartbeat frame
    // every interval so the driver can tell "slow" from "hung". Never
    // spawned when supervision is off — zero protocol overhead.
    let pulse = Arc::new(Pulse::default());
    let beat = (req.heartbeat_interval_ms > 0).then(|| {
        let pulse = Arc::clone(&pulse);
        let interval = Duration::from_millis(req.heartbeat_interval_ms);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if pulse.stop.load(Ordering::Relaxed) {
                return;
            }
            // A dead driver pipe shows up on the serve loop's next read;
            // the heartbeat thread just stops trying.
            if pulse.busy.load(Ordering::Relaxed)
                && !pulse.suppress.load(Ordering::Relaxed)
                && send_stdout_frame(&[RESP_HEARTBEAT]).is_err()
            {
                return;
            }
        })
    });

    let result = (|| -> Result<()> {
        while let Some(frame) = read_frame(&mut inp)? {
            let Request::Task {
                phase,
                task_id,
                attempt,
                refs,
            } = Request::from_bytes(&frame)?
            else {
                break; // shutdown
            };
            if (phase, task_id, attempt) == (Phase::Map, 0, 0) {
                if corrupt_once {
                    // Chaos cell: a response the driver cannot decode.
                    // Attempt 1 of the same task responds normally.
                    send_stdout_frame(&[0xEE; 8])?;
                    continue;
                }
                if hang_once {
                    hang_forever(&pulse);
                }
            }
            // Decide the chaos treatment for the request *before*
            // dispatching it: the same pure `decide()` the engine uses, so
            // hang/slow-heartbeat cells are reproducible per (job, phase,
            // task, attempt).
            let plan = faults.as_ref();
            match plan.and_then(|p| p.decide(&req.job_name, phase, task_id, attempt)) {
                Some(Fault::Hang) => hang_forever(&pulse),
                Some(Fault::SlowHeartbeat) => pulse.suppress.store(true, Ordering::Relaxed),
                _ => {}
            }
            pulse.busy.store(true, Ordering::Relaxed);
            match phase {
                Phase::Map => answer(&pulse, job.run_map(&cluster, task_id, attempt, &spill_dir))?,
                Phase::Reduce => {
                    let at = (task_id, attempt);
                    answer(&pulse, job.run_reduce(&cluster, at, &refs, &spill_dir))?
                }
            }
        }
        Ok(())
    })();
    pulse.stop.store(true, Ordering::Relaxed);
    if let Some(handle) = beat {
        let _ = handle.join();
    }
    result
}

fn worker_setup(req: &HandshakeReq) -> Result<(Cluster, Box<dyn WorkerJob>, PathBuf)> {
    let factory = registry()
        .read()
        .get(&req.factory)
        .cloned()
        .ok_or_else(|| {
            MrError::InvalidConfig(format!(
                "no job factory {:?} registered in worker executable",
                req.factory
            ))
        })?;
    let config = ClusterConfig {
        nodes: req.nodes,
        spill_buffer_bytes: req.spill_buffer,
        merge_factor: req.merge_factor,
        task_memory: req.task_memory,
        // One request at a time; retries, speculation, and the makespan
        // model stay driver-side.
        execution_threads: Some(1),
        max_task_attempts: 1,
        speculation: false,
        faults: req.faults.clone(),
        durable_commits: req.durable,
        ..ClusterConfig::default()
    };
    let dfs = Dfs::new_disk(req.nodes, req.block_size, &req.dfs_root)?;
    let cluster = Cluster::with_dfs(config, dfs)?;
    let mut job = factory(&req.payload, cluster.dfs())?;
    job.set_num_reducers(req.num_reducers.max(1));
    let spill_dir = PathBuf::from(&req.dfs_root)
        .join("shuffle")
        .join(&req.shuffle_tag);
    std::fs::create_dir_all(&spill_dir)
        .map_err(|e| MrError::Codec(format!("create spill dir {}: {e}", spill_dir.display())))?;
    Ok((cluster, job, spill_dir))
}

// ---------------------------------------------------------------------------
// Driver side: worker pool
// ---------------------------------------------------------------------------

static SHUFFLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// One live worker process with its pipes.
struct Worker {
    /// Shared with supervisor expiry callbacks, which SIGKILL a hung
    /// child from the monitor thread while the owning request blocks on
    /// the pipe (the kill surfaces there as a transport error).
    child: Arc<Mutex<Child>>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Pool slot this worker occupies (quarantine ledger key).
    slot: usize,
}

impl Worker {
    /// Send one request and read its response, invoking `on_heartbeat`
    /// for every heartbeat frame the worker interleaves while busy.
    fn request<T: Codec>(
        &mut self,
        req: &Request,
        on_heartbeat: impl FnMut(),
    ) -> Result<std::result::Result<T, MrError>> {
        write_frame(&mut self.stdin, &req.to_bytes())?;
        read_response(&mut self.stdout, on_heartbeat)
    }

    /// A handle an expiry callback can use to kill the child without
    /// owning the worker.
    fn kill_handle(&self) -> Arc<Mutex<Child>> {
        Arc::clone(&self.child)
    }

    fn kill(self) {
        let mut child = self.child.lock();
        let _ = child.kill();
        let _ = child.wait();
    }

    fn shutdown(mut self) {
        let ok = write_frame(&mut self.stdin, &Request::Shutdown.to_bytes()).is_ok();
        drop(self.stdin); // EOF backstop if the frame was lost
        let mut child = self.child.lock();
        if ok {
            let _ = child.wait();
        } else {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Everything needed to (re)spawn a worker mid-job: the handshake frame
/// is immutable for the job's lifetime.
struct SpawnSpec {
    handshake: Vec<u8>,
}

impl SpawnSpec {
    /// Spawn `current_exe` as a worker on pool slot `slot` and complete
    /// the handshake. Errors are strings, not `MrError`s: before the
    /// first worker is up they mean "fall back in-process", never "fail
    /// the job".
    fn spawn(&self, slot: usize) -> std::result::Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(&exe)
            .env(WORKER_ENV, "1")
            // Libtest filter args, so a test binary runs (only) its
            // `process_worker_entry` test; a worker-aware CLI binary
            // checks the env var first and never parses these.
            .args(["process_worker_entry", "--nocapture", "--test-threads=1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let fail = |child: &mut Child, why: String| {
            let _ = child.kill();
            let _ = child.wait();
            why
        };
        if let Err(e) = write_frame(&mut stdin, &self.handshake) {
            return Err(fail(&mut child, format!("handshake send: {e}")));
        }
        // Scan past the libtest preamble to the worker banner.
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => return Err(fail(&mut child, "worker exited before banner".into())),
                Ok(_) => {
                    // Suffix match: in a libtest worker the banner lands on
                    // the same line as the harness's un-terminated
                    // "test process_worker_entry ... " progress prefix.
                    if line.trim_end().ends_with(WORKER_BANNER) {
                        break;
                    }
                }
                Err(e) => return Err(fail(&mut child, format!("banner read: {e}"))),
            }
        }
        match read_response::<()>(&mut stdout, || {}) {
            Ok(Ok(())) => Ok(Worker {
                child: Arc::new(Mutex::new(child)),
                stdin,
                stdout,
                slot,
            }),
            Ok(Err(e)) => Err(fail(&mut child, format!("worker rejected handshake: {e}"))),
            Err(e) => Err(fail(&mut child, format!("handshake response: {e}"))),
        }
    }
}

/// Per-slot health ledger. A live worker (idle or checked out) holds its
/// slot; a worker loss frees the slot and charges it one loss. Enough
/// losses inside the sliding window quarantine the slot: no replacement
/// is ever spawned on it again this job.
#[derive(Default)]
struct SlotState {
    in_use: bool,
    quarantined: bool,
    losses: Vec<Instant>,
}

/// A checkout/return pool of worker processes. Lost workers are simply
/// not returned; the next checkout spawns a replacement on a healthy
/// slot, with bounded, backed-off retries.
struct WorkerPool {
    spec: SpawnSpec,
    idle: Mutex<Vec<Worker>>,
    slots: Mutex<Vec<SlotState>>,
    spill_dir: PathBuf,
    /// Total processes spawned over the pool's lifetime, replacements
    /// for lost workers included.
    spawned: AtomicU64,
    /// Transport/timeout losses within the window that quarantine a slot.
    quarantine_losses: usize,
}

/// Respawn attempts per checkout before giving up on a slot.
const RESPAWN_ATTEMPTS: u32 = 3;

/// Sliding wall-clock window of a slot's loss ledger.
const QUARANTINE_WINDOW: Duration = Duration::from_secs(60);

impl WorkerPool {
    /// A live worker process, or `None` when every slot is quarantined (or
    /// transiently occupied): the caller then runs this task attempt
    /// in-process against the same on-disk DFS and the same run files,
    /// producing byte-identical output.
    fn checkout(&self, counters: &Counters) -> Result<Option<Worker>> {
        if let Some(w) = self.idle.lock().pop() {
            return Ok(Some(w));
        }
        let slot = {
            let mut slots = self.slots.lock();
            let Some(i) = slots.iter().position(|s| !s.in_use && !s.quarantined) else {
                return Ok(None);
            };
            slots[i].in_use = true;
            i
        };
        let mut delay = Duration::from_millis(50);
        let mut last_err = String::new();
        for attempt in 0..RESPAWN_ATTEMPTS {
            if attempt > 0 {
                counters.get("mr.process.respawn_retries").incr();
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(1));
            }
            match self.spec.spawn(slot) {
                Ok(w) => {
                    self.spawned.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(w));
                }
                Err(e) => last_err = e,
            }
        }
        self.slots.lock()[slot].in_use = false;
        Err(MrError::TaskFailed(format!(
            "worker respawn failed after {RESPAWN_ATTEMPTS} attempts: {last_err}"
        )))
    }

    fn put_back(&self, w: Worker) {
        self.idle.lock().push(w);
    }

    /// A worker died (transport error or supervised kill): free its slot
    /// and charge one loss against it. Crossing the threshold inside the
    /// window quarantines the slot.
    fn record_loss(&self, slot: usize, counters: &Counters, trace: Option<&TraceSink>, job: &str) {
        let mut slots = self.slots.lock();
        let s = &mut slots[slot];
        s.in_use = false;
        let now = Instant::now();
        s.losses
            .retain(|t| now.duration_since(*t) <= QUARANTINE_WINDOW);
        s.losses.push(now);
        if !s.quarantined && s.losses.len() >= self.quarantine_losses {
            s.quarantined = true;
            counters.get("mr.supervise.quarantined").incr();
            if let Some(sink) = trace {
                let mut ev = TraceEvent::new(EventKind::Quarantine, job);
                ev.detail = Some(format!(
                    "worker slot {slot} quarantined after {} losses",
                    s.losses.len()
                ));
                sink.emit(ev);
            }
        }
    }
}

fn sanitize_tag(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(48)
        .collect()
}

// ---------------------------------------------------------------------------
// Driver side: the process backend's shuffle transport
// ---------------------------------------------------------------------------

/// The process backend's [`Transport`]: runs are parked as checksummed run
/// files addressed by [`RunRef`], and attempts run as worker conversations
/// for as long as a healthy worker slot exists.
pub(crate) struct ProcessTransport<'a> {
    pool: WorkerPool,
    /// Wall-clock supervision: one monitor thread for the whole job, one
    /// watch per in-flight request. Expiry SIGKILLs the child; the owning
    /// request's blocked read then errors into the transport-failure
    /// branch of [`ProcessTransport::converse`].
    watchdog: Option<Watchdog>,
    counters: &'a Counters,
    histograms: &'a Histograms,
    trace: Option<&'a TraceSink>,
    job_name: &'a str,
    nodes: usize,
}

/// Build the handshake from the job parameters and bring up the first
/// worker. `None` means this job does not run out-of-process: it has no
/// [`crate::RemoteJobSpec`], its DFS is not on disk, or the pool cannot
/// come up at all (unregistered factory, unspawnable executable — counted
/// under `mr.process.handshake_failures`). The caller runs it in-process.
pub(crate) fn spawn_pool<'a, M, R>(params: &ExecParams<'a, M, R>) -> Option<ProcessTransport<'a>>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    let shared = params.map_shared;
    let (spec, root) = (params.remote?, shared.dfs.disk_root()?);
    let config = params.config;
    let tag = format!(
        "{}-{}-{}",
        sanitize_tag(shared.job_name),
        std::process::id(),
        SHUFFLE_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let handshake = HandshakeReq {
        job_name: shared.job_name.to_string(),
        factory: spec.factory.clone(),
        payload: spec.payload.clone(),
        nodes: config.nodes,
        block_size: shared.dfs.block_size(),
        dfs_root: root.display().to_string(),
        num_reducers: params.num_reducers,
        spill_buffer: config.spill_buffer_bytes,
        merge_factor: config.merge_factor,
        task_memory: config.task_memory,
        shuffle_tag: tag.clone(),
        faults: config.faults.clone(),
        // Workers only emit heartbeats when the driver supervises; an
        // unsupervised job keeps the exact pre-supervision protocol.
        heartbeat_interval_ms: if config.task_timeout_secs.is_some() {
            ((config.heartbeat_interval_secs * 1000.0).round() as u64).max(1)
        } else {
            0
        },
        durable: config.durable_commits,
    };
    let mut slots: Vec<SlotState> = (0..params.threads.clamp(1, 8))
        .map(|_| SlotState::default())
        .collect();
    slots[0].in_use = true; // the eager first worker below
    let pool = WorkerPool {
        spec: SpawnSpec {
            handshake: handshake.to_bytes(),
        },
        idle: Mutex::new(Vec::new()),
        slots: Mutex::new(slots),
        spill_dir: root.join("shuffle").join(tag),
        spawned: AtomicU64::new(1),
        quarantine_losses: config.worker_quarantine_losses.max(1),
    };
    // Bring up (and handshake) the first worker eagerly: this validates
    // the factory exists in the worker executable before any task runs.
    // The owning driver stays alive, so the scavenger would never sweep
    // a spill directory left behind here: remove it on the way out.
    let first = std::fs::create_dir_all(&pool.spill_dir)
        .map_err(|e| format!("create shuffle dir: {e}"))
        .and_then(|()| pool.spec.spawn(0));
    match first {
        Ok(first) => pool.idle.lock().push(first),
        Err(why) => {
            let _ = std::fs::remove_dir_all(&pool.spill_dir);
            shared.counters.get("mr.process.handshake_failures").incr();
            eprintln!("[mr] process backend falling back in-process: {why}");
            return None;
        }
    }
    shared.counters.get("mr.process.remote_jobs").incr();
    let trace = shared.cluster.trace();
    Some(ProcessTransport {
        pool,
        watchdog: Watchdog::new(config, shared.counters, trace, shared.job_name),
        counters: shared.counters,
        histograms: shared.histograms,
        trace,
        job_name: shared.job_name,
        nodes: config.nodes,
    })
}

impl ProcessTransport<'_> {
    /// Worker slots, i.e. how many conversations can be in flight.
    pub(crate) fn size(&self) -> usize {
        self.pool.slots.lock().len()
    }

    /// The job is over: stop the idle workers and delete the spill runs.
    pub(crate) fn shutdown(self) {
        for w in self.pool.idle.lock().drain(..) {
            w.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.pool.spill_dir);
        self.counters
            .get("mr.process.workers_spawned")
            .add(self.pool.spawned.load(Ordering::Relaxed));
    }

    /// One task attempt as a worker conversation: checkout → watch →
    /// request → classify. `Ok(None)` means no healthy worker slot is left
    /// and the attempt runs in-process. A task-level error from a healthy
    /// worker keeps its class (and the worker); a transport failure — the
    /// process is gone or garbling, including a supervised timeout kill —
    /// becomes a lost node, so the retry runs on a fresh worker.
    fn converse<T: Codec>(
        &self,
        (phase, task_id, attempt): (Phase, usize, usize),
        refs: Vec<RunRef>,
    ) -> Result<Option<T>> {
        let Some(mut w) = self.pool.checkout(self.counters)? else {
            self.counters.get("mr.supervise.fallback_tasks").incr();
            return Ok(None);
        };
        // The watch must stay alive exactly as long as the conversation.
        let watch = self.watchdog.as_ref().map(|dog| {
            let child = w.kill_handle();
            dog.watch((phase, task_id, attempt), true, move || {
                let _ = child.lock().kill();
            })
        });
        let activity = watch.as_ref().map(|g| g.activity());
        let req = Request::Task {
            phase,
            task_id,
            attempt,
            refs,
        };
        let resp = w.request::<Reply<T>>(&req, || {
            if let Some(activity) = &activity {
                activity.touch();
            }
        });
        drop(watch);
        match resp {
            Ok(Ok((out, counters, histograms))) => {
                self.pool.put_back(w);
                for (name, v) in counters.iter().filter(|(_, v)| *v > 0) {
                    self.counters.get(name).add(*v);
                }
                for (name, snapshot) in histograms {
                    self.histograms.get(&name).absorb(&snapshot);
                }
                Ok(Some(out))
            }
            Ok(Err(e)) => {
                self.pool.put_back(w);
                Err(e)
            }
            Err(_) => {
                let slot = w.slot;
                w.kill();
                self.pool
                    .record_loss(slot, self.counters, self.trace, self.job_name);
                self.counters.get("mr.process.worker_lost").incr();
                Err(MrError::NodeLost {
                    node: task_id % self.nodes,
                    task: format!("{}/{}-{task_id}", self.job_name, phase.as_str()),
                })
            }
        }
    }
}

impl Transport for ProcessTransport<'_> {
    type Parked = RunRef;

    fn park(&self, task: usize, attempt: usize, runs: Vec<Vec<Run>>) -> Result<Vec<Vec<RunRef>>> {
        park_run_files(&self.pool.spill_dir, task, attempt, runs)
    }

    fn fetch(&self, parked: &[RunRef]) -> Result<Vec<Run>> {
        fetch_run_files(&self.pool.spill_dir, parked)
    }

    fn remote_map(&self, task_id: usize, attempt: usize) -> Result<Option<MapTaskOut<RunRef>>> {
        self.converse((Phase::Map, task_id, attempt), Vec::new())
    }

    fn remote_reduce(
        &self,
        task_id: usize,
        attempt: usize,
        parked: &[RunRef],
    ) -> Result<Option<ReduceTaskOut>> {
        self.converse((Phase::Reduce, task_id, attempt), parked.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MapStats;
    use crate::trace::TopK;

    fn roundtrip_err(e: MrError) {
        let bytes = e.to_bytes();
        let back = MrError::from_bytes(&bytes).unwrap();
        assert_eq!(format!("{e}"), format!("{back}"));
        assert_eq!(e.class(), back.class());
    }

    #[test]
    fn every_error_variant_round_trips_with_its_class() {
        roundtrip_err(MrError::FileNotFound("/x".into()));
        roundtrip_err(MrError::FileExists("/x".into()));
        roundtrip_err(MrError::Codec("bad".into()));
        roundtrip_err(MrError::OutOfMemory {
            task: "t".into(),
            requested: 10,
            budget: 5,
            transient: true,
        });
        roundtrip_err(MrError::TaskFailed("f".into()));
        roundtrip_err(MrError::TaskPanicked("p".into()));
        roundtrip_err(MrError::NodeLost {
            node: 3,
            task: "j/map-1".into(),
        });
        roundtrip_err(MrError::InvalidConfig("c".into()));
        roundtrip_err(MrError::ChecksumMismatch {
            path: "/p".into(),
            expected: 1,
            found: 2,
        });
        roundtrip_err(MrError::DriverCrash("d".into()));
    }

    #[test]
    fn frames_round_trip_and_reject_damage() {
        let payload = b"hello frames".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn truncated_and_inflated_frames_are_transport_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        // Truncate the body.
        let mut r = &wire[..wire.len() - 2];
        assert!(read_frame(&mut r).is_err());
        // Length prefix beyond the cap.
        let mut big = Vec::new();
        write_varint(MAX_FRAME + 1, &mut big);
        let mut r = &big[..];
        assert!(read_frame(&mut r).is_err());
        // Overlong varint length prefix.
        let overlong = [0x80u8; 11];
        let mut r = &overlong[..];
        assert!(read_frame(&mut r).is_err());
        // Mid-length EOF.
        let partial = [0x80u8];
        let mut r = &partial[..];
        assert!(read_frame(&mut r).is_err());
    }

    fn sample_map_reply() -> Reply<MapTaskOut<RunRef>> {
        let stats = MapStats {
            task_id: 3,
            duration: 1.5,
            base_duration: 1.0,
            node_hint: Some(2),
            node: 2,
            input_bytes: 100,
            input_records: 10,
            output_records: 20,
            spills: 1,
            combine_in: 0,
            combine_out: 0,
            shuffle_bytes: 321,
            shuffle_records: 20,
        };
        let runs = vec![
            vec![RunRef {
                file: "map-00003-a0-p000-s000.run".into(),
                records: 20,
                len: 321,
            }],
            vec![],
        ];
        let mut hist = HistogramSnapshot::default();
        hist.merge(&HistogramSnapshot {
            count: 2,
            sum: 3.0,
            min: 1.0,
            max: 2.0,
            zeros: 0,
            buckets: vec![(0, 1), (16, 1)],
        });
        (
            MapTaskOut { stats, runs },
            vec![("mr.x".into(), 3)],
            vec![("h".into(), hist)],
        )
    }

    fn sample_reduce_reply() -> Reply<ReduceTaskOut> {
        let mut key_counts = TopK::new(4);
        key_counts.add("a", 5);
        key_counts.add("b", 9);
        let out = ReduceTaskOut {
            task_id: 1,
            node: 2,
            duration: 0.5,
            base_duration: 0.25,
            input_bytes: 321,
            groups: 7,
            input_records: 20,
            output_records: 7,
            merge_passes: 1,
            group_records: sample_map_reply().2.remove(0).1,
            key_counts: Some(key_counts),
        };
        (out, vec![("mr.y".into(), 1)], vec![])
    }

    /// Decode every truncation and single-byte mutation of an ok-response
    /// frame the way the driver does; none may panic.
    fn mutate_frame<T: Codec>(body: &T) {
        let mut buf = vec![RESP_OK];
        body.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let _ = r.take_u8().and_then(|_| T::decode(&mut r));
        }
        for i in 0..buf.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut m = buf.clone();
                m[i] ^= flip;
                let mut r = ByteReader::new(&m);
                let _ = r.take_u8().and_then(|_| T::decode(&mut r));
            }
        }
    }

    #[test]
    fn mutated_response_frames_never_panic() {
        mutate_frame(&sample_map_reply());
        mutate_frame(&sample_reduce_reply());
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mr-runfile-{tag}-{}-{}",
            std::process::id(),
            SHUFFLE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spill_run_files_round_trip_and_fail_closed_on_corruption() {
        let dir = scratch_dir("roundtrip");
        let run = Run::encode(&[("a".to_string(), 1u64), ("b".to_string(), 2u64)]);
        let rref = write_run_file(&dir, "t.run", &run).unwrap();
        assert_eq!(rref.records, run.records as u64);
        assert_eq!(rref.len, run.data.len() as u64);
        let back = read_run_file(&dir, &rref).unwrap();
        assert_eq!(back.data, run.data);
        assert_eq!(back.records, run.records);

        // Flip a payload byte: checksum mismatch, never silent data.
        let path = dir.join("t.run");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match read_run_file(&dir, &rref) {
            Err(MrError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }

        // Damage the magic: structural decode error.
        bytes[last] ^= 0x40;
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_run_file(&dir, &rref) {
            Err(MrError::Codec(msg)) => assert!(msg.contains("bad magic"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }

        // Missing file: FileNotFound.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            read_run_file(&dir, &rref),
            Err(MrError::FileNotFound(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_run_detects_a_bit_flip_at_either_end_and_in_the_middle() {
        let dir = scratch_dir("flip");
        let pairs: Vec<(String, u64)> = (0..40u64).map(|i| (format!("k{i:03}"), i)).collect();
        let run = Run::encode(&pairs);
        let rref = write_run_file(&dir, "t.run", &run).unwrap();
        let mut stored = Crc32::new();
        stored.update(&run.data);
        let stored = stored.finish();
        let path = dir.join("t.run");
        let clean = std::fs::read(&path).unwrap();
        let (len, payload) = (run.data.len(), clean.len() - run.data.len());
        // First payload byte, a middle one, and each of the last eight.
        for at in [0, len / 2].into_iter().chain(len - 8..len) {
            let mut bytes = clean.clone();
            bytes[payload + at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            match read_run_file(&dir, &rref) {
                Err(MrError::ChecksumMismatch {
                    expected, found, ..
                }) => {
                    assert_eq!(expected, stored, "byte {at}");
                    assert_ne!(found, expected);
                }
                other => panic!("byte {at}: expected checksum mismatch, got {other:?}"),
            }
        }
        std::fs::write(&path, &clean).unwrap();
        assert_eq!(read_run_file(&dir, &rref).unwrap().data, run.data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_run_written_before_the_crc_tables_still_reads() {
        // `tests/fixtures/pr12/spill.run`: written by `write_run_file` at
        // the commit before the table-driven CRC. A driver upgraded in the
        // middle of a job must still accept the runs its workers parked.
        let dir = scratch_dir("compat");
        std::fs::write(
            dir.join("spill.run"),
            include_bytes!("../tests/fixtures/pr12/spill.run"),
        )
        .unwrap();
        let pairs: Vec<(String, u64)> = (0..40u64)
            .map(|i| (format!("token-{i:03}"), i * i))
            .collect();
        let want = Run::encode(&pairs);
        let rref = RunRef {
            file: "spill.run".to_string(),
            records: 40,
            len: want.data.len() as u64,
        };
        let back = read_run_file(&dir, &rref).unwrap();
        assert_eq!(back.data, want.data);
        assert_eq!(back.records, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handshake_and_fault_plan_round_trip_field_wise() {
        let plan = FaultPlan {
            seed: 42,
            p_transient: 0.1,
            p_panic: 0.2,
            p_oom: 0.3,
            p_late: 0.4,
            p_hang: 0.05,
            p_slow_heartbeat: 0.02,
            p_straggler: 0.5,
            straggler_factor: 4.0,
            dead_node: Some(1),
            crash_after: None,
            crash_mid: Some(7),
            corrupt_path: Some("/out/part-00000".into()),
            enospc_after_bytes: Some(4096),
            enospc_heals: true,
            p_disk_eio: 0.25,
            p_torn_write: 0.125,
        };
        let req = HandshakeReq {
            job_name: "stage1".into(),
            factory: "probe".into(),
            payload: vec![1, 2, 3],
            nodes: 3,
            block_size: 4096,
            dfs_root: "/tmp/mrdfs".into(),
            num_reducers: 4,
            spill_buffer: 1024,
            merge_factor: 8,
            task_memory: Some(1 << 20),
            shuffle_tag: "stage1-1-0".into(),
            faults: Some(plan.clone()),
            heartbeat_interval_ms: 250,
            durable: false,
        };
        let back = HandshakeReq::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back.job_name, "stage1");
        assert_eq!(back.payload, vec![1, 2, 3]);
        assert_eq!(back.num_reducers, 4);
        assert_eq!(back.heartbeat_interval_ms, 250);
        assert!(!back.durable);
        // The plan crosses as itself, every attempt-level and driver-crash
        // key intact; the storage keys stay driver-side, so the worker sees
        // the quiet defaults and a clean disk.
        let plan_back = back.faults.unwrap();
        assert!(!plan_back.has_storage_faults());
        assert_eq!(
            plan_back,
            FaultPlan {
                enospc_after_bytes: None,
                enospc_heals: false,
                p_disk_eio: 0.0,
                p_torn_write: 0.0,
                ..plan.clone()
            }
        );
        for task in 0..50 {
            assert_eq!(
                plan_back.decide("stage1", Phase::Map, task, 0),
                plan.decide("stage1", Phase::Map, task, 0)
            );
        }
    }

    #[test]
    fn topk_wire_reconstructs_exactly() {
        // The sketch and the task outputs that carry it cross the pipe as
        // themselves.
        let mut t = TopK::new(4);
        t.add("a", 5);
        t.add("b", 9);
        t.add("a", 1);
        let back = TopK::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.capacity(), t.capacity());
        assert_eq!(back.entries(), t.entries());
        assert_eq!(back.top(2), t.top(2));
        // More entries than capacity is not a sketch `add` could have built.
        let mut overfull = Vec::new();
        1usize.encode(&mut overfull);
        vec![("a".to_string(), 1u64), ("b".to_string(), 2)].encode(&mut overfull);
        assert!(TopK::from_bytes(&overfull).is_err());

        let reply = sample_reduce_reply();
        let (out, counters, _) = Reply::<ReduceTaskOut>::from_bytes(&reply.to_bytes()).unwrap();
        assert_eq!(counters, reply.1);
        assert_eq!((out.task_id, out.node), (1, 2));
        assert_eq!((out.duration, out.base_duration), (0.5, 0.25));
        assert_eq!((out.input_bytes, out.groups), (321, 7));
        assert_eq!((out.input_records, out.output_records), (20, 7));
        assert_eq!(out.merge_passes, 1);
        assert_eq!(out.group_records, reply.0.group_records);
        let (keys, want) = (out.key_counts.unwrap(), reply.0.key_counts.unwrap());
        assert_eq!(keys.capacity(), want.capacity());
        assert_eq!(keys.entries(), want.entries());

        let reply = sample_map_reply();
        let (out, _, histograms) =
            Reply::<MapTaskOut<RunRef>>::from_bytes(&reply.to_bytes()).unwrap();
        assert_eq!(histograms, reply.2);
        assert_eq!(out.runs, reply.0.runs);
        let (got, want) = (out.stats, reply.0.stats);
        assert_eq!((got.task_id, got.node_hint, got.node), (3, Some(2), 2));
        assert_eq!(got.duration, want.duration);
        assert_eq!(got.base_duration, want.base_duration);
        assert_eq!(
            (got.input_bytes, got.input_records, got.output_records),
            (100, 10, 20)
        );
        assert_eq!((got.spills, got.combine_in, got.combine_out), (1, 0, 0));
        assert_eq!((got.shuffle_bytes, got.shuffle_records), (321, 20));
    }
}
