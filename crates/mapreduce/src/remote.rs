//! Process-isolated task execution: the driver side of
//! [`BackendKind::Process`](crate::BackendKind::Process) and the worker
//! program it talks to.
//!
//! The driver re-spawns **its own executable** as worker processes (the
//! way Hadoop's TaskTracker forks task JVMs from the same job jar) and
//! frames task assignments over the workers' stdin/stdout pipes using the
//! crate's own varint [`Codec`]. Closures cannot cross a process
//! boundary, so a remote-capable [`Job`](crate::Job) carries a
//! [`RemoteJobSpec`](crate::RemoteJobSpec): the name of a factory
//! registered on both sides (see [`register_job_factory`]) plus an opaque
//! payload from which the factory rebuilds the *entire* job — mapper,
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
//!   |--- MapReq{task, attempt} --------->|
//!   |<-- MapResp{stats, run refs, ...} --|   (spill runs live on disk)
//!   |--- ReduceReq{task, attempt, refs}->|
//!   |<-- ReduceResp{stats, ...} ---------|   (part committed worker-side)
//!   |--- Shutdown ---------------------->|
//! ```
//!
//! Every frame is a varint length prefix (capped at [`MAX_FRAME`]) plus a
//! `Codec`-encoded payload; responses are a tag byte (`0` ok / `1` err)
//! followed by the body or a fully-classified [`MrError`]. Map output
//! stays out of the pipes: workers write each spill run to a checksummed
//! `*.run` file under the DFS root's `shuffle/` directory and return
//! [`RunRef`]s; the reduce request routes those refs back to a worker,
//! which re-reads them under CRC and commits its part through the shared
//! DFS — the existing rename/manifest commit protocol, unchanged.
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
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::backend::{ExecOutcome, ExecParams};
use crate::cluster::ClusterConfig;
use crate::codec::{write_varint, ByteReader, Codec};
use crate::counters::Counters;
use crate::dfs::{Crc32, Dfs};
use crate::engine::{
    panic_message, run_map_task, run_reduce_task, run_tasks, Cluster, MapItem, MapShared,
    MapTaskOut, ReduceItem, ReduceShared, ReduceTaskOut,
};
use crate::error::{MrError, Result};
use crate::faults::{Fault, FaultPlan};
use crate::input::SplitSource;
use crate::job::Job;
use crate::mapper::Mapper;
use crate::reducer::Reducer;
use crate::run::Run;
use crate::supervise::Supervisor;
use crate::task::Phase;
use crate::trace::{EventKind, HistogramSnapshot, Histograms, TopK, TraceEvent, TraceSink};

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

macro_rules! wire_codec {
    ($t:ident { $($f:ident),+ $(,)? }) => {
        impl Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$f.encode(buf);)+
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok($t { $($f: Codec::decode(r)?),+ })
            }
        }
    };
}

/// Pointer to one spill run parked on disk: file name (relative to the
/// job's shuffle directory), record count, and payload length in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RunRef {
    file: String,
    records: u64,
    len: u64,
}
wire_codec!(RunRef { file, records, len });

/// [`FaultPlan`] shipped field-wise — its `Display` form is not
/// re-parseable, and the worker must reach the *exact* same pure
/// `decide()` outcomes as the driver would in-process.
#[derive(Debug, Clone)]
struct FaultWire {
    seed: u64,
    p_transient: f64,
    p_panic: f64,
    p_oom: f64,
    p_late: f64,
    p_straggler: f64,
    p_hang: f64,
    p_slow_heartbeat: f64,
    straggler_factor: f64,
    dead_node: Option<u64>,
    crash_after: Option<u64>,
    crash_mid: Option<u64>,
    corrupt_path: Option<String>,
}
wire_codec!(FaultWire {
    seed,
    p_transient,
    p_panic,
    p_oom,
    p_late,
    p_straggler,
    p_hang,
    p_slow_heartbeat,
    straggler_factor,
    dead_node,
    crash_after,
    crash_mid,
    corrupt_path,
});

impl FaultWire {
    fn from_plan(p: &FaultPlan) -> Self {
        FaultWire {
            seed: p.seed,
            p_transient: p.p_transient,
            p_panic: p.p_panic,
            p_oom: p.p_oom,
            p_late: p.p_late,
            p_straggler: p.p_straggler,
            p_hang: p.p_hang,
            p_slow_heartbeat: p.p_slow_heartbeat,
            straggler_factor: p.straggler_factor,
            dead_node: p.dead_node.map(|n| n as u64),
            crash_after: p.crash_after.map(|n| n as u64),
            crash_mid: p.crash_mid.map(|n| n as u64),
            corrupt_path: p.corrupt_path.clone(),
        }
    }

    fn into_plan(self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            p_transient: self.p_transient,
            p_panic: self.p_panic,
            p_oom: self.p_oom,
            p_late: self.p_late,
            p_straggler: self.p_straggler,
            p_hang: self.p_hang,
            p_slow_heartbeat: self.p_slow_heartbeat,
            straggler_factor: self.straggler_factor,
            dead_node: self.dead_node.map(|n| n as usize),
            crash_after: self.crash_after.map(|n| n as usize),
            crash_mid: self.crash_mid.map(|n| n as usize),
            corrupt_path: self.corrupt_path,
            // Storage faults (enospc/eio/torn) stay driver-side by design:
            // the driver's Dfs handle injects them, so worker processes get
            // the default (quiet) storage keys and a clean disk view.
            ..FaultPlan::default()
        }
    }
}

/// [`HistogramSnapshot`] on the wire.
#[derive(Debug, Clone)]
struct HistWire {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    zeros: u64,
    buckets: Vec<(i32, u64)>,
}
wire_codec!(HistWire {
    count,
    sum,
    min,
    max,
    zeros,
    buckets,
});

impl HistWire {
    fn from_snapshot(s: &HistogramSnapshot) -> Self {
        HistWire {
            count: s.count,
            sum: s.sum,
            min: s.min,
            max: s.max,
            zeros: s.zeros,
            buckets: s.buckets.clone(),
        }
    }

    fn into_snapshot(self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            zeros: self.zeros,
            buckets: self.buckets,
        }
    }
}

/// [`TopK`] on the wire: capacity plus the raw entries, in insertion
/// order. `entries.len() <= capacity` always holds, so rebuilding with
/// `new` + `add` reproduces the original state exactly.
#[derive(Debug, Clone)]
struct TopKWire {
    capacity: u64,
    entries: Vec<(String, u64)>,
}
wire_codec!(TopKWire { capacity, entries });

impl TopKWire {
    fn from_topk(t: &TopK) -> Self {
        TopKWire {
            capacity: t.capacity() as u64,
            entries: t.entries().to_vec(),
        }
    }

    fn into_topk(self) -> TopK {
        let mut t = TopK::new((self.capacity as usize).max(1));
        for (label, n) in &self.entries {
            t.add(label, *n);
        }
        t
    }
}

/// First frame the driver sends: everything a worker needs to rebuild the
/// job and a matching single-threaded cluster over the shared disk DFS.
struct HandshakeReq {
    job_name: String,
    factory: String,
    payload: Vec<u8>,
    nodes: u64,
    block_size: u64,
    dfs_root: String,
    num_reducers: u64,
    spill_buffer: u64,
    merge_factor: u64,
    task_memory: Option<u64>,
    heavy_hitter_top_k: u64,
    heavy_hitter_warn_share: f64,
    shuffle_tag: String,
    faults: Option<FaultWire>,
    /// Milliseconds between worker heartbeat frames while a task runs;
    /// `0` disables the heartbeat thread entirely (supervision off).
    heartbeat_interval_ms: u64,
    /// Mirror of [`crate::ClusterConfig::durable_commits`]: workers must
    /// follow the same write→sync→rename→dir-sync discipline as the driver
    /// or task-level part commits would be weaker than job-level ones.
    durable: bool,
}
wire_codec!(HandshakeReq {
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
    heavy_hitter_top_k,
    heavy_hitter_warn_share,
    shuffle_tag,
    faults,
    heartbeat_interval_ms,
    durable,
});

struct MapReq {
    task_id: u64,
    attempt: u64,
}
wire_codec!(MapReq { task_id, attempt });

struct ReduceReq {
    task_id: u64,
    attempt: u64,
    /// Refs in canonical run presentation order: (map task, spill index).
    refs: Vec<RunRef>,
}
wire_codec!(ReduceReq {
    task_id,
    attempt,
    refs
});

/// A completed map attempt: the [`MapTaskOut`] stats (runs replaced by
/// on-disk refs, outer index = partition) plus the worker's counter and
/// histogram deltas for this request.
struct MapResp {
    duration: f64,
    base_duration: f64,
    node_hint: Option<u64>,
    node: u64,
    input_bytes: u64,
    input_records: u64,
    output_records: u64,
    spills: u64,
    combine_in: u64,
    combine_out: u64,
    refs: Vec<Vec<RunRef>>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, HistWire)>,
}
wire_codec!(MapResp {
    duration,
    base_duration,
    node_hint,
    node,
    input_bytes,
    input_records,
    output_records,
    spills,
    combine_in,
    combine_out,
    refs,
    counters,
    histograms,
});

/// A completed reduce attempt (its part is already committed on the
/// shared DFS) plus the worker's metric deltas.
struct ReduceResp {
    node: u64,
    duration: f64,
    base_duration: f64,
    input_bytes: u64,
    groups: u64,
    input_records: u64,
    output_records: u64,
    merge_passes: u64,
    group_records: HistWire,
    key_counts: Option<TopKWire>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, HistWire)>,
}
wire_codec!(ReduceResp {
    node,
    duration,
    base_duration,
    input_bytes,
    groups,
    input_records,
    output_records,
    merge_passes,
    group_records,
    key_counts,
    counters,
    histograms,
});

enum Request {
    Map(MapReq),
    Reduce(ReduceReq),
    Shutdown,
}

impl Codec for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Map(m) => {
                buf.push(1);
                m.encode(buf);
            }
            Request::Reduce(r) => {
                buf.push(2);
                r.encode(buf);
            }
            Request::Shutdown => buf.push(3),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.take_u8()? {
            1 => Ok(Request::Map(MapReq::decode(r)?)),
            2 => Ok(Request::Reduce(ReduceReq::decode(r)?)),
            3 => Ok(Request::Shutdown),
            t => Err(MrError::Codec(format!("invalid request tag {t}"))),
        }
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
fn read_response_with<T: Codec>(
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

fn read_response<T: Codec>(r: &mut impl Read) -> Result<std::result::Result<T, MrError>> {
    read_response_with(r, || {})
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

// ---------------------------------------------------------------------------
// Job factory registry (worker side)
// ---------------------------------------------------------------------------

/// What the worker loop needs from a rebuilt job, type-erased so the
/// registry can hold factories for jobs of any key/value types.
trait WorkerJob: Send {
    fn set_num_reducers(&mut self, n: usize);
    fn run_map(&mut self, cluster: &Cluster, req: &MapReq, spill_dir: &Path) -> Result<MapResp>;
    fn run_reduce(
        &mut self,
        cluster: &Cluster,
        req: &ReduceReq,
        spill_dir: &Path,
    ) -> Result<ReduceResp>;
}

type FactoryFn = Arc<dyn Fn(&[u8], &Dfs) -> Result<Box<dyn WorkerJob>> + Send + Sync>;

fn registry() -> &'static RwLock<BTreeMap<String, FactoryFn>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<String, FactoryFn>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Register a job factory under `name`, on both the driver and (crucially)
/// in the worker entry point of the executable that will be re-spawned.
///
/// The factory receives the [`RemoteJobSpec`](crate::RemoteJobSpec)
/// payload and the shared disk-backed [`Dfs`], and must rebuild the
/// *same* job the driver is running — including its inputs, typically via
/// [`text_input`](crate::text_input)/[`seq_input`](crate::seq_input) on
/// the given DFS. Split derivation is deterministic (sorted file
/// resolution, blocks in file order), so the worker's task ids match the
/// driver's. Registering the same name again replaces the old factory.
pub fn register_job_factory<M, R, F>(name: &str, build: F)
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue> + Clone,
    F: Fn(&[u8], &Dfs) -> Result<Job<M, R>> + Send + Sync + 'static,
{
    let factory: FactoryFn = Arc::new(move |payload, dfs| {
        let job = build(payload, dfs)?;
        Ok(Box::new(JobWorker {
            num_reducers: job.num_reducers.unwrap_or(1),
            job,
        }) as Box<dyn WorkerJob>)
    });
    registry().write().insert(name.to_string(), factory);
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

impl<M, R> JobWorker<M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue> + Clone,
{
    fn map_shared<'a>(
        &'a self,
        cluster: &'a Cluster,
        counters: &'a Counters,
        histograms: &'a Histograms,
    ) -> MapShared<'a, M> {
        MapShared {
            partitioner: &self.job.partitioner,
            sort_cmp: &self.job.sort_cmp,
            combiner: self.job.combiner.as_ref(),
            counters,
            histograms,
            cache: &self.job.cache,
            dfs: cluster.dfs(),
            cluster,
            num_reducers: self.num_reducers,
            job_name: &self.job.name,
        }
    }
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

    fn run_map(&mut self, cluster: &Cluster, req: &MapReq, spill_dir: &Path) -> Result<MapResp> {
        let task_id = req.task_id as usize;
        let attempt = req.attempt as usize;
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
        let shared = self.map_shared(cluster, &counters, &histograms);
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_map_task(&item, attempt, &shared)));
        // Release the borrows `shared` holds before the split goes back.
        let _ = shared;
        self.job.inputs[task_id] = item.split;
        let mut out = match result {
            Ok(r) => r?,
            Err(payload) => return Err(MrError::TaskPanicked(panic_message(&*payload))),
        };
        // Shuffle transport, process flavour: spill runs travel between
        // worker processes as files in the spill directory. Timing the
        // write loop into the per-request counters rides the existing
        // counter merge back to the driver's job counters.
        let transport_start = Instant::now();
        let mut transport_bytes = 0u64;
        let mut refs: Vec<Vec<RunRef>> = Vec::with_capacity(out.runs.len());
        for (p, runs) in out.runs.drain(..).enumerate() {
            let mut part = Vec::with_capacity(runs.len());
            for (s, run) in runs.iter().enumerate() {
                let name = format!("map-{task_id:05}-a{attempt}-p{p:03}-s{s:03}.run");
                transport_bytes += run.len_bytes() as u64;
                part.push(write_run_file(spill_dir, &name, run)?);
            }
            refs.push(part);
        }
        counters
            .get(crate::profile::BUSY_SHUFFLE_TRANSPORT_US)
            .add(crate::profile::secs_to_us(
                transport_start.elapsed().as_secs_f64(),
            ));
        counters
            .get(crate::profile::BUSY_SHUFFLE_TRANSPORT_BYTES)
            .add(transport_bytes);
        Ok(MapResp {
            duration: out.duration,
            base_duration: out.base_duration,
            node_hint: out.node_hint.map(|n| n as u64),
            node: out.node as u64,
            input_bytes: out.input_bytes,
            input_records: out.input_records,
            output_records: out.output_records,
            spills: out.spills,
            combine_in: out.combine_in,
            combine_out: out.combine_out,
            refs,
            counters: counters.snapshot(),
            histograms: histograms
                .snapshot()
                .iter()
                .map(|(n, s)| (n.clone(), HistWire::from_snapshot(s)))
                .collect(),
        })
    }

    fn run_reduce(
        &mut self,
        cluster: &Cluster,
        req: &ReduceReq,
        spill_dir: &Path,
    ) -> Result<ReduceResp> {
        let task_id = req.task_id as usize;
        let attempt = req.attempt as usize;
        if task_id >= self.num_reducers {
            return Err(MrError::InvalidConfig(format!(
                "reduce task {task_id} out of range: job {} has {} reducers",
                self.job.name, self.num_reducers
            )));
        }
        let counters = Counters::new();
        let histograms = Histograms::new();
        counters.get("mr.process.worker_reduce_tasks").incr();
        // Reduce-side shuffle transport: reading the run files back.
        let transport_start = Instant::now();
        let mut runs = Vec::with_capacity(req.refs.len());
        for rref in &req.refs {
            runs.push(read_run_file(spill_dir, rref)?);
        }
        counters
            .get(crate::profile::BUSY_SHUFFLE_TRANSPORT_US)
            .add(crate::profile::secs_to_us(
                transport_start.elapsed().as_secs_f64(),
            ));
        let item = ReduceItem::<M, R>::new(task_id, runs, self.job.reducer.clone());
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
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_reduce_task(&item, attempt, &shared)
        }));
        let out = match result {
            Ok(r) => r?,
            Err(payload) => return Err(MrError::TaskPanicked(panic_message(&*payload))),
        };
        Ok(ReduceResp {
            node: out.node as u64,
            duration: out.duration,
            base_duration: out.base_duration,
            input_bytes: out.input_bytes,
            groups: out.groups,
            input_records: out.input_records,
            output_records: out.output_records,
            merge_passes: out.merge_passes,
            group_records: HistWire::from_snapshot(&out.group_records),
            key_counts: out.key_counts.as_ref().map(TopKWire::from_topk),
            counters: counters.snapshot(),
            histograms: histograms
                .snapshot()
                .iter()
                .map(|(n, s)| (n.clone(), HistWire::from_snapshot(s)))
                .collect(),
        })
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
struct Pulse {
    /// A task is in flight (heartbeats are only meaningful — and only
    /// read — while the driver blocks on a response).
    busy: std::sync::atomic::AtomicBool,
    /// Chaos: suppress heartbeats even while busy (the slow-heartbeat
    /// and hang cells).
    suppress: std::sync::atomic::AtomicBool,
    /// Worker is shutting down; the heartbeat thread exits.
    stop: std::sync::atomic::AtomicBool,
}

impl Pulse {
    fn new() -> Arc<Self> {
        Arc::new(Pulse {
            busy: std::sync::atomic::AtomicBool::new(false),
            suppress: std::sync::atomic::AtomicBool::new(false),
            stop: std::sync::atomic::AtomicBool::new(false),
        })
    }
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

fn send_ok<T: Codec>(body: &T) -> Result<()> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    write_ok_frame(&mut out, body)
}

fn send_err(e: &MrError) -> Result<()> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    write_err_frame(&mut out, e)
}

/// Stall this worker forever: the driver's supervisor is the only way
/// out. Heartbeats are suppressed so both expiry paths can catch it.
fn hang_forever(pulse: &Pulse) -> ! {
    pulse
        .suppress
        .store(true, std::sync::atomic::Ordering::Relaxed);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
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
            send_ok(&())?;
            state
        }
        Err(e) => {
            send_err(&e)?;
            return Ok(());
        }
    };
    let corrupt_once = std::env::var_os(CORRUPT_FRAME_ENV).is_some();
    let hang_once = std::env::var_os(HANG_ENV).is_some();
    let faults = cluster.config().faults.clone();
    let job_name = req.job_name.clone();

    // Heartbeat thread: while a task runs, emit a bare heartbeat frame
    // every interval so the driver can tell "slow" from "hung". Never
    // spawned when supervision is off — zero protocol overhead.
    let pulse = Pulse::new();
    let beat = if req.heartbeat_interval_ms > 0 {
        let pulse = Arc::clone(&pulse);
        let interval = std::time::Duration::from_millis(req.heartbeat_interval_ms);
        Some(std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if pulse.stop.load(std::sync::atomic::Ordering::Relaxed) {
                return;
            }
            if pulse.busy.load(std::sync::atomic::Ordering::Relaxed)
                && !pulse.suppress.load(std::sync::atomic::Ordering::Relaxed)
            {
                // A dead driver pipe shows up on the serve loop's next
                // read; the heartbeat thread just stops trying.
                if send_stdout_frame(&[RESP_HEARTBEAT]).is_err() {
                    return;
                }
            }
        }))
    } else {
        None
    };
    // Decide the chaos treatment for one request *before* dispatching it:
    // the same pure `decide()` the engine uses, so hang/slow-heartbeat
    // cells are reproducible per (job, phase, task, attempt).
    let chaos = |phase: crate::task::Phase, task: u64, attempt: u64| {
        faults
            .as_ref()
            .and_then(|p| p.decide(&job_name, phase, task as usize, attempt as usize))
    };

    fn serve<T: Codec>(pulse: &Pulse, resp: Result<T>) -> Result<()> {
        pulse
            .busy
            .store(false, std::sync::atomic::Ordering::Relaxed);
        pulse
            .suppress
            .store(false, std::sync::atomic::Ordering::Relaxed);
        match resp {
            Ok(body) => send_ok(&body),
            Err(e) => send_err(&e),
        }
    }

    let result = (|| -> Result<()> {
        while let Some(frame) = read_frame(&mut inp)? {
            match Request::from_bytes(&frame)? {
                Request::Shutdown => break,
                Request::Map(m) => {
                    if corrupt_once && m.task_id == 0 && m.attempt == 0 {
                        // Chaos cell: a response the driver cannot decode.
                        // Attempt 1 of the same task responds normally.
                        send_stdout_frame(&[0xEE; 8])?;
                        continue;
                    }
                    if hang_once && m.task_id == 0 && m.attempt == 0 {
                        hang_forever(&pulse);
                    }
                    match chaos(crate::task::Phase::Map, m.task_id, m.attempt) {
                        Some(Fault::Hang) => hang_forever(&pulse),
                        Some(Fault::SlowHeartbeat) => {
                            pulse
                                .suppress
                                .store(true, std::sync::atomic::Ordering::Relaxed);
                        }
                        _ => {}
                    }
                    pulse.busy.store(true, std::sync::atomic::Ordering::Relaxed);
                    serve(&pulse, job.run_map(&cluster, &m, &spill_dir))?;
                }
                Request::Reduce(r) => {
                    match chaos(crate::task::Phase::Reduce, r.task_id, r.attempt) {
                        Some(Fault::Hang) => hang_forever(&pulse),
                        Some(Fault::SlowHeartbeat) => {
                            pulse
                                .suppress
                                .store(true, std::sync::atomic::Ordering::Relaxed);
                        }
                        _ => {}
                    }
                    pulse.busy.store(true, std::sync::atomic::Ordering::Relaxed);
                    serve(&pulse, job.run_reduce(&cluster, &r, &spill_dir))?;
                }
            }
        }
        Ok(())
    })();
    pulse.stop.store(true, std::sync::atomic::Ordering::Relaxed);
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
        nodes: req.nodes as usize,
        spill_buffer_bytes: req.spill_buffer as usize,
        merge_factor: req.merge_factor as usize,
        task_memory: req.task_memory,
        heavy_hitter_top_k: req.heavy_hitter_top_k as usize,
        heavy_hitter_warn_share: req.heavy_hitter_warn_share,
        // One request at a time; retries, speculation, and the makespan
        // model stay driver-side.
        execution_threads: Some(1),
        max_task_attempts: 1,
        speculation: false,
        faults: req.faults.clone().map(FaultWire::into_plan),
        durable_commits: req.durable,
        ..ClusterConfig::default()
    };
    let dfs = Dfs::new_disk(req.nodes as usize, req.block_size as usize, &req.dfs_root)?;
    let cluster = Cluster::with_dfs(config, dfs)?;
    let mut job = factory(&req.payload, cluster.dfs())?;
    job.set_num_reducers((req.num_reducers as usize).max(1));
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
    fn request<T: Codec>(&mut self, req: &Request) -> Result<std::result::Result<T, MrError>> {
        self.request_with(req, || {})
    }

    /// Send one request and read its response, invoking `on_heartbeat`
    /// for every heartbeat frame the worker interleaves while busy.
    fn request_with<T: Codec>(
        &mut self,
        req: &Request,
        on_heartbeat: impl FnMut(),
    ) -> Result<std::result::Result<T, MrError>> {
        write_frame(&mut self.stdin, &req.to_bytes())?;
        read_response_with(&mut self.stdout, on_heartbeat)
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
        match read_response::<()>(&mut stdout) {
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
    losses: Vec<std::time::Instant>,
}

/// What [`WorkerPool::checkout`] hands out.
enum CheckedOut {
    /// A live worker process.
    Worker(Worker),
    /// Every slot is quarantined (or otherwise unavailable): the caller
    /// runs this task attempt in-process against the same on-disk DFS,
    /// producing byte-identical output.
    Fallback,
}

/// A checkout/return pool of worker processes. Lost workers are simply
/// not returned; the next checkout spawns a replacement on a healthy
/// slot, with bounded, backed-off retries.
pub(crate) struct WorkerPool {
    spec: SpawnSpec,
    idle: Mutex<Vec<Worker>>,
    slots: Mutex<Vec<SlotState>>,
    size: usize,
    spill_dir: PathBuf,
    /// Total processes spawned over the pool's lifetime, replacements
    /// for lost workers included.
    spawned: AtomicU64,
    /// Transport/timeout losses within the window that quarantine a slot.
    quarantine_losses: usize,
    /// Sliding window for the loss ledger.
    quarantine_window: std::time::Duration,
}

/// Respawn attempts per checkout before giving up on a slot.
const RESPAWN_ATTEMPTS: u32 = 3;

impl WorkerPool {
    fn checkout(&self, counters: &Counters) -> Result<CheckedOut> {
        if let Some(w) = self.idle.lock().pop() {
            return Ok(CheckedOut::Worker(w));
        }
        // Claim a free, healthy slot for the replacement. None free —
        // every slot quarantined, or all transiently occupied — means
        // this attempt runs in-process instead of failing the job.
        let slot = {
            let mut slots = self.slots.lock();
            match slots.iter().position(|s| !s.in_use && !s.quarantined) {
                Some(i) => {
                    slots[i].in_use = true;
                    i
                }
                None => return Ok(CheckedOut::Fallback),
            }
        };
        let mut delay = std::time::Duration::from_millis(50);
        let mut last_err = String::new();
        for attempt in 0..RESPAWN_ATTEMPTS {
            if attempt > 0 {
                counters.get("mr.process.respawn_retries").incr();
                std::thread::sleep(delay);
                delay = (delay * 2).min(std::time::Duration::from_secs(1));
            }
            match self.spec.spawn(slot) {
                Ok(w) => {
                    self.spawned.fetch_add(1, Ordering::Relaxed);
                    return Ok(CheckedOut::Worker(w));
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
        let now = std::time::Instant::now();
        s.losses
            .retain(|t| now.duration_since(*t) <= self.quarantine_window);
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

    fn shutdown(&self) {
        for w in self.idle.lock().drain(..) {
            w.shutdown();
        }
    }
}

fn sanitize_tag(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(48)
        .collect()
}

/// Build the handshake from the job parameters and bring up the first
/// worker. A `Err` here means the pool cannot come up at all (unregistered
/// factory, unspawnable executable): the caller falls back in-process.
pub(crate) fn spawn_pool<M, R>(
    params: &ExecParams<'_, M, R>,
) -> std::result::Result<WorkerPool, String>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    let spec = params.remote.expect("caller checked remote");
    let dfs = params.map_shared.dfs;
    let root = dfs.disk_root().expect("caller checked disk root");
    let config = params.config;
    let tag = format!(
        "{}-{}-{}",
        sanitize_tag(params.map_shared.job_name),
        std::process::id(),
        SHUFFLE_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let spill_dir = root.join("shuffle").join(&tag);
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("create shuffle dir: {e}"))?;
    let handshake = HandshakeReq {
        job_name: params.map_shared.job_name.to_string(),
        factory: spec.factory.clone(),
        payload: spec.payload.clone(),
        nodes: config.nodes as u64,
        block_size: dfs.block_size() as u64,
        dfs_root: root.display().to_string(),
        num_reducers: params.num_reducers as u64,
        spill_buffer: config.spill_buffer_bytes as u64,
        merge_factor: config.merge_factor as u64,
        task_memory: config.task_memory,
        heavy_hitter_top_k: config.heavy_hitter_top_k as u64,
        heavy_hitter_warn_share: config.heavy_hitter_warn_share,
        shuffle_tag: tag,
        faults: config.faults.as_ref().map(FaultWire::from_plan),
        // Workers only emit heartbeats when the driver supervises; an
        // unsupervised job keeps the exact pre-supervision protocol.
        heartbeat_interval_ms: if config.task_timeout_secs.is_some() {
            ((config.heartbeat_interval_secs * 1000.0).round() as u64).max(1)
        } else {
            0
        },
        durable: config.durable_commits,
    };
    let size = params.threads.clamp(1, 8);
    let mut slots: Vec<SlotState> = (0..size).map(|_| SlotState::default()).collect();
    slots[0].in_use = true; // the eager first worker below
    let pool = WorkerPool {
        spec: SpawnSpec {
            handshake: handshake.to_bytes(),
        },
        idle: Mutex::new(Vec::new()),
        slots: Mutex::new(slots),
        size,
        spill_dir,
        spawned: AtomicU64::new(1),
        quarantine_losses: config.worker_quarantine_losses.max(1),
        quarantine_window: std::time::Duration::from_secs_f64(config.worker_quarantine_window_secs),
    };
    // Bring up (and handshake) the first worker eagerly: this validates
    // the factory exists in the worker executable before any task runs.
    let first = pool.spec.spawn(0)?;
    pool.idle.lock().push(first);
    Ok(pool)
}

// ---------------------------------------------------------------------------
// Driver side: job execution over the pool
// ---------------------------------------------------------------------------

fn absorb_metrics(
    counters: &Counters,
    histograms: &Histograms,
    c_delta: &[(String, u64)],
    h_delta: Vec<(String, HistWire)>,
) {
    for (name, v) in c_delta {
        if *v > 0 {
            counters.get(name).add(*v);
        }
    }
    for (name, wire) in h_delta {
        histograms.get(&name).absorb(&wire.into_snapshot());
    }
}

/// Run the job's map and reduce phases on the worker pool. Called only
/// after [`spawn_pool`] proved the pool viable; from here on, errors are
/// real job errors with their usual classes.
pub(crate) fn execute_remote<M, R>(
    params: ExecParams<'_, M, R>,
    pool: WorkerPool,
) -> Result<ExecOutcome>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    let ExecParams {
        map_items,
        map_shared,
        reduce_shared,
        reducer,
        policy,
        num_reducers,
        config,
        ..
    } = params;
    let nodes = config.nodes;
    let threads = pool.size;
    let counters = map_shared.counters;
    let histograms = map_shared.histograms;
    let trace = map_shared.cluster.trace();
    let job_name = map_shared.job_name.to_string();
    // `Reducer: Clone + Send` but not `Sync`; the fallback reduce path
    // clones it from inside worker-thread closures, so park it behind a
    // lock.
    let reducer = Mutex::new(reducer);
    counters.get("mr.process.remote_jobs").incr();

    // Per-phase wall attribution: the map window ends when the map
    // `run_tasks` barrier returns, the refs-routing span is the regroup
    // window, and everything after it (reduce tasks, pool shutdown, spill
    // cleanup) lands in the reduce window so the three spans tile the
    // backend's whole execution. `accounted_us` carries the running total
    // across the closure boundary.
    let exec_start = std::time::Instant::now();
    let accounted_us = std::cell::Cell::new(0u64);

    // Wall-clock supervision: one monitor thread for the whole job, one
    // watch per in-flight request. Expiry SIGKILLs the child; the owning
    // request's blocked read then errors into the transport-failure
    // branch below, which classifies it as a transient `NodeLost`.
    let supervision = config.task_timeout_secs.map(|secs| {
        let deadline = std::time::Duration::from_secs_f64(secs);
        let hb_window = std::time::Duration::from_secs_f64(
            config.heartbeat_interval_secs * config.heartbeat_grace,
        );
        let tick = deadline.min(hb_window) / 4;
        (Supervisor::new(tick), deadline, hb_window)
    });
    // Registers a supervision watch for one request; the guard must stay
    // alive exactly as long as the pipe conversation.
    let watch_request = |w: &Worker, phase: Phase, task: usize, attempt: usize| {
        supervision.as_ref().map(|(sup, deadline, hb_window)| {
            let handle = w.kill_handle();
            let counters = counters.clone();
            let trace = trace.cloned();
            let job = job_name.clone();
            sup.watch(Some(*deadline), Some(*hb_window), move |reason| {
                {
                    let mut child = handle.lock();
                    let _ = child.kill();
                }
                counters.get("mr.supervise.task_timeout").incr();
                if let Some(sink) = &trace {
                    let mut ev = TraceEvent::new(EventKind::TaskTimeout, job.as_str()).at_task(
                        phase,
                        task,
                        attempt,
                        task % nodes,
                    );
                    ev.detail = Some(reason.as_str().to_string());
                    sink.emit(ev);
                }
            })
        })
    };

    // Spill-run refs per completed map task, collected out-of-band from
    // the fabricated MapTaskOuts (outer index = partition).
    let refs_table: Mutex<Vec<(usize, Vec<Vec<RunRef>>)>> = Mutex::new(Vec::new());

    let result = (|| {
        let (mut map_outs, map_stats) = run_tasks(map_items, threads, policy, |item, attempt| {
            let mut w = match pool.checkout(counters)? {
                CheckedOut::Worker(w) => w,
                CheckedOut::Fallback => {
                    // No healthy worker slot left: run this map attempt
                    // in-process on the same DFS and park its runs under
                    // the exact names a worker would have used.
                    counters.get("mr.supervise.fallback_tasks").incr();
                    let mut out = run_map_task(item, attempt, map_shared)?;
                    let task_id = item.task_id;
                    let transport_start = std::time::Instant::now();
                    let mut transport_bytes = 0u64;
                    let mut refs: Vec<Vec<RunRef>> = Vec::with_capacity(out.runs.len());
                    for (p, runs) in out.runs.drain(..).enumerate() {
                        let mut part = Vec::with_capacity(runs.len());
                        for (s, run) in runs.iter().enumerate() {
                            let name = format!("map-{task_id:05}-a{attempt}-p{p:03}-s{s:03}.run");
                            transport_bytes += run.len_bytes() as u64;
                            part.push(write_run_file(&pool.spill_dir, &name, run)?);
                        }
                        refs.push(part);
                    }
                    counters.get(crate::profile::BUSY_SHUFFLE_TRANSPORT_US).add(
                        crate::profile::secs_to_us(transport_start.elapsed().as_secs_f64()),
                    );
                    counters
                        .get(crate::profile::BUSY_SHUFFLE_TRANSPORT_BYTES)
                        .add(transport_bytes);
                    refs_table.lock().push((task_id, refs));
                    return Ok(out);
                }
            };
            let req = Request::Map(MapReq {
                task_id: item.task_id as u64,
                attempt: attempt as u64,
            });
            let guard = watch_request(&w, Phase::Map, item.task_id, attempt);
            let resp = match &guard {
                Some(g) => {
                    let activity = g.activity();
                    w.request_with::<MapResp>(&req, || activity.touch())
                }
                None => w.request::<MapResp>(&req),
            };
            drop(guard);
            match resp {
                Ok(Ok(resp)) => {
                    pool.put_back(w);
                    absorb_metrics(counters, histograms, &resp.counters, resp.histograms);
                    refs_table.lock().push((item.task_id, resp.refs));
                    Ok(MapTaskOut {
                        task_id: item.task_id,
                        duration: resp.duration,
                        base_duration: resp.base_duration,
                        node_hint: resp.node_hint.map(|n| n as usize),
                        node: resp.node as usize,
                        input_bytes: resp.input_bytes,
                        input_records: resp.input_records,
                        output_records: resp.output_records,
                        spills: resp.spills,
                        combine_in: resp.combine_in,
                        combine_out: resp.combine_out,
                        runs: Vec::new(), // parked on disk, routed by refs
                    })
                }
                Ok(Err(e)) => {
                    // Task-level failure from a healthy worker: keep it.
                    pool.put_back(w);
                    Err(e)
                }
                Err(_) => {
                    // Transport failure: the worker process is gone or
                    // corrupt (including a supervised timeout kill).
                    // Classify as a lost node so the retry runs on a
                    // fresh worker.
                    let slot = w.slot;
                    w.kill();
                    pool.record_loss(slot, counters, trace, &job_name);
                    counters.get("mr.process.worker_lost").incr();
                    Err(MrError::NodeLost {
                        node: item.task_id % nodes,
                        task: format!("{job_name}/map-{}", item.task_id),
                    })
                }
            }
        })?;
        map_outs.sort_by_key(|o| o.task_id);
        let spills = map_outs.iter().map(|o| o.spills).sum();
        let map_us = crate::profile::secs_to_us(exec_start.elapsed().as_secs_f64());
        counters.get(crate::profile::WALL_MAP_US).add(map_us);
        accounted_us.set(map_us);

        // Route refs: canonical run presentation order is (map task,
        // spill index) within each partition, exactly the order the
        // simulated backend's serial regroup produces.
        let mut table = std::mem::take(&mut *refs_table.lock());
        table.sort_by_key(|(task, _)| *task);
        let mut partition_refs: Vec<Vec<RunRef>> = (0..num_reducers).map(|_| Vec::new()).collect();
        let mut shuffle_bytes = 0u64;
        let mut shuffle_records = 0u64;
        for (_task, per_partition) in table {
            for (p, refs) in per_partition.into_iter().enumerate() {
                for rref in refs {
                    shuffle_bytes += rref.len;
                    shuffle_records += rref.records;
                    partition_refs[p].push(rref);
                }
            }
        }

        let regroup_us = crate::profile::secs_to_us(exec_start.elapsed().as_secs_f64())
            .saturating_sub(accounted_us.get());
        counters
            .get(crate::profile::WALL_REGROUP_US)
            .add(regroup_us);
        counters
            .get(crate::profile::BUSY_REGROUP_US)
            .add(regroup_us);
        accounted_us.set(accounted_us.get() + regroup_us);

        let reduce_items: Vec<(usize, Vec<RunRef>)> =
            partition_refs.into_iter().enumerate().collect();
        let reduce_result = run_tasks(reduce_items, threads, policy, |(p, refs), attempt| {
            let mut w = match pool.checkout(counters)? {
                CheckedOut::Worker(w) => w,
                CheckedOut::Fallback => {
                    // In-process reduce over the same parked spill runs:
                    // identical merge order, identical committed bytes.
                    counters.get("mr.supervise.fallback_tasks").incr();
                    let transport_start = std::time::Instant::now();
                    let mut runs = Vec::with_capacity(refs.len());
                    for rref in refs {
                        runs.push(read_run_file(&pool.spill_dir, rref)?);
                    }
                    counters.get(crate::profile::BUSY_SHUFFLE_TRANSPORT_US).add(
                        crate::profile::secs_to_us(transport_start.elapsed().as_secs_f64()),
                    );
                    let item = ReduceItem::<M, R>::new(*p, runs, reducer.lock().clone());
                    return run_reduce_task(&item, attempt, reduce_shared);
                }
            };
            let req = Request::Reduce(ReduceReq {
                task_id: *p as u64,
                attempt: attempt as u64,
                refs: refs.clone(),
            });
            let guard = watch_request(&w, Phase::Reduce, *p, attempt);
            let resp = match &guard {
                Some(g) => {
                    let activity = g.activity();
                    w.request_with::<ReduceResp>(&req, || activity.touch())
                }
                None => w.request::<ReduceResp>(&req),
            };
            drop(guard);
            match resp {
                Ok(Ok(resp)) => {
                    pool.put_back(w);
                    absorb_metrics(counters, histograms, &resp.counters, resp.histograms);
                    Ok(ReduceTaskOut {
                        task_id: *p,
                        node: resp.node as usize,
                        duration: resp.duration,
                        base_duration: resp.base_duration,
                        input_bytes: resp.input_bytes,
                        groups: resp.groups,
                        input_records: resp.input_records,
                        output_records: resp.output_records,
                        merge_passes: resp.merge_passes,
                        group_records: resp.group_records.into_snapshot(),
                        key_counts: resp.key_counts.map(TopKWire::into_topk),
                    })
                }
                Ok(Err(e)) => {
                    pool.put_back(w);
                    Err(e)
                }
                Err(_) => {
                    let slot = w.slot;
                    w.kill();
                    pool.record_loss(slot, counters, trace, &job_name);
                    counters.get("mr.process.worker_lost").incr();
                    Err(MrError::NodeLost {
                        node: *p % nodes,
                        task: format!("{job_name}/reduce-{p}"),
                    })
                }
            }
        });
        Ok(ExecOutcome {
            map_outs,
            map_stats,
            shuffle_bytes,
            shuffle_records,
            spills,
            reduce_result,
        })
    })();

    pool.shutdown();
    let _ = std::fs::remove_dir_all(&pool.spill_dir);
    counters
        .get("mr.process.workers_spawned")
        .add(pool.spawned.load(Ordering::Relaxed));
    if result.is_ok() {
        // Everything since the regroup window closed — reduce tasks, pool
        // shutdown, spill cleanup — is the reduce wall window.
        let reduce_us = crate::profile::secs_to_us(exec_start.elapsed().as_secs_f64())
            .saturating_sub(accounted_us.get());
        counters.get(crate::profile::WALL_REDUCE_US).add(reduce_us);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn mutated_response_frames_never_panic() {
        let resp = MapResp {
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
            refs: vec![vec![RunRef {
                file: "map-00000-a0-p000-s000.run".into(),
                records: 20,
                len: 321,
            }]],
            counters: vec![("mr.x".into(), 3)],
            histograms: vec![],
        };
        let mut buf = vec![0u8];
        resp.encode(&mut buf);
        // Truncations.
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let _ = r.take_u8().and_then(|_| MapResp::decode(&mut r));
        }
        // Single-byte mutations.
        for i in 0..buf.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut m = buf.clone();
                m[i] ^= flip;
                let mut r = ByteReader::new(&m);
                let _ = r.take_u8().and_then(|_| MapResp::decode(&mut r));
            }
        }
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
            ..FaultPlan::default()
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
            heavy_hitter_top_k: 10,
            heavy_hitter_warn_share: 0.5,
            shuffle_tag: "stage1-1-0".into(),
            faults: Some(FaultWire::from_plan(&plan)),
            heartbeat_interval_ms: 250,
            durable: false,
        };
        let back = HandshakeReq::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back.job_name, "stage1");
        assert_eq!(back.payload, vec![1, 2, 3]);
        assert_eq!(back.num_reducers, 4);
        assert_eq!(back.heartbeat_interval_ms, 250);
        assert!(!back.durable);
        let plan_back = back.faults.unwrap().into_plan();
        assert_eq!(plan_back.seed, plan.seed);
        assert_eq!(plan_back.p_hang, plan.p_hang);
        assert_eq!(plan_back.p_slow_heartbeat, plan.p_slow_heartbeat);
        assert_eq!(plan_back.dead_node, plan.dead_node);
        assert_eq!(plan_back.crash_mid, plan.crash_mid);
        assert_eq!(plan_back.corrupt_path, plan.corrupt_path);
        assert_eq!(plan_back.straggler_factor, plan.straggler_factor);
    }

    #[test]
    fn topk_wire_reconstructs_exactly() {
        let mut t = TopK::new(4);
        t.add("a", 5);
        t.add("b", 9);
        t.add("a", 1);
        let back = TopKWire::from_topk(&t).into_topk();
        assert_eq!(back.capacity(), t.capacity());
        assert_eq!(back.entries(), t.entries());
        assert_eq!(back.top(2), t.top(2));
    }
}
